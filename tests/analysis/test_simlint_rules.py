"""Rule-by-rule simlint unit tests on small source snippets."""

import textwrap

from repro.analysis import linter
from repro.analysis.rules import all_rules, get_rules


def run_rule(rule_name, source):
    source = textwrap.dedent(source)
    return linter.lint_file("snippet.py", get_rules([rule_name]), source=source)


def run_all(source):
    source = textwrap.dedent(source)
    return linter.lint_file("snippet.py", all_rules(), source=source)


def test_registry_has_all_rules():
    names = {rule.name for rule in all_rules()}
    assert names == {
        "wall-clock",
        "unseeded-random",
        "or-default",
        "yield-event",
        "callback-arity",
        "unordered-iter",
        "slots-hot-path",
        "silent-except",
        "mutable-default",
        "schedule-shared-state",
        "direct-tracer-append",
        "direct-heapq",
        "unguarded-obs-call",
    }


# -- wall-clock -----------------------------------------------------------

def test_wall_clock_flags_time_time():
    violations = run_rule("wall-clock", """
        import time

        def cost():
            return time.time()
    """)
    assert len(violations) == 1
    assert violations[0].rule == "wall-clock"
    assert violations[0].line == 5


def test_wall_clock_flags_from_import_and_datetime():
    violations = run_rule("wall-clock", """
        from time import perf_counter
        import datetime

        def f():
            return perf_counter(), datetime.datetime.now()
    """)
    assert len(violations) == 2


def test_wall_clock_allows_sim_now():
    assert run_rule("wall-clock", """
        def f(sim):
            return sim.now + 1.5
    """) == []


# -- unseeded-random ------------------------------------------------------

def test_unseeded_random_flags_global_rng():
    violations = run_rule("unseeded-random", """
        import random

        def jitter():
            return random.random()
    """)
    assert len(violations) == 1
    assert violations[0].rule == "unseeded-random"


def test_unseeded_random_flags_unseeded_constructor():
    violations = run_rule("unseeded-random", """
        import random

        rng = random.Random()
    """)
    assert len(violations) == 1


def test_unseeded_random_allows_seeded_instance():
    assert run_rule("unseeded-random", """
        import random

        rng = random.Random(42)

        def jitter():
            return rng.random()
    """) == []


# -- or-default -----------------------------------------------------------

def test_or_default_flags_constructor_fallback():
    violations = run_rule("or-default", """
        def __init__(self, tracer=None):
            self.tracer = tracer or Tracer()
    """)
    assert len(violations) == 1
    assert "tracer if tracer is not None else Tracer(...)" in violations[0].message


def test_or_default_allows_explicit_none_check():
    assert run_rule("or-default", """
        def __init__(self, tracer=None):
            self.tracer = tracer if tracer is not None else Tracer()
    """) == []


def test_or_default_ignores_lowercase_calls():
    # `x or make()` may be a deliberate truthiness fallback; only
    # Class-looking constructors are the injected-collaborator pattern.
    assert run_rule("or-default", """
        def f(x):
            return x or make()
    """) == []


# -- yield-event ----------------------------------------------------------

def test_yield_event_flags_tuple_yield():
    violations = run_rule("yield-event", """
        def proc(sim):
            yield (sim, 1)
    """)
    assert len(violations) == 1
    assert "Tuple" in violations[0].message


def test_yield_event_flags_bare_yield_mid_body():
    violations = run_rule("yield-event", """
        def proc(sim):
            x = 1
            yield
    """)
    assert len(violations) == 1


def test_yield_event_allows_bare_yield_after_return():
    assert run_rule("yield-event", """
        def callback(uam, ch, msg):
            uam.count += 1
            return
            yield
    """) == []


def test_yield_event_after_return_in_nested_function():
    # Regression: yields inside a nested def must be judged against the
    # nested function's own statement list, not the enclosing one.
    assert run_rule("yield-event", """
        def outer():
            def callback(uam, ch, msg):
                uam.count += 1
                return
                yield
            return callback
    """) == []


def test_yield_event_no_duplicate_reports_in_try_block():
    violations = run_rule("yield-event", """
        def proc(sim):
            try:
                yield 1
            finally:
                pass
    """)
    assert len(violations) == 1


def test_yield_event_exempts_contextmanager():
    assert run_rule("yield-event", """
        from contextlib import contextmanager

        @contextmanager
        def scope():
            yield
    """) == []


def test_yield_event_allows_event_yields():
    assert run_rule("yield-event", """
        def proc(sim, ring):
            yield sim.timeout(1.0)
            desc = yield ring.wait_nonempty()
            yield from other(sim)
    """) == []


# -- callback-arity -------------------------------------------------------

def test_callback_arity_flags_module_function_mismatch():
    violations = run_rule("callback-arity", """
        def fire(a, b):
            return a + b

        def f(sim):
            sim.schedule_callback(1.0, fire, 1, 2, 3)
    """)
    assert len(violations) == 1
    assert "takes 2..2" in violations[0].message


def test_callback_arity_flags_self_method_mismatch():
    violations = run_rule("callback-arity", """
        class NI:
            def deliver(self, cell):
                pass

            def f(self, sim):
                sim.schedule_callback_at(9.0, self.deliver)
    """)
    assert len(violations) == 1


def test_callback_arity_allows_matching_calls():
    assert run_rule("callback-arity", """
        def fire(a, b=0):
            return a + b

        class NI:
            def deliver(self, cell):
                pass

            def f(self, sim):
                sim.schedule_callback(1.0, fire, 1)
                sim.schedule_callback(1.0, fire, 1, 2)
                sim.schedule_callback(2.0, self.deliver, "cell")
                sim.schedule_callback(3.0, lambda: None)
    """) == []


def test_callback_arity_skips_unresolvable_callees():
    assert run_rule("callback-arity", """
        def f(sim, handler):
            sim.schedule_callback(1.0, handler, 1, 2, 3)
    """) == []


# -- unordered-iter -------------------------------------------------------

def test_unordered_iter_flags_set_literal_loop():
    violations = run_rule("unordered-iter", """
        def f(schedule):
            for name in {"a", "b"}:
                schedule(name)
    """)
    assert len(violations) == 1


def test_unordered_iter_flags_set_bound_name():
    violations = run_rule("unordered-iter", """
        def f(schedule):
            pending = set()
            pending.add("x")
            for item in pending:
                schedule(item)
    """)
    assert len(violations) == 1


def test_unordered_iter_allows_sorted_iteration():
    assert run_rule("unordered-iter", """
        def f(schedule):
            pending = set()
            for item in sorted(pending):
                schedule(item)
            total = sum(x for x in pending)
    """) == []


def test_unordered_iter_allows_lists_and_dicts():
    assert run_rule("unordered-iter", """
        def f(schedule, table):
            for item in [1, 2, 3]:
                schedule(item)
            for key in table:
                schedule(key)
    """) == []


# -- slots-hot-path -------------------------------------------------------

def test_slots_hot_path_flags_unslotted_subclass():
    violations = run_rule("slots-hot-path", """
        from repro.sim import Event

        class UpcallEvent(Event):
            pass
    """)
    assert len(violations) == 1
    assert "__slots__" in violations[0].message


def test_slots_hot_path_allows_slotted_subclass():
    assert run_rule("slots-hot-path", """
        from repro.sim.engine import Event

        class UpcallEvent(Event):
            __slots__ = ("channel",)
    """) == []


def test_slots_hot_path_ignores_unregistered_bases():
    assert run_rule("slots-hot-path", """
        class Plain:
            pass

        class Child(Plain):
            pass
    """) == []


# -- silent-except --------------------------------------------------------

def test_silent_except_flags_bare_except():
    violations = run_rule("silent-except", """
        def f(ring):
            try:
                return ring.pop()
            except:
                pass
    """)
    assert len(violations) == 1


def test_silent_except_flags_broad_silent_handler():
    violations = run_rule("silent-except", """
        def f(ring):
            try:
                return ring.pop()
            except Exception:
                pass
    """)
    assert len(violations) == 1


def test_silent_except_allows_narrow_or_counted_handlers():
    assert run_rule("silent-except", """
        def f(ring, stats):
            try:
                return ring.pop()
            except IndexError:
                pass
            except Exception:
                stats.dropped += 1
                raise
    """) == []


# -- mutable-default ------------------------------------------------------

def test_mutable_default_flags_literal_containers():
    violations = run_rule("mutable-default", """
        def record(sample, buf=[]):
            buf.append(sample)
            return buf

        def index(key, table={}):
            return table.setdefault(key, 0)
    """)
    assert len(violations) == 2
    assert all(v.rule == "mutable-default" for v in violations)
    assert "shared by every call" in violations[0].message


def test_mutable_default_flags_constructor_and_kwonly():
    violations = run_rule("mutable-default", """
        from collections import deque

        def pump(sim, *, backlog=deque(), seen=set()):
            return backlog, seen
    """)
    assert len(violations) == 2


def test_mutable_default_flags_lambda():
    violations = run_rule("mutable-default", """
        f = lambda x, acc=[]: acc + [x]
    """)
    assert len(violations) == 1
    assert "<lambda>" in violations[0].message


def test_mutable_default_allows_none_and_immutables():
    assert run_rule("mutable-default", """
        def f(a, b=None, c=0, d=1.5, e="x", g=(), h=frozenset()):
            buf = [] if b is None else b
            return buf
    """) == []


# -- schedule-shared-state ------------------------------------------------

def test_schedule_shared_state_flags_module_global_mutation():
    violations = run_rule("schedule-shared-state", """
        PENDING = []

        def fire(item):
            PENDING.append(item)

        def kick(sim, item):
            sim.schedule_callback(0.0, fire, item)
    """)
    assert len(violations) == 1
    assert "module-level 'PENDING'" in violations[0].message


def test_schedule_shared_state_flags_closure_mutation():
    violations = run_rule("schedule-shared-state", """
        def build(sim):
            inbox = []

            def deliver(msg):
                inbox.append(msg)

            sim.schedule_callback(0, deliver, "hello")
            return inbox
    """)
    assert len(violations) == 1
    assert "closure-shared 'inbox'" in violations[0].message


def test_schedule_shared_state_flags_schedule_at_now():
    violations = run_rule("schedule-shared-state", """
        TABLE = {}

        class NI:
            def poke(self, key):
                TABLE[key] = 1

            def kick(self, key):
                self.sim.schedule_callback_at(self.sim.now, self.poke, key)
    """)
    assert len(violations) == 1


def test_schedule_shared_state_flags_lambda_mutation():
    violations = run_rule("schedule-shared-state", """
        def build(sim):
            seen = set()
            sim.schedule_callback(0, lambda: seen.add(1))
    """)
    assert len(violations) == 1


def test_schedule_shared_state_allows_time_separated_callbacks():
    assert run_rule("schedule-shared-state", """
        PENDING = []

        def fire(item):
            PENDING.append(item)

        def kick(sim, item):
            sim.schedule_callback(1.0, fire, item)
            sim.schedule_callback(sim.cell_time, fire, item)
    """) == []


def test_schedule_shared_state_allows_self_state_mutation():
    # instance state belongs to the scheduling object; the rule targets
    # module/closure sharing, the sanitizer hooks cover object state
    assert run_rule("schedule-shared-state", """
        class NI:
            def poke(self, key):
                self.table[key] = 1
                self.count += 1

            def kick(self, key):
                self.sim.schedule_callback(0.0, self.poke, key)
    """) == []


def test_schedule_shared_state_allows_pure_callbacks():
    assert run_rule("schedule-shared-state", """
        def build(sim):
            inbox = []

            def report(msg):
                return len(inbox) + len(msg)

            sim.schedule_callback(0, report, "hello")
    """) == []


# -- disable comments -----------------------------------------------------

def test_line_disable_comment_suppresses_one_rule():
    assert run_rule("wall-clock", """
        import time

        def f():
            return time.time()  # simlint: disable=wall-clock
    """) == []


def test_line_disable_all_rules():
    assert run_all("""
        import time

        def f():
            return time.time()  # simlint: disable
    """) == []


def test_file_disable_comment():
    assert run_rule("wall-clock", """
        # simlint: disable-file=wall-clock
        import time

        def f():
            return time.time()
    """) == []


def test_disable_comment_tolerates_trailing_prose():
    assert run_rule("wall-clock", """
        # simlint: disable-file=wall-clock -- harness measures real time
        import time

        def f():
            return time.time()
    """) == []


def test_disable_comment_is_rule_specific():
    violations = run_rule("wall-clock", """
        import time

        def f():
            return time.time()  # simlint: disable=unordered-iter
    """)
    assert len(violations) == 1


# -- report format --------------------------------------------------------

def test_violation_format_and_dict():
    violations = run_rule("wall-clock", """
        import time

        def f():
            return time.time()
    """)
    (violation,) = violations
    assert violation.format() == (
        f"snippet.py:{violation.line}:{violation.col}: wall-clock: "
        f"{violation.message}"
    )
    as_dict = violation.to_dict()
    assert as_dict["rule"] == "wall-clock"
    assert as_dict["path"] == "snippet.py"


# -- direct-tracer-append -------------------------------------------------

def test_direct_tracer_append_flags_records_append():
    violations = run_rule("direct-tracer-append", """
        def emit(tracer, record):
            tracer.records.append(record)
    """)
    assert len(violations) == 1
    assert violations[0].rule == "direct-tracer-append"
    assert "Tracer.log" in violations[0].message


def test_direct_tracer_append_flags_nested_attribute_chain():
    violations = run_rule("direct-tracer-append", """
        def emit(host, record):
            host.tracer.records.append(record)
    """)
    assert len(violations) == 1


def test_direct_tracer_append_allows_tracer_log_and_other_appends():
    assert run_rule("direct-tracer-append", """
        def emit(tracer, items, record):
            tracer.log("send", when=1.0)
            items.append(record)
    """) == []


def test_direct_tracer_append_flags_print_in_data_path_module():
    source = textwrap.dedent("""
        def firmware_step(cell):
            print("got cell", cell)
    """)
    violations = linter.lint_file(
        "repro/core/ni/snippet.py",
        get_rules(["direct-tracer-append"]),
        source=source,
    )
    assert len(violations) == 1
    assert "print" in violations[0].message


def test_direct_tracer_append_allows_print_outside_data_path():
    for path in ("snippet.py", "repro/bench/snippet.py",
                 "repro/analysis/snippet.py", "repro/obs/snippet.py"):
        source = textwrap.dedent("""
            def report(stats):
                print(stats)
        """)
        assert linter.lint_file(
            path, get_rules(["direct-tracer-append"]), source=source
        ) == []


def test_direct_tracer_append_disable_comment():
    assert run_rule("direct-tracer-append", """
        def emit(tracer, record):
            tracer.records.append(record)  # simlint: disable=direct-tracer-append
    """) == []


# -- unguarded-obs-call ---------------------------------------------------

def _lint_hot(rule_name, source):
    """Lint a snippet as if it lived in a data-path module."""
    return linter.lint_file(
        "repro/core/snippet.py",
        get_rules([rule_name]),
        source=textwrap.dedent(source),
    )


def test_unguarded_obs_call_flags_span_and_metric_calls():
    violations = _lint_hot("unguarded-obs-call", """
        from repro import obs
        from repro.obs import metrics

        def push(ring):
            obs.active.bump("ring.rejected")
            metrics.active.observe("ring.depth", len(ring))
    """)
    assert len(violations) == 2
    assert all(v.rule == "unguarded-obs-call" for v in violations)
    assert "off-guard" in violations[0].message


def test_unguarded_obs_call_resolves_import_aliases():
    violations = _lint_hot("unguarded-obs-call", """
        from repro.obs import metrics as _metrics

        def pop(ring):
            _metrics.active.count("ring.pops")
    """)
    assert len(violations) == 1


def test_unguarded_obs_call_allows_the_guarded_discipline():
    assert _lint_hot("unguarded-obs-call", """
        from repro import obs
        from repro.obs import metrics as _metrics

        def push(ring):
            _o = obs.active
            if _o is not None:
                _o.bump("ring.rejected")
            _m = _metrics.active
            if _m is not None:
                _m.observe("ring.depth", len(ring))
    """) == []


def test_unguarded_obs_call_ignores_cold_modules():
    source = """
        from repro import obs

        def report():
            obs.active.bump("report.runs")
    """
    for path in ("snippet.py", "repro/obs/snippet.py",
                 "repro/bench/snippet.py", "repro/analysis/snippet.py"):
        assert linter.lint_file(
            path, get_rules(["unguarded-obs-call"]),
            source=textwrap.dedent(source),
        ) == []


def test_unguarded_obs_call_disable_comment():
    assert _lint_hot("unguarded-obs-call", """
        from repro import obs

        def push():
            obs.active.bump("x")  # simlint: disable=unguarded-obs-call
    """) == []


# -- direct-heapq ---------------------------------------------------------

def test_direct_heapq_flags_import_outside_sim():
    violations = run_rule("direct-heapq", """
        import heapq

        def order(queue, item):
            heapq.heappush(queue, item)
    """)
    assert len(violations) == 1
    assert violations[0].rule == "direct-heapq"
    assert violations[0].line == 2


def test_direct_heapq_flags_from_import():
    violations = run_rule("direct-heapq", """
        from heapq import heappush, heappop
    """)
    assert len(violations) == 1


def test_direct_heapq_allows_sim_package():
    for path in ("repro/sim/engine.py", "repro/sim/resources.py",
                 "src/repro/sim/engine.py"):
        source = textwrap.dedent("""
            import heapq
        """)
        assert linter.lint_file(
            path, get_rules(["direct-heapq"]), source=source
        ) == []


def test_direct_heapq_flags_model_code():
    source = textwrap.dedent("""
        from heapq import heapify
    """)
    violations = linter.lint_file(
        "repro/ip/tcp.py", get_rules(["direct-heapq"]), source=source
    )
    assert len(violations) == 1
    assert "scheduler owns the heap" in violations[0].message


def test_direct_heapq_disable_comment():
    assert run_rule("direct-heapq", """
        import heapq  # simlint: disable=direct-heapq
    """) == []
