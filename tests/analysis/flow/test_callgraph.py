"""Call resolution on the tricky shapes from the real tree."""

import ast
import textwrap

from repro.analysis.flow.callgraph import own_nodes

from tests.analysis.flow.conftest import make_program


def resolved(program, caller):
    """Callee qualnames of every call inside ``caller``, as
    ``Program.resolver`` resolves them (None when unresolved)."""
    fn = program.functions[caller]
    resolve = program.resolver(fn)
    return [
        getattr(resolve(node), "qualname", None)
        for node in own_nodes(fn.node)
        if isinstance(node, ast.Call)
    ]


def scheduled_target(program, caller):
    """The function the one ``schedule_callback`` in ``caller`` names,
    resolved through the module index's callback-reference resolution."""
    fn = program.functions[caller]
    call = next(
        node
        for node in own_nodes(fn.node)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", "") == "schedule_callback"
    )
    target = program.by_module[fn.module].resolve_callback(call.args[1], fn)
    return target.qualname if target is not None else None


class TestResolution:
    def test_module_function_call(self):
        program = make_program(
            mod="""
            def helper():
                return 1

            def caller():
                return helper()
            """
        )
        assert resolved(program, "repro.mod.caller") == ["repro.mod.helper"]

    def test_self_method_through_imported_base(self):
        program = make_program(
            base="""
            class Device:
                def start(self):
                    pass
            """,
            derived="""
            from repro.base import Device

            class AtmDevice(Device):
                def boot(self):
                    self.start()
            """,
        )
        assert resolved(program, "repro.derived.AtmDevice.boot") == [
            "repro.base.Device.start"
        ]

    def test_imported_function_cross_module(self):
        program = make_program(
            util="""
            def checksum(data):
                return sum(data)
            """,
            net="""
            from repro.util import checksum

            def deliver(data):
                return checksum(data)
            """,
        )
        assert resolved(program, "repro.net.deliver") == ["repro.util.checksum"]

    def test_decorated_function_still_resolves(self):
        program = make_program(
            mod="""
            def wrap(fn):
                return fn

            @wrap
            def handler():
                pass

            def boot():
                handler()
            """
        )
        assert resolved(program, "repro.mod.boot") == ["repro.mod.handler"]

    def test_attribute_receiver_with_inferred_type(self):
        program = make_program(
            mod="""
            class Pool:
                def drain(self):
                    pass

            class Owner:
                def __init__(self):
                    self.pool = Pool()

                def stop(self):
                    self.pool.drain()
            """
        )
        assert resolved(program, "repro.mod.Owner.stop") == [
            "repro.mod.Pool.drain"
        ]


class TestScheduledTargets:
    def test_schedule_callback_nested_function(self):
        program = make_program(
            mod="""
            def boot(sim):
                def on_fire():
                    pass
                sim.schedule_callback(1.0, on_fire)
            """
        )
        assert scheduled_target(program, "repro.mod.boot") == "repro.mod.boot.on_fire"

    def test_schedule_callback_lambda(self):
        program = make_program(
            mod="""
            def boot(sim):
                sim.schedule_callback(1.0, lambda: None)
            """
        )
        assert "<lambda>" in scheduled_target(program, "repro.mod.boot")

    def test_schedule_callback_single_assignment_alias(self):
        program = make_program(
            mod="""
            def handler():
                pass

            def boot(sim):
                cb = handler
                sim.schedule_callback(0.0, cb)
            """
        )
        assert scheduled_target(program, "repro.mod.boot") == "repro.mod.handler"

    def test_generator_process_target(self):
        program = make_program(
            mod="""
            class Device:
                def start(self, sim):
                    sim.process(self._rx_proc())

                def _rx_proc(self):
                    yield 1
            """
        )
        assert "repro.mod.Device._rx_proc" in resolved(
            program, "repro.mod.Device.start"
        )


class TestOwnNodes:
    def test_does_not_descend_into_nested_defs(self):
        tree = ast.parse(
            textwrap.dedent(
                """
                def outer():
                    x = 1
                    def inner():
                        y = 2
                    lamb = lambda: 3
                """
            )
        )
        nodes = list(own_nodes(tree.body[0]))
        assert any(isinstance(n, ast.FunctionDef) for n in nodes)
        names = {
            n.targets[0].id for n in nodes if isinstance(n, ast.Assign)
        }
        assert names == {"x", "lamb"}
        constants = {
            n.value for n in nodes if isinstance(n, ast.Constant)
        }
        assert 2 not in constants
        assert 3 not in constants

    def test_module_scope_stops_at_top_level_functions(self):
        tree = ast.parse(
            textwrap.dedent(
                """
                TABLE = {}

                def fn(sim):
                    sim.schedule_callback(0, fn)
                """
            )
        )
        calls = [n for n in own_nodes(tree) if isinstance(n, ast.Call)]
        assert calls == []
