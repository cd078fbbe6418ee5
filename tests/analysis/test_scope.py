"""Callback resolution and scope walking of the per-file index."""

import ast
import textwrap

from repro.analysis.linter import FileContext
from repro.analysis.scope import own_nodes


def index_of(source):
    """The scope index of ``source``, as the file ``src/repro/mod.py``."""
    return FileContext("src/repro/mod.py", textwrap.dedent(source)).index


def scheduled_target(index, caller):
    """The function the one ``schedule_callback`` in ``caller`` names,
    resolved through the index's callback-reference resolution."""
    fn = index.functions[caller]
    call = next(
        node
        for node in own_nodes(fn.node)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", "") == "schedule_callback"
    )
    target = index.resolve_callback(call.args[1], fn)
    return target.qualname if target is not None else None


class TestScheduledTargets:
    def test_schedule_callback_nested_function(self):
        index = index_of(
            """
            def boot(sim):
                def on_fire():
                    pass
                sim.schedule_callback(1.0, on_fire)
            """
        )
        assert scheduled_target(index, "repro.mod.boot") == "repro.mod.boot.on_fire"

    def test_schedule_callback_lambda(self):
        index = index_of(
            """
            def boot(sim):
                sim.schedule_callback(1.0, lambda: None)
            """
        )
        assert "<lambda>" in scheduled_target(index, "repro.mod.boot")

    def test_schedule_callback_single_assignment_alias(self):
        index = index_of(
            """
            def handler():
                pass

            def boot(sim):
                cb = handler
                sim.schedule_callback(0.0, cb)
            """
        )
        assert scheduled_target(index, "repro.mod.boot") == "repro.mod.handler"

    def test_schedule_callback_self_method_through_base(self):
        index = index_of(
            """
            class Device:
                def _fire(self):
                    pass

            class AtmDevice(Device):
                def boot(self, sim):
                    sim.schedule_callback(0.0, self._fire)
            """
        )
        assert (
            scheduled_target(index, "repro.mod.AtmDevice.boot")
            == "repro.mod.Device._fire"
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
