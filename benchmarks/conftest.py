"""Benchmark harness configuration.

Every benchmark regenerates one of the paper's tables or figures from
the simulated stack.  The numbers printed are *simulated* microseconds
and bytes/second (the reproduction targets); pytest-benchmark's own
timings measure how fast the simulator runs on this machine.

Run with:  pytest benchmarks/ --benchmark-only -s

pytest-benchmark is optional: without it the benchmarks still run and
verify their paper anchors, they just aren't wall-clock timed (the
``benchmark`` fixture is replaced by a pass-through).  See
``benchmarks/suite/run.py`` for dependency-free wall-clock numbers.
"""

import pytest

try:
    import pytest_benchmark  # noqa: F401

    HAVE_PYTEST_BENCHMARK = True
except ImportError:
    HAVE_PYTEST_BENCHMARK = False


def run_once(benchmark, fn, *args, **kwargs):
    """Run a deterministic simulation benchmark exactly once."""
    if benchmark is None:
        return fn(*args, **kwargs)
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


if HAVE_PYTEST_BENCHMARK:

    @pytest.fixture
    def once(benchmark):
        def _run(fn, *args, **kwargs):
            return run_once(benchmark, fn, *args, **kwargs)

        return _run

else:

    @pytest.fixture
    def once():
        def _run(fn, *args, **kwargs):
            return run_once(None, fn, *args, **kwargs)

        return _run
