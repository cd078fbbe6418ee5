"""The four figure-regeneration workloads and their point lists.

Each workload is a list of *points*: one call of a public point function
from ``repro.bench`` / ``repro.splitc``, exactly as the figure drivers
in ``benchmarks/bench_*.py`` make it.  The size lists mirror the
drivers' constants (``test_suite.py`` checks that they stay equal).
Calling the point functions directly, rather than the drivers'
``sweep()``, keeps the result cache, the process pool and checkpoint
forking off the timed path without setting any switch.

Each point builds its own simulator, so its result does not depend on
the order points run in; ``run.py --seed`` permutes that order.

This module imports nothing from ``repro`` at import time: building a
workload's point list imports what it calls, and the child process
times that as the workload's set-up.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, List

# -- mirrored driver constants ---------------------------------------------
# bench_fig3_rtt
FIG3_RAW_SIZES = [0, 8, 16, 32, 40, 48, 96, 192, 384, 768, 1024]
FIG3_UAM_SIZES = [0, 8, 16, 32]
FIG3_XFER_SIZES = [48, 128, 256, 512, 1024]
# bench_fig6_kernel_latency
FIG6_SIZES = [16, 64, 256, 1024, 2048, 4096, 8000]
# bench_fig9_ip_latency
FIG9_SIZES = [8, 64, 256, 1024, 4096]
# bench_fig4_bandwidth
FIG4_RAW_SIZES = [40, 96, 192, 384, 512, 800, 1024, 2048, 4096, 5120]
FIG4_UAM_SIZES = [512, 1024, 2048, 4096, 4400, 5120]
FIG4_GET_SIZES = [1024, 4096]
# bench_fig7_udp_bandwidth
FIG7_SIZES = [1000, 1500, 1536, 2048, 3000, 4096, 6000, 8000]
# bench_fig8_tcp_bandwidth
FIG8_WRITE_SIZES = [1024, 2048, 4096, 8192]
FIG8_CURVES = (
    ("unet", 8192),
    ("unet", 32768),
    ("kernel-atm", 8192),
    ("kernel-atm", 64 * 1024 - 1),
)
# bench_fig5_splitc
FIG5_NPROCS = 8


class Point:
    """One point-function call; ``key`` names it in ``reference.json``."""

    __slots__ = ("key", "fn", "args", "kwargs")

    def __init__(self, key: str, fn: Callable, args: tuple, kwargs: dict):
        self.key = key
        self.fn = fn
        self.args = args
        self.kwargs = kwargs

    def run(self) -> Any:
        return self.fn(*self.args, **self.kwargs)


def _call(figure: str, fn: Callable, *args, **kwargs) -> Point:
    rendered = ",".join(
        [repr(a) for a in args] + [f"{k}={kwargs[k]!r}" for k in sorted(kwargs)]
    )
    return Point(f"{figure}:{fn.__name__}({rendered})", fn, args, kwargs)


def _rtt_small() -> List[Point]:
    from repro.bench import raw_rtt, sba100_cost_breakup
    from repro.bench.ip import tcp_rtt, udp_rtt
    from repro.bench.uam import uam_single_cell_rtt, uam_xfer_rtt

    points = [_call("table1", sba100_cost_breakup)]
    points += [_call("fig3", raw_rtt, s, n=4) for s in FIG3_RAW_SIZES]
    points += [_call("fig3", uam_single_cell_rtt, s, n=4) for s in FIG3_UAM_SIZES]
    points += [_call("fig3", uam_xfer_rtt, s, n=4) for s in FIG3_XFER_SIZES]
    for proto, fn in (("UDP", udp_rtt), ("TCP", tcp_rtt)):
        for kind in ("kernel-atm", "kernel-eth"):
            for size in FIG6_SIZES:
                if proto == "TCP" and size > 4096 and kind == "kernel-eth":
                    continue  # the driver skips this point too
                points.append(_call("fig6", fn, size, kind=kind, n=3))
    for fn, kind in (
        (udp_rtt, "unet"), (tcp_rtt, "unet"),
        (udp_rtt, "kernel-atm"), (tcp_rtt, "kernel-atm"),
    ):
        points += [_call("fig9", fn, s, kind=kind, n=3) for s in FIG9_SIZES]
    return points


def _cell_bulk() -> List[Point]:
    from repro.bench import raw_bandwidth
    from repro.bench.uam import uam_get_bandwidth, uam_store_bandwidth

    points = [_call("fig4", raw_bandwidth, s) for s in FIG4_RAW_SIZES]
    points += [_call("fig4", uam_store_bandwidth, s) for s in FIG4_UAM_SIZES]
    points += [_call("fig4", uam_get_bandwidth, s) for s in FIG4_GET_SIZES]
    return points


def _ip_bulk() -> List[Point]:
    from repro.bench.ip import tcp_bandwidth, udp_bandwidth

    points = [_call("fig7", udp_bandwidth, s, kind="kernel-atm") for s in FIG7_SIZES]
    points += [_call("fig7", udp_bandwidth, s, kind="unet") for s in FIG7_SIZES]
    points += [
        _call("fig8", tcp_bandwidth, ws, kind=kind, window=window)
        for kind, window in FIG8_CURVES
        for ws in FIG8_WRITE_SIZES
    ]
    return points


def _splitc_model() -> List[Point]:
    from repro.splitc.apps import FIGURE5_SUITE
    from repro.splitc.harness import run_on_machine
    from repro.splitc.machines import ATM_CLUSTER, CM5, MEIKO_CS2

    points = []
    for label, app, params in FIGURE5_SUITE:
        for machine in (CM5, ATM_CLUSTER, MEIKO_CS2):
            point = Point(
                f"fig5:run_on_machine({machine.name},{label})",
                run_on_machine,
                (machine, app),
                dict(nprocs=FIG5_NPROCS, label=label, **params),
            )
            points.append(point)
    return points


_BUILDERS = {
    "rtt_small": _rtt_small,
    "cell_bulk": _cell_bulk,
    "ip_bulk": _ip_bulk,
    "splitc_model": _splitc_model,
}

WORKLOADS = tuple(_BUILDERS)


def points(workload: str) -> List[Point]:
    """The workload's point list, in driver order; the first call
    imports ``repro`` and every module the points call into."""
    return _BUILDERS[workload]()


def canonical(value: Any) -> Any:
    """A JSON-ready rendering of a point result that is equal for two
    results exactly when they are bit-identical: floats become
    ``float.hex`` strings, dataclasses become dicts of their fields."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return value.hex()
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(k): canonical(value[k]) for k in sorted(value, key=str)}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if hasattr(value, "tolist"):  # numpy scalars and arrays
        return canonical(value.tolist())
    raise TypeError(f"no canonical form for {type(value).__name__}")
