"""Execution harness for the Split-C benchmarks (Figure 5).

``run_on_machine`` runs an app on a LogP machine model;
``run_on_unet_cluster`` runs the same app over the full simulated U-Net
stack.  Both return an :class:`AppResult` with the execution-time
breakdown and the app's self-verification verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List

from repro.sim import Simulator
from repro.splitc.machines import MachineSpec
from repro.splitc.runtime import SplitC
from repro.splitc.transport import ModelTransport, UNetTransport


@dataclass
class AppResult:
    machine: str
    app: str
    total_us: float
    compute_us: float  # mean across ranks
    comm_us: float  # mean across ranks
    verified: bool
    per_rank: List[Dict] = field(default_factory=list)

    @property
    def comm_fraction(self) -> float:
        busy = self.compute_us + self.comm_us
        return self.comm_us / busy if busy else 0.0


def _execute(sim, transport, app: Callable, nprocs: int, label: str,
             machine_name: str, start=None, **params) -> AppResult:
    scs = [SplitC(transport, r) for r in range(nprocs)]
    results: Dict[int, Dict] = {}
    t_window = {}

    def wrapped(sc):
        yield from sc.barrier()
        t_window.setdefault("t0", sc.sim.now)
        t_start = sc.sim.now
        # Generic dispatch into the app body, once per PE for the whole run.
        out = yield from app(sc, **params)
        yield from sc.barrier()
        sc.timings.total_us = sc.sim.now - t_start
        t_window["t1"] = sc.sim.now
        results[sc.rank] = out or {}

    pe_names = [f"{label}.pe{sc.rank}" for sc in scs]

    def boot():
        if start is not None:
            yield from start()
        for sc, pe_name in zip(scs, pe_names):
            sim.process(wrapped(sc), name=pe_name)

    sim.process(boot(), name=f"{label}.boot")
    sim.run(until=1e12)
    if len(results) != nprocs:
        raise RuntimeError(
            f"{label} on {machine_name}: only {len(results)}/{nprocs} ranks finished"
        )
    verified = all(r.get("verified", True) for r in results.values())
    return AppResult(
        machine=machine_name,
        app=label,
        total_us=t_window["t1"] - t_window["t0"],
        compute_us=sum(sc.timings.compute_us for sc in scs) / nprocs,
        comm_us=sum(sc.timings.comm_us for sc in scs) / nprocs,
        verified=verified,
        per_rank=[results[r] for r in range(nprocs)],
    )


def run_on_machine(
    machine: MachineSpec, app: Callable, nprocs: int = 8, label: str = "",
    **params,
) -> AppResult:
    """Run ``app`` on a Table 2 machine model."""
    sim = Simulator()
    transport = ModelTransport(sim, machine, nprocs)
    return _execute(
        sim, transport, app, nprocs,
        label or app.__name__, machine.name, **params,
    )


def run_on_unet_cluster(
    app: Callable, nprocs: int = 8, label: str = "", cluster=None, **params
) -> AppResult:
    """Run ``app`` over real UAM on the simulated ATM cluster."""
    from repro.core import UNetCluster

    if cluster is None:
        sim = Simulator()
        cluster = UNetCluster(
            sim, [(f"node{i}", 60.0 if i < 5 else 50.0) for i in range(nprocs)]
        )
    sim = cluster.sim
    transport = UNetTransport(cluster, nprocs)
    return _execute(
        sim, transport, app, nprocs,
        label or app.__name__, "U-Net ATM (full stack)",
        start=transport.start, **params,
    )
