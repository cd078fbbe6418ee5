"""Connected components (§6, citing Krishnamurthy et al.).

Distributed label propagation on a random undirected graph: each rank
owns a contiguous block of vertices and iterates local sweeps; labels
across cut edges are fetched with scalar global reads (small-message
bound, where the CM-5's low per-message overhead wins) and improvements
are pushed with asynchronous stores.  Runs until a global fixed point.
"""

from __future__ import annotations

import numpy as np

from repro.splitc.apps.costs import MEM_OP_US


def _build_graph(n_total: int, degree: int, seed: int, locality: float = 0.85):
    """Random graph with locality: most edges connect nearby vertices
    (which land on the same rank under the block distribution), a
    fraction are long-range -- the mix the DIMACS inputs exhibit."""
    rng = np.random.default_rng(seed)
    n_edges = n_total * degree // 2
    u = rng.integers(0, n_total, n_edges)
    local = rng.random(n_edges) < locality
    offsets = rng.integers(1, 16, n_edges)
    v_local = (u + offsets) % n_total
    v_far = rng.integers(0, n_total, n_edges)
    v = np.where(local, v_local, v_far)
    mask = u != v
    return np.stack([u[mask], v[mask]], axis=1)


def _serial_components(n_total: int, edges) -> np.ndarray:
    parent = list(range(n_total))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges.tolist():
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return np.array([find(x) for x in range(n_total)])


def _run_graph(sc, n_total: int, degree: int, seed: int):
    """The run's graph and its serial component labels, built by the
    first rank to ask and shared through the run's transport: every
    rank uses the same graph."""
    key = ("components", n_total, degree, seed)
    shared = sc.transport.shared
    if key not in shared:
        edges = _build_graph(n_total, degree, seed)
        shared[key] = (edges, _serial_components(n_total, edges))
    return shared[key]


def _local_sweeps(lab: list, pairs: list) -> int:
    """Propagate the minimum label across ``pairs`` (local vertex
    indices) in place until a sweep changes nothing; returns the number
    of sweeps, the last one included.  Labels only fall, so a sweep that
    meets an unequal pair always leaves ``lab`` changed."""
    sweeps = 0
    moved = True
    while moved:
        sweeps += 1
        moved = False
        for a, b in pairs:
            la, lb = lab[a], lab[b]
            if la != lb:
                m = la if la < lb else lb
                lab[a] = m
                lab[b] = m
                moved = True
    return sweeps


def connected_components(
    sc, n_per_proc: int = 1024, degree: int = 3, seed: int = 31,
    max_rounds: int = 30,
):
    nprocs, rank = sc.nprocs, sc.rank
    n_total = n_per_proc * nprocs
    edges, expected = _run_graph(sc, n_total, degree, seed)
    labels = sc.alloc("labels", n_per_proc, dtype=np.int64)
    changed_flags = sc.alloc("changed", nprocs + 1, dtype=np.int64)
    labels[:] = rank * n_per_proc + np.arange(n_per_proc)
    lo, hi = rank * n_per_proc, (rank + 1) * n_per_proc
    # edges touching my vertices
    mine = edges[((edges[:, 0] >= lo) & (edges[:, 0] < hi))
                 | ((edges[:, 1] >= lo) & (edges[:, 1] < hi))]
    local_mask = (
        (mine[:, 0] >= lo) & (mine[:, 0] < hi)
        & (mine[:, 1] >= lo) & (mine[:, 1] < hi)
    )
    local_pairs = (mine[local_mask] - lo).tolist()
    cut_edges = mine[~local_mask].tolist()
    yield from sc.barrier()

    rounds = 0
    while rounds < max_rounds:
        rounds += 1
        changed = False
        # local sweep to a local fixed point (pure computation); the
        # labels go back before the next yield, where remote reads
        # may look at them
        lab = labels.tolist()
        sweeps = _local_sweeps(lab, local_pairs)
        labels[:] = lab
        yield from sc.compute(max(1, sweeps) * len(local_pairs) * 3 * MEM_OP_US)
        # cut edges: pipelined split-phase reads of the remote labels
        # (real Split-C overlaps these gets to hide latency)
        batch = []
        for a, b in cut_edges:
            if lo <= a < hi:
                local_v, remote_v = a, b
            else:
                local_v, remote_v = b, a
            pe = remote_v // n_per_proc
            fut = yield from sc.read_async(
                pe, "labels", remote_v - lo_of(pe, n_per_proc)
            )
            batch.append((local_v, fut))
        for local_v, fut in batch:
            remote_label = yield from sc.read_wait(fut, "labels")
            my_label = labels[local_v - lo]
            yield from sc.compute(3 * MEM_OP_US)
            # pull-only min: every cut edge appears on both sides, so
            # each owner lowers its own label -- monotone, race-free
            if remote_label < my_label:
                labels[local_v - lo] = remote_label
                changed = True
        yield from sc.sync()
        # global convergence check
        yield from sc.write(0, "changed", rank, 1 if changed else 0)
        yield from sc.sync()
        yield from sc.barrier()
        if rank == 0:
            total = int(changed_flags[:nprocs].sum())
            for pe in range(nprocs):
                yield from sc.write(pe, "changed", nprocs, total)
            yield from sc.sync()
        yield from sc.barrier()
        if int(changed_flags[nprocs]) == 0:
            break
    yield from sc.barrier()

    # verification against serial union-find
    verified = bool(np.array_equal(labels[:], expected[lo:hi]))
    return {"verified": verified, "rounds": rounds}


def lo_of(pe: int, n_per_proc: int) -> int:
    return pe * n_per_proc
