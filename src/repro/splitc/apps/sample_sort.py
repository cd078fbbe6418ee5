"""Sample sort (§6): "first samples the keys, then permutes all keys,
and finally sorts the local keys on each processor."

Two variants, as in Figure 5:

* small-message -- the permutation phase sends keys "two values per
  message" with asynchronous stores (the per-message overhead dominates:
  the CM-5 wins this one);
* bulk -- keys are presorted by destination and each rank sends exactly
  one bulk message to every other rank (bandwidth dominates: the ATM
  cluster and Meiko win).
"""

from __future__ import annotations

import numpy as np

from repro.splitc.apps.costs import KEY_OP_US, MEM_OP_US

OVERSAMPLE = 8


def sample_sort(sc, n_per_proc: int = 4096, bulk: bool = False, seed: int = 11):
    nprocs, rank = sc.nprocs, sc.rank
    rng = np.random.default_rng(seed + rank)
    keys = sc.alloc("keys", n_per_proc, dtype=np.int64)
    keys[:] = rng.integers(0, 2**31, n_per_proc)
    splitters = sc.alloc("splitters", max(1, nprocs - 1), dtype=np.int64)
    samples = sc.alloc("samples", nprocs * OVERSAMPLE, dtype=np.int64)
    # destination buffer: a region per sender, sized for the worst skew
    region = 3 * n_per_proc
    recv = sc.alloc("recv", nprocs * region, dtype=np.int64)
    recv_counts = sc.alloc("recv_counts", nprocs, dtype=np.int64)
    # verification arrays: allocated up front (allocation order must be
    # identical on every rank, and must precede any communication)
    counts = sc.alloc("final_counts", nprocs, dtype=np.int64)
    final = sc.alloc("final", nprocs * region, dtype=np.int64)
    recv_counts[:] = -1
    all_keys_before = None
    if rank == 0:
        # rank 0 keeps the global multiset for verification
        parts = [
            np.random.default_rng(seed + r).integers(0, 2**31, n_per_proc)
            for r in range(nprocs)
        ]
        all_keys_before = np.sort(np.concatenate(parts))
    yield from sc.barrier()

    # --- phase 1: sample ------------------------------------------------
    local_sample = rng.choice(keys, OVERSAMPLE, replace=False)
    yield from sc.compute(OVERSAMPLE * KEY_OP_US)
    yield from sc.put_bulk(0, "samples", rank * OVERSAMPLE, local_sample)
    yield from sc.sync()
    yield from sc.barrier()
    if rank == 0:
        pool = np.sort(samples[:])
        yield from sc.compute(len(pool) * np.log2(max(2, len(pool))) * KEY_OP_US)
        chosen = pool[OVERSAMPLE::OVERSAMPLE][: nprocs - 1]
        for pe in range(nprocs):
            yield from sc.put_bulk(pe, "splitters", 0, chosen)
        yield from sc.sync()
    yield from sc.barrier()

    # --- phase 2: permute -------------------------------------------------
    split = splitters[: nprocs - 1]
    dest = np.searchsorted(split, keys, side="right")
    yield from sc.compute(n_per_proc * np.log2(max(2, nprocs)) * KEY_OP_US)
    if bulk:
        # presort local values so each rank sends exactly one message to
        # every other processor
        order = np.argsort(dest, kind="stable")
        yield from sc.compute(n_per_proc * np.log2(n_per_proc) * KEY_OP_US)
        sorted_dest = dest[order]
        sorted_keys = keys[order]
        for pe in range(nprocs):
            lo = np.searchsorted(sorted_dest, pe, side="left")
            hi = np.searchsorted(sorted_dest, pe, side="right")
            chunk = sorted_keys[lo:hi]
            yield from sc.put_bulk(pe, "recv", rank * region, chunk)
            yield from sc.write(pe, "recv_counts", rank, len(chunk))
        yield from sc.sync()
    else:
        # two keys per message, pipelined one-way stores
        cursors = [0] * nprocs
        pending = {}
        for value, pe in zip(memoryview(keys), memoryview(dest)):
            yield from sc.compute(2 * MEM_OP_US)
            if pe in pending:
                idx1, v1 = pending.pop(pe)
                idx2 = rank * region + cursors[pe]
                cursors[pe] += 1
                yield from sc.store_scalar2(pe, "recv", idx1, v1, idx2, value)
            else:
                idx = rank * region + cursors[pe]
                cursors[pe] += 1
                pending[pe] = (idx, value)
        for pe, (idx, value) in pending.items():
            yield from sc.store_scalar2(pe, "recv", idx, value)
        yield from sc.sync()
        for pe in range(nprocs):
            yield from sc.write(pe, "recv_counts", rank, cursors[pe])
        yield from sc.sync()
    yield from sc.barrier()

    # --- phase 3: local sort -----------------------------------------------
    parts = [
        recv[r * region : r * region + int(recv_counts[r])]
        for r in range(nprocs)
    ]
    mine = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
    result = np.sort(mine)
    m = max(2, len(mine))
    yield from sc.compute(m * np.log2(m) * KEY_OP_US)
    yield from sc.barrier()

    # --- verification ------------------------------------------------------
    yield from sc.write(0, "final_counts", rank, len(result))
    yield from sc.put_bulk(0, "final", rank * region, result)
    yield from sc.sync()
    yield from sc.barrier()
    verified = True
    if rank == 0:
        gathered = np.concatenate(
            [final[r * region : r * region + int(counts[r])] for r in range(nprocs)]
        )
        boundaries_ok = all(
            final[r * region + int(counts[r]) - 1] <= final[(r + 1) * region]
            for r in range(nprocs - 1)
            if counts[r] > 0 and counts[r + 1] > 0
        )
        verified = bool(
            len(gathered) == nprocs * n_per_proc
            and np.array_equal(np.sort(gathered), all_keys_before)
            and boundaries_ok
        )
    return {"verified": verified}
