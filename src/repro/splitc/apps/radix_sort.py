"""Radix sort (§6), small-message and bulk variants.

Each pass sorts on one digit: local histogram, a global histogram
exchange to compute every key's destination position, then the
permutation -- pipelined two-key stores (small) or one presorted bulk
message per destination (bulk).  Keys are dealt across ranks by global
rank order between passes, so after the last pass the keys are globally
sorted.
"""

from __future__ import annotations

import numpy as np

from repro.splitc.apps.costs import KEY_OP_US, MEM_OP_US

RADIX_BITS = 8
RADIX = 1 << RADIX_BITS


def _global_positions(sorted_digits: np.ndarray, my_starts: np.ndarray) -> np.ndarray:
    """Global position of each key, given its digit in stably sorted
    order: the digit's bucket start for this rank plus the key's offset
    among the keys with the same digit."""
    i = np.arange(len(sorted_digits), dtype=np.int64)
    first = np.searchsorted(sorted_digits, sorted_digits, "left")
    return my_starts[sorted_digits] + i - first


def radix_sort(
    sc, n_per_proc: int = 4096, key_bits: int = 16, bulk: bool = False,
    seed: int = 23,
):
    nprocs, rank = sc.nprocs, sc.rank
    passes = (key_bits + RADIX_BITS - 1) // RADIX_BITS
    rng = np.random.default_rng(seed + rank)
    n_total = n_per_proc * nprocs
    region = 3 * n_per_proc

    keys = sc.alloc("rkeys", region, dtype=np.int64)
    count = sc.alloc("rcount", 1, dtype=np.int64)
    hist = sc.alloc("rhist", nprocs * RADIX, dtype=np.int64)
    recv = sc.alloc("rrecv", nprocs * region, dtype=np.int64)
    recv_counts = sc.alloc("rrecv_counts", nprocs, dtype=np.int64)
    final = sc.alloc("rfinal", n_total, dtype=np.int64)

    initial = rng.integers(0, 1 << key_bits, n_per_proc)
    keys[:n_per_proc] = initial
    count[0] = n_per_proc
    ground_truth = None
    if rank == 0:
        parts = [
            np.random.default_rng(seed + r).integers(0, 1 << key_bits, n_per_proc)
            for r in range(nprocs)
        ]
        ground_truth = np.sort(np.concatenate(parts))
    yield from sc.barrier()

    for p in range(passes):
        shift = p * RADIX_BITS
        mine = keys[: int(count[0])]
        digits = (mine >> shift) & (RADIX - 1)
        local_hist = np.bincount(digits, minlength=RADIX).astype(np.int64)
        yield from sc.compute(len(mine) * MEM_OP_US)
        # global histogram exchange: every rank publishes its histogram
        # to every other rank
        for pe in range(nprocs):
            yield from sc.put_bulk(pe, "rhist", rank * RADIX, local_hist)
        yield from sc.sync()
        yield from sc.barrier()
        # compute each (digit, src-rank) bucket's global starting position
        table = hist[:].reshape(nprocs, RADIX)  # [src, digit]
        # order: digit-major, then source rank (stable by rank)
        bucket_sizes = table.T.reshape(-1)  # [digit*nprocs + src]
        starts = np.concatenate(([0], np.cumsum(bucket_sizes)[:-1]))
        yield from sc.compute(RADIX * nprocs * MEM_OP_US)
        my_starts = starts.reshape(RADIX, nprocs)[:, rank]
        # keys are dealt to ranks in equal n_per_proc chunks by global
        # position; send each key to its destination
        order = np.argsort(digits, kind="stable")
        yield from sc.compute(len(mine) * KEY_OP_US)
        sorted_keys = mine[order]
        sorted_digits = digits[order]
        global_pos = _global_positions(sorted_digits, my_starts)
        dest_rank = np.minimum(global_pos // n_per_proc, nprocs - 1)
        dest_idx = global_pos - dest_rank * n_per_proc
        yield from sc.compute(len(mine) * MEM_OP_US)

        if bulk:
            for pe in range(nprocs):
                mask = dest_rank == pe
                chunk = sorted_keys[mask]
                # send as (position, value) pairs packed in one bulk
                # message per destination
                idxs = dest_idx[mask]
                packed = np.empty(2 * len(chunk), dtype=np.int64)
                packed[0::2] = idxs
                packed[1::2] = chunk
                yield from sc.put_bulk(pe, "rrecv", rank * region, packed)
                yield from sc.write(pe, "rrecv_counts", rank, len(chunk))
            yield from sc.sync()
        else:
            # one (position, value) message per key -- two values packed
            # in a single-cell asynchronous store
            sent = [0] * nprocs
            for value, pe, idx in zip(
                memoryview(sorted_keys), memoryview(dest_rank),
                memoryview(dest_idx),
            ):
                yield from sc.compute(2 * MEM_OP_US)
                addr = rank * region + sent[pe] * 2
                sent[pe] += 1
                yield from sc.store_scalar2(
                    pe, "rrecv", addr, idx, addr + 1, value
                )
            yield from sc.sync()
            for pe in range(nprocs):
                yield from sc.write(pe, "rrecv_counts", rank, sent[pe])
            yield from sc.sync()
        yield from sc.barrier()

        # unpack received (position, value) pairs into the new local keys
        new_keys = np.zeros(n_per_proc, dtype=np.int64)
        got = 0
        for r in range(nprocs):
            cnt = int(recv_counts[r])
            pairs = recv[r * region : r * region + 2 * cnt]
            positions = pairs[0::2]
            values = pairs[1::2]
            new_keys[positions] = values
            got += cnt
        yield from sc.compute(got * MEM_OP_US)
        keys[:n_per_proc] = new_keys
        count[0] = got
        yield from sc.barrier()

    # verification: concatenation across ranks must equal the sorted keys
    yield from sc.put_bulk(0, "rfinal", rank * n_per_proc, keys[:n_per_proc])
    yield from sc.sync()
    yield from sc.barrier()
    verified = True
    if rank == 0:
        verified = bool(np.array_equal(final[:], ground_truth))
    return {"verified": verified}
