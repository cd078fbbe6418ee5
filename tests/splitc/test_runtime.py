"""Split-C runtime semantics over the model transport."""

import numpy as np
import pytest

from repro.sim import Simulator
from repro.splitc import CM5, ModelTransport, SplitC


def build(nprocs=4):
    sim = Simulator()
    tp = ModelTransport(sim, CM5, nprocs)
    scs = [SplitC(tp, r) for r in range(nprocs)]
    return sim, tp, scs


def run_all(sim, mains, until=1e9):
    procs = [sim.process(m) for m in mains]
    sim.run(until=until)
    assert all(not p.is_alive for p in procs), "a rank stalled"
    return procs


class TestScalarOps:
    def test_read_remote(self):
        sim, tp, scs = build(2)
        for sc in scs:
            sc.alloc("a", 4)
        out = {}

        def main(sc):
            sc.local("a")[:] = sc.rank + 1
            yield from sc.barrier()
            out[sc.rank] = (yield from sc.read(1 - sc.rank, "a", 2))

        run_all(sim, [main(sc) for sc in scs])
        assert out == {0: 2.0, 1: 1.0}

    def test_local_read_takes_no_time(self):
        sim, tp, scs = build(2)
        for sc in scs:
            sc.alloc("a", 4)
        out = {}

        def main(sc):
            sc.local("a")[0] = 42.0
            t0 = sim.now
            value = yield from sc.read(sc.rank, "a", 0)
            out["v"] = value
            out["dt"] = sim.now - t0

        run_all(sim, [main(scs[0])])
        assert out["v"] == 42.0
        assert out["dt"] == 0.0

    def test_write_remote(self):
        sim, tp, scs = build(2)
        for sc in scs:
            sc.alloc("a", 4)

        def main(sc):
            yield from sc.barrier()
            if sc.rank == 0:
                yield from sc.write(1, "a", 3, 7.5)
            yield from sc.barrier()

        run_all(sim, [main(sc) for sc in scs])
        assert scs[1].local("a")[3] == 7.5

    def test_read_async_pipelines(self):
        """Split-phase reads overlap: N pipelined reads finish far sooner
        than N sequential round trips."""
        sim, tp, scs = build(2)
        for sc in scs:
            sc.alloc("a", 64)
        times = {}

        def main(sc):
            sc.local("a")[:] = np.arange(64) + sc.rank * 100
            yield from sc.barrier()
            if sc.rank == 0:
                t0 = sim.now
                futures = []
                for i in range(32):
                    fut = yield from sc.read_async(1, "a", i)
                    futures.append(fut)
                values = []
                for fut in futures:
                    values.append((yield from sc.read_wait(fut, "a")))
                times["pipelined"] = sim.now - t0
                assert values == [100.0 + i for i in range(32)]
                t0 = sim.now
                for i in range(32):
                    yield from sc.read(1, "a", i)
                times["sequential"] = sim.now - t0
            else:
                yield sim.timeout(50_000.0)

        run_all(sim, [main(sc) for sc in scs])
        assert times["pipelined"] < times["sequential"] / 2

    def test_store_scalar2_async(self):
        sim, tp, scs = build(2)
        for sc in scs:
            sc.alloc("a", 8, dtype=np.int64)

        def main(sc):
            yield from sc.barrier()
            if sc.rank == 0:
                yield from sc.store_scalar2(1, "a", 1, 11, 5, 55)
                yield from sc.store_scalar2(1, "a", 7, 77)
                yield from sc.sync()
            yield from sc.barrier()

        run_all(sim, [main(sc) for sc in scs])
        a = scs[1].local("a")
        assert (a[1], a[5], a[7]) == (11, 55, 77)


class TestBulkOps:
    def test_put_get_roundtrip(self):
        sim, tp, scs = build(3)
        for sc in scs:
            sc.alloc("buf", 100)
        out = {}

        def main(sc):
            sc.local("buf")[:] = sc.rank
            yield from sc.barrier()
            yield from sc.put_bulk(
                (sc.rank + 1) % 3, "buf", 10, np.full(5, float(sc.rank))
            )
            yield from sc.sync()
            yield from sc.barrier()
            out[sc.rank] = (yield from sc.get_bulk((sc.rank + 2) % 3, "buf", 10, 5))

        run_all(sim, [main(sc) for sc in scs])
        for r in range(3):
            # rank r fetched from (r+2)%3, which was written by (r+1)%3
            assert np.all(out[r] == float((r + 1) % 3))

    def test_bulk_faster_per_byte_than_scalars(self):
        """The whole point of bulk transfers: amortized overhead."""
        sim, tp, scs = build(2)
        for sc in scs:
            sc.alloc("buf", 512)
        times = {}

        def main(sc):
            yield from sc.barrier()
            if sc.rank == 0:
                t0 = sim.now
                yield from sc.put_bulk(1, "buf", 0, np.ones(256))
                yield from sc.sync()
                times["bulk"] = sim.now - t0
                t0 = sim.now
                for i in range(256):
                    yield from sc.store_scalar2(1, "buf", 256 + i, 1.0)
                yield from sc.sync()
                times["scalar"] = sim.now - t0
            else:
                yield sim.timeout(100_000.0)

        run_all(sim, [main(sc) for sc in scs])
        assert times["bulk"] < times["scalar"] / 4


class TestBarrier:
    def test_barrier_synchronizes(self):
        sim, tp, scs = build(4)
        order = []

        def main(sc):
            yield sim.timeout(100.0 * sc.rank)  # skewed arrivals
            order.append(("before", sc.rank, sim.now))
            yield from sc.barrier()
            order.append(("after", sc.rank, sim.now))

        run_all(sim, [main(sc) for sc in scs])
        last_before = max(t for kind, _, t in order if kind == "before")
        first_after = min(t for kind, _, t in order if kind == "after")
        assert first_after >= last_before

    def test_multiple_barriers(self):
        sim, tp, scs = build(3)
        counts = {r: 0 for r in range(3)}

        def main(sc):
            for _ in range(5):
                yield from sc.barrier()
                counts[sc.rank] += 1

        run_all(sim, [main(sc) for sc in scs])
        assert all(v == 5 for v in counts.values())


class TestHandler:
    def test_unknown_message_kind_raises(self):
        """A codec slip fails loudly at the receiver instead of leaving
        the sender's rank stalled."""
        sim, tp, scs = build(2)

        def bogus():
            yield from tp.send(0, 1, bytes([0xEE]) + bytes(8))

        sim.process(bogus())
        with pytest.raises(ValueError, match="rank 1: unknown .* kind 238 from rank 0"):
            sim.run()


class TestAllocation:
    def test_duplicate_name_rejected(self):
        sim, tp, scs = build(1)
        scs[0].alloc("x", 4)
        with pytest.raises(ValueError):
            scs[0].alloc("x", 4)

    def test_unknown_name_rejected(self):
        sim, tp, scs = build(1)
        with pytest.raises(KeyError):
            scs[0]._name_id("ghost")


class TestTimings:
    def test_comm_and_compute_buckets(self):
        sim, tp, scs = build(2)
        for sc in scs:
            sc.alloc("a", 4)

        def main(sc):
            yield from sc.barrier()
            if sc.rank == 0:
                yield from sc.read(1, "a", 0)
                yield from sc.compute(500.0)
            yield from sc.barrier()

        run_all(sim, [main(sc) for sc in scs])
        t = scs[0].timings
        assert t.compute_us == pytest.approx(500.0)
        # one read >= one round trip's worth of comm time
        assert t.comm_us >= CM5.round_trip_us
