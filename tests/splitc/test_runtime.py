"""Split-C runtime semantics over the model transport."""

import numpy as np
import pytest

from repro.sim import Simulator
from repro.splitc import CM5, ModelTransport, SplitC
from repro.splitc import runtime as rt


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


INT64_VALUES = [0, -1, 2**63 - 1, -(2**63), np.int64(-5), True]
FLOAT64_VALUES = [-0.0, float("nan"), float("inf"), -float("inf"), 1.5,
                  np.float64(2.0 / 3.0), 7]
CODEC_CASES = [(np.int64, v) for v in INT64_VALUES] + [
    (np.float64, v) for v in FLOAT64_VALUES
] + [(np.int32, -7), (np.float32, 0.1), (np.uint8, 200)]


def _numpy_field(dtype, value):
    """The 8-byte value field as the numpy round trip packed it."""
    return np.asarray(value, dtype=dtype).tobytes().ljust(8, b"\0")


def _numpy_decoded(dtype, field):
    out = np.zeros(1, dtype=dtype)
    out[0] = np.frombuffer(field, dtype=dtype)[0]
    return out.tobytes()


class TestScalarCodec:
    """The struct codec puts the same bytes on the wire as
    ``np.asarray(v, dtype).tobytes()``, and every message kind that
    carries a value writes the same array contents as ``np.frombuffer``."""

    @pytest.mark.parametrize("dtype, value", CODEC_CASES)
    def test_pack_equals_numpy_bytes(self, dtype, value):
        assert rt._scalar_codec(dtype).pack(value) == _numpy_field(dtype, value)

    @pytest.mark.parametrize("dtype, value", CODEC_CASES)
    def test_every_value_message_decodes_like_numpy(self, dtype, value):
        sim, tp, scs = build(2)
        sc = scs[1]
        array = sc.alloc("a", 4, dtype=dtype)
        field = _numpy_field(dtype, value)
        expected = _numpy_decoded(dtype, field)

        sc._on_message(0, rt._WRITE_REQ.pack(rt.K_WRITE_REQ, 1, 0, 2, field))
        assert array[2:3].tobytes() == expected
        sc._on_message(0, rt._STORE2.pack(rt.K_STORE2, 0, 0, field, 3, field))
        assert array[0:1].tobytes() == expected
        assert array[3:4].tobytes() == expected

        req_id, future = sc._new_future()
        sc._on_message(0, rt._READ_REP.pack(rt.K_READ_REP, req_id, field))
        wait = sc.read_wait(future, "a")
        assert next(wait) is future
        with pytest.raises(StopIteration) as stop:
            wait.send(future.value)
        array[1] = stop.value.value
        assert array[1:2].tobytes() == expected

    def test_read_reply_carries_numpy_bytes(self):
        sim, tp, scs = build(2)
        array = scs[1].alloc("a", (2, 2))
        array[1, 0] = -0.0
        reply, bulk = scs[1]._on_message(
            0, rt._READ_REQ.pack(rt.K_READ_REQ, 9, 0, 2)
        )
        assert not bulk
        assert reply == rt._READ_REP.pack(
            rt.K_READ_REP, 9, np.asarray(-0.0).tobytes()
        )

    def test_dtype_without_an_8_byte_scalar_is_rejected(self):
        sim, tp, scs = build(1)
        with pytest.raises(ValueError, match="complex128"):
            scs[0].alloc("z", 4, dtype=np.complex128)


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
