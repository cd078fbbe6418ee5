"""The Split-C runtime (§6).

One :class:`SplitC` instance per processor.  Global arrays are numpy
arrays registered under names (registration order fixes the ids, so it
must match across ranks -- just like static globals in real Split-C).
Dereferencing a global pointer becomes a request/reply Active Message
exchange; bulk operations map onto AM bulk transfers; ``barrier`` is a
counter at rank 0.

Timing instrumentation follows the paper's benchmarks: the time spent
blocked in communication operations is accounted separately from the
(modelled) local computation, giving Figure 5's comm/comp breakdown.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.sim import Event

K_READ_REQ = 1
K_READ_REP = 2
K_WRITE_REQ = 3
K_WRITE_ACK = 4
K_BULK_PUT = 5
K_GET_REQ = 6
K_GET_REP = 7
K_BARRIER_ARRIVE = 8
K_BARRIER_GO = 9
K_STORE2 = 10

_READ_REQ = struct.Struct(">BIHI")
_READ_REP = struct.Struct(">BI8s")
_WRITE_REQ = struct.Struct(">BIHI8s")
_ACK = struct.Struct(">BI")
_BULK_PUT = struct.Struct(">BIHI")  # + data
_GET_REQ = struct.Struct(">BIHII")
_GET_REP = struct.Struct(">BI")  # + data
_BARRIER = struct.Struct(">BI")
#: two packed (index, value) stores -- the §6 sample sort "packs two
#: values per message during the permutation phase"; 31 bytes = 1 cell.
_STORE2 = struct.Struct(">BHI8sI8s")

#: struct code of one scalar, by numpy kind and item size
_SCALAR_CODES = {
    ("b", 1): "?",
    ("i", 1): "b", ("i", 2): "h", ("i", 4): "i", ("i", 8): "q",
    ("u", 1): "B", ("u", 2): "H", ("u", 4): "I", ("u", 8): "Q",
    ("f", 2): "e", ("f", 4): "f", ("f", 8): "d",
}


def _scalar_codec(dtype) -> struct.Struct:
    """The struct that carries one ``dtype`` scalar in a message's 8-byte
    value field: the dtype's byte order, zero-padded, so it packs the
    bytes ``np.asarray(value, dtype).tobytes()`` gives without a numpy
    round trip.  It unpacks to a Python ``int``, ``float`` or ``bool``."""
    dtype = np.dtype(dtype)
    code = _SCALAR_CODES.get((dtype.kind, dtype.itemsize))
    if code is None:
        raise ValueError(f"no 8-byte scalar encoding for dtype {dtype}")
    order = dtype.byteorder if dtype.byteorder in "<>" else "="
    return struct.Struct(f"{order}{code}{8 - dtype.itemsize}x")


class SplitCTimings:
    """Per-rank execution time breakdown (Figure 5's bars)."""

    def __init__(self):
        self.compute_us = 0.0
        self.comm_us = 0.0
        self.total_us = 0.0
        self.messages = 0

    def as_dict(self) -> Dict[str, float]:
        return {
            "total_us": self.total_us,
            "compute_us": self.compute_us,
            "comm_us": self.comm_us,
        }


class SplitC:
    """One Split-C thread of control."""

    def __init__(self, transport, rank: int):
        self.transport = transport
        self.sim = transport.sim
        self.rank = rank
        self.nprocs = transport.nprocs
        self._arrays: List[np.ndarray] = []
        #: per array: a flat view of it, and its scalar codec
        self._flats: List[np.ndarray] = []
        self._codecs: List[struct.Struct] = []
        self._names: Dict[str, int] = {}
        self._futures: Dict[int, Event] = {}
        self._next_req = 1
        self._puts_outstanding = 0
        self._put_drain: List[Event] = []
        self._barrier_epoch = 0
        self._barrier_arrivals: Dict[int, int] = {}
        self._barrier_go: Dict[int, Event] = {}
        self._barrier_done: set = set()
        self.timings = SplitCTimings()
        transport.attach(rank, self._on_message)

    # ------------------------------------------------------------ memory
    def alloc(self, name: str, shape, dtype=np.float64) -> np.ndarray:
        """Register this rank's part of a global array.

        Must be called in the same order on every rank."""
        if name in self._names:
            raise ValueError(f"array {name!r} already allocated")
        codec = _scalar_codec(dtype)
        array = np.zeros(shape, dtype=dtype)
        self._names[name] = len(self._arrays)
        self._arrays.append(array)
        self._flats.append(array.reshape(-1))
        self._codecs.append(codec)
        return array

    def local(self, name: str) -> np.ndarray:
        return self._arrays[self._names[name]]

    def _name_id(self, name: str) -> int:
        try:
            return self._names[name]
        except KeyError:
            raise KeyError(f"global array {name!r} not allocated") from None

    # ------------------------------------------------------------ helpers
    def _new_future(self) -> Tuple[int, Event]:
        req_id = self._next_req
        self._next_req += 1
        event = Event(self.sim)
        self._futures[req_id] = event
        return req_id, event

    def _comm(self, start: float) -> None:
        self.timings.comm_us += self.sim.now - start
        self.timings.messages += 1

    # ------------------------------------------------------------ scalar ops
    def read(self, pe: int, name: str, index: int):
        """Dereference a global pointer: request/reply exchange.  The
        value comes back as a Python scalar."""
        name_id = self._name_id(name)
        if pe == self.rank:
            return self._arrays[name_id].item(index)
        t0 = self.sim.now
        req_id, future = self._new_future()
        msg = _READ_REQ.pack(K_READ_REQ, req_id, name_id, index)
        yield from self.transport.send(self.rank, pe, msg)
        raw = yield future
        self._comm(t0)
        return self._codecs[name_id].unpack(raw)[0]

    def read_async(self, pe: int, name: str, index: int):
        """Split-phase read: returns a future; resolve with read_wait.
        Pipelining these is how real Split-C hides latency."""
        name_id = self._name_id(name)
        if pe == self.rank:
            future = Event(self.sim)
            value = self._arrays[name_id].item(index)
            future.succeed(self._codecs[name_id].pack(value))
            return future
        req_id, future = self._new_future()
        msg = _READ_REQ.pack(K_READ_REQ, req_id, name_id, index)
        yield from self.transport.send(self.rank, pe, msg)
        return future

    def read_wait(self, future, name: str):
        """Wait for a read_async future and decode the value."""
        t0 = self.sim.now
        raw = yield future
        self._comm(t0)
        return self._codecs[self._name_id(name)].unpack(raw)[0]

    def write(self, pe: int, name: str, index: int, value):
        """Remote scalar write with acknowledgment."""
        name_id = self._name_id(name)
        if pe == self.rank:
            self._flats[name_id][index] = value
            return
        t0 = self.sim.now
        req_id, future = self._new_future()
        msg = _WRITE_REQ.pack(
            K_WRITE_REQ, req_id, name_id, index,
            self._codecs[name_id].pack(value),
        )
        yield from self.transport.send(self.rank, pe, msg)
        yield future
        self._comm(t0)

    # ------------------------------------------------------------ bulk ops
    def put_bulk(self, pe: int, name: str, start: int, values: np.ndarray):
        """Bulk store into pe's part of the array (async; see sync())."""
        array = self.local(name)
        values = np.ascontiguousarray(values, dtype=array.dtype)
        if pe == self.rank:
            flat = array.reshape(-1)
            flat[start : start + values.size] = values.reshape(-1)
            return
        t0 = self.sim.now
        req_id, _ = self._new_future()
        del self._futures[req_id]  # acked via counter, not future
        header = _BULK_PUT.pack(K_BULK_PUT, req_id, self._name_id(name), start)
        self._puts_outstanding += 1
        yield from self.transport.send_bulk(
            self.rank, pe, header + values.tobytes()
        )
        self._comm(t0)

    def store_scalar2(self, pe: int, name: str, idx1: int, v1, idx2=None, v2=None):
        """Asynchronous one-way store of one or two scalars (Split-C's
        split-phase := assignment); completion via sync()."""
        name_id = self._name_id(name)
        if pe == self.rank:
            flat = self._flats[name_id]
            flat[idx1] = v1
            if idx2 is not None:
                flat[idx2] = v2
            return
        t0 = self.sim.now
        if idx2 is None:
            idx2, v2 = idx1, v1  # duplicate write is idempotent
        pack = self._codecs[name_id].pack
        msg = _STORE2.pack(K_STORE2, name_id, idx1, pack(v1), idx2, pack(v2))
        self._puts_outstanding += 1
        yield from self.transport.send(self.rank, pe, msg)
        self._comm(t0)

    def sync(self):
        """Wait until all outstanding bulk puts are acknowledged
        (Split-C's all_store_sync)."""
        t0 = self.sim.now
        while self._puts_outstanding > 0:
            event = Event(self.sim)
            self._put_drain.append(event)
            yield event
        self.timings.comm_us += self.sim.now - t0

    def get_bulk(self, pe: int, name: str, start: int, count: int):
        """Bulk fetch from pe's part of the array."""
        array = self.local(name)
        if pe == self.rank:
            flat = array.reshape(-1)
            return flat[start : start + count].copy()
        t0 = self.sim.now
        req_id, future = self._new_future()
        msg = _GET_REQ.pack(
            K_GET_REQ, req_id, self._name_id(name), start, count
        )
        yield from self.transport.send(self.rank, pe, msg)
        raw = yield future
        self._comm(t0)
        return np.frombuffer(raw, dtype=array.dtype, count=count).copy()

    # ------------------------------------------------------------ barrier
    def barrier(self):
        """All ranks rendezvous (counter at rank 0)."""
        t0 = self.sim.now
        epoch = self._barrier_epoch
        self._barrier_epoch += 1
        if self.rank == 0:
            while self._barrier_arrivals.get(epoch, 0) < self.nprocs - 1:
                event = Event(self.sim)
                self._barrier_go[epoch] = event
                yield event
            self._barrier_arrivals.pop(epoch, None)
            go = _BARRIER.pack(K_BARRIER_GO, epoch)
            for pe in range(1, self.nprocs):
                yield from self.transport.send(self.rank, pe, go)
        else:
            arrive = _BARRIER.pack(K_BARRIER_ARRIVE, epoch)
            yield from self.transport.send(self.rank, 0, arrive)
            if epoch not in self._barrier_done:
                event = Event(self.sim)
                self._barrier_go[epoch] = event
                yield event
            self._barrier_done.discard(epoch)
        self.timings.comm_us += self.sim.now - t0

    # ------------------------------------------------------------ collectives
    def allreduce_sum(self, name: str, value: float):
        """Global sum: partials gathered at rank 0, total broadcast.

        ``name`` must identify an array of at least nprocs + 1 slots
        allocated identically on every rank (slot i holds rank i's
        partial; slot nprocs carries the broadcast total).
        """
        array = self.local(name)
        if array.size < self.nprocs + 1:
            raise ValueError(
                f"allreduce array {name!r} needs {self.nprocs + 1} slots"
            )
        yield from self.write(0, name, self.rank, value)
        yield from self.sync()
        yield from self.barrier()
        if self.rank == 0:
            total = float(array[: self.nprocs].sum())
            for pe in range(self.nprocs):
                yield from self.write(pe, name, self.nprocs, total)
            yield from self.sync()
        yield from self.barrier()
        return float(array[self.nprocs])

    def broadcast(self, name: str, root: int = 0):
        """Broadcast root's copy of the whole array to every rank."""
        array = self.local(name)
        if self.rank == root:
            for pe in range(self.nprocs):
                if pe != root:
                    yield from self.put_bulk(pe, name, 0, array)
            yield from self.sync()
        yield from self.barrier()
        return self.local(name)

    # ------------------------------------------------------------ compute
    def compute(self, cm5_us: float):
        """Charge modelled local computation (CM-5-node microseconds,
        scaled by the machine's CPU factor)."""
        t0 = self.sim.now
        yield from self.transport.compute(self.rank, cm5_us)
        self.timings.compute_us += self.sim.now - t0

    # ------------------------------------------------------------ handlers
    def _on_message(self, src: int, raw: bytes) -> Optional[Tuple[bytes, bool]]:
        """The rank's Active Message handler: runs to completion and
        returns its one reply to ``src`` as ``(bytes, bulk)``, or None."""
        kind = raw[0]
        if kind == K_READ_REQ:
            _, req_id, name_id, index = _READ_REQ.unpack(raw)
            value = self._codecs[name_id].pack(self._arrays[name_id].item(index))
            return _READ_REP.pack(K_READ_REP, req_id, value), False
        elif kind == K_READ_REP:
            _, req_id, value = _READ_REP.unpack(raw)
            self._resolve(req_id, value)
        elif kind == K_WRITE_REQ:
            _, req_id, name_id, index, raw_value = _WRITE_REQ.unpack(raw)
            self._flats[name_id][index] = self._codecs[name_id].unpack(raw_value)[0]
            return _ACK.pack(K_WRITE_ACK, req_id), False
        elif kind == K_WRITE_ACK:
            _, req_id = _ACK.unpack(raw)
            if req_id in self._futures:
                self._resolve(req_id, None)  # scalar write completion
            else:
                # bulk put acknowledgment: counter-based (all_store_sync)
                self._puts_outstanding -= 1
                if self._puts_outstanding == 0:
                    waiters, self._put_drain = self._put_drain, []
                    for event in waiters:
                        event.succeed()
        elif kind == K_BULK_PUT:
            _, req_id, name_id, start = _BULK_PUT.unpack_from(raw)
            flat = self._flats[name_id]
            values = np.frombuffer(raw, dtype=flat.dtype, offset=_BULK_PUT.size)
            flat[start : start + values.size] = values
            return _ACK.pack(K_WRITE_ACK, req_id), False
        elif kind == K_GET_REQ:
            _, req_id, name_id, start, count = _GET_REQ.unpack(raw)
            data = self._flats[name_id][start : start + count].tobytes()
            return _GET_REP.pack(K_GET_REP, req_id) + data, True
        elif kind == K_GET_REP:
            _, req_id = _GET_REP.unpack(raw[: _GET_REP.size])
            self._resolve(req_id, raw[_GET_REP.size :])
        elif kind == K_BARRIER_ARRIVE:
            _, epoch = _BARRIER.unpack(raw)
            self._barrier_arrivals[epoch] = self._barrier_arrivals.get(epoch, 0) + 1
            if (
                self._barrier_arrivals[epoch] >= self.nprocs - 1
                and epoch in self._barrier_go
            ):
                self._barrier_go.pop(epoch).succeed()
        elif kind == K_STORE2:
            _, name_id, idx1, v1, idx2, v2 = _STORE2.unpack(raw)
            flat, unpack = self._flats[name_id], self._codecs[name_id].unpack
            flat[idx1] = unpack(v1)[0]
            flat[idx2] = unpack(v2)[0]
            return _ACK.pack(K_WRITE_ACK, 0), False
        elif kind == K_BARRIER_GO:
            _, epoch = _BARRIER.unpack(raw)
            if epoch in self._barrier_go:
                self._barrier_go.pop(epoch).succeed()
            else:
                self._barrier_done.add(epoch)
        else:
            raise ValueError(
                f"rank {self.rank}: unknown Split-C message kind {kind} "
                f"from rank {src}"
            )
        return None

    def _resolve(self, req_id: int, value) -> None:
        future = self._futures.pop(req_id, None)
        if future is not None and not future.triggered:
            future.succeed(value)
