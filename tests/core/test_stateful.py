"""Stateful property tests on core data structures and on the
descriptor protocol (hypothesis)."""

import pytest
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro.analysis import sanitize
from repro.core import UNetCluster
from repro.core.errors import ProtectionError, SegmentRangeError, UNetError
from repro.core.queues import DescriptorRing
from repro.core.segment import CommSegment, align_up
from repro.sim import Simulator


class SegmentAllocatorMachine(RuleBasedStateMachine):
    """Random alloc/free/write sequences must preserve the allocator's
    invariants: no overlap, no loss of capacity, data isolation."""

    def __init__(self):
        super().__init__()
        self.segment = CommSegment(16 * 1024)
        self.live = {}  # offset -> (length, fill byte)
        self.counter = 0

    @rule(size=st.integers(1, 600))
    def alloc(self, size):
        try:
            offset = self.segment.alloc(size)
        except SegmentRangeError:
            return
        self.counter = (self.counter + 1) % 255 or 1
        self.segment.write(offset, bytes([self.counter]) * size)
        self.live[offset] = (size, self.counter)

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def free_one(self, data):
        offset = data.draw(st.sampled_from(sorted(self.live)))
        size, _ = self.live.pop(offset)
        self.segment.free(offset, size)

    @invariant()
    def no_overlaps(self):
        spans = sorted(
            (off, off + align_up(size)) for off, (size, _) in self.live.items()
        )
        for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
            assert a1 <= b0, "allocations overlap"

    @invariant()
    def data_is_isolated(self):
        for offset, (size, fill) in self.live.items():
            assert self.segment.read(offset, size) == bytes([fill]) * size

    @invariant()
    def accounting_consistent(self):
        used = sum(align_up(size) for size, _ in self.live.values())
        assert self.segment.free_bytes == self.segment.size - used


TestSegmentAllocator = SegmentAllocatorMachine.TestCase
TestSegmentAllocator.settings = settings(
    max_examples=30, stateful_step_count=40, deadline=None
)


class RingMachine(RuleBasedStateMachine):
    """The descriptor ring is an exact bounded FIFO."""

    def __init__(self):
        super().__init__()
        self.sim = Simulator()
        self.ring = DescriptorRing(self.sim, capacity=8)
        self.model = []
        self.next_item = 0

    @rule()
    def push(self):
        ok = self.ring.push(self.next_item)
        if len(self.model) < 8:
            assert ok
            self.model.append(self.next_item)
        else:
            assert not ok  # back-pressure, never silent overwrite
        self.next_item += 1

    @rule()
    def pop(self):
        got = self.ring.pop()
        if self.model:
            assert got == self.model.pop(0)
        else:
            assert got is None

    @rule()
    def drain(self):
        assert self.ring.drain() == self.model
        self.model.clear()

    @invariant()
    def length_matches(self):
        assert len(self.ring) == len(self.model)
        assert self.ring.is_empty == (not self.model)
        assert self.ring.is_full == (len(self.model) == 8)

    @invariant()
    def peek_matches(self):
        expected = self.model[0] if self.model else None
        assert self.ring.peek() == expected


TestRing = RingMachine.TestCase
TestRing.settings = settings(max_examples=40, stateful_step_count=50, deadline=None)


class DescriptorProtocolMachine(RuleBasedStateMachine):
    """The §3.1/§3.4 descriptor protocol over a connected session pair.

    Each rule runs the simulation until it is idle, so every step ends
    with no message in flight.  Each session runs one receiver process
    that pops every arrival and holds its descriptor until a ``repost``
    rule gives the buffers back.  Closing the channel and destroying an
    endpoint are followed by a fresh channel or session, so the data
    path never ends; the survivor of a destroy sends on its old channel
    first.  The sanitizers are armed: an overlapping free
    buffer, a double free or a write into freed memory raises in the
    step that does it.

    Invariants: per direction, the receiver gets exactly the bytes
    sent, in order, except that each lost message moves exactly one
    drop counter; a failed or refused send leaves the sender's segment
    as it was; every free buffer is posted at the size it was provided
    with; a destroyed endpoint leaves no receiver blocked; and once the
    application frees its buffers, every segment holds what it held
    before the first rule.
    """

    #: NI model and endpoint kind; one TestCase per value below.
    kind = "sba200"
    SIDES = ("alice", "bob")
    #: receive buffers a session may own at once (segment and free ring
    #: room for them and a transient send buffer)
    MAX_OWNED_BYTES = 32 * 1024
    BUFFER_SIZES = st.sampled_from([256, 1024, 2048, 4160])

    def __init__(self):
        super().__init__()
        self._sanitize_was = sanitize.enable(True)
        self.sim = Simulator()
        ni_kind = "sba100" if self.kind == "sba100" else "sba200"
        self.cluster = UNetCluster.pair(self.sim, ni_kind=ni_kind)
        self.opened = 0
        self.sessions, self.receivers = {}, {}
        #: per current session: application-owned receive buffers
        #: (offset -> size), descriptors received and not yet reposted,
        #: payloads received in order, and every (offset, length) the
        #: application posted on the free queue
        self.owned, self.held, self.got, self.posted = {}, {}, {}, {}
        for side in self.SIDES:
            self._open(side)
        self._connect()
        self.kernel_segments = (
            [self.cluster.agent(side).emulation.real.segment for side in self.SIDES]
            if self.kind == "emulated"
            else []
        )
        self.kernel_baseline = [s.live_allocations for s in self.kernel_segments]
        self._settle()

    # -- helpers -----------------------------------------------------------
    def _settle(self):
        self.sim.run(until=self.sim.now + 1e6)

    def _run(self, generator):
        """Run one application step to completion; returns its value,
        or raises what it raised."""
        out = {}

        def step():
            try:
                out["value"] = yield from generator
            except Exception as exc:  # handed back to the rule
                out["error"] = exc

        proc = self.sim.process(step())
        self._settle()
        assert not proc.is_alive, "application step did not complete"
        if "error" in out:
            raise out["error"]
        return out.get("value")

    def _open(self, side):
        """Open a fresh session for ``side`` and start its receiver."""
        self.opened += 1
        session = self.cluster.open_session(
            side, f"p{self.opened}", emulated=self.kind == "emulated"
        )
        self.sessions[side] = session
        self.owned[side], self.held[side], self.got[side] = {}, [], []
        self.posted[side] = posted = []
        post_free = session.endpoint.post_free

        def recording_post_free(free, caller):
            posted.append((free.offset, free.length))
            return post_free(free, caller)

        session.endpoint.post_free = recording_post_free
        self.receivers[side] = self.sim.process(
            self._receiver(session, self.held[side], self.got[side]),
            name=f"recv.{side}.{self.opened}",
        )

    def _receiver(self, session, held, got):
        while True:
            try:
                desc = yield from session.recv()
            except UNetError:
                assert session.endpoint.destroyed
                return
            held.append(desc)
            got.append(session.peek_payload(desc))

    def _connect(self):
        ch_a, ch_b = self.cluster.connect_sessions(
            self.sessions["alice"], self.sessions["bob"]
        )
        self.channels = {"alice": ch_a, "bob": ch_b}

    def _destroy(self, side):
        """Destroy ``side``'s endpoint; its receiver must end."""
        session = self.sessions[side]
        self.cluster.agent(side).destroy_endpoint(session.endpoint, session.caller)
        self._settle()
        assert not self.receivers[side].is_alive, (
            f"{side}'s receiver is still blocked on a destroyed endpoint"
        )
        return session

    def _release(self, session, owned):
        """The application frees its buffers; the segment must then be
        empty."""
        for offset, size in owned.items():
            session.free(offset, size)
        assert session.endpoint.segment.live_allocations == 0

    def _refused(self, side, size, expected):
        """A send that must raise ``expected`` and give back its
        transient buffer."""
        session, live = self.sessions[side], self._live(side)
        with pytest.raises(UNetError) as info:
            self._run(session.send_copy(self.channels[side].ident, bytes(size)))
        assert type(info.value) is expected
        assert self._live(side) == live

    def _peer(self, side):
        return "bob" if side == "alice" else "alice"

    def _drops(self, side):
        """Every drop counter that can count a message lost on its way
        to ``side``, by name."""
        endpoint = self.sessions[side].endpoint
        counts = {
            "no_buffer": endpoint.no_buffer_drops,
            "ring_full": endpoint.receive_drops,
            "rxfifo": self.cluster.hosts[side].ni.input_fifo_drops,
            "tx_error": self.cluster.hosts[self._peer(side)].ni.send_errors,
        }
        if self.kind == "emulated":
            emulation = self.cluster.agent(side).emulation
            counts["kernel_no_buffer"] = emulation.real.no_buffer_drops
            counts["kernel_ring_full"] = emulation.real.receive_drops
            counts["kernel_unmatched"] = emulation.unmatched
        return counts

    def _live(self, side):
        return self.sessions[side].endpoint.segment.live_allocations

    def _provide(self, side, sizes):
        """Provide one buffer per size, in order."""
        session, owned = self.sessions[side], self.owned[side]
        for size in sizes:
            if sum(owned.values()) + size > self.MAX_OWNED_BYTES:
                return
            (offset,) = self._run(session.provide_receive_buffers(1, size=size))
            owned[offset] = size

    # -- rules -------------------------------------------------------------
    @initialize(sizes=st.lists(BUFFER_SIZES, min_size=2, max_size=4))
    def provide_both(self, sizes):
        """Every run starts with buffers of mixed sizes on both sides."""
        for side in self.SIDES:
            self._provide(side, sizes)

    @rule(side=st.sampled_from(SIDES), sizes=st.lists(BUFFER_SIZES, min_size=1, max_size=4))
    def provide(self, side, sizes):
        self._provide(side, sizes)

    @rule(
        side=st.sampled_from(SIDES),
        sizes=st.lists(
            st.one_of(st.integers(1, 40), st.integers(41, 6000)),
            min_size=1,
            max_size=4,
        ),
    )
    def send(self, side, sizes):
        """Send messages one at a time: inline (at most 40 bytes) or
        copied through a transient segment buffer."""
        for size in sizes:
            self._send_one(side, bytes((size + i) % 251 for i in range(size)))

    def _send_one(self, side, payload):
        dst = self._peer(side)
        live, drops = self._live(side), self._drops(dst)
        got = len(self.got[dst])
        self._run(self.sessions[side].send_copy(self.channels[side].ident, payload))
        assert self._live(side) == live, "send_copy kept its transient buffer"
        lost = {
            name: count - drops[name]
            for name, count in self._drops(dst).items()
            if count != drops[name]
        }
        if len(self.got[dst]) == got + 1:
            assert self.got[dst][-1] == payload
            assert not lost, f"delivered message also counted as {lost}"
        else:
            assert len(self.got[dst]) == got
            assert list(lost.values()) == [1], (
                f"lost message counted as {lost or 'nothing'}"
            )

    @precondition(lambda self: any(self.held[s] for s in self.SIDES))
    @rule(data=st.data())
    def repost(self, data):
        """Repost some held descriptors, in any order."""
        side = data.draw(st.sampled_from([s for s in self.SIDES if self.held[s]]))
        held = self.held[side]
        order = data.draw(st.permutations(range(len(held))))
        picked = order[: data.draw(st.integers(1, len(held)))]
        descs = [held[i] for i in picked]
        held[:] = [d for i, d in enumerate(held) if i not in picked]
        for desc in descs:
            self._run(self.sessions[side].repost_free(desc))

    @rule(side=st.sampled_from(SIDES), size=st.integers(41, 6000))
    def failed_write(self, side, size):
        session, dst = self.sessions[side], self._peer(side)
        live, got = self._live(side), len(self.got[dst])

        def boom(offset, data):
            raise RuntimeError("injected write failure")

        session.write_segment = boom
        try:
            with pytest.raises(RuntimeError, match="injected"):
                self._run(session.send_copy(self.channels[side].ident, bytes(size)))
        finally:
            del session.write_segment
        assert self._live(side) == live
        assert len(self.got[dst]) == got

    @rule(size=st.integers(1, 6000))
    def close_channel(self, size):
        """Disconnect; a send on either closed half raises and gives its
        transient buffer back.  Then connect a fresh channel pair."""
        alice = self.sessions["alice"]
        self.cluster.directory.disconnect(self.channels["alice"], alice.caller)
        for side in self.SIDES:
            self._refused(side, size, ProtectionError)
        self._connect()

    @rule(side=st.sampled_from(SIDES), size=st.integers(1, 6000))
    def destroy_endpoint(self, side, size):
        """Destroy one endpoint; a send from it raises, and so does one
        from the survivor, whose half of the channel closed with it.
        The application frees its buffers, then opens a fresh session
        and channel."""
        session = self._destroy(side)
        self._refused(side, size, UNetError)
        self._refused(self._peer(side), size, ProtectionError)
        self._release(session, self.owned[side])
        self._open(side)
        self._connect()

    # -- invariants ----------------------------------------------------------
    @invariant()
    def free_buffers_are_posted_at_their_own_size(self):
        for side in self.SIDES:
            owned = self.owned[side]
            for offset, length in self.posted[side]:
                assert owned.get(offset) == length, (
                    f"{side} posted buffer {offset} at {length} bytes, "
                    f"provided at {owned.get(offset)}"
                )

    def teardown(self):
        try:
            for side in self.SIDES:
                if self.sessions[side].endpoint.destroyed:
                    continue  # a step failed while destroying it
                self._release(self._destroy(side), self.owned[side])
            assert [s.live_allocations for s in self.kernel_segments] == (
                self.kernel_baseline
            )
        finally:
            sanitize.enable(self._sanitize_was)


def _protocol_case(kind):
    machine = type(
        f"DescriptorProtocol_{kind}", (DescriptorProtocolMachine,), {"kind": kind}
    )
    case = machine.TestCase
    case.settings = settings(
        max_examples=30,
        stateful_step_count=30,
        deadline=None,
        derandomize=True,
        report_multiple_bugs=False,
    )
    return case


TestDescriptorProtocolSba200 = _protocol_case("sba200")
TestDescriptorProtocolSba100 = _protocol_case("sba100")
TestDescriptorProtocolEmulated = _protocol_case("emulated")
