"""Runtime sanitizer tests: segment ownership and ring invariants."""

import pytest

from repro.analysis import sanitize
from repro.core import (
    CommSegment,
    DescriptorRing,
    FreeDescriptor,
    QueueInvariantError,
    SegmentOwnershipError,
)
from repro.core.descriptors import SendDescriptor
from repro.sim import Simulator


# -- segment ownership: always-on hardening (no sanitizer needed) ---------

def test_double_free_raises_without_sanitizer():
    seg = CommSegment(256, owner="app")
    off = seg.alloc(32)
    seg.free(off, 32)
    with pytest.raises(SegmentOwnershipError):
        seg.free(off, 32)


def test_free_of_never_allocated_offset():
    seg = CommSegment(256)
    with pytest.raises(SegmentOwnershipError, match="never-allocated"):
        seg.free(64, 32)


def test_free_length_mismatch():
    seg = CommSegment(256)
    off = seg.alloc(64)
    with pytest.raises(SegmentOwnershipError, match="length mismatch"):
        seg.free(off, 8)


def test_overlapping_free_cuts_into_live_allocation():
    seg = CommSegment(256)
    off = seg.alloc(64)
    with pytest.raises(SegmentOwnershipError, match="overlapping free"):
        seg.free(off + 8, 16)


def test_matching_free_still_works():
    seg = CommSegment(256)
    off = seg.alloc(40)
    seg.free(off, 40)
    assert seg.live_allocations == 0
    assert seg.free_bytes == 256


# -- segment sanitizer --------------------------------------------------

def test_sanitizer_classifies_double_free(sanitizers_on):
    seg = CommSegment(256, owner="app")
    off = seg.alloc(32)
    seg.free(off, 32)
    with pytest.raises(SegmentOwnershipError, match="double free"):
        seg.free(off, 32)


def test_use_after_free_write_detected(sanitizers_on):
    seg = CommSegment(256, owner="app")
    off = seg.alloc(32)
    seg.free(off, 32)
    with pytest.raises(SegmentOwnershipError, match="use-after-free"):
        seg.write(off, b"x" * 8)


def test_realloc_unpoisons_region(sanitizers_on):
    seg = CommSegment(64)
    off = seg.alloc(32)
    seg.free(off, 32)
    off2 = seg.alloc(32)
    assert off2 == off
    seg.write(off2, b"y" * 32)  # no longer poisoned
    seg.free(off2, 32)


def test_leak_at_teardown_detected(sanitizers_on):
    seg = CommSegment(256, owner="leaky")
    seg.alloc(16)
    with pytest.raises(SegmentOwnershipError, match="leak"):
        seg.check_teardown()


def test_sanitized_context_reports_leaks():
    with pytest.raises(SegmentOwnershipError, match="leak"):
        with sanitize.sanitized():
            seg = CommSegment(256, owner="leaky")
            seg.alloc(16)


def test_sanitized_context_clean_exit():
    before = sanitize.enabled()
    with sanitize.sanitized():
        seg = CommSegment(256)
        off = seg.alloc(16)
        seg.free(off, 16)
    assert sanitize.enabled() == before


def test_write_after_free_is_unchecked_when_off(sanitizers_off):
    assert not sanitize.enabled()
    seg = CommSegment(256)
    off = seg.alloc(32)
    seg.free(off, 32)
    seg.write(off, b"raw access stays legal")  # raw offsets are the primitive
    assert seg._san is None  # zero per-write overhead beyond a None check


def test_fixture_armed_runtime(sanitized_runtime):
    seg = CommSegment(128)
    off = seg.alloc(24)
    assert seg._san is not None
    seg.free(off, 24)


# -- descriptor ring invariants -------------------------------------------

def test_ring_recycle_before_consume(sanitizers_on):
    sim = Simulator()
    ring = DescriptorRing(sim, capacity=4, name="recv")
    desc = FreeDescriptor(offset=0, length=64)
    assert ring.push(desc)
    with pytest.raises(QueueInvariantError, match="recycled"):
        ring.push(desc)


def test_ring_repush_after_pop_is_legal(sanitizers_on):
    sim = Simulator()
    ring = DescriptorRing(sim, capacity=4)
    desc = FreeDescriptor(offset=0, length=64)
    assert ring.push(desc)
    assert ring.pop() is desc
    assert ring.push(desc)


def test_ring_overlapping_free_buffers(sanitizers_on):
    sim = Simulator()
    ring = DescriptorRing(sim, capacity=4, name="free")
    assert ring.push(FreeDescriptor(offset=0, length=64))
    with pytest.raises(QueueInvariantError, match="overlaps"):
        ring.push(FreeDescriptor(offset=32, length=64))


def test_ring_send_descriptors_may_repeat_buffers(sanitizers_on):
    # Send paths legitimately reuse the same staging buffer; only the
    # *free queue* (NI-owned scatter targets) checks overlap.
    sim = Simulator()
    ring = DescriptorRing(sim, capacity=4)
    a = SendDescriptor(channel=0, bufs=((0, 64),))
    b = SendDescriptor(channel=0, bufs=((0, 64),))
    assert ring.push(a)
    assert ring.push(b)


def test_ring_drain_clears_tracking(sanitizers_on):
    sim = Simulator()
    ring = DescriptorRing(sim, capacity=4)
    desc = FreeDescriptor(offset=0, length=64)
    assert ring.push(desc)
    assert ring.drain() == [desc]
    assert ring.push(desc)


def test_ring_overflow_invariant_direct():
    # Normal pushes back-pressure before the invariant can trip; the
    # overflow check guards against code bypassing push().
    san = sanitize.RingSanitizer("bypass")
    with pytest.raises(QueueInvariantError, match="overflow"):
        san.on_push(object(), occupancy=4, capacity=4)


def test_rings_have_no_sanitizer_when_off(sanitizers_off):
    assert not sanitize.enabled()
    sim = Simulator()
    ring = DescriptorRing(sim, capacity=2)
    assert ring._san is None
    desc = FreeDescriptor(offset=0, length=64)
    assert ring.push(desc)
    assert ring.pop() is desc


# -- end-to-end: a full cluster run under the sanitizer -------------------

def test_cluster_rtt_run_is_sanitizer_clean(sanitized_runtime):
    from repro.core import UNetCluster

    sim = Simulator()
    cluster = UNetCluster.pair(sim)
    sa = cluster.open_session("alice", "san-a")
    sb = cluster.open_session("bob", "san-b")
    ch_a, ch_b = cluster.connect_sessions(sa, sb, service="san-svc")
    payload = bytes(48)
    got = []
    posted = {"a": [], "b": []}

    def pinger():
        posted["a"] = yield from sa.provide_receive_buffers(4)
        yield from sa.send_copy(ch_a.ident, payload)
        desc = yield from sa.recv()
        got.append(sa.peek_payload(desc))
        if not desc.is_inline:
            yield from sa.repost_free(desc)

    def ponger():
        posted["b"] = yield from sb.provide_receive_buffers(4)
        desc = yield from sb.recv()
        yield from sb.send_copy(ch_b.ident, sb.peek_payload(desc))
        if not desc.is_inline:
            yield from sb.repost_free(desc)

    sim.process(pinger(), name="san.pinger")
    sim.process(ponger(), name="san.ponger")
    sim.run()
    assert got == [payload]
    # Tear down: return every posted receive buffer so the fixture's
    # leak check sees a clean slate.
    for session, offsets in ((sa, posted["a"]), (sb, posted["b"])):
        for offset in offsets:
            session.free(offset, 4160)
