"""The BSD mbuf buffering model that dooms the kernel path (§7.3).

SunOS fills 1 Kbyte cluster mbufs with data and, when the remainder is
smaller than 512 bytes, copies it into chains of 112-byte small mbufs.
Small mbufs have no reference-count mechanism (unlike clusters), so
every traversal copies them -- "this allocation method has a strong
degrading effect on the performance of the protocols" and is the cause
of Figure 7's saw-tooth.
"""

from __future__ import annotations

from dataclasses import dataclass

MBUF_SMALL_BYTES = 112
MBUF_CLUSTER_BYTES = 1024
SMALL_REMAINDER_LIMIT = 512


@dataclass(frozen=True)
class MbufChain:
    """The shape of the mbuf chain the kernel builds for one packet."""

    data_bytes: int
    clusters: int
    smalls: int

    @property
    def wasted_bytes(self) -> int:
        """Allocated but unused buffer space."""
        cap = self.clusters * MBUF_CLUSTER_BYTES + self.smalls * MBUF_SMALL_BYTES
        return cap - self.data_bytes

    def processing_us(self, cluster_us: float, small_us: float) -> float:
        """Per-chain handling cost: small mbufs cost more per byte held
        because they are copied (no reference counts)."""
        return self.clusters * cluster_us + self.smalls * small_us


def mbuf_chain_for(size: int) -> MbufChain:
    """The SunOS allocation rule of §7.3: fill 1 KB clusters; if the
    remainder is under 512 bytes it goes into 112-byte small mbufs,
    otherwise into one more (mostly-empty) cluster."""
    if size < 0:
        raise ValueError("negative packet size")
    if size == 0:
        return MbufChain(data_bytes=0, clusters=0, smalls=1)
    clusters, remainder = divmod(size, MBUF_CLUSTER_BYTES)
    if remainder == 0:
        return MbufChain(data_bytes=size, clusters=clusters, smalls=0)
    if remainder < SMALL_REMAINDER_LIMIT:
        smalls = -(-remainder // MBUF_SMALL_BYTES)
        return MbufChain(data_bytes=size, clusters=clusters, smalls=smalls)
    return MbufChain(data_bytes=size, clusters=clusters + 1, smalls=0)
