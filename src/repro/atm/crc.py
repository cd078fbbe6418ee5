"""Checksums used by the substrate.

* CRC-32 (IEEE 802.3 polynomial) as used by the AAL5 trailer.  The
  SBA-200 computes this in hardware; the SBA-100 lacks the hardware and
  the paper charges the host CPU for it (Table 1 discussion).
* The 16-bit one's-complement Internet checksum used by UDP/TCP (§7.6).
"""

from __future__ import annotations

import zlib


def crc32_aal5(data: bytes, crc: int = 0xFFFFFFFF) -> int:
    """CRC-32 over ``data``; chainable via the ``crc`` argument.

    Returns the final (inverted) CRC value as used in the AAL5 trailer.
    To chain, pass the *raw* running value: use :func:`crc32_update` for
    incremental computation.
    """
    return crc32_finish(crc32_update(data, crc))


def crc32_update(data: bytes, crc: int = 0xFFFFFFFF) -> int:
    """Incremental CRC-32 update; returns the running (non-inverted) value.

    ``zlib.crc32`` implements the same reflected 0xEDB88320 polynomial
    but exposes the *finished* (inverted) value; bridging the two
    conventions is the pair of XORs below.  Identical output to the old
    pure-Python table loop, at C speed.
    """
    return zlib.crc32(data, crc ^ 0xFFFFFFFF) ^ 0xFFFFFFFF


def crc32_finish(crc: int) -> int:
    return crc ^ 0xFFFFFFFF


def internet_checksum(data: bytes) -> int:
    """RFC 1071 16-bit one's-complement checksum.

    Since 2**16 is congruent to 1 mod 0xFFFF, the end-around-carry sum
    of the big-endian 16-bit words is congruent to the whole buffer read
    as one big-endian integer, so the folded sum is that integer mod
    0xFFFF, computed in C.  One exception: a non-zero buffer whose
    integer is a multiple of 0xFFFF folds to 0xFFFF, not 0 (only the
    all-zero buffer sums to 0).  An odd length is padded with a zero
    byte, as RFC 1071 requires.
    """
    total = int.from_bytes(data, "big")
    if len(data) & 1:
        total <<= 8
    folded = total % 0xFFFF
    if not folded and total:
        folded = 0xFFFF
    return 0xFFFF - folded
