"""AAL5 segmentation and reassembly.

A CPCS-PDU is the payload padded to a multiple of 48 bytes such that the
last 8 bytes form the trailer: UU (1), CPI (1), Length (2, big-endian),
CRC-32 (4).  The CRC covers payload, padding, and the first four trailer
bytes.  Dropping any cell of a PDU makes the reassembled PDU fail its
length or CRC check and the whole PDU is discarded -- the behaviour that
makes large TCP segments risky over ATM (paper §7.8, Romanow & Floyd).
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional

from repro import obs
from repro.atm.cell import ATM_CELL_SIZE, ATM_PAYLOAD_SIZE, MAX_VCI, Cell
from repro.atm.crc import crc32_finish, crc32_update

AAL5_TRAILER_SIZE = 8
#: Maximum CPCS-PDU payload length (16-bit length field).
AAL5_MAX_PDU = 65535


class AAL5Error(ValueError):
    """Raised on reassembly failure (bad CRC, bad length, oversized PDU)."""


def cells_for_pdu(payload_len: int) -> int:
    """Number of cells needed to carry a ``payload_len``-byte PDU."""
    if payload_len < 0:
        raise ValueError("negative PDU length")
    total = payload_len + AAL5_TRAILER_SIZE
    return max(1, -(-total // ATM_PAYLOAD_SIZE))


def aal5_limit_bandwidth(payload_len: int, link_bps: float) -> float:
    """Theoretical peak payload bandwidth (bytes/sec) for PDUs of one size.

    This is the "AAL-5 limit" curve of Figure 4: the sawtooth comes from
    the 48-byte cell quantization and the 8-byte trailer.
    """
    if payload_len <= 0:
        return 0.0
    n_cells = cells_for_pdu(payload_len)
    wire_seconds = n_cells * ATM_CELL_SIZE * 8 / link_bps
    return payload_len / wire_seconds


def cpcs_encode(payload: bytes) -> bytes:
    """The CPCS-PDU of ``payload``: the payload, its padding and the
    trailer with its CRC, a whole number of 48-byte cells long."""
    if len(payload) > AAL5_MAX_PDU:
        raise AAL5Error(f"PDU too large for AAL5: {len(payload)} bytes")
    n_cells = cells_for_pdu(len(payload))
    pad_len = n_cells * ATM_PAYLOAD_SIZE - len(payload) - AAL5_TRAILER_SIZE
    body = payload + bytes(pad_len) + struct.pack(">BBH", 0, 0, len(payload))
    crc = crc32_finish(crc32_update(body))
    return body + struct.pack(">I", crc)


def cpcs_cell(cpcs: bytes, vci: int, i: int) -> Cell:
    """Cell ``i`` of the CPCS-PDU ``cpcs``, tagged with ``vci``.

    The VCI is checked once per PDU by the caller and every slice is 48
    bytes by construction, so the cell skips ``Cell.__init__``
    validation, the same way ``Cell.with_vci`` does."""
    cell = object.__new__(Cell)
    cell.vci = vci
    end = (i + 1) * ATM_PAYLOAD_SIZE
    cell.payload = cpcs[end - ATM_PAYLOAD_SIZE : end]
    cell.last = end == len(cpcs)
    cell.seq = i
    return cell


def segment_pdu(payload: bytes, vci: int) -> List[Cell]:
    """Segment ``payload`` into AAL5 cells tagged with ``vci``."""
    cpcs = cpcs_encode(payload)
    if not 0 <= vci <= MAX_VCI:
        raise ValueError(f"VCI out of range: {vci}")
    return [cpcs_cell(cpcs, vci, i) for i in range(len(cpcs) // ATM_PAYLOAD_SIZE)]


def cpcs_decode(cpcs: bytes) -> bytes:
    """The payload of a received CPCS-PDU.

    Raises :class:`AAL5Error` when the trailer length or CRC does not
    verify (e.g. after cell loss)."""
    (length,) = struct.unpack(">H", cpcs[-6:-4])
    (got_crc,) = struct.unpack(">I", cpcs[-4:])
    want_crc = crc32_finish(crc32_update(cpcs[:-4]))
    if got_crc != want_crc:
        raise AAL5Error("AAL5 CRC mismatch")
    if length > len(cpcs) - AAL5_TRAILER_SIZE:
        raise AAL5Error(f"AAL5 length field {length} exceeds PDU body")
    if (
        len(cpcs) > ATM_PAYLOAD_SIZE
        and length + AAL5_TRAILER_SIZE <= len(cpcs) - ATM_PAYLOAD_SIZE
    ):
        # This payload would have fit in fewer cells: a cell count mismatch.
        raise AAL5Error("AAL5 length inconsistent with cell count")
    return cpcs[:length]


def reassemble_pdu(cells: List[Cell]) -> bytes:
    """Reassemble a complete list of cells back into the PDU payload.

    Raises :class:`AAL5Error` when the trailer length or CRC does not
    verify (e.g. after cell loss).
    """
    if not cells:
        raise AAL5Error("no cells to reassemble")
    return cpcs_decode(b"".join(cell.payload for cell in cells))


class _Partial:
    """The cells of one VCI received since its last PDU ended, as the
    byte chunks they arrived in."""

    __slots__ = ("chunks", "cells")

    def __init__(self):
        self.chunks: List[bytes] = []
        self.cells = 0


class Reassembler:
    """Per-VCI reassembly state machine.

    Feed cells with :meth:`push`, or runs of cells with
    :meth:`push_run`; a completed PDU payload is returned when the last
    cell of a PDU arrives, ``None`` otherwise.  Corrupted PDUs (cell
    loss) are counted and dropped.
    """

    def __init__(self, max_cells: int = 4096):
        self.max_cells = max_cells
        self._partial: Dict[int, _Partial] = {}
        self.completed_pdus = 0
        self.crc_errors = 0
        self.overflows = 0

    def push(self, cell: Cell) -> Optional[bytes]:
        return self.push_run(cell.vci, cell.payload, cell.last)

    def push_run(self, vci: int, chunk: bytes, last: bool) -> Optional[bytes]:
        """:meth:`push` for consecutive cells of ``vci`` whose payloads,
        joined, are ``chunk``; ``last`` says whether the final cell ends
        a PDU.  The result is the one a push of each cell in turn would
        have returned for the final cell."""
        partial = self._partial.get(vci)
        if partial is None:
            partial = self._partial[vci] = _Partial()
        n = len(chunk) // ATM_PAYLOAD_SIZE
        while partial.cells + n > self.max_cells:
            # Runaway PDU (lost last-cell marker): the cell that goes
            # past max_cells is dropped with the accumulated state.
            k = self.max_cells + 1 - partial.cells
            self.overflows += 1
            partial.chunks = []
            partial.cells = 0
            _o = obs.active
            if _o is not None:
                _o.count("aal5.overflows")
            n -= k
            if not n:
                return None
            chunk = chunk[k * ATM_PAYLOAD_SIZE :]
        partial.chunks.append(chunk)
        partial.cells += n
        if not last:
            return None
        chunks = partial.chunks
        n_cells = partial.cells
        partial.chunks = []
        partial.cells = 0
        _o = obs.active
        try:
            payload = cpcs_decode(b"".join(chunks))
        except AAL5Error:
            self.crc_errors += 1
            if _o is not None:
                _o.count("aal5.crc_errors")
            return None
        self.completed_pdus += 1
        if _o is not None:
            _o.count("aal5.pdus_reassembled")
            _o.count("aal5.cells_reassembled", n_cells)
        return payload

    def pending_cells(self, vci: int) -> int:
        partial = self._partial.get(vci)
        return 0 if partial is None else partial.cells
