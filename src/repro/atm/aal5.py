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


def segment_pdu(payload: bytes, vci: int) -> List[Cell]:
    """Segment ``payload`` into AAL5 cells tagged with ``vci``."""
    if len(payload) > AAL5_MAX_PDU:
        raise AAL5Error(f"PDU too large for AAL5: {len(payload)} bytes")
    if not 0 <= vci <= MAX_VCI:
        raise ValueError(f"VCI out of range: {vci}")
    n_cells = cells_for_pdu(len(payload))
    pad_len = n_cells * ATM_PAYLOAD_SIZE - len(payload) - AAL5_TRAILER_SIZE
    body = payload + bytes(pad_len) + struct.pack(">BBH", 0, 0, len(payload))
    crc = crc32_finish(crc32_update(body))
    cpcs = body + struct.pack(">I", crc)
    assert len(cpcs) == n_cells * ATM_PAYLOAD_SIZE
    # The VCI is checked once above and every slice is 48 bytes by
    # construction, so the cells skip ``Cell.__init__`` validation, the
    # same way ``Cell.with_vci`` does.
    new = object.__new__
    last = n_cells - 1
    cells = []
    for i in range(n_cells):
        # The cells *are* the product of segmentation; one object per
        # wire cell is the modelled behaviour, not overhead.
        cell = new(Cell)
        cell.vci = vci
        cell.payload = cpcs[i * ATM_PAYLOAD_SIZE : (i + 1) * ATM_PAYLOAD_SIZE]
        cell.last = i == last
        cell.seq = i
        cells.append(cell)
    return cells


def reassemble_pdu(cells: List[Cell]) -> bytes:
    """Reassemble a complete list of cells back into the PDU payload.

    Raises :class:`AAL5Error` when the trailer length or CRC does not
    verify (e.g. after cell loss).
    """
    if not cells:
        raise AAL5Error("no cells to reassemble")
    cpcs = b"".join(cell.payload for cell in cells)
    uu_cpi_len = cpcs[-AAL5_TRAILER_SIZE : -4]
    (length,) = struct.unpack(">H", uu_cpi_len[2:4])
    (got_crc,) = struct.unpack(">I", cpcs[-4:])
    want_crc = crc32_finish(crc32_update(cpcs[:-4]))
    if got_crc != want_crc:
        raise AAL5Error("AAL5 CRC mismatch")
    if length > len(cpcs) - AAL5_TRAILER_SIZE:
        raise AAL5Error(f"AAL5 length field {length} exceeds PDU body")
    if len(cells) > 1 and length + AAL5_TRAILER_SIZE <= (len(cells) - 1) * ATM_PAYLOAD_SIZE:
        # This payload would have fit in fewer cells: a cell count mismatch.
        raise AAL5Error("AAL5 length inconsistent with cell count")
    return cpcs[:length]


class Reassembler:
    """Per-VCI reassembly state machine.

    Feed cells with :meth:`push`; a completed PDU payload is returned
    when the last cell of a PDU arrives, ``None`` otherwise.  Corrupted
    PDUs (cell loss) are counted and dropped.
    """

    def __init__(self, max_cells: int = 4096):
        self.max_cells = max_cells
        self._partial: Dict[int, List[Cell]] = {}
        self.completed_pdus = 0
        self.crc_errors = 0
        self.overflows = 0

    def push(self, cell: Cell) -> Optional[bytes]:
        buf = self._partial.setdefault(cell.vci, [])
        buf.append(cell)
        if len(buf) > self.max_cells:
            # Runaway PDU (lost last-cell marker): drop accumulated state.
            self.overflows += 1
            self._partial[cell.vci] = []
            _o = obs.active
            if _o is not None:
                _o.count("aal5.overflows")
            return None
        if not cell.last:
            return None
        cells, self._partial[cell.vci] = buf, []
        _o = obs.active
        try:
            payload = reassemble_pdu(cells)
        except AAL5Error:
            self.crc_errors += 1
            if _o is not None:
                _o.count("aal5.crc_errors")
            return None
        self.completed_pdus += 1
        if _o is not None:
            _o.count("aal5.pdus_reassembled")
            _o.count("aal5.cells_reassembled", len(cells))
        return payload

    def push_run(self, cells: List[Cell]) -> None:
        """:meth:`push` for a run of cells of one VCI in one step.  The
        caller guarantees that no cell of the run ends a PDU and that
        the run fits under ``max_cells``, so every push would only have
        appended."""
        self._partial.setdefault(cells[0].vci, []).extend(cells)

    def pending_cells(self, vci: int) -> int:
        return len(self._partial.get(vci, ()))
