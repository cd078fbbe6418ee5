"""AAL5 segmentation/reassembly tests, including loss behaviour."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.atm.aal5 import (
    AAL5Error,
    Reassembler,
    aal5_limit_bandwidth,
    cells_for_pdu,
    reassemble_pdu,
    segment_pdu,
)
from repro.atm.cell import ATM_PAYLOAD_SIZE, Cell


class TestCellCount:
    @pytest.mark.parametrize(
        "length,cells",
        [
            (0, 1),
            (1, 1),
            (40, 1),  # 40 + 8 trailer = 48: the single-cell boundary
            (41, 2),
            (48, 2),
            (88, 2),
            (89, 3),
            (4096, 86),
        ],
    )
    def test_cells_for_pdu(self, length, cells):
        assert cells_for_pdu(length) == cells

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            cells_for_pdu(-1)

    @given(st.integers(0, 20000))
    def test_segment_matches_cells_for_pdu(self, length):
        cells = segment_pdu(bytes(length), vci=42)
        assert len(cells) == cells_for_pdu(length)


class TestRoundTrip:
    @given(st.binary(max_size=2000))
    @settings(max_examples=60)
    def test_segment_reassemble_identity(self, payload):
        cells = segment_pdu(payload, vci=7)
        assert reassemble_pdu(cells) == payload

    def test_last_flag_only_on_final_cell(self):
        cells = segment_pdu(bytes(500), vci=1)
        assert [c.last for c in cells] == [False] * (len(cells) - 1) + [True]

    def test_all_cells_carry_vci(self):
        cells = segment_pdu(bytes(100), vci=99)
        assert all(c.vci == 99 for c in cells)

    def test_payload_sizes_are_48(self):
        for cell in segment_pdu(bytes(333), vci=1):
            assert len(cell.payload) == ATM_PAYLOAD_SIZE

    def test_oversized_pdu_rejected(self):
        with pytest.raises(AAL5Error):
            segment_pdu(bytes(65536), vci=1)

    def test_empty_pdu(self):
        cells = segment_pdu(b"", vci=1)
        assert len(cells) == 1
        assert reassemble_pdu(cells) == b""


class TestLossDetection:
    def _cells(self, n_bytes=300):
        return segment_pdu(bytes(range(256)) + bytes(n_bytes - 256), vci=5)

    def test_dropped_middle_cell_detected(self):
        cells = self._cells()
        del cells[2]
        with pytest.raises(AAL5Error):
            reassemble_pdu(cells)

    def test_dropped_first_cell_detected(self):
        cells = self._cells()
        del cells[0]
        with pytest.raises(AAL5Error):
            reassemble_pdu(cells)

    def test_corrupted_byte_detected(self):
        cells = self._cells()
        bad = bytearray(cells[1].payload)
        bad[10] ^= 0xFF
        cells[1] = Cell(vci=5, payload=bytes(bad), last=False)
        with pytest.raises(AAL5Error):
            reassemble_pdu(cells)

    def test_no_cells_rejected(self):
        with pytest.raises(AAL5Error):
            reassemble_pdu([])

    @given(st.integers(0, 6))
    def test_any_single_drop_detected(self, idx):
        cells = self._cells()
        idx = idx % len(cells)
        del cells[idx]
        if not cells:
            return
        with pytest.raises(AAL5Error):
            reassemble_pdu(cells)


class TestReassembler:
    def test_interleaved_vcis(self):
        """Cells of different VCIs may interleave on the wire; per-VCI
        reassembly must keep them apart."""
        r = Reassembler()
        a = segment_pdu(b"A" * 100, vci=1)
        b = segment_pdu(b"B" * 100, vci=2)
        out = []
        for ca, cb in zip(a, b):
            out.append(r.push(ca))
            out.append(r.push(cb))
        done = [x for x in out if x is not None]
        assert sorted(done) == [b"A" * 100, b"B" * 100]
        assert r.completed_pdus == 2

    def test_crc_error_counted_and_dropped(self):
        r = Reassembler()
        cells = segment_pdu(bytes(200), vci=3)
        del cells[1]
        for cell in cells:
            result = r.push(cell)
        assert result is None
        assert r.crc_errors == 1
        assert r.completed_pdus == 0

    def test_recovers_after_error(self):
        r = Reassembler()
        bad = segment_pdu(bytes(200), vci=3)[1:]  # first cell lost
        for cell in bad:
            r.push(cell)
        good = segment_pdu(b"ok" * 30, vci=3)
        result = None
        for cell in good:
            result = r.push(cell)
        assert result == b"ok" * 30

    def test_runaway_pdu_overflow(self):
        r = Reassembler(max_cells=4)
        # last-cell marker never arrives: 9 cells, overflow fires at the
        # 5th push and the accumulated state is discarded.
        cells = segment_pdu(bytes(400), vci=1)
        for cell in cells[:-1]:
            r.push(cell)
        assert r.overflows == 1
        # Trailing cells of the runaway PDU start a new (doomed) partial;
        # it is cleaned up by the CRC check of the next real PDU.
        assert r.pending_cells(1) == 3
        good = segment_pdu(b"recover", vci=1)
        result = None
        for cell in good:
            result = r.push(cell)
        assert result is None  # merged with garbage -> CRC failure
        assert r.crc_errors == 1
        assert r.pending_cells(1) == 0

    def test_overflow_counted_under_obs(self):
        # Overflow is a receive-path drop cause like a CRC failure, so an
        # armed collector counts it beside aal5.crc_errors.
        r = Reassembler(max_cells=4)
        cells = segment_pdu(bytes(400), vci=1)
        with obs.collecting() as col:
            for cell in cells:
                r.push(cell)
        assert r.overflows == 1
        assert r.crc_errors == 1  # the 4-cell tail fails its CRC
        assert col.counters["aal5.overflows"] == 1
        assert col.counters["aal5.crc_errors"] == 1

    def test_pending_cells(self):
        r = Reassembler()
        cells = segment_pdu(bytes(200), vci=9)
        r.push(cells[0])
        assert r.pending_cells(9) == 1
        assert r.pending_cells(8) == 0


class TestLimitCurve:
    def test_sawtooth_shape(self):
        """Figure 4's AAL-5 limit: efficiency dips right after each
        48-byte boundary."""
        just_fits = aal5_limit_bandwidth(40, 140e6)  # 1 cell
        overflow = aal5_limit_bandwidth(41, 140e6)  # 2 cells
        assert overflow < just_fits

    def test_asymptote(self):
        bw = aal5_limit_bandwidth(65000, 140e6)
        # approaches 48/53 * 17.5 MB/s = 15.85 MB/s
        assert bw == pytest.approx(15.85e6, rel=0.01)

    def test_zero_size(self):
        assert aal5_limit_bandwidth(0, 140e6) == 0.0

    def test_monotone_within_cell(self):
        # within one cell count, bigger payload = better efficiency
        assert aal5_limit_bandwidth(88, 140e6) > aal5_limit_bandwidth(50, 140e6)
