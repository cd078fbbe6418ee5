"""CRC-32 and Internet checksum tests (verified against known vectors)."""

import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.atm.crc import crc32_aal5, crc32_finish, crc32_update, internet_checksum


class TestCrc32:
    def test_known_vector(self):
        # The canonical CRC-32 check value for "123456789".
        assert crc32_aal5(b"123456789") == 0xCBF43926

    def test_empty(self):
        assert crc32_aal5(b"") == 0

    def test_matches_zlib(self):
        for data in (b"hello", b"\x00" * 48, bytes(range(256))):
            assert crc32_aal5(data) == zlib.crc32(data)

    @given(st.binary(max_size=500))
    def test_matches_zlib_property(self, data):
        assert crc32_aal5(data) == zlib.crc32(data)

    @given(st.binary(min_size=1, max_size=200), st.integers(0, 199))
    def test_incremental_equals_oneshot(self, data, split):
        split = split % len(data)
        running = crc32_update(data[:split])
        running = crc32_update(data[split:], running)
        assert crc32_finish(running) == crc32_aal5(data)

    @given(st.binary(min_size=1, max_size=100), st.integers(0, 99), st.integers(0, 7))
    def test_detects_single_bit_flip(self, data, pos, bit):
        pos = pos % len(data)
        corrupted = bytearray(data)
        corrupted[pos] ^= 1 << bit
        assert crc32_aal5(bytes(corrupted)) != crc32_aal5(data)


def reference_internet_checksum(data: bytes) -> int:
    """RFC 1071 word-at-a-time loop: the test oracle for the closed form."""
    if len(data) % 2:
        data = data + b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total += (data[i] << 8) | data[i + 1]
        total = (total & 0xFFFF) + (total >> 16)
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


class TestInternetChecksum:
    def test_known_vector(self):
        # RFC 1071 example data.
        data = bytes([0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7])
        assert internet_checksum(data) == 0x220D

    def test_odd_length_padded(self):
        assert internet_checksum(b"\xff") == internet_checksum(b"\xff\x00")

    def test_all_zero(self):
        assert internet_checksum(b"\x00" * 10) == 0xFFFF

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 47, 48, 8192, 9001])
    def test_all_zero_lengths(self, n):
        # Only the all-zero buffer folds to a sum of 0.
        assert internet_checksum(bytes(n)) == 0xFFFF
        assert reference_internet_checksum(bytes(n)) == 0xFFFF

    @pytest.mark.parametrize(
        "data",
        [b"\xff\xff", b"\x80\x00\x7f\xff", b"\xff\xff" * 7, b"\x00\x01\xff\xfe"],
        ids=bytes.hex,
    )
    def test_nonzero_multiple_of_ffff_folds_to_ffff(self, data):
        # A non-zero word sum that is a multiple of 0xFFFF folds to
        # 0xFFFF, so the checksum is 0x0000, not 0xFFFF.
        assert internet_checksum(data) == reference_internet_checksum(data) == 0x0000

    @pytest.mark.parametrize(
        "data", [b"\xff", b"\x12\x34\xff", b"\xff" * 9], ids=bytes.hex
    )
    def test_trailing_odd_ff_byte(self, data):
        assert internet_checksum(data) == reference_internet_checksum(data)
        assert internet_checksum(data) == internet_checksum(data + b"\x00")

    @settings(max_examples=300)
    @given(st.binary(max_size=9000))
    def test_matches_reference_loop(self, data):
        assert internet_checksum(data) == reference_internet_checksum(data)

    @given(st.binary(min_size=1, max_size=9000).filter(lambda d: len(d) % 2))
    def test_matches_reference_loop_odd_length(self, data):
        assert internet_checksum(data) == reference_internet_checksum(data)

    @given(st.binary(max_size=300))
    def test_verification_sums_to_zero(self, data):
        """Appending the checksum makes the total checksum zero -- the
        receiver-side verification rule."""
        csum = internet_checksum(data)
        padded = data if len(data) % 2 == 0 else data + b"\x00"
        with_csum = padded + csum.to_bytes(2, "big")
        assert internet_checksum(with_csum) == 0

    @given(st.binary(min_size=2, max_size=100))
    def test_detects_byte_swap_of_unequal_bytes(self, data):
        if data[0] != data[1]:
            swapped = bytes([data[1], data[0]]) + data[2:]
            # 16-bit one's complement detects reordering within a word.
            assert internet_checksum(swapped) != internet_checksum(data)
