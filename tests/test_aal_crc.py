"""CRC engines: table vs bit-serial agreement, residues, known vectors."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.aal.aal34 import (
    SarCrcError,
    SarSegmentType,
    decode_sar_pdu,
    encode_sar_pdu,
)
from repro.aal.crc import CRC32_AAL5, CrcAlgorithm, crc10
from repro.atm import AtmCell, LoopbackCell, OamFormatError, VcAddress
from repro.atm.oam import decode_oam
from repro.tm import RmCell, RmFormatError


def crc10_bit_serial(data: bytes) -> int:
    """The CRC-10 residue one bit at a time: the oracle for ``crc10``."""
    register = 0
    for byte in data:
        for bit in range(8):
            register = (register << 1) | ((byte >> (7 - bit)) & 1)
            if register & 0x400:
                register ^= 0x633
    return register


def flipped(payload: bytes, bit: int) -> bytes:
    damaged = bytearray(payload)
    damaged[bit // 8] ^= 0x80 >> (bit % 8)
    return bytes(damaged)


def with_payload(cell: AtmCell, payload: bytes) -> AtmCell:
    return AtmCell(vpi=cell.vpi, vci=cell.vci, payload=payload, pti=cell.pti)


class TestCrc32:
    def test_known_vector_123456789(self):
        # The check value of the CRC-32/BZIP2 parameterisation (MSB-first,
        # init all-ones, final complement) for "123456789".
        assert CRC32_AAL5.compute(b"123456789") == 0xFC891918

    def test_table_matches_bit_serial(self):
        data = b"the quick brown fox jumps over the lazy dog"
        assert CRC32_AAL5.compute(data) == CRC32_AAL5.bitwise_reference(data)

    @given(st.binary(max_size=200))
    def test_table_matches_bit_serial_property(self, data):
        assert CRC32_AAL5.compute(data) == CRC32_AAL5.bitwise_reference(data)

    @given(st.binary(max_size=200))
    def test_append_then_verify(self, data):
        assert CRC32_AAL5.residue_ok(CRC32_AAL5.append(data))

    @given(st.binary(min_size=1, max_size=100), st.integers(0, 7))
    def test_single_bit_flip_detected(self, data, bit):
        message = CRC32_AAL5.append(data)
        corrupted = bytearray(message)
        corrupted[0] ^= 0x80 >> bit
        assert not CRC32_AAL5.residue_ok(bytes(corrupted))

    def test_state_is_the_msb_first_register(self):
        # The zlib-backed update keeps the register the bit-serial base
        # class keeps for the same parameters, chunk by chunk.
        serial = CrcAlgorithm("serial", 32, 0x04C11DB7, 0xFFFFFFFF, 0xFFFFFFFF)
        rng = random.Random(5)
        state = expected = CRC32_AAL5.start()
        for _ in range(50):
            chunk = rng.randbytes(rng.randint(0, 64))
            state = CRC32_AAL5.update(state, chunk)
            expected = serial.update(expected, chunk)
            assert state == expected

    def test_incremental_equals_one_shot(self):
        data = b"abcdefghij" * 20
        state = CRC32_AAL5.start()
        for i in range(0, len(data), 7):
            state = CRC32_AAL5.update(state, data[i : i + 7])
        assert CRC32_AAL5.finish(state) == CRC32_AAL5.compute(data)

    def test_short_message_residue_fails(self):
        assert not CRC32_AAL5.residue_ok(b"ab")

    def test_width_validation(self):
        with pytest.raises(ValueError):
            CrcAlgorithm("bad", 4, 0x3, 0, 0)


class TestCrc10:
    def test_zero_message_zero_residue(self):
        assert crc10(bytes(10)) == 0

    def test_residue_zero_after_embedding(self):
        # Emulate the SAR convention: body with zeroed 10-bit CRC field,
        # compute, OR in, verify residue 0.
        body = bytearray(b"\x12\x34" + bytes(44) + b"\x00\x00")
        body[-2] |= 0xB0 >> 4 << 4  # some LI bits in the top of the field
        remainder = crc10(bytes(body))
        trailer = int.from_bytes(body[-2:], "big") | remainder
        full = bytes(body[:-2]) + trailer.to_bytes(2, "big")
        assert crc10(full) == 0

    def test_detects_corruption(self):
        body = b"\x10\x05" + bytes(44) + b"\x00\x00"
        remainder = crc10(body)
        full = body[:-2] + remainder.to_bytes(2, "big")
        corrupted = bytearray(full)
        corrupted[10] ^= 0x40
        assert crc10(bytes(corrupted)) != 0

    @given(st.binary(min_size=2, max_size=64))
    def test_embedding_property(self, body):
        # Zero the last 10 bits, embed the residue, check residue 0.
        data = bytearray(body)
        trailer = int.from_bytes(data[-2:], "big") & 0xFC00
        data[-2:] = trailer.to_bytes(2, "big")
        remainder = crc10(bytes(data))
        data[-2:] = (trailer | remainder).to_bytes(2, "big")
        assert crc10(bytes(data)) == 0

    def test_result_is_ten_bits(self):
        for payload in (b"", b"\xff" * 48, b"\x00\x01\x02"):
            assert 0 <= crc10(payload) <= 0x3FF

    def test_table_matches_bit_serial_on_random_lengths(self):
        rng = random.Random(10)
        for _ in range(2000):
            data = rng.randbytes(rng.randint(0, 64))
            assert crc10(data) == crc10_bit_serial(data)

    @pytest.mark.parametrize("length", [0, 1, 2, 47, 48, 64])
    def test_table_matches_bit_serial_on_all_zeros_and_ones(self, length):
        for data in (bytes(length), b"\xff" * length):
            assert crc10(data) == crc10_bit_serial(data)


class TestCrc10Decoders:
    """Every single flipped payload bit fails the CRC-10 check."""

    BITS = range(48 * 8)

    def test_rm_cell(self):
        cell = RmCell(vc=VcAddress(0, 200), er=1e5, ccr=5e4).encode()
        for bit in self.BITS:
            with pytest.raises(RmFormatError):
                RmCell.decode(with_payload(cell, flipped(cell.payload, bit)))

    def test_oam_cell(self):
        cell = LoopbackCell(
            VcAddress(0, 200), correlation=0xC0FFEE, to_be_looped=True
        ).encode()
        assert decode_oam(cell).correlation == 0xC0FFEE
        for bit in self.BITS:
            with pytest.raises(OamFormatError):
                decode_oam(with_payload(cell, flipped(cell.payload, bit)))

    def test_aal34_sar_pdu(self):
        pdu = encode_sar_pdu(SarSegmentType.BOM, 3, 17, bytes(range(44)))
        assert decode_sar_pdu(pdu) == (SarSegmentType.BOM, 3, 17, bytes(range(44)))
        for bit in self.BITS:
            with pytest.raises(SarCrcError):
                decode_sar_pdu(flipped(pdu, bit))
