"""ATM cell format: encode/decode, field ranges, PTI semantics."""

import dataclasses

import pytest
from hypothesis import given, strategies as st

from repro.atm import AtmCell, CELL_SIZE, CellFormatError, PAYLOAD_SIZE
from repro.atm.cell import (
    PTI_OAM_SEGMENT,
    PTI_USER_SDU0,
    PTI_USER_SDU1,
    pad_payload,
)

PAYLOAD = bytes(range(48))


class TestConstruction:
    def test_valid_cell(self):
        cell = AtmCell(vpi=1, vci=42, payload=PAYLOAD)
        assert cell.vpi == 1 and cell.vci == 42

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"vpi": -1, "vci": 0},
            {"vpi": 0x1000, "vci": 0},
            {"vpi": 0, "vci": -1},
            {"vpi": 0, "vci": 0x10000},
        ],
    )
    def test_address_range_enforced(self, kwargs):
        with pytest.raises(CellFormatError):
            AtmCell(payload=PAYLOAD, **kwargs)

    def test_payload_must_be_48_bytes(self):
        with pytest.raises(CellFormatError):
            AtmCell(vpi=0, vci=32, payload=b"short")

    def test_pti_range(self):
        with pytest.raises(CellFormatError):
            AtmCell(vpi=0, vci=32, payload=PAYLOAD, pti=8)

    def test_clp_binary(self):
        with pytest.raises(CellFormatError):
            AtmCell(vpi=0, vci=32, payload=PAYLOAD, clp=2)

    def test_gfc_range(self):
        with pytest.raises(CellFormatError):
            AtmCell(vpi=0, vci=32, payload=PAYLOAD, gfc=16)

    def test_first_bad_field_is_reported(self):
        with pytest.raises(CellFormatError, match="GFC"):
            AtmCell(vpi=0x1000, vci=32, payload=b"short", gfc=16)
        with pytest.raises(CellFormatError, match="CLP"):
            AtmCell(vpi=0, vci=32, payload=b"short", clp=2)


class TestWireFormat:
    def test_encoding_is_53_bytes(self):
        assert len(AtmCell(vpi=0, vci=32, payload=PAYLOAD).to_bytes()) == CELL_SIZE

    def test_roundtrip_preserves_fields(self):
        cell = AtmCell(vpi=17, vci=4097, payload=PAYLOAD, pti=3, clp=1, gfc=5)
        decoded = AtmCell.from_bytes(cell.to_bytes())
        assert decoded == cell

    def test_known_header_layout(self):
        # GFC=0, VPI=0x12, VCI=0x3456, PTI=1, CLP=1
        cell = AtmCell(vpi=0x12, vci=0x3456, payload=PAYLOAD, pti=1, clp=1)
        header = cell.header_bytes()
        assert header == bytes((0x01, 0x23, 0x45, 0x63))

    def test_nni_roundtrip_with_wide_vpi(self):
        cell = AtmCell(vpi=0xABC, vci=99, payload=PAYLOAD)
        decoded = AtmCell.from_bytes(cell.to_bytes(nni=True), nni=True)
        assert decoded.vpi == 0xABC and decoded.vci == 99

    def test_uni_rejects_wide_vpi(self):
        cell = AtmCell(vpi=0x100, vci=0, payload=PAYLOAD)
        with pytest.raises(CellFormatError):
            cell.to_bytes(nni=False)

    def test_nni_rejects_gfc(self):
        cell = AtmCell(vpi=1, vci=1, payload=PAYLOAD, gfc=3)
        with pytest.raises(CellFormatError):
            cell.to_bytes(nni=True)

    def test_wrong_length_rejected(self):
        with pytest.raises(CellFormatError):
            AtmCell.from_bytes(b"\x00" * 52)

    def test_corrupted_header_detected(self):
        data = bytearray(AtmCell(vpi=3, vci=77, payload=PAYLOAD).to_bytes())
        data[2] ^= 0xFF
        with pytest.raises(CellFormatError):
            AtmCell.from_bytes(bytes(data))

    def test_corrupted_payload_not_heced(self):
        # The HEC covers only the header; payload corruption is the
        # adaptation layer's problem.
        data = bytearray(AtmCell(vpi=3, vci=77, payload=PAYLOAD).to_bytes())
        data[20] ^= 0xFF
        decoded = AtmCell.from_bytes(bytes(data))
        assert decoded.payload != PAYLOAD

    @given(
        vpi=st.integers(0, 0xFF),
        vci=st.integers(0, 0xFFFF),
        pti=st.integers(0, 7),
        clp=st.integers(0, 1),
        gfc=st.integers(0, 15),
        payload=st.binary(min_size=PAYLOAD_SIZE, max_size=PAYLOAD_SIZE),
    )
    def test_roundtrip_property(self, vpi, vci, pti, clp, gfc, payload):
        cell = AtmCell(
            vpi=vpi, vci=vci, payload=payload, pti=pti, clp=clp, gfc=gfc
        )
        assert AtmCell.from_bytes(cell.to_bytes()) == cell


class TestSemantics:
    def test_end_of_frame_flag(self):
        assert AtmCell(vpi=0, vci=32, payload=PAYLOAD, pti=PTI_USER_SDU1).end_of_frame
        assert not AtmCell(
            vpi=0, vci=32, payload=PAYLOAD, pti=PTI_USER_SDU0
        ).end_of_frame

    @pytest.mark.parametrize("pti", range(8))
    def test_end_of_frame_is_user_cell_with_sdu_bit(self, pti):
        cell = AtmCell(vpi=0, vci=32, payload=PAYLOAD, pti=pti)
        assert cell.end_of_frame == (cell.is_user_cell and bool(pti & 0b001))

    def test_oam_cell_is_not_user_or_eof(self):
        cell = AtmCell(vpi=0, vci=32, payload=PAYLOAD, pti=PTI_OAM_SEGMENT)
        assert not cell.is_user_cell
        assert not cell.end_of_frame

    def test_congestion_bit(self):
        cell = AtmCell(vpi=0, vci=32, payload=PAYLOAD, pti=0b010)
        assert cell.congestion_experienced

    def test_with_header_translates_labels_only(self):
        cell = AtmCell(vpi=1, vci=2, payload=PAYLOAD, pti=1)
        out = cell.with_header(vpi=9, vci=900)
        assert (out.vpi, out.vci) == (9, 900)
        assert out.payload == cell.payload
        assert out.pti == cell.pti

    def test_with_header_matches_dataclasses_replace(self):
        cell = AtmCell(vpi=1, vci=2, payload=PAYLOAD, pti=1, clp=1, gfc=5)
        cell.meta["pdu"] = 7
        out = cell.with_header(vci=900, pti=3)
        assert out == dataclasses.replace(cell, vci=900, pti=3)
        assert out.gfc == 5 and out.meta is cell.meta

    def test_meta_does_not_affect_equality(self):
        a = AtmCell(vpi=0, vci=32, payload=PAYLOAD)
        b = AtmCell(vpi=0, vci=32, payload=PAYLOAD)
        a.meta["timestamp"] = 1.0
        assert a == b


class TestPadPayload:
    def test_pads_to_exactly_one_payload(self):
        assert len(pad_payload(b"abc")) == PAYLOAD_SIZE
        assert pad_payload(b"abc")[:3] == b"abc"

    def test_oversize_rejected(self):
        with pytest.raises(CellFormatError):
            pad_payload(bytes(49))

    def test_exact_size_unchanged(self):
        assert pad_payload(PAYLOAD) == PAYLOAD
