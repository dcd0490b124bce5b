"""The ATM cell: a 53-byte unit with a 5-byte header and 48-byte payload.

The header layout modelled here is the UNI format of I.361::

    bit   7    6    5    4    3    2    1    0
    byte0 [   GFC (4)        ][   VPI high (4)  ]
    byte1 [   VPI low (4)    ][   VCI 15..12    ]
    byte2 [              VCI 11..4              ]
    byte3 [   VCI 3..0       ][ PTI (3) ][ CLP ]
    byte4 [              HEC (CRC-8)            ]

The NNI format replaces the GFC with four more VPI bits; both are
supported via the ``nni`` flag of :meth:`AtmCell.to_bytes`.

Payload-type indicator (PTI) encoding relevant to this reproduction:

- bit 2 (MSB): 0 = user data, 1 = OAM/management,
- bit 1: congestion experienced (EFCI),
- bit 0: ATM-user-to-ATM-user indication -- the adaptation layer's
  end-of-frame marker ("SDU type"), the bit AAL5-class SAR rides on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.atm.hec import check_hec, compute_hec, correct_header

CELL_SIZE = 53
HEADER_SIZE = 5
PAYLOAD_SIZE = 48

PTI_USER_SDU0 = 0b000  #: user cell, not end of frame, no congestion
PTI_USER_SDU1 = 0b001  #: user cell, end of frame (AAL5-class last cell)
PTI_USER_SDU0_EFCI = 0b010
PTI_USER_SDU1_EFCI = 0b011
PTI_OAM_SEGMENT = 0b100
PTI_OAM_END_TO_END = 0b101
PTI_RESOURCE_MGMT = 0b110

_MAX_GFC = 0xF
_MAX_VPI_UNI = 0xFF
_MAX_VPI_NNI = 0xFFF
_MAX_VCI = 0xFFFF
_MAX_PTI = 0b111


class CellFormatError(ValueError):
    """Raised when encoding/decoding a malformed cell."""


@dataclass(frozen=True, slots=True, init=False)
class AtmCell:
    """One ATM cell.  Immutable; header rewrites produce new cells.

    The ``meta`` dict carries simulation-only annotations (timestamps,
    originating PDU ids) that would not exist on the wire; it never
    affects the encoded bytes, equality, or hashing.
    """

    vpi: int
    vci: int
    payload: bytes
    pti: int = PTI_USER_SDU0
    clp: int = 0
    gfc: int = 0
    meta: dict = field(default_factory=dict, compare=False, hash=False)

    def __init__(
        self,
        vpi: int,
        vci: int,
        payload: bytes,
        pti: int = PTI_USER_SDU0,
        clp: int = 0,
        gfc: int = 0,
        meta: Optional[dict] = None,
    ) -> None:
        # Written out rather than generated: a cell is built per cell
        # slot, and the generated frozen __init__ (one object.__setattr__
        # per field, then __post_init__) takes about 1.5x as long.  The
        # fields are stored through their slot descriptors (the frozen
        # __setattr__ refuses plain assignment); same checks, same error
        # for the first bad field.
        _set_vpi(self, vpi)
        _set_vci(self, vci)
        _set_payload(self, payload)
        _set_pti(self, pti)
        _set_clp(self, clp)
        _set_gfc(self, gfc)
        _set_meta(self, {} if meta is None else meta)
        if not (
            0 <= gfc <= _MAX_GFC
            and 0 <= vpi <= _MAX_VPI_NNI
            and 0 <= vci <= _MAX_VCI
            and 0 <= pti <= _MAX_PTI
            and (clp == 0 or clp == 1)
            and len(payload) == PAYLOAD_SIZE
        ):
            self._reject()

    def _reject(self) -> None:
        """Raise the format error of the first out-of-range field."""
        if not 0 <= self.gfc <= _MAX_GFC:
            raise CellFormatError(f"GFC {self.gfc} out of range")
        if not 0 <= self.vpi <= _MAX_VPI_NNI:
            raise CellFormatError(f"VPI {self.vpi} out of range")
        if not 0 <= self.vci <= _MAX_VCI:
            raise CellFormatError(f"VCI {self.vci} out of range")
        if not 0 <= self.pti <= _MAX_PTI:
            raise CellFormatError(f"PTI {self.pti} out of range")
        if self.clp not in (0, 1):
            raise CellFormatError(f"CLP {self.clp} must be 0 or 1")
        if len(self.payload) != PAYLOAD_SIZE:
            raise CellFormatError(
                f"payload must be exactly {PAYLOAD_SIZE} bytes, "
                f"got {len(self.payload)}"
            )

    # -- wire format -------------------------------------------------------

    def header_bytes(self, nni: bool = False) -> bytes:
        """The first four header bytes (HEC excluded)."""
        if nni:
            if self.gfc:
                raise CellFormatError("NNI cells have no GFC field")
            b0 = (self.vpi >> 4) & 0xFF
        else:
            if self.vpi > _MAX_VPI_UNI:
                raise CellFormatError(
                    f"VPI {self.vpi} exceeds UNI maximum {_MAX_VPI_UNI}"
                )
            b0 = (self.gfc << 4) | ((self.vpi >> 4) & 0xF)
        b1 = ((self.vpi & 0xF) << 4) | ((self.vci >> 12) & 0xF)
        b2 = (self.vci >> 4) & 0xFF
        b3 = ((self.vci & 0xF) << 4) | (self.pti << 1) | self.clp
        return bytes((b0, b1, b2, b3))

    def to_bytes(self, nni: bool = False) -> bytes:
        """Full 53-byte encoding, HEC computed over the header."""
        header = self.header_bytes(nni)
        return header + bytes((compute_hec(header),)) + self.payload

    @classmethod
    def from_bytes(
        cls,
        data: bytes,
        nni: bool = False,
        correct_single_bit: bool = False,
    ) -> "AtmCell":
        """Decode 53 bytes; verifies (and optionally corrects) the HEC.

        Raises :class:`CellFormatError` on length or HEC failure.  With
        *correct_single_bit* a single-bit header error is repaired the way
        the HEC correction mode of a real receiver would.
        """
        if len(data) != CELL_SIZE:
            raise CellFormatError(
                f"cell must be {CELL_SIZE} bytes, got {len(data)}"
            )
        header5 = data[:HEADER_SIZE]
        if not check_hec(header5):
            if correct_single_bit:
                corrected = correct_header(header5)
                if corrected is None:
                    raise CellFormatError("uncorrectable header (HEC)")
                header5 = corrected
            else:
                raise CellFormatError("HEC check failed")
        b0, b1, b2, b3 = header5[0], header5[1], header5[2], header5[3]
        if nni:
            gfc = 0
            vpi = (b0 << 4) | (b1 >> 4)
        else:
            gfc = b0 >> 4
            vpi = ((b0 & 0xF) << 4) | (b1 >> 4)
        vci = ((b1 & 0xF) << 12) | (b2 << 4) | (b3 >> 4)
        pti = (b3 >> 1) & 0b111
        clp = b3 & 1
        return cls(
            vpi=vpi,
            vci=vci,
            payload=data[HEADER_SIZE:],
            pti=pti,
            clp=clp,
            gfc=gfc,
        )

    # -- semantics ----------------------------------------------------------

    @property
    def is_user_cell(self) -> bool:
        """True for user-data cells (PTI MSB clear)."""
        return (self.pti & 0b100) == 0

    @property
    def end_of_frame(self) -> bool:
        """The AAL5-class last-cell marker (PTI SDU-type bit)."""
        # User cell (PTI MSB clear) with the SDU-type bit set.
        return (self.pti & 0b101) == 0b001

    @property
    def congestion_experienced(self) -> bool:
        return self.is_user_cell and bool(self.pti & 0b010)

    def with_header(
        self,
        vpi: Optional[int] = None,
        vci: Optional[int] = None,
        pti: Optional[int] = None,
        clp: Optional[int] = None,
    ) -> "AtmCell":
        """Header translation (what a switch does); payload untouched.

        Equivalent to :func:`dataclasses.replace` (the new cell shares
        ``meta``), without its per-field reflection: switches call this
        once per cell.
        """
        return AtmCell(
            self.vpi if vpi is None else vpi,
            self.vci if vci is None else vci,
            self.payload,
            self.pti if pti is None else pti,
            self.clp if clp is None else clp,
            self.gfc,
            self.meta,
        )

    def __repr__(self) -> str:
        eof = " EOF" if self.end_of_frame else ""
        return (
            f"AtmCell(vpi={self.vpi}, vci={self.vci}, pti={self.pti}{eof}, "
            f"clp={self.clp})"
        )


(
    _set_vpi,
    _set_vci,
    _set_payload,
    _set_pti,
    _set_clp,
    _set_gfc,
    _set_meta,
) = (
    AtmCell.__dict__[name].__set__
    for name in ("vpi", "vci", "payload", "pti", "clp", "gfc", "meta")
)


def pad_payload(data: bytes, fill: int = 0x00) -> bytes:
    """Right-pad *data* to exactly one cell payload (48 bytes)."""
    if len(data) > PAYLOAD_SIZE:
        raise CellFormatError(
            f"payload fragment of {len(data)} bytes exceeds {PAYLOAD_SIZE}"
        )
    return data + bytes([fill]) * (PAYLOAD_SIZE - len(data))
