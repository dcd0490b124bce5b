"""CRC algorithms used by the adaptation layers.

Both AAL CRCs are MSB-first (non-reflected) polynomial divisions:

- **CRC-32** for the AAL5-class trailer: generator 0x04C11DB7, initial
  register all-ones, final complement (I.363).
- **CRC-10** for the AAL3/4 SAR-PDU trailer: generator
  x^10+x^9+x^5+x^4+x+1 (0x633), zero initial value, no final XOR.

The engine has an incremental API so a receiver can accumulate the CRC
cell by cell, exactly as streaming SAR hardware does.  The paper hands
this per-byte work to a hardware assist; here the AAL5 CRC-32 runs in
zlib's C loop and CRC-10 steps a byte at a time through a 256-entry
table, so neither dominates the per-cell path.  The bit-serial
:class:`CrcAlgorithm` is the reference the test suite checks both
against.
"""

from __future__ import annotations

import zlib
from typing import List

#: Byte -> the same byte with its bit order reversed.
_REVERSED_BITS = bytes(int(f"{byte:08b}"[::-1], 2) for byte in range(256))


def _reverse32(value: int) -> int:
    """*value* with its 32 bits in reverse order."""
    return int.from_bytes(
        value.to_bytes(4, "little").translate(_REVERSED_BITS), "big"
    )


class CrcAlgorithm:
    """A parameterised MSB-first CRC with an incremental interface.

    This class updates its register one bit at a time, which makes it
    the reference the fast engines are checked against;
    :data:`CRC32_AAL5` overrides :meth:`update` with zlib.
    """

    def __init__(
        self,
        name: str,
        width: int,
        polynomial: int,
        initial: int,
        final_xor: int,
    ) -> None:
        if width < 8 or width > 64:
            raise ValueError("width must be in 8..64")
        self.name = name
        self.width = width
        self.polynomial = polynomial
        self.initial = initial
        self.final_xor = final_xor
        self._mask = (1 << width) - 1

    # -- incremental interface ----------------------------------------------

    def start(self) -> int:
        """Fresh accumulator state: the MSB-first register."""
        return self.initial

    def update(self, state: int, data: bytes) -> int:
        """Fold *data* into the accumulator; returns the new state."""
        top = self.width - 1
        for byte in data:
            for bit in range(8):
                incoming = (byte >> (7 - bit)) & 1
                msb = (state >> top) & 1
                state = (state << 1) & self._mask
                if msb ^ incoming:
                    state ^= self.polynomial
        return state

    def finish(self, state: int) -> int:
        """Final CRC value from accumulator state."""
        return state ^ self.final_xor

    # -- one-shot interface ---------------------------------------------------

    def compute(self, data: bytes) -> int:
        """CRC of *data* in one call."""
        return self.finish(self.update(self.start(), data))

    def residue_ok(self, data_with_crc: bytes) -> bool:
        """Verify a message whose CRC field was appended MSB-first.

        For these non-reflected CRCs, running the register over message
        plus transmitted CRC yields a constant residue: 0 for zero
        final-XOR, or the algorithm's known residue for complemented
        CRCs.  We verify by direct recompute, which is equivalent and
        clearer.
        """
        nbytes = self.width // 8
        if len(data_with_crc) < nbytes:
            return False
        body, field = data_with_crc[:-nbytes], data_with_crc[-nbytes:]
        return self.compute(body) == int.from_bytes(field, "big")

    def append(self, data: bytes) -> bytes:
        """Return *data* with its CRC appended MSB-first."""
        nbytes = self.width // 8
        return data + self.compute(data).to_bytes(nbytes, "big")

    def bitwise_reference(self, data: bytes) -> int:
        """The bit-serial CRC of *data*, for cross-validation in tests."""
        return self.finish(CrcAlgorithm.update(self, self.initial, data))

    def __repr__(self) -> str:
        return (
            f"CrcAlgorithm({self.name}, width={self.width}, "
            f"poly=0x{self.polynomial:X})"
        )


class _ZlibCrc32(CrcAlgorithm):
    """CRC-32/BZIP2 (the AAL5 trailer CRC) computed by zlib.

    Valid only with CRC-32/BZIP2's parameters.  zlib's CRC-32 is the
    same polynomial with every bit reflected, so feeding it bit-reversed
    bytes and reversing its register gives the MSB-first register this
    class keeps as its state.  zlib's running value is the reflected
    register complemented, hence the XORs.
    """

    def compute(self, data: bytes) -> int:
        # ``finish(update(start(), data))`` in one step: every AAL5 PDU
        # calls this twice (append, residue check).
        return _reverse32(zlib.crc32(data.translate(_REVERSED_BITS)))

    def update(self, state: int, data: bytes) -> int:
        reflected = zlib.crc32(
            data.translate(_REVERSED_BITS), _reverse32(state ^ 0xFFFFFFFF)
        )
        return _reverse32(reflected) ^ 0xFFFFFFFF


CRC32_AAL5 = _ZlibCrc32(
    name="crc32-aal5",
    width=32,
    polynomial=0x04C11DB7,
    initial=0xFFFFFFFF,
    final_xor=0xFFFFFFFF,
)


def _crc10_table() -> List[int]:
    """``T[t] = t * x^10 mod G`` for every byte value *t*."""
    table = []
    for top in range(256):
        register = top << 10
        for bit in range(17, 9, -1):
            if register >> bit & 1:
                register ^= 0x633 << (bit - 10)
        table.append(register)
    return table


_CRC10_TABLE = _crc10_table()


def crc10(data: bytes) -> int:
    """Residue of *data* (as a polynomial) modulo the AAL3/4 generator.

    The generator is x^10 + x^9 + x^5 + x^4 + x + 1 (0x633 including the
    leading term).  Usage follows the SAR-PDU convention: the transmitter
    computes the residue of the PDU *with the 10-bit CRC field zeroed*
    (which is the message times x^10) and stores it in the field; the
    receiver checks that the residue of the full PDU is zero.

    One byte per step: shifting the 10-bit register left by eight
    carries its top eight bits out as ``t * x^10``, whose residue the
    table holds, and leaves its low two bits above the incoming byte.
    """
    table = _CRC10_TABLE
    register = 0
    for byte in data:
        register = (((register & 3) << 8) | byte) ^ table[register >> 2]
    return register
