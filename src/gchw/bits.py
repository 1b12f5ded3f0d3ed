"""Bit strings with MSB-first byte packing."""

from __future__ import annotations

from .errors import CorruptStreamError, ParameterError

# bytes.translate tables between 0/1 values and the ASCII digits "0"/"1";
# any non-zero value packs as a set bit
_TO_ASCII = b"0" + b"1" * 255
_FROM_ASCII = bytes.maketrans(b"01", b"\x00\x01")


class BitString(bytearray):
    """A bytearray of 0/1 values, one per bit, packed MSB-first by :meth:`pack`."""

    def to01(self) -> str:
        return self.translate(_TO_ASCII).decode("ascii")

    def pack(self) -> bytes:
        """Pack MSB-first into bytes, zero-padding the final byte."""
        count = len(self)
        if not count:
            return b""
        pad = -count % 8
        value = int(self.translate(_TO_ASCII), 2) << pad
        return value.to_bytes((count + pad) // 8, "big")

    @classmethod
    def unpack(cls, data: bytes, bit_count: int) -> "BitString":
        """Recover the first ``bit_count`` bits of MSB-first packed data.

        Every bit of ``data`` past ``bit_count`` must be zero, as
        :meth:`pack` leaves it; a set padding bit raises
        :class:`CorruptStreamError`.
        """
        if bit_count < 0 or bit_count > 8 * len(data):
            raise ParameterError("bit count exceeds the packed data")
        value = int.from_bytes(data, "big")
        spare = 8 * len(data) - bit_count
        if value & ((1 << spare) - 1):
            raise CorruptStreamError("non-zero padding bits after the bit count")
        if not bit_count:
            return cls()
        digits = format(value >> spare, f"0{bit_count}b").encode("ascii").translate(_FROM_ASCII)
        return cls(digits)
