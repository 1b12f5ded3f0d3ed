"""Bit-string packing and unpacking."""

import pytest
from hypothesis import given, strategies as st

from gchw.bits import BitString
from gchw.errors import CorruptionError, CorruptStreamError, ParameterError
from helpers import append_uint, bits_from01


def reference_pack(bits) -> bytes:
    """The original per-bit packer, kept as the oracle for :meth:`BitString.pack`."""
    out = bytearray((len(bits) + 7) // 8)
    for i, bit in enumerate(bits):
        if bit:
            out[i >> 3] |= 0x80 >> (i & 7)
    return bytes(out)


def reference_unpack(data: bytes, bit_count: int) -> bytearray:
    """The original per-bit unpacker, kept as the oracle for :meth:`BitString.unpack`."""
    return bytearray((data[i >> 3] >> (7 - (i & 7))) & 1 for i in range(bit_count))


def test_append_and_to01():
    bs = BitString()
    bs.append(1)
    bs.append(0)
    append_uint(bs, 0b101, 3)
    assert bs.to01() == "10101"
    assert len(bs) == 5
    assert bs[0] == 1 and bs[1] == 0


def test_from01_roundtrip():
    assert bits_from01("0110").to01() == "0110"
    with pytest.raises(ParameterError):
        bits_from01("01x0")


def test_extend():
    bs = bits_from01("10")
    bs.extend(bits_from01("01"))
    bs.extend([1, 1])
    assert bs.to01() == "100111"


def test_pack_is_msb_first():
    assert bits_from01("10000001").pack() == b"\x81"
    assert bits_from01("101").pack() == b"\xa0"
    assert BitString().pack() == b""


def test_unpack():
    assert BitString.unpack(b"\xa0", 3).to01() == "101"
    assert BitString.unpack(b"\x81", 8).to01() == "10000001"
    with pytest.raises(ParameterError):
        BitString.unpack(b"\x00", 9)


@given(st.lists(st.integers(min_value=0, max_value=1), max_size=200))
def test_pack_unpack_roundtrip(bits):
    bs = BitString(bits)
    assert BitString.unpack(bs.pack(), len(bs)) == bs


def test_append_uint_msb_first():
    bs = BitString()
    append_uint(bs, 0x61, 8)
    assert bs.to01() == "01100001"


@given(st.lists(st.integers(min_value=0, max_value=1), max_size=300))
def test_pack_matches_reference(bits):
    assert BitString(bits).pack() == reference_pack(bits)


@given(st.binary(max_size=64), st.integers(min_value=0, max_value=7))
def test_unpack_matches_reference(data, dropped):
    # clear the dropped low bits of the last byte so the padding is valid
    if data:
        data = data[:-1] + bytes([data[-1] & (0xFF << dropped) & 0xFF])
    bit_count = max(0, 8 * len(data) - dropped)
    assert BitString.unpack(data, bit_count)== reference_unpack(data, bit_count)


@pytest.mark.parametrize(
    "data, bit_count",
    [
        (b"", 0),
        (b"\x00", 0),
        (b"\x00", 1),
        (b"\x00\x00\x01", 24),  # leading zero bytes vanish from int.from_bytes
        (b"\x00\x00\x80", 17),
        (b"\x00\xff\xe0", 19),
        (b"\x00" * 9, 70),
    ],
)
def test_unpack_edge_cases_match_reference(data, bit_count):
    bs = BitString.unpack(data, bit_count)
    assert bs== reference_unpack(data, bit_count)
    assert len(bs) == bit_count
    assert bs.pack() == reference_pack(bs)


@pytest.mark.parametrize("data, bit_count", [(b"\xa1", 3), (b"\x01", 0), (b"\x80\x00\x01", 9)])
def test_unpack_rejects_set_padding_bits(data, bit_count):
    with pytest.raises(CorruptStreamError):
        BitString.unpack(data, bit_count)
    assert issubclass(CorruptStreamError, CorruptionError)
