"""FGK codec: bit-exact traces, roundtrips, and the sibling property."""

import pytest
from hypothesis import given, settings, strategies as st

from gchw.ahuffman import AdaptiveHuffmanTree, check_sibling_property, decode, encode
from gchw.bits import BitString
from gchw.errors import CorruptStreamError
from helpers import bits_from01, code_for, contains, nyt_code


def test_encode_empty():
    assert encode(b"").to01() == ""
    assert decode(BitString(), 0) == b""


def test_encode_single_byte_is_raw_literal():
    # empty NYT code followed by the 8-bit literal, MSB first
    assert encode(b"a").to01() == "01100001"


def test_encode_repeated_byte():
    # after the first 'a' the root has NYT on the left and 'a' on the right
    assert encode(b"aa").to01() == "011000011"
    assert decode(bits_from01("011000011"), 2) == b"aa"


def test_repetitive_message_compresses():
    bits = encode(b"mmmmmmomm")
    # literal m (8) + five 1-bit m codes + NYT code and literal o (9) + two m codes
    assert len(bits) == 24
    assert len(bits) < 72
    assert decode(bits, 9) == b"mmmmmmomm"


@given(st.binary(max_size=600))
def test_roundtrip(data):
    assert decode(encode(data), len(data)) == data


@settings(max_examples=40)
@given(st.binary(min_size=1, max_size=300), st.integers(2, 16))
def test_roundtrip_low_entropy(data, modulus):
    data = bytes(b % modulus for b in data)
    assert decode(encode(data), len(data)) == data


def test_roundtrip_random_sweep(rng):
    for _ in range(400):
        size = rng.randrange(0, 1 << rng.randrange(0, 10))
        alphabet = 1 << rng.randrange(1, 9)
        data = bytes(rng.randrange(alphabet) for _ in range(size))
        assert decode(encode(data), len(data)) == data


def test_sibling_property_after_every_update(rng):
    tree = AdaptiveHuffmanTree()
    assert check_sibling_property(tree)
    for byte in b"aabbb":
        tree.update(byte)
        assert check_sibling_property(tree)
    for _ in range(25):
        tree = AdaptiveHuffmanTree()
        size = rng.randrange(1, 300)
        for byte in (rng.randrange(256) for _ in range(size)):
            tree.update(byte)
            assert check_sibling_property(tree)


def test_sibling_property_detects_corruption():
    tree = AdaptiveHuffmanTree()
    for byte in b"abcabc":
        tree.update(byte)
    assert check_sibling_property(tree)
    tree.weight[tree.leaf_of[ord("a")]] += 3
    assert not check_sibling_property(tree)


def test_encoder_decoder_trees_stay_synchronized(rng):
    """Lockstep harness: decode each code with a second tree and compare."""
    for _ in range(10):
        data = bytes(rng.randrange(64) for _ in range(rng.randrange(1, 120)))
        enc_tree = AdaptiveHuffmanTree()
        dec_tree = AdaptiveHuffmanTree()
        for byte in data:
            if contains(enc_tree, byte):
                bits = code_for(enc_tree, byte)
            else:
                bits = nyt_code(enc_tree) + [
                    (byte >> shift) & 1 for shift in range(7, -1, -1)
                ]
            # walk the decoder tree over those bits
            node = dec_tree.root
            pos = 0
            while dec_tree.left[node] != -1:
                node = dec_tree.right[node] if bits[pos] else dec_tree.left[node]
                pos += 1
            if node == dec_tree.nyt:
                value = 0
                for _ in range(8):
                    value = (value << 1) | bits[pos]
                    pos += 1
            else:
                value = dec_tree.symbol[node]
            assert pos == len(bits)
            assert value == byte
            enc_tree.update(byte)
            dec_tree.update(byte)
            assert enc_tree.snapshot() == dec_tree.snapshot()


def test_decode_rejects_truncation():
    bits = encode(b"adaptive")
    truncated = BitString(bits.bits[:-1])
    with pytest.raises(CorruptStreamError):
        decode(truncated, 8)


def test_decode_rejects_trailing_bits():
    bits = encode(b"adaptive")
    bits.append(0)
    with pytest.raises(CorruptStreamError):
        decode(bits, 8)


def test_decode_rejects_wrong_symbol_count():
    bits = encode(b"adaptive")
    with pytest.raises(CorruptStreamError):
        decode(bits, 7)
    with pytest.raises(CorruptStreamError):
        decode(bits, 9)


def test_decode_rejects_bit_starvation_on_literal():
    with pytest.raises(CorruptStreamError):
        decode(bits_from01("0110"), 1)
