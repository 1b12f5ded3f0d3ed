"""HMAC-SHA-256 against the RFC 4231 vectors and the stdlib as a second oracle."""

import hashlib
import hmac as stdlib_hmac

import pytest
from hypothesis import example, given, strategies as st

from gchw import auth

# RFC 4231 test cases 1-7 (HMAC-SHA-256 column); case 5 is truncated to 128 bits.
RFC4231 = [
    (
        b"\x0b" * 20,
        b"Hi There",
        "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
    ),
    (
        b"Jefe",
        b"what do ya want for nothing?",
        "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
    ),
    (
        b"\xaa" * 20,
        b"\xdd" * 50,
        "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
    ),
    (
        bytes(range(1, 26)),
        b"\xcd" * 50,
        "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
    ),
    (
        b"\x0c" * 20,
        b"Test With Truncation",
        "a3b6167473100ee06e0c796c2955552b",
    ),
    (
        b"\xaa" * 131,
        b"Test Using Larger Than Block-Size Key - Hash Key First",
        "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
    ),
    (
        b"\xaa" * 131,
        b"This is a test using a larger than block-size key and a larger "
        b"than block-size data. The key needs to be hashed before being used "
        b"by the HMAC algorithm.",
        "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
    ),
]


@pytest.mark.parametrize("case", range(1, 8))
def test_rfc4231_vectors(case):
    key, data, expected = RFC4231[case - 1]
    assert auth.mac(key, data).hex()[: len(expected)] == expected


def test_mac_is_deterministic():
    assert auth.mac(b"k" * 32, b"data") == auth.mac(b"k" * 32, b"data")


def test_distinct_keys_distinct_tags():
    k1, d1, _ = RFC4231[0]
    k2 = RFC4231[1][0]
    assert auth.mac(k1, d1) != auth.mac(k2, d1)


def test_verify_accepts_and_rejects():
    key = b"\x07" * 32
    tag = auth.mac(key, b"payload")
    assert auth.verify(key, b"payload", tag)
    flipped = bytes([tag[0] ^ 0x01]) + tag[1:]
    assert not auth.verify(key, b"payload", flipped)
    assert not auth.verify(b"\x08" * 32, b"payload", tag)


@given(
    key=st.binary(min_size=32, max_size=32),
    parts=st.lists(st.binary(max_size=100), max_size=4),
)
def test_parts_are_tagged_as_their_concatenation(key, parts):
    tag = auth.mac(key, b"".join(parts))
    assert auth.mac(key, tuple(parts)) == tag
    assert auth.verify(key, tuple(parts), tag)


def test_tag_is_32_bytes():
    assert len(auth.mac(b"", b"")) == auth.TAG_SIZE == 32


@given(key=st.binary(max_size=100), data=st.binary(max_size=300))
@example(key=bytes(range(64)), data=b"x" * 1000)  # the longest key that is only padded
@example(key=bytes(range(65)), data=b"x" * 1000)  # the shortest key that is hashed first
def test_matches_stdlib_hmac(key, data):
    assert auth.mac(key, data) == stdlib_hmac.new(key, data, hashlib.sha256).digest()


@given(key=st.binary(min_size=32, max_size=32), data=st.binary(max_size=200))
def test_verify_roundtrip(key, data):
    assert auth.verify(key, data, auth.mac(key, data))
