"""Golden vectors: the exact FGK bit streams, frozen so codec rewrites stay bit-exact.

The expected values were produced by the per-bit reference codec and must
never be regenerated from the code under test.
"""

import hashlib
import random

import pytest

from gchw.ahuffman import decode, encode
from gchw.bits import BitString

# the three demo messages of scripts/replicate_experiments.py:
# (message, compressed bit count, packed stream)
DEMO_VECTORS = [
    (
        b"Cryptographist is the science of overt secret writing",
        356,
        "43390f21c23a237833d8c398d0469039b7083eeb868cace831cd88dd70a7319b"
        "ee0ecfec1a41fa023bb9e55540",
    ),
    (b"mmmmmmomm", 24, "6df9bf"),
    (b"meet me after party", 129, "6d32a3a020620c30ccd0390c38679e3c80"),
]

WORDS = (
    "the of and to in is that it for as with was on be by this are from "
    "at or an which have not golden matrix cipher block huffman adaptive "
    "secret key wavelet haar level message compression entropy"
).split()


def english_like(size: int, seed: int) -> bytes:
    """Seeded sentences over a fixed vocabulary, cut to ``size`` bytes."""
    rng = random.Random(seed)
    out = bytearray()
    while len(out) < size:
        sentence = " ".join(rng.choice(WORDS) for _ in range(rng.randint(4, 14)))
        out += sentence[0].upper().encode() + sentence[1:].encode() + b". "
        if rng.random() < 0.1:
            out += b"\n"
    return bytes(out[:size])


# (payload, compressed bit count, SHA-256 of the packed stream)
BULK_VECTORS = {
    "text-64KiB": (
        lambda: english_like(1 << 16, 2015),
        283665,
        "39576493600dec8d727549ed9894df72398f979bd289e05e0cdd823422a4853c",
    ),
    "random-8KiB": (
        lambda: random.Random(2015).randbytes(8192),
        68158,
        "0fa163bed209bb0bfa2207ca489089580a27729c20f84f27fbf42df55ad07550",
    ),
}


@pytest.mark.parametrize("message, bit_count, packed_hex", DEMO_VECTORS)
def test_demo_message_streams(message, bit_count, packed_hex):
    bits = encode(message)
    assert len(bits) == bit_count
    assert bits.pack().hex() == packed_hex
    unpacked = BitString.unpack(bytes.fromhex(packed_hex), bit_count)
    assert decode(unpacked, len(message)) == message


@pytest.mark.parametrize("name", sorted(BULK_VECTORS))
def test_bulk_stream_digests(name):
    make, bit_count, digest = BULK_VECTORS[name]
    data = make()
    bits = encode(data)
    assert len(bits) == bit_count
    packed = bits.pack()
    assert hashlib.sha256(packed).hexdigest() == digest
    assert decode(BitString.unpack(packed, bit_count), len(data)) == data
