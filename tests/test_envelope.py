"""Seal/open pipeline, the wire format, and tamper behaviour."""

import dataclasses
import struct

import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_key
from gchw import ahuffman, auth, envelope, keyschedule
from gchw.analysis import analyze_message, seed_variant
from gchw.bits import BitString
from gchw.blockcipher import decrypt_block, unpartition
from gchw.errors import (
    AuthenticationError,
    CorruptionError,
    GchwError,
    ParseError,
    ShapeError,
)
from gchw.keyschedule import MAX_LEVEL
from gchw.recurrence import RecurrenceKind

MESSAGE = b"Cryptographist is the science of overt secret writing"
MESSAGE_1 = b"mmmmmmomm"
MESSAGE_2 = b"meet me after party"


@pytest.mark.parametrize("message", [MESSAGE, MESSAGE_1, MESSAGE_2])
def test_experiment_messages_roundtrip(message, key):
    env = envelope.seal(message, key)
    assert envelope.open(env, key) == message


def test_empty_message(key):
    env = envelope.seal(b"", key)
    assert env.blocks == ()
    assert env.compressed_bit_count == 0
    assert envelope.open(env, key) == b""
    assert envelope.deserialize(envelope.serialize(env)) == env


def test_compression_is_recorded(key):
    env = envelope.seal(MESSAGE_1, key)
    assert env.compressed_bit_count < 72
    assert env.compressed_symbol_count == len(MESSAGE_1)
    assert env.plain_byte_count == len(MESSAGE_1)


@settings(max_examples=30)
@given(message=st.binary(max_size=500))
def test_roundtrip_random_messages(message):
    key = make_key()
    assert envelope.open(envelope.seal(message, key), key) == message


def test_roundtrip_random_keys(rng):
    for _ in range(30):
        key = make_key(
            kind=rng.choice(list(RecurrenceKind)),
            n=rng.randint(1, 30),
            p=1,
            level=rng.randint(1, 3),
            seed=rng.randbytes(32),
            mac_key=rng.randbytes(32),
        )
        message = rng.randbytes(rng.randrange(0, 600))
        assert envelope.open(envelope.seal(message, key), key) == message


def test_sealing_is_deterministic(key):
    a = envelope.serialize(envelope.seal(MESSAGE, key))
    b = envelope.serialize(envelope.seal(MESSAGE, key))
    assert a == b


def test_wire_magic(key):
    wire = envelope.serialize(envelope.seal(b"hello", key))
    assert wire[:4] == bytes([0x47, 0x43, 0x48, 0x57]) == b"GCHW"


def test_serialize_deserialize_roundtrip(rng, key):
    for _ in range(10):
        message = rng.randbytes(rng.randrange(0, 300))
        env = envelope.seal(message, key)
        assert envelope.deserialize(envelope.serialize(env)) == env


def test_truncation_is_parse_error(key):
    wire = envelope.serialize(envelope.seal(MESSAGE, key))
    for cut in (0, 3, 10, len(wire) // 2, len(wire) - 1):
        with pytest.raises(ParseError):
            envelope.deserialize(wire[:cut])


def test_bad_magic_and_version(key):
    wire = bytearray(envelope.serialize(envelope.seal(b"x", key)))
    bad_magic = bytes([wire[0] ^ 1]) + bytes(wire[1:])
    with pytest.raises(ParseError):
        envelope.deserialize(bad_magic)
    wire[4] ^= 0xFF  # version byte
    with pytest.raises(ParseError):
        envelope.deserialize(bytes(wire))


@pytest.mark.parametrize("scale_exp", [0, 3, 2 * MAX_LEVEL + 2])
def test_invalid_scale_exponent_is_parse_error(key, scale_exp):
    wire = bytearray(envelope.serialize(envelope.seal(b"x", key)))
    wire[7] = scale_exp  # after magic (4), version (1) and z (2)
    with pytest.raises(ParseError, match="scale exponent"):
        envelope.deserialize(bytes(wire))


@pytest.mark.parametrize("z", [3, 6, 2 * 2**MAX_LEVEL])
def test_invalid_block_order_is_parse_error(key, z):
    wire = bytearray(envelope.serialize(envelope.seal(b"x", key)))
    wire[5:7] = z.to_bytes(2, "big")  # after magic (4) and version (1)
    with pytest.raises(ParseError, match="block order"):
        envelope.deserialize(bytes(wire))


def test_serialize_rejects_block_of_wrong_length(key):
    env = envelope.seal(MESSAGE, key)
    short = dataclasses.replace(env, body=env.body[:-8])  # the last block is one entry short
    with pytest.raises(CorruptionError, match="not whole blocks"):
        envelope.serialize(short)


@pytest.mark.parametrize("cut", [-1, 1, 8])
def test_body_that_is_not_whole_blocks_is_a_typed_error(key, cut):
    env = envelope.seal(MESSAGE, key)
    body = env.body[:cut] if cut < 0 else env.body + bytes(cut)
    forged = dataclasses.replace(env, body=body)
    with pytest.raises(ShapeError, match="not whole blocks"):
        envelope.open(forged, key)
    with pytest.raises(CorruptionError, match="not whole blocks"):
        envelope.serialize(forged)
    with pytest.raises(ShapeError, match="not whole blocks"):
        forged.blocks


@pytest.mark.parametrize("message", [b"", MESSAGE_1, MESSAGE])
def test_serialize_embeds_the_body_verbatim(key, message):
    env = envelope.seal(message, key)
    wire = envelope.serialize(env)
    header = envelope._HEADER
    assert wire == wire[: header.size] + env.body + env.tag
    assert len(env.blocks) == header.unpack_from(wire)[-1]
    assert all(len(block) == env.z * env.z for block in env.blocks)
    for data in (wire, bytearray(wire), memoryview(wire)):
        parsed = envelope.deserialize(data)
        assert type(parsed.body) is bytes and type(parsed.tag) is bytes
        assert parsed == env and hash(parsed) == hash(env)


def test_scale_mismatch_is_corruption(key):
    env = envelope.seal(MESSAGE, key)
    with pytest.raises(CorruptionError, match="different key parameters"):
        envelope.open(dataclasses.replace(env, scale_exp=env.scale_exp + 2), key)


def test_open_with_wrong_key_never_returns_plaintext(rng, key):
    env = envelope.seal(MESSAGE_2, key)
    wrong_seed = make_key(seed=rng.randbytes(32))
    wrong_mac = make_key(mac_key=rng.randbytes(32))
    wrong_level = make_key(level=3)
    wrong_n = make_key(n=6)
    for wrong in (wrong_seed, wrong_mac, wrong_level, wrong_n):
        with pytest.raises((AuthenticationError, CorruptionError)):
            envelope.open(env, wrong)


def test_wrong_mac_key_is_authentication_failure(rng, key):
    env = envelope.seal(MESSAGE_2, key)
    with pytest.raises(AuthenticationError):
        envelope.open(env, make_key(mac_key=rng.randbytes(32)))


def test_single_bit_flips_always_error(rng, key):
    message = MESSAGE_2
    wire = envelope.serialize(envelope.seal(message, key))
    for _ in range(200):
        position = rng.randrange(len(wire) * 8)
        tampered = bytearray(wire)
        tampered[position // 8] ^= 0x80 >> (position % 8)
        with pytest.raises(GchwError):
            envelope.open(envelope.deserialize(bytes(tampered)), key)


def test_flipping_count_fields_is_detected(key):
    env = envelope.seal(MESSAGE_2, key)
    wire = envelope.serialize(env)
    # plain_byte_count occupies bytes 8..16, symbol count 16..24, bit count 24..32
    for offset in (15, 23, 31):
        tampered = bytearray(wire)
        tampered[offset] ^= 0x01
        with pytest.raises(GchwError):
            envelope.open(envelope.deserialize(bytes(tampered)), key)


def test_one_derive_per_key_object(monkeypatch, key):
    derived = []
    real_derive = keyschedule.derive

    def counting_derive(k):
        derived.append(k)
        return real_derive(k)

    monkeypatch.setattr(keyschedule, "derive", counting_derive)
    for message in (MESSAGE, MESSAGE_1, MESSAGE_2, b"", b"x" * 100):
        assert envelope.open(envelope.seal(message, key), key) == message
    env = envelope.seal(MESSAGE, key)
    forged = dataclasses.replace(env, tag=bytes([env.tag[0] ^ 1]) + env.tag[1:])
    with pytest.raises(AuthenticationError):
        envelope.open(forged, key)
    assert len(analyze_message(MESSAGE, key, seeds=3)) == 3
    envelope.seal(MESSAGE, key)
    assert derived == [key, seed_variant(key, 1), seed_variant(key, 2)]


def test_seed_variants_derive_their_own_pairs(key):
    variant = seed_variant(key, 1)
    assert variant != key
    assert variant.matrix_pair != key.matrix_pair
    assert seed_variant(key, 0).matrix_pair is key.matrix_pair


def reference_open(env, key):
    """``open`` on the per-block route: decrypt_block, unpartition, then the MAC."""
    kp = key.matrix_pair
    if env.version != envelope.VERSION:
        raise ParseError(f"unsupported envelope version {env.version}")
    if env.z != kp.z or env.scale_exp != kp.scale_exp:
        raise CorruptionError("envelope was sealed under different key parameters")
    plain_blocks = [decrypt_block(b, kp) for b in env.blocks]
    compressed = unpartition(plain_blocks, (env.compressed_bit_count + 7) // 8)
    if not auth.verify(key.mac_key, compressed, env.tag):
        raise AuthenticationError("MAC tag mismatch: data attack or wrong key")
    bits = BitString.unpack(compressed, env.compressed_bit_count)
    message = ahuffman.decode(bits, env.compressed_symbol_count)
    if len(message) != env.plain_byte_count:
        raise CorruptionError("decoded length does not match the recorded byte count")
    return message


def open_outcome(open_fn, env, key):
    try:
        return open_fn(env, key)
    except GchwError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("level", [2, 3])
def test_every_bit_flip_fails_like_the_per_block_route(level):
    key = make_key(level=level)
    wire = envelope.serialize(envelope.seal(MESSAGE_2, key))
    seen = set()
    for position in range(8 * len(wire)):
        tampered = bytearray(wire)
        tampered[position // 8] ^= 0x80 >> (position % 8)
        try:
            env = envelope.deserialize(bytes(tampered))
        except ParseError:
            continue
        expected = open_outcome(reference_open, env, key)
        assert open_outcome(envelope.open, env, key) == expected, position
        seen.add(expected)
    # the flips reach the decrypt, padding and MAC checks
    assert {message for _, message in seen} >= {
        "decrypted entry is not an integer",
        "padding marker inside the data region",
        "MAC tag mismatch: data attack or wrong key",
    }


def _nudge(body, entry, delta):
    """``body`` with its int64 entry number ``entry`` moved by ``delta``."""
    out = bytearray(body)
    (value,) = struct.unpack_from(">q", out, 8 * entry)
    struct.pack_into(">q", out, 8 * entry, value + delta)
    return bytes(out)


# each maps (body, bytes per block) to a tampered body of whole blocks
IN_MEMORY_TAMPERS = {
    "missing block": lambda body, size: body[:-size],
    "extra block": lambda body, size: body + body[:size],
    "no blocks": lambda body, size: b"",
}


@pytest.mark.parametrize("name", sorted(IN_MEMORY_TAMPERS))
def test_in_memory_tampering_fails_like_the_per_block_route(name, key):
    env = envelope.seal(MESSAGE, key)
    assert len(env.blocks) >= 3
    body = IN_MEMORY_TAMPERS[name](env.body, 8 * env.z * env.z)
    forged = dataclasses.replace(env, body=body)
    expected = open_outcome(reference_open, forged, key)
    assert isinstance(expected, tuple)
    assert open_outcome(envelope.open, forged, key) == expected


@pytest.mark.parametrize("bit_delta", [-8, -1, 1, 8])
def test_moved_padding_with_a_later_corrupt_block_names_the_block(key, bit_delta):
    # the count change misplaces the padding in the last block, but the
    # per-block route decrypts every block first, so the corrupt one wins
    env = envelope.seal(MESSAGE, key)
    body = _nudge(env.body, len(env.body) // 8 - env.z * env.z + 2, 1)  # the last block's entry 2
    for forged in (
        dataclasses.replace(env, compressed_bit_count=env.compressed_bit_count + bit_delta),
        dataclasses.replace(
            env, compressed_bit_count=env.compressed_bit_count + bit_delta, body=body
        ),
    ):
        expected = open_outcome(reference_open, forged, key)
        assert isinstance(expected, tuple)
        assert open_outcome(envelope.open, forged, key) == expected
