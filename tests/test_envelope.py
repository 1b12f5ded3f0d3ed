"""Seal/open pipeline, the wire format, and tamper behaviour."""

import dataclasses
import random
import struct
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import make_key
from gchw import ahuffman, blockcipher, envelope, keyschedule
from gchw.analysis import analyze_message, cipher_series, contrast_csv, seed_variant
from gchw.blockcipher import body_blocks, decrypt_block, decrypt_message, unpartition
from gchw.errors import (
    AuthenticationError,
    CorruptionError,
    GchwError,
    ParameterError,
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


def test_open_tags_the_body_without_copying_it():
    # a stored 1 MiB message at level 3 has a 4 MiB body; open allocates
    # the decrypted payload and its joined copy, 2 MiB, and joining header
    # and body to tag them would cost another 4 MiB
    message = random.Random(3).randbytes(1 << 20)
    key = make_key(level=3)
    env = envelope.seal(message, key)
    assert env.version == envelope.STORED and len(env.body) == 4 * len(message)
    tracemalloc.start()
    try:
        assert envelope.open(env, key) == message
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.2 * len(message), peak


def test_empty_message(key):
    env = envelope.seal(b"", key)
    assert env.blocks == ()
    assert env.compressed_bit_count == 0
    assert envelope.open(env, key) == b""
    assert envelope.deserialize(envelope.serialize(env)) == env


def test_compression_is_recorded(key):
    env = envelope.seal(MESSAGE_1, key)
    assert env.compressed_bit_count < 72
    assert env.plain_byte_count == len(MESSAGE_1)
    assert env.entry_bytes == key.matrix_pair.entry_bytes


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


def test_version_1_envelope_is_a_parse_error(key):
    # a version-1 wire: 36-byte header with a symbol count, int64 entries,
    # and the tag over the compressed bytes
    env = envelope.seal(MESSAGE_2, key)
    header = struct.pack(
        ">4sBHBQQQI", b"GCHW", 1, env.z, env.scale_exp, env.plain_byte_count,
        env.plain_byte_count, env.compressed_bit_count, len(env.blocks),
    )
    body = b"".join(struct.pack(f">{env.z * env.z}q", *block) for block in env.blocks)
    with pytest.raises(ParseError, match="unknown version 1"):
        envelope.deserialize(header + body + bytes(32))


@pytest.mark.parametrize("width", [0, 9, 255])
def test_invalid_entry_width_is_parse_error(key, width):
    wire = bytearray(envelope.serialize(envelope.seal(b"x", key)))
    wire[8] = width  # after magic (4), version (1), z (2) and scale_exp (1)
    with pytest.raises(ParseError, match="entry width"):
        envelope.deserialize(bytes(wire))


def test_entry_width_mismatch_is_corruption(key):
    env = envelope.seal(MESSAGE, key)
    with pytest.raises(CorruptionError, match="different key parameters"):
        envelope.open(dataclasses.replace(env, entry_bytes=env.entry_bytes + 1), key)


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
    # the last block is one entry short
    short = dataclasses.replace(env, body=env.body[: -env.entry_bytes])
    with pytest.raises(ShapeError, match="not whole blocks"):
        envelope.serialize(short)


@pytest.mark.parametrize(
    "field, value",
    [("plain_byte_count", -1), ("compressed_bit_count", 2**64), ("plain_byte_count", 2**64)],
)
def test_a_count_past_its_header_field_is_corruption_before_the_mac(monkeypatch, key, field, value):
    forged = dataclasses.replace(envelope.seal(MESSAGE, key), **{field: value})
    with pytest.raises(CorruptionError, match="does not fit the wire"):
        envelope.serialize(forged)

    def no_verify(*args):
        raise AssertionError("the tag was checked")

    monkeypatch.setattr(envelope.auth, "verify", no_verify)
    with pytest.raises(CorruptionError, match="does not fit the wire"):
        envelope.open(forged, key)


@pytest.mark.parametrize("cut", [-1, 1, 8])
def test_body_that_is_not_whole_blocks_is_a_typed_error(key, cut):
    env = envelope.seal(MESSAGE, key)
    body = env.body[:cut] if cut < 0 else env.body + bytes(cut)
    forged = dataclasses.replace(env, body=body)
    with pytest.raises(ShapeError, match="not whole blocks"):
        envelope.open(forged, key)
    with pytest.raises(ShapeError, match="not whole blocks"):
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
    # entry_bytes is byte 8, plain_byte_count bytes 9..17, bit count 17..25
    # and block count 25..29
    for offset in (8, 16, 24, 28):
        tampered = bytearray(wire)
        tampered[offset] ^= 0x01
        with pytest.raises(GchwError):
            envelope.open(envelope.deserialize(bytes(tampered)), key)


RANDOM = random.Random(3).randbytes(4096)
# FGK codes these 33 bytes in exactly 264 bits, so with the version byte
# flipped to 3 the header is still a valid stored one
EXACT_FIT = b"And block secret compression the "


@pytest.mark.parametrize("message", ["abc", [300], None, [1, 2, 3], memoryview(b"abc")])
def test_a_message_that_is_not_bytes_is_refused_before_any_work(monkeypatch, key, message):
    encoded = []
    monkeypatch.setattr(envelope.ahuffman, "encode", encoded.append)
    with pytest.raises(ParameterError, match="^message must be bytes or bytearray, got "):
        envelope.seal(message, key)
    with pytest.raises(ParameterError, match="^message must be bytes or bytearray, got "):
        analyze_message(message, key)
    assert encoded == []


@pytest.mark.parametrize("message", [MESSAGE, RANDOM], ids=["fgk", "stored"])
def test_a_bytearray_message_round_trips(key, message):
    env = envelope.seal(bytearray(message), key)
    assert env == envelope.seal(message, key)
    assert envelope.open(env, key) == message


def test_random_bytes_are_stored_and_open_neither_unpacks_nor_decodes(monkeypatch, key):
    def refuse(*args):
        raise AssertionError("the FGK route ran")

    monkeypatch.setattr(envelope.ahuffman, "encode", refuse)
    env = envelope.seal(RANDOM, key)
    assert (env.version, env.compressed_bit_count) == (envelope.STORED, 8 * len(RANDOM))
    monkeypatch.setattr(envelope.ahuffman, "decode", refuse)
    monkeypatch.setattr(envelope.BitString, "unpack", refuse)
    assert envelope.open(envelope.deserialize(envelope.serialize(env)), key) == RANDOM


@pytest.mark.parametrize("message, version", [(RANDOM, 3), (EXACT_FIT, 2)], ids=["stored", "fgk"])
def test_the_tag_covers_the_version_byte(key, message, version):
    # seal stores EXACT_FIT, which FGK does not shorten, so its FGK envelope
    # is sealed from the FGK stream directly
    payload = message if version == 3 else ahuffman.encode(message).pack()
    env = envelope._seal_packed(version, payload, 8 * len(message), len(message), key)
    assert (env.version, env.compressed_bit_count) == (version, 8 * len(message))
    assert version == 2 or env == envelope.seal(message, key)
    wire = envelope.serialize(dataclasses.replace(env, version=5 - version))
    with pytest.raises(AuthenticationError):
        envelope.open(envelope.deserialize(wire), key)


def test_a_message_fgk_does_not_shorten_is_stored(key):
    # the sample rule picks FGK for EXACT_FIT, but its stream is 33 bytes too
    assert len(ahuffman.encode(EXACT_FIT)) == 8 * len(EXACT_FIT)
    env = envelope.seal(EXACT_FIT, key)
    assert (env.version, env.compressed_bit_count) == (envelope.STORED, 8 * len(EXACT_FIT))
    assert envelope.open(envelope.deserialize(envelope.serialize(env)), key) == EXACT_FIT


@settings(max_examples=60, deadline=None)
@given(
    message=st.binary(max_size=2048)
    | st.lists(st.sampled_from(b"etaoin shrdlu"), max_size=2048).map(bytes)
    | st.lists(st.sampled_from(b"And block secret compression the "), max_size=64).map(bytes)
)
@example(message=b"")
@example(message=EXACT_FIT)
def test_every_fgk_payload_is_shorter_than_its_message(message):
    version, payload, bit_count = envelope._compress(message)
    if version == envelope.VERSION:
        assert len(payload) == (bit_count + 7) // 8
        assert len(payload) < len(message) or message == b""
    else:
        assert (version, payload, bit_count) == (envelope.STORED, message, 8 * len(message))


@pytest.mark.parametrize(
    "field, delta",
    [("compressed_bit_count", -8), ("compressed_bit_count", -1), ("plain_byte_count", 1)],
)
def test_a_stored_envelope_needs_8_bits_per_byte(monkeypatch, key, field, delta):
    env = envelope.seal(RANDOM, key)
    forged = dataclasses.replace(env, **{field: getattr(env, field) + delta})
    wire = bytearray(envelope.serialize(env))
    # plain_byte_count is bytes 9..17 and the bit count 17..25
    at = 9 if field == "plain_byte_count" else 17
    wire[at : at + 8] = getattr(forged, field).to_bytes(8, "big")
    with pytest.raises(ParseError, match="stored envelope"):
        envelope.deserialize(bytes(wire))

    def no_verify(*args):
        raise AssertionError("the tag was checked")

    monkeypatch.setattr(envelope.auth, "verify", no_verify)
    with pytest.raises(CorruptionError, match="stored envelope"):
        envelope.open(forged, key)


@pytest.mark.parametrize(
    "field, value",
    [
        ("plain_byte_count", 5.0),
        ("z", 4.0),
        ("version", True),
        ("scale_exp", "4"),
        ("entry_bytes", None),
    ],
)
def test_a_header_field_that_is_not_an_int_is_corruption(key, field, value):
    forged = dataclasses.replace(envelope.seal(MESSAGE, key), **{field: value})
    with pytest.raises(CorruptionError, match=f"{field} must be an int"):
        envelope.serialize(forged)
    with pytest.raises(CorruptionError, match=f"{field} must be an int"):
        forged.blocks
    # open compares z, scale_exp and entry_bytes with the key's first
    with pytest.raises(CorruptionError):
        envelope.open(forged, key)


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


def per_block_decrypt(body, kp, byte_count):
    """``decrypt_message`` on the per-block route: decrypt_block on each block, then unpartition."""
    blocks = body_blocks(body, kp.z, kp.entry_bytes)
    return unpartition([decrypt_block(b, kp) for b in blocks], byte_count)


def decrypt_outcome(decrypt, env, key):
    """``decrypt`` of the envelope's body and byte count: bytes, or (error type, message)."""
    try:
        return decrypt(env.body, key.matrix_pair, (env.compressed_bit_count + 7) // 8)
    except GchwError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("level", [1, 2, 3])
@pytest.mark.parametrize("message", [b"", MESSAGE_1, MESSAGE_2], ids=["empty", "M1", "M2"])
def test_no_forged_envelope_reaches_decrypt(monkeypatch, level, message):
    # the header and tag are checked first, so every single-bit flip is
    # rejected before any block is decrypted
    key = make_key(level=level)
    wire = envelope.serialize(envelope.seal(message, key))
    calls = []
    real_decrypt = blockcipher.decrypt_message

    def counting_decrypt(*args):
        calls.append(args)
        return real_decrypt(*args)

    monkeypatch.setattr(blockcipher, "decrypt_message", counting_decrypt)
    assert envelope.open(envelope.deserialize(wire), key) == message
    assert len(calls) == 1
    errors = set()
    for position in range(8 * len(wire)):
        tampered = bytearray(wire)
        tampered[position // 8] ^= 0x80 >> (position % 8)
        with pytest.raises(GchwError) as info:
            envelope.open(envelope.deserialize(bytes(tampered)), key)
        errors.add(type(info.value))
    assert len(calls) == 1
    assert errors == {AuthenticationError, CorruptionError, ParseError}


@pytest.mark.parametrize("level", [2, 3])
def test_every_bit_flip_fails_like_the_per_block_route(level):
    # decrypt_message on each flipped envelope's body and byte count,
    # against the per-block route; open itself rejects all of them at the tag
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
        expected = decrypt_outcome(per_block_decrypt, env, key)
        assert decrypt_outcome(decrypt_message, env, key) == expected, position
        seen.add(expected)
    # the flips reach the decrypt and padding checks
    assert {outcome[1] for outcome in seen if isinstance(outcome, tuple)} >= {
        "decrypted entry is not an integer",
        "padding marker inside the data region",
    }


def _nudge(body, width, entry, delta):
    """``body`` with its ``width``-byte entry number ``entry`` moved by ``delta``."""
    out = bytearray(body)
    at = slice(width * entry, width * (entry + 1))
    value = int.from_bytes(out[at], "big", signed=True) + delta
    out[at] = value.to_bytes(width, "big", signed=True)
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
    body = IN_MEMORY_TAMPERS[name](env.body, env.entry_bytes * env.z * env.z)
    forged = dataclasses.replace(env, body=body)
    expected = decrypt_outcome(per_block_decrypt, forged, key)
    assert isinstance(expected, tuple)
    assert decrypt_outcome(decrypt_message, forged, key) == expected
    with pytest.raises(CorruptionError, match="block count disagrees"):
        envelope.open(forged, key)


@pytest.mark.parametrize("bit_delta", [-8, -1, 1, 8])
def test_moved_padding_with_a_later_corrupt_block_names_the_block(key, bit_delta):
    # the count change misplaces the padding in the last block, but the
    # per-block route decrypts every block first, so the corrupt one wins
    env = envelope.seal(MESSAGE, key)
    last_entry_2 = len(env.body) // env.entry_bytes - env.z * env.z + 2
    body = _nudge(env.body, env.entry_bytes, last_entry_2, 1)
    for forged in (
        dataclasses.replace(env, compressed_bit_count=env.compressed_bit_count + bit_delta),
        dataclasses.replace(
            env, compressed_bit_count=env.compressed_bit_count + bit_delta, body=body
        ),
    ):
        expected = decrypt_outcome(per_block_decrypt, forged, key)
        # a one-bit move may keep the byte count, and then the body decrypts
        assert isinstance(expected, tuple) or forged.body == env.body
        assert decrypt_outcome(decrypt_message, forged, key) == expected
        with pytest.raises(AuthenticationError):
            envelope.open(forged, key)


@st.composite
def in_memory_envelopes(draw):
    """Envelopes with arbitrary integer fields, bodies of at most 4 KiB and 0-40 byte tags."""
    # in half the envelopes every header field is valid, so some pass every check
    free = draw(st.booleans())

    def _field(valid):
        return st.one_of(st.sampled_from(valid), st.integers()) if free else st.sampled_from(valid)

    version, z, scale_exp, width = (
        draw(_field(valid))
        for valid in (
            [envelope.VERSION, envelope.STORED],
            [2**k for k in range(1, MAX_LEVEL + 1)],
            range(2, 2 * MAX_LEVEL + 1, 2),
            range(1, 9),
        )
    )
    size = width * z * z
    blocks = draw(st.integers(0, 4096 // size)) if 0 < size <= 4096 else 0
    body = draw(st.binary(min_size=blocks * size, max_size=blocks * size) | st.binary(max_size=4096))
    # the least and the most bits that `blocks` blocks carry
    bit_count = draw(_field([8 * (blocks - 1) * z * z + 1, 8 * blocks * z * z] if blocks else [0]))
    # bit_count // 8 bytes make a valid stored envelope of the most bits
    plain_count = draw(_field([0, 2**64 - 1, bit_count // 8]))
    tag = draw(st.binary(min_size=32, max_size=32) | st.binary(max_size=40))
    return envelope.CipherEnvelope(version, z, scale_exp, width, plain_count, bit_count, body, tag)


# a valid envelope of one level-2 block, and the faults that once escaped as untyped errors
_VALID = envelope.CipherEnvelope(2, 4, 4, 3, 1, 8, bytes(48), bytes(32))
_LEVEL_2_KEY = make_key(level=2)


@settings(max_examples=200, deadline=None)
@given(env=in_memory_envelopes())
@example(env=_VALID)
@example(env=dataclasses.replace(_VALID, z=0))
@example(env=dataclasses.replace(_VALID, entry_bytes=0))
@example(env=dataclasses.replace(_VALID, entry_bytes=-1))
@example(env=dataclasses.replace(_VALID, scale_exp=-1))
@example(env=dataclasses.replace(_VALID, z=2**64))
@example(env=dataclasses.replace(_VALID, z=-(2**63)))
@example(env=dataclasses.replace(_VALID, scale_exp=65536))
@example(env=dataclasses.replace(_VALID, tag=b""))
@example(env=dataclasses.replace(_VALID, z=3, body=bytes(27)))
@example(env=dataclasses.replace(_VALID, version=envelope.STORED))
@example(env=dataclasses.replace(_VALID, version=envelope.STORED, compressed_bit_count=7))
@example(env=dataclasses.replace(_VALID, plain_byte_count=5.0))
@example(env=dataclasses.replace(_VALID, z=4.0))
@example(env=dataclasses.replace(_VALID, version=True))
@example(env=dataclasses.replace(_VALID, tag=list(bytes(32))))
@example(env=dataclasses.replace(_VALID, tag="\0" * 32))
@example(env=dataclasses.replace(_VALID, body=list(bytes(48))))
def test_in_memory_envelopes_fail_only_with_typed_errors_in_bounded_memory(env):
    key = _LEVEL_2_KEY
    key.matrix_pair  # derive before anything is measured
    calls = {
        "serialize": envelope.serialize,
        "open": lambda e: envelope.open(e, key),
        ".blocks": lambda e: e.blocks,
        "cipher_series": cipher_series,
        "contrast_csv": lambda e: contrast_csv(MESSAGE, e, "e"),
    }
    results = {}
    for name, call in calls.items():
        tracemalloc.start()
        try:
            results[name] = call(env)
        except GchwError:
            pass
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert peak < 1 << 20, (name, peak)
    if "serialize" in results:
        assert envelope.deserialize(results["serialize"]) == env
