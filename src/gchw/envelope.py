"""Seal/open pipeline and the GCHW wire format, versions 2 and 3.

Sealing compresses the message with the adaptive Huffman codec, encrypts
the packed compressed bytes in Z x Z blocks, and computes the HMAC tag
over the header and that ciphertext body (encrypt-then-MAC).  The header
records the exact bit count, so the receiver stops decoding precisely
where the encoder stopped.  Opening checks the header against the key and
verifies the tag before anything is decrypted, so a forged envelope costs
one HMAC; only then does it decrypt, unpack and decode.

A non-empty message that FGK would not shorten, by the fixed rule of
``_compress`` or by the exact length of its FGK stream, is stored instead,
as DEFLATE stores a block it cannot compress (RFC 1951, section 3.2.4):
the envelope carries version 3, its body encrypts the message bytes
themselves, and its bit count must be 8 * plain_byte_count.  Opening it
decrypts and neither unpacks nor decodes.  Every FGK envelope is version
2, and its packed stream is shorter than its message unless both are empty.

Wire layout, big-endian throughout::

    "GCHW" | version u8 = 2 or 3 | z u16 | scale_exp u8 | entry_bytes u8 |
    plain_byte_count u64 | compressed_bit_count u64 | block_count u32 |
    body (z*z signed scaled entries of entry_bytes each per block, row-major) |
    tag (32 bytes: HMAC-SHA-256(mac_key, header || body))

``entry_bytes`` is the key's ``KeyMatrixPair.entry_bytes``, the narrowest
width that holds every entry the key can produce.  :attr:`CipherEnvelope.body`
holds the body exactly as :func:`~gchw.blockcipher.encrypt_message` returns
it and as it crosses the wire; :attr:`CipherEnvelope.blocks` is a decoded
view of it.  Version 1 envelopes (int64 entries, tag over the compressed
bytes) are not read.  One check, ``_check``, holds the header rules:
:func:`deserialize` applies it to the wire's fields, and :func:`serialize`,
:func:`open` and :attr:`CipherEnvelope.blocks` to an in-memory envelope.
"""

from __future__ import annotations

import struct
from collections import Counter
from dataclasses import dataclass, fields
from math import log2

from . import ahuffman, auth, blockcipher
from .bits import BitString
from .errors import AuthenticationError, CorruptionError, GchwError, ParameterError, ParseError, ShapeError
from .keyschedule import MAX_LEVEL, CipherKey

MAGIC = b"GCHW"
VERSION = 2  # an FGK-compressed body
STORED = 3  # the message bytes themselves
_HEADER = struct.Struct(">4sBHBBQQI")


@dataclass(frozen=True)
class CipherEnvelope:
    """Everything that crosses the wire for one message."""

    version: int
    z: int
    scale_exp: int
    entry_bytes: int
    plain_byte_count: int
    compressed_bit_count: int
    body: bytes  # the wire body: z*z signed big-endian entries of entry_bytes each per block
    tag: bytes

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """The body decoded into one tuple of z*z scaled entries per block."""
        _check(self)
        return tuple(blockcipher.body_blocks(self.body, self.z, self.entry_bytes))


# each field with the one type it takes: exactly int for the six header
# fields, exactly bytes for body and tag
_FIELD_TYPES = tuple(zip([field.name for field in fields(CipherEnvelope)], [int] * 6 + [bytes] * 2))


def _check(env: CipherEnvelope) -> None:
    """Apply the wire format's rules to ``env``: :class:`ShapeError` if its body
    is not whole blocks, :class:`CorruptionError` for any other fault."""
    for name, kind in _FIELD_TYPES:
        value = getattr(env, name)
        if type(value) is not kind:
            noun = "an int" if kind is int else "bytes"
            raise CorruptionError(f"{name} must be {noun}, got {type(value).__name__}")
    z, width = env.z, env.entry_bytes
    bits, plain = env.compressed_bit_count, env.plain_byte_count
    if env.version not in (VERSION, STORED):
        raise CorruptionError(f"unknown version {env.version}")
    if not 2 <= z <= 1 << MAX_LEVEL or z & (z - 1):
        raise CorruptionError(f"invalid block order {z}")
    if not 2 <= env.scale_exp <= 2 * MAX_LEVEL or env.scale_exp % 2:
        raise CorruptionError(f"invalid scale exponent {env.scale_exp}")
    if not 1 <= width <= 8:
        raise CorruptionError(f"invalid entry width {width}")
    for count in (plain, bits):
        if not 0 <= count < 1 << 64:
            raise CorruptionError(f"count {count} does not fit the wire")
    if env.version == STORED and bits != 8 * plain:
        raise CorruptionError(f"stored envelope of {plain} bytes records {bits} bits")
    blocks, rest = divmod(len(env.body), width * z * z)
    if rest:
        raise ShapeError(f"body of {len(env.body)} bytes is not whole blocks of order {z}")
    if blocks != ((bits + 7) // 8 + z * z - 1) // (z * z):
        raise CorruptionError("block count disagrees with the compressed bit count")
    if len(env.tag) != auth.TAG_SIZE:
        raise CorruptionError(f"tag of {len(env.tag)} bytes, not {auth.TAG_SIZE}")


def _header(env: CipherEnvelope) -> bytes:
    """The wire header of ``env``; with the body, the bytes its tag covers."""
    return _HEADER.pack(
        MAGIC,
        env.version,
        env.z,
        env.scale_exp,
        env.entry_bytes,
        env.plain_byte_count,
        env.compressed_bit_count,
        len(env.body) // (env.entry_bytes * env.z * env.z),
    )


def _compress(message: bytes) -> tuple[int, bytes, int]:
    """The unkeyed half of :func:`seal`: the version, the bytes to encrypt and their bit count.

    A strided sample of at most 4096 of the message's bytes, k in all, is
    costed as a static order-0 code plus one 8-bit literal per distinct
    byte, ``sum(c * log2(k / c)) + 8 * distinct`` bits over the byte counts
    c.  At ``8 * k`` bits or more the message is stored (version 3).
    Otherwise it is FGK-coded, and then stored after all if its packed
    stream is not shorter than the message: the sample's cost leaves out
    FGK's NYT codes.  The empty message is FGK-coded.
    """
    if not isinstance(message, (bytes, bytearray)):
        raise ParameterError(f"message must be bytes or bytearray, got {type(message).__name__}")
    sample = message[:: len(message) // 4096 + 1]
    k, counts = len(sample), Counter(sample).values()
    if not k or sum(c * log2(k / c) for c in counts) + 8 * len(counts) < 8 * k:
        bits = ahuffman.encode(message)
        if not message or (len(bits) + 7) // 8 < len(message):
            return VERSION, bits.pack(), len(bits)
    return STORED, message, 8 * len(message)


def seal(message: bytes, key: CipherKey) -> CipherEnvelope:
    """Compress (or store), encrypt, and tag a message under the shared key."""
    return _seal_packed(*_compress(message), len(message), key)


def _seal_packed(
    version: int, payload: bytes, bit_count: int, byte_count: int, key: CipherKey
) -> CipherEnvelope:
    """The keyed half of :func:`seal`: encrypt the payload :func:`_compress` made, then tag."""
    kp = key.matrix_pair
    header = (version, kp.z, kp.scale_exp, kp.entry_bytes, byte_count, bit_count)
    body = blockcipher.encrypt_message(payload, kp)
    tag = auth.mac(key.mac_key, (_header(CipherEnvelope(*header, body, b"")), body))
    return CipherEnvelope(*header, body, tag)


def open(env: CipherEnvelope, key: CipherKey) -> bytes:  # noqa: A001 - mirrors seal
    """Check the header against the key, verify the tag, then decrypt and decode.

    A stored (version 3) body decrypts to the message itself.
    """
    kp = key.matrix_pair
    if (env.z, env.scale_exp, env.entry_bytes) != (kp.z, kp.scale_exp, kp.entry_bytes):
        raise CorruptionError("envelope was sealed under different key parameters")
    _check(env)
    if not auth.verify(key.mac_key, (_header(env), env.body), env.tag):
        raise AuthenticationError("MAC tag mismatch: data attack or wrong key")
    payload = blockcipher.decrypt_message(env.body, kp, (env.compressed_bit_count + 7) // 8)
    if env.version == STORED:
        return payload
    bits = BitString.unpack(payload, env.compressed_bit_count)
    return ahuffman.decode(bits, env.plain_byte_count)


def serialize(env: CipherEnvelope) -> bytes:
    """Render the exact wire bytes for an envelope: header, body, tag."""
    _check(env)
    return b"".join((_header(env), env.body, env.tag))


def deserialize(data: bytes) -> CipherEnvelope:
    """Parse wire bytes; raises :class:`ParseError` on any structural fault."""
    if len(data) < _HEADER.size + auth.TAG_SIZE:
        raise ParseError("truncated envelope")
    magic, *fields, block_count = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise ParseError(f"bad magic {magic!r}")
    body, tag = data[_HEADER.size : -auth.TAG_SIZE], data[-auth.TAG_SIZE :]
    env = CipherEnvelope(*fields, bytes(body), bytes(tag))
    try:
        _check(env)
    except GchwError as exc:
        raise ParseError(str(exc)) from None
    blocks = len(env.body) // (env.entry_bytes * env.z * env.z)
    if block_count != blocks:
        raise ParseError(f"header records {block_count} blocks, the body holds {blocks}")
    return env
