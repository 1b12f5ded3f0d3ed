"""Seal/open pipeline and the GCHW wire format, version 2.

Sealing compresses the message with the adaptive Huffman codec, encrypts
the packed compressed bytes in Z x Z blocks, and computes the HMAC tag
over the header and that ciphertext body (encrypt-then-MAC).  The header
records the exact bit count, so the receiver stops decoding precisely
where the encoder stopped.  Opening checks the header against the key and
verifies the tag before anything is decrypted, so a forged envelope costs
one HMAC; only then does it decrypt, unpack and decode.

Wire layout, big-endian throughout::

    "GCHW" | version u8 = 2 | z u16 | scale_exp u8 | entry_bytes u8 |
    plain_byte_count u64 | compressed_bit_count u64 | block_count u32 |
    body (z*z signed scaled entries of entry_bytes each per block, row-major) |
    tag (32 bytes: HMAC-SHA-256(mac_key, header || body))

``entry_bytes`` is the key's ``KeyMatrixPair.entry_bytes``, the narrowest
width that holds every entry the key can produce.  :attr:`CipherEnvelope.body`
holds the body exactly as :func:`~gchw.blockcipher.encrypt_message` returns
it and as it crosses the wire; :attr:`CipherEnvelope.blocks` is a decoded
view of it.  Version 1 envelopes (int64 entries, tag over the compressed
bytes) are not read.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace

from . import ahuffman, auth, blockcipher
from .bits import BitString
from .errors import AuthenticationError, CorruptionError, ParseError, ShapeError
from .keyschedule import MAX_LEVEL, CipherKey

MAGIC = b"GCHW"
VERSION = 2
_HEADER = struct.Struct(">4sBHBBQQI")
_MAX_SCALE_EXP = 2 * MAX_LEVEL


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
        return tuple(blockcipher.body_blocks(self.body, self.z, self.entry_bytes))


def _expected_block_count(bit_count: int, z: int) -> int:
    return ((bit_count + 7) // 8 + z * z - 1) // (z * z)


def _header(env: CipherEnvelope) -> bytes:
    """The wire header of ``env``; with the body, the bytes its tag covers."""
    try:
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
    except struct.error as exc:
        raise CorruptionError(f"header field does not fit the wire: {exc}") from None


def seal(message: bytes, key: CipherKey) -> CipherEnvelope:
    """Compress, encrypt, and tag a message under the shared key."""
    bits = ahuffman.encode(message)
    return _seal_packed(bits.pack(), len(bits), len(message), key)


def _seal_packed(
    compressed: bytes, bit_count: int, byte_count: int, key: CipherKey
) -> CipherEnvelope:
    """The keyed half of :func:`seal`: encrypt packed compressed bytes, then tag."""
    kp = key.matrix_pair
    env = CipherEnvelope(
        version=VERSION,
        z=kp.z,
        scale_exp=kp.scale_exp,
        entry_bytes=kp.entry_bytes,
        plain_byte_count=byte_count,
        compressed_bit_count=bit_count,
        body=blockcipher.encrypt_message(compressed, kp),
        tag=b"",
    )
    return replace(env, tag=auth.mac(key.mac_key, _header(env) + env.body))


def open(env: CipherEnvelope, key: CipherKey) -> bytes:  # noqa: A001 - mirrors seal
    """Check the header against the key, verify the tag, then decrypt and decode."""
    if env.version != VERSION:
        raise ParseError(f"unsupported envelope version {env.version}")
    kp = key.matrix_pair
    if (env.z, env.scale_exp, env.entry_bytes) != (kp.z, kp.scale_exp, kp.entry_bytes):
        raise CorruptionError("envelope was sealed under different key parameters")
    if len(env.body) % (kp.entry_bytes * kp.z * kp.z):
        raise ShapeError(f"body of {len(env.body)} bytes is not whole blocks of key order {kp.z}")
    if not auth.verify(key.mac_key, _header(env) + env.body, env.tag):
        raise AuthenticationError("MAC tag mismatch: data attack or wrong key")
    compressed = blockcipher.decrypt_message(env.body, kp, (env.compressed_bit_count + 7) // 8)
    bits = BitString.unpack(compressed, env.compressed_bit_count)
    return ahuffman.decode(bits, env.plain_byte_count)


def serialize(env: CipherEnvelope) -> bytes:
    """Render the exact wire bytes for an envelope: header, body, tag."""
    if len(env.body) % (env.entry_bytes * env.z * env.z):
        raise CorruptionError(
            f"body of {len(env.body)} bytes is not whole blocks of order {env.z}"
        )
    return b"".join((_header(env), env.body, env.tag))


def deserialize(data: bytes) -> CipherEnvelope:
    """Parse wire bytes; raises :class:`ParseError` on any structural fault."""
    if len(data) < _HEADER.size:
        raise ParseError("truncated envelope header")
    magic, version, z, scale_exp, entry_bytes, plain_count, bit_count, block_count = (
        _HEADER.unpack_from(data)
    )
    if magic != MAGIC:
        raise ParseError(f"bad magic {magic!r}")
    if version != VERSION:
        raise ParseError(f"unknown version {version}")
    if z & (z - 1) or not 2 <= z <= 1 << MAX_LEVEL:
        raise ParseError(f"invalid block order {z}")
    if scale_exp % 2 or not 2 <= scale_exp <= _MAX_SCALE_EXP:
        raise ParseError(f"invalid scale exponent {scale_exp}")
    if not 1 <= entry_bytes <= 8:
        raise ParseError(f"invalid entry width {entry_bytes}")
    if block_count != _expected_block_count(bit_count, z):
        raise ParseError("block count disagrees with the compressed bit count")
    expected = _HEADER.size + block_count * z * z * entry_bytes + auth.TAG_SIZE
    if len(data) != expected:
        raise ParseError(f"envelope length {len(data)} != expected {expected}")
    return CipherEnvelope(
        version=version,
        z=z,
        scale_exp=scale_exp,
        entry_bytes=entry_bytes,
        plain_byte_count=plain_count,
        compressed_bit_count=bit_count,
        body=bytes(data[_HEADER.size : -auth.TAG_SIZE]),
        tag=bytes(data[-auth.TAG_SIZE:]),
    )
