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
bytes) are not read.  One check, ``_check``, holds the header rules:
:func:`deserialize` applies it to the wire's fields, and :func:`serialize`,
:func:`open` and :attr:`CipherEnvelope.blocks` to an in-memory envelope.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace

from . import ahuffman, auth, blockcipher
from .bits import BitString
from .errors import AuthenticationError, CorruptionError, GchwError, ParseError, ShapeError
from .keyschedule import MAX_LEVEL, CipherKey

MAGIC = b"GCHW"
VERSION = 2
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


def _check(env: CipherEnvelope) -> None:
    """Apply the wire format's rules to ``env``: :class:`ShapeError` if its body
    is not whole blocks, :class:`CorruptionError` for any other fault."""
    z, width = env.z, env.entry_bytes
    if env.version != VERSION:
        raise CorruptionError(f"unknown version {env.version}")
    if not 2 <= z <= 1 << MAX_LEVEL or z & (z - 1):
        raise CorruptionError(f"invalid block order {z}")
    if not 2 <= env.scale_exp <= 2 * MAX_LEVEL or env.scale_exp % 2:
        raise CorruptionError(f"invalid scale exponent {env.scale_exp}")
    if not 1 <= width <= 8:
        raise CorruptionError(f"invalid entry width {width}")
    for count in (env.plain_byte_count, env.compressed_bit_count):
        if not 0 <= count < 1 << 64:
            raise CorruptionError(f"count {count} does not fit the wire")
    blocks, rest = divmod(len(env.body), width * z * z)
    if rest:
        raise ShapeError(f"body of {len(env.body)} bytes is not whole blocks of order {z}")
    if blocks != ((env.compressed_bit_count + 7) // 8 + z * z - 1) // (z * z):
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
    kp = key.matrix_pair
    if (env.z, env.scale_exp, env.entry_bytes) != (kp.z, kp.scale_exp, kp.entry_bytes):
        raise CorruptionError("envelope was sealed under different key parameters")
    _check(env)
    if not auth.verify(key.mac_key, _header(env) + env.body, env.tag):
        raise AuthenticationError("MAC tag mismatch: data attack or wrong key")
    compressed = blockcipher.decrypt_message(env.body, kp, (env.compressed_bit_count + 7) // 8)
    bits = BitString.unpack(compressed, env.compressed_bit_count)
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
