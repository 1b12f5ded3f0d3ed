"""Seal/open pipeline and the GCHW wire format.

Sealing compresses the message with the adaptive Huffman codec, computes
the HMAC tag over the packed compressed bytes, encrypts the compressed
bytes in Z x Z blocks, and records the exact bit/symbol counts so the
receiver can stop decoding precisely where the encoder stopped.  Opening
runs the stages in reverse and verifies the tag before decompressing.

Wire layout, big-endian throughout::

    "GCHW" | version u8 | z u16 | scale_exp u8 | plain_byte_count u64 |
    compressed_symbol_count u64 | compressed_bit_count u64 | block_count u32 |
    body (z*z signed i64 scaled entries per block, row-major) | tag (32 bytes)

:attr:`CipherEnvelope.body` holds that body exactly as
:func:`~gchw.blockcipher.encrypt_message` returns it and as it crosses the
wire; :attr:`CipherEnvelope.blocks` is a decoded view of it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from . import ahuffman, auth
from .bits import BitString
from .blockcipher import decrypt_message, encrypt_message
from .errors import AuthenticationError, CorruptionError, ParseError, ShapeError
from .keyschedule import MAX_LEVEL, CipherKey

MAGIC = b"GCHW"
VERSION = 1
_HEADER = struct.Struct(">4sBHBQQQI")
_TAG_SIZE = 32
_MAX_SCALE_EXP = 2 * MAX_LEVEL


@dataclass(frozen=True)
class CipherEnvelope:
    """Everything that crosses the wire for one message."""

    version: int
    z: int
    scale_exp: int
    plain_byte_count: int
    compressed_bit_count: int
    compressed_symbol_count: int
    body: bytes  # the wire body: z*z scaled entries per block, big-endian int64, row-major
    tag: bytes

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """The body decoded into one tuple of z*z scaled entries per block."""
        block = struct.Struct(f">{self.z * self.z}q")
        if len(self.body) % block.size:
            raise ShapeError(f"body of {len(self.body)} bytes is not whole blocks of order {self.z}")
        return tuple(block.iter_unpack(self.body))


def _expected_block_count(bit_count: int, z: int) -> int:
    return ((bit_count + 7) // 8 + z * z - 1) // (z * z)


def seal(message: bytes, key: CipherKey) -> CipherEnvelope:
    """Compress, tag, and encrypt a message under the shared key."""
    bits = ahuffman.encode(message)
    compressed = bits.pack()
    tag = auth.mac(key.mac_key, compressed)
    kp = key.matrix_pair
    return CipherEnvelope(
        version=VERSION,
        z=kp.z,
        scale_exp=kp.scale_exp,
        plain_byte_count=len(message),
        compressed_bit_count=len(bits),
        compressed_symbol_count=len(message),
        body=encrypt_message(compressed, kp),
        tag=tag,
    )


def open(env: CipherEnvelope, key: CipherKey) -> bytes:  # noqa: A001 - mirrors seal
    """Decrypt, verify (before decompressing), and decode an envelope."""
    if env.version != VERSION:
        raise ParseError(f"unsupported envelope version {env.version}")
    kp = key.matrix_pair
    if env.z != kp.z or env.scale_exp != kp.scale_exp:
        raise CorruptionError("envelope was sealed under different key parameters")
    compressed = decrypt_message(env.body, kp, (env.compressed_bit_count + 7) // 8)
    if not auth.verify(key.mac_key, compressed, env.tag):
        raise AuthenticationError("MAC tag mismatch: data attack or wrong key")
    bits = BitString.unpack(compressed, env.compressed_bit_count)
    message = ahuffman.decode(bits, env.compressed_symbol_count)
    if len(message) != env.plain_byte_count:
        raise CorruptionError("decoded length does not match the recorded byte count")
    return message


def serialize(env: CipherEnvelope) -> bytes:
    """Render the exact wire bytes for an envelope: header, body, tag."""
    block_size = 8 * env.z * env.z
    if len(env.body) % block_size:
        raise CorruptionError(
            f"body of {len(env.body)} bytes is not whole blocks of order {env.z}"
        )
    header = _HEADER.pack(
        MAGIC,
        env.version,
        env.z,
        env.scale_exp,
        env.plain_byte_count,
        env.compressed_symbol_count,
        env.compressed_bit_count,
        len(env.body) // block_size,
    )
    return b"".join((header, env.body, env.tag))


def deserialize(data: bytes) -> CipherEnvelope:
    """Parse wire bytes; raises :class:`ParseError` on any structural fault."""
    if len(data) < _HEADER.size:
        raise ParseError("truncated envelope header")
    magic, version, z, scale_exp, plain_count, symbol_count, bit_count, block_count = (
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
    if block_count != _expected_block_count(bit_count, z):
        raise ParseError("block count disagrees with the compressed bit count")
    expected = _HEADER.size + block_count * z * z * 8 + _TAG_SIZE
    if len(data) != expected:
        raise ParseError(f"envelope length {len(data)} != expected {expected}")
    return CipherEnvelope(
        version=version,
        z=z,
        scale_exp=scale_exp,
        plain_byte_count=plain_count,
        compressed_bit_count=bit_count,
        compressed_symbol_count=symbol_count,
        body=bytes(data[_HEADER.size : -_TAG_SIZE]),
        tag=bytes(data[-_TAG_SIZE:]),
    )
