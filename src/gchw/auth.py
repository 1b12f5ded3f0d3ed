"""HMAC-SHA-256 tagging and constant-time verification."""

from __future__ import annotations

import hmac as _stdlib_hmac
from hashlib import sha256

TAG_SIZE = 32
_BLOCK = 64  # the SHA-256 block size, in bytes
_IPAD = bytes(b ^ 0x36 for b in range(256))
_OPAD = bytes(b ^ 0x5C for b in range(256))


def mac(key: bytes, data: bytes | tuple[bytes, ...]) -> bytes:
    """HMAC-SHA-256 (RFC 2104): H((k ^ opad) || H((k ^ ipad) || data)).

    ``data`` may be a tuple of parts, which the inner hash reads in turn
    without joining them.  Built from two SHA-256 hashes, as the stdlib's
    own fallback is.  The stdlib's one-shot ``hmac.digest`` looks up the MAC
    and the digest by name inside OpenSSL on every call; on a short message
    that lookup costs more than the hashing, and far more when the caches are cold.
    """
    key = bytes(key)
    if len(key) > _BLOCK:
        key = sha256(key).digest()
    block = key.ljust(_BLOCK, b"\0")
    inner = sha256(block.translate(_IPAD))
    for part in data if isinstance(data, tuple) else (data,):
        inner.update(part)
    return sha256(block.translate(_OPAD) + inner.digest()).digest()


def verify(key: bytes, data: bytes | tuple[bytes, ...], tag: bytes) -> bool:
    """True iff ``tag`` matches ``mac(key, data)``, compared in constant time."""
    return _stdlib_hmac.compare_digest(mac(key, data), tag)
