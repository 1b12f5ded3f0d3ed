"""HMAC-SHA-256 tagging and constant-time verification."""

from __future__ import annotations

import hmac as _stdlib_hmac

TAG_SIZE = 32


def mac(key: bytes, data: bytes) -> bytes:
    """HMAC-SHA-256 (RFC 2104): H((k ^ opad) || H((k ^ ipad) || data))."""
    return _stdlib_hmac.digest(key, data, "sha256")


def verify(key: bytes, data: bytes, tag: bytes) -> bool:
    """True iff ``tag`` matches ``mac(key, data)``, compared in constant time."""
    return _stdlib_hmac.compare_digest(mac(key, data), tag)
