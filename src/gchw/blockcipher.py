"""Z x Z block encryption by right-multiplication with the enciphering matrix.

A block is a row-major tuple of Z*Z integers; Z and the scale exponent s
live on the key and on the envelope header, not on each block.  Plaintext
bytes fill blocks row-major; the final block's tail is padded with -1,
which cannot collide with byte values.  Encryption computes the exact
product block @ E (block on the left); since E = (E * 2^s) / 2^s with an
integer scaled form, the wire-ready scaled ciphertext is just the integer
product block @ E_scaled.  Decryption multiplies by the integer
adjugate and divides by the scaled determinant, rejecting any entry that
fails to divide exactly or falls outside {-1} | 0..255.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .errors import CorruptionError, ParameterError, ShapeError, WireOverflowError
from .keyschedule import KeyMatrixPair

PAD = -1
INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1


@dataclass
class OpCounter:
    """Tallies entry multiplications/additions for the cost-model checks."""

    mults: int = 0
    adds: int = 0


def partition(data: bytes, z: int) -> list[tuple[int, ...]]:
    """Split bytes into ceil(len/z^2) blocks, padding the last with -1."""
    if z < 2:
        raise ParameterError(f"block order must be at least 2, got {z}")
    cells = z * z
    blocks = []
    for offset in range(0, len(data), cells):
        chunk = data[offset : offset + cells]
        blocks.append(tuple(chunk) + (PAD,) * (cells - len(chunk)))
    return blocks


def unpartition(blocks, byte_count: int) -> bytes:
    """Invert :func:`partition`, verifying the -1 tail."""
    flat = [v for block in blocks for v in block]
    if byte_count > len(flat):
        raise CorruptionError("fewer block entries than the recorded byte count")
    data = flat[:byte_count]
    if PAD in data:
        raise CorruptionError("padding marker inside the data region")
    tail = flat[byte_count:]
    if tail.count(PAD) != len(tail):
        raise CorruptionError("block tail is not all padding")
    return bytes(data)


def _product(flat, cols, z: int) -> list[int]:
    """flat (row-major z x z) times the matrix given by its columns."""
    rows = [flat[base : base + z] for base in range(0, z * z, z)]
    return [sum(map(mul, row, col)) for row in rows for col in cols]


def _product_counted(flat, cols, z: int, counter: OpCounter) -> list[int]:
    """Same as :func:`_product`, tallying each entry operation."""
    out = []
    for base in range(0, z * z, z):
        row = flat[base : base + z]
        for col in cols:
            acc = row[0] * col[0]
            counter.mults += 1
            for k in range(1, z):
                acc += row[k] * col[k]
                counter.mults += 1
                counter.adds += 1
            out.append(acc)
    return out


def encrypt_block(block, kp: KeyMatrixPair, counter: OpCounter | None = None) -> tuple[int, ...]:
    """Exact product block @ E, returned as scaled entries (entry * 2**scale_exp)."""
    if len(block) != kp.z * kp.z:
        raise ShapeError(f"block of {len(block)} entries does not match key order {kp.z}")
    cols = kp.e_scaled_cols
    if counter is None:
        scaled = _product(block, cols, kp.z)
    else:
        scaled = _product_counted(block, cols, kp.z, counter)
    if min(scaled) < INT64_MIN or max(scaled) > INT64_MAX:
        raise WireOverflowError(
            "scaled ciphertext entry exceeds the signed 64-bit wire range; "
            "use a smaller n or level"
        )
    return tuple(scaled)


def decrypt_block(cipher, kp: KeyMatrixPair, counter: OpCounter | None = None) -> tuple[int, ...]:
    """Exact product cipher @ E^-1; rejects non-integer or non-byte entries."""
    if len(cipher) != kp.z * kp.z:
        raise ShapeError(f"block of {len(cipher)} entries does not match key order {kp.z}")
    cols = kp.adjugate_scaled_cols
    if counter is None:
        raw = _product(cipher, cols, kp.z)
    else:
        raw = _product_counted(cipher, cols, kp.z, counter)
    entries = tuple(map(kp.plain_of.get, raw))
    if None in entries:
        # some entry is not det_scaled * q for a valid q: name the first fault
        for v in raw:
            q, r = divmod(v, kp.det_scaled)
            if r:
                raise CorruptionError("decrypted entry is not an integer")
            if q != PAD and not 0 <= q <= 255:
                raise CorruptionError("decrypted entry outside the byte range")
    return entries
