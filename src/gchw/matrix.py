"""Exact square matrices over Python rationals, and the one integer elimination.

Entries are plain ints or :class:`fractions.Fraction`; every operation is
exact.  :func:`inverse_mod_p` inverts an integer matrix modulo the
Mersenne prime 2^31 - 1; it decides every key and drives every
decryption.  :meth:`SquareMatrix.det` is a paper-level oracle, by
Gaussian elimination over the rationals.
"""

from __future__ import annotations

import struct
from fractions import Fraction

from .errors import ShapeError

MODULUS = (1 << 31) - 1  # the Mersenne prime of inverse_mod_p and of the packed decryption


class SquareMatrix:
    """Immutable square matrix with exact rational entries."""

    __slots__ = ("order", "rows")

    def __init__(self, rows):
        rows = tuple(tuple(row) for row in rows)
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise ShapeError("rows must form a nonempty square grid")
        self.order = n
        self.rows = rows

    @classmethod
    def identity(cls, order: int) -> "SquareMatrix":
        return cls([[1 if i == j else 0 for j in range(order)] for i in range(order)])

    def __eq__(self, other):
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __repr__(self):
        return f"SquareMatrix({[list(row) for row in self.rows]!r})"

    def __matmul__(self, other: "SquareMatrix") -> "SquareMatrix":
        if self.order != other.order:
            raise ShapeError("orders differ")
        cols = list(zip(*other.rows))
        return SquareMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in self.rows]
        )

    def det(self) -> Fraction:
        """Exact determinant by Gaussian elimination over the rationals."""
        m = [list(map(Fraction, row)) for row in self.rows]
        det = Fraction(1)
        for k, top in enumerate(m):
            pivot = next((row for row in m[k:] if row[k]), None)
            if pivot is None:
                return Fraction(0)
            if not top[k]:  # adding a later row leaves the determinant unchanged
                top[k:] = [a + b for a, b in zip(top[k:], pivot[k:])]
            det *= top[k]
            for row in m[k + 1 :]:
                f = row[k] / top[k]
                row[k:] = [a - f * b for a, b in zip(row[k:], top[k:])]
        return det


def inverse_mod_p(rows) -> list[tuple[int, ...]] | None:
    """Rows of ``a^-1 mod MODULUS`` for an integer matrix ``a``, or None if det(a) is 0 mod MODULUS.

    Entries are the residues of least magnitude, below 2**30 in absolute
    value.  Gauss-Jordan elimination on ``[a | I]``, with each row packed
    into one integer of 64-bit slots (the Kronecker layout of the packed
    decryption): eliminating column k is one multiply-add per row, and a
    Mersenne fold (2**31 = 1 mod p) brings every slot of the result back
    below 2**33.  Column k sits in the lowest slot and is shifted out once
    eliminated, so the rows end as the rows of the inverse.
    """
    p, n = MODULUS, len(rows)
    slots = struct.Struct(f"<{n}Q")
    ones = int.from_bytes(b"\x01".ljust(8, b"\x00") * 2 * n, "little")
    low, high, lowest = ones * ((1 << 31) - 1), ones * ((1 << 33) - 1), (1 << 64) - 1
    packed = [
        int.from_bytes(slots.pack(*[x % p for x in row]), "little") + (1 << 64 * (n + i))
        for i, row in enumerate(rows)
    ]
    for k in range(n):
        pivot = next((r for r in range(k, n) if (packed[r] & lowest) % p), None)
        if pivot is None:
            return None
        packed[k], packed[pivot] = packed[pivot], packed[k]
        # scale the pivot row so its lowest slot is 1 mod p; slots < 2**33
        # times the inverse < 2**31 stay below 2**64, and two folds bring
        # them below 2**31 + 8
        t = packed[k] * pow(packed[k] & lowest, -1, p)
        t = (t & low) + ((t >> 31) & high)
        t = (t & low) + ((t >> 31) & high)
        # each slot of row + f * t is below 2**33 + 2**31 * (2**31 + 8) < 2**63,
        # and its lowest slot is 0 mod p; one fold after the shift
        packed = [
            ((v >> 64) & low) + ((v >> 95) & high)
            for v in [row + (-(row & lowest)) % p * t for row in packed]
        ]
        packed[k] = t >> 64
    half = p // 2
    rows = (slots.unpack(row.to_bytes(8 * n, "little")) for row in packed)
    return [tuple((x + half) % p - half for x in row) for row in rows]
