"""Exact square matrices over Python rationals, and integer elimination.

Entries are plain ints or :class:`fractions.Fraction`; every operation is
exact.  :func:`det_adjugate` is the one elimination: it works on integers
only, so identities like ``a @ adj == det * identity`` hold bit-for-bit.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import ShapeError


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
        """Exact determinant: clear denominators, then :func:`det_adjugate`."""
        d = lcm(*(x.denominator for row in self.rows for x in row))
        det, _ = det_adjugate([[int(x * d) for x in row] for row in self.rows])
        return Fraction(det, d**self.order)


def det_adjugate(rows) -> tuple[int, tuple[tuple[int, ...], ...] | None]:
    """Determinant and adjugate of an integer matrix, ``a @ adj == det * I``.

    Fraction-free (Bareiss) Gauss-Jordan elimination on ``[a | I]``: every
    division is exact by Sylvester's identity, so all intermediates stay
    integers no larger than a minor of ``[a | I]``.  Once column k is
    eliminated, the pivot is the leading (k+1) x (k+1) minor of the
    row-swapped matrix, so the last pivot is det(a) up to the sign of the
    swaps and the right half is that pivot times a^-1.  Returns
    ``(0, None)`` for a singular matrix.
    """
    n = len(rows)
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    sign, prev = 1, 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if m[r][k]), None)
        if pivot is None:
            return 0, None
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        pk = m[k][k]
        # columns <= k are left stale because they are never read again: the
        # left block ends as det * I and column k of the other rows becomes 0
        tail = m[k][k + 1 :]
        for i in range(n):
            if i != k:
                row = m[i]
                f = row[k]
                row[k + 1 :] = [(pk * x - f * y) // prev for x, y in zip(row[k + 1 :], tail)]
        prev = pk
    return sign * prev, tuple(tuple(sign * x for x in row[n:]) for row in m)
