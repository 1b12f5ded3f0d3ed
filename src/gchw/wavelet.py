"""Exact 2-D Haar transform via the lifting scheme.

One lifting step splits a signal into even/odd samples, predicts each odd
sample from its even neighbour (detail = odd - even), and updates the even
sample to keep the running average (approx = even + detail/2).  Working in
dyadic rationals keeps every step exactly invertible.

The 2-D transform is square-recursive: each level runs the lifting step
over the rows and then the columns of the active top-left sub-square, and
the next level recurses on the top-left quarter.  An entry is halved at
most twice per level, so the forward transform of ``m * 4**levels`` is an
integer matrix when ``m`` is: :func:`haar2d_forward_scaled` runs the whole
transform on such pre-scaled integers, where every halving is an exact
``>> 1``.  The rational form, :func:`haar2d_forward`, scales its input to
integers, runs that one integer lifting, and divides back.  Only tests
invert the transform; the inverse is an oracle in ``tests/helpers.py``.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import ParameterError, ShapeError
from .matrix import SquareMatrix


def _lift_scaled(signal) -> list[int]:
    """One lifting step on integers: approx, then detail, in one list.

    detail[n] = s[2n+1] - s[2n] and approx[n] = s[2n] + (detail[n] >> 1).
    Raises :class:`ParameterError` if a difference is odd: the signal is
    then not dyadic at the scale it was given in.
    """
    n = len(signal)
    if n == 0 or n % 2:
        raise ShapeError(f"signal length must be even and positive, got {n}")
    even = signal[0::2]
    detail = [odd - e for e, odd in zip(even, signal[1::2])]
    if any(d & 1 for d in detail):
        raise ParameterError("matrix is not dyadic at this scale")
    return [e + (d >> 1) for e, d in zip(even, detail)] + detail


def _check_transform_args(order: int, levels: int) -> None:
    if order & (order - 1):
        raise ShapeError(f"matrix order must be a power of two, got {order}")
    if levels < 1:
        raise ShapeError(f"levels must be positive, got {levels}")
    if order < (1 << levels):
        raise ShapeError(f"order {order} is too small for {levels} levels")


def haar2d_forward_scaled(rows, levels: int) -> list[list[int]]:
    """The transform of ``m`` times 4**levels, given the integer rows of ``m * 4**levels``.

    Each level transforms the rows of the active sub-square (approx half
    left, detail half right), then its columns (approx top, detail bottom).
    Raises :class:`ParameterError` if a halving is inexact, which cannot
    happen when ``m`` itself is an integer matrix.
    """
    grid = [list(row) for row in rows]
    _check_transform_args(len(grid), levels)
    side = len(grid)
    for _ in range(levels):
        # a sub-square row at a time, then its columns as rows of the transpose
        sub = [_lift_scaled(row[:side]) for row in grid[:side]]
        sub = [_lift_scaled(col) for col in zip(*sub)]
        for row, new in zip(grid, zip(*sub)):
            row[:side] = new
        side //= 2
    return grid


def haar2d_forward(m: SquareMatrix, levels: int) -> SquareMatrix:
    """Multi-level 2-D Haar transform of a square matrix, in exact rationals.

    :func:`haar2d_forward_scaled` of ``m`` times its common denominator
    and 4**levels, divided back.  A paper-level oracle: the library does not
    call it, the acceptance tests and the benchmark do.
    """
    _check_transform_args(m.order, levels)
    scale = lcm(*(x.denominator for row in m.rows for x in row)) << (2 * levels)
    lifted = haar2d_forward_scaled([[int(x * scale) for x in row] for row in m.rows], levels)
    return SquareMatrix([[Fraction(v, scale) for v in row] for row in lifted])
