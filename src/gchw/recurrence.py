"""Fibonacci-family sequences, golden matrices, and Q_p matrix powers.

All three sequences obey t(n+1) = t(n) + t(n-1) and differ only in their
initial terms; negative indices are extended backward through
t(i-1) = t(i+1) - t(i), which makes the 2x2 golden matrix at n = 0 the
identity for the Fibonacci kind.
"""

from __future__ import annotations

import enum

from .errors import ParameterError
from .matrix import SquareMatrix

MAX_INDEX = 10**6
MAX_QP_ORDER = 64
MAX_QP_POWER = 10**4


class RecurrenceKind(enum.Enum):
    FIBONACCI = "fibonacci"
    LUCAS = "lucas"
    ELC = "elc"


# (t(0), t(1)) per kind.  Fibonacci: F1 = F2 = 1 hence F0 = 0; Lucas: L0 = 2,
# L1 = 1; ELC: E0 = 8, E1 = 14.
_INITIAL = {
    RecurrenceKind.FIBONACCI: (0, 1),
    RecurrenceKind.LUCAS: (2, 1),
    RecurrenceKind.ELC: (8, 14),
}


def _fib_pair(n: int) -> tuple[int, int]:
    """(F(n), F(n+1)) by fast doubling; n must be non-negative."""
    if n == 0:
        return 0, 1
    a, b = _fib_pair(n >> 1)
    c = a * (2 * b - a)
    d = a * a + b * b
    if n & 1:
        return d, c + d
    return c, d


def _fibonacci(n: int) -> int:
    """F(n) for any integer n, using F(-n) = (-1)^(n+1) F(n)."""
    if n >= 0:
        return _fib_pair(n)[0]
    f = _fib_pair(-n)[0]
    return -f if n % 2 == 0 else f


def _term(kind: RecurrenceKind, index: int) -> int:
    # t(n) = t(0) * F(n-1) + t(1) * F(n) holds for every integer n.
    t0, t1 = _INITIAL[kind]
    return t0 * _fibonacci(index - 1) + t1 * _fibonacci(index)


def golden_matrix(kind: RecurrenceKind, n: int) -> SquareMatrix:
    """The 2x2 golden matrix [[t(n+1), t(n)], [t(n), t(n-1)]]."""
    if abs(n) > MAX_INDEX:
        raise ParameterError(f"|n| must be at most {MAX_INDEX}, got {n}")
    t_prev = _term(kind, n - 1)
    t_n = _term(kind, n)
    t_next = _term(kind, n + 1)
    return SquareMatrix([[t_next, t_n], [t_n, t_prev]])


def qp_matrix(p: int) -> SquareMatrix:
    """Companion-form generator of the generalized Fibonacci p-numbers.

    Order p+1: first row (1, 1, 0, ..., 0), rows 2..p shift the identity one
    column right, last row (1, 0, ..., 0).  For p = 0 this is the 1x1
    matrix [1].
    """
    if not 0 <= p <= MAX_QP_ORDER:
        raise ParameterError(f"p must be in 0..{MAX_QP_ORDER}, got {p}")
    if p == 0:
        return SquareMatrix([[1]])
    rows = [[0] * (p + 1) for _ in range(p + 1)]
    rows[0][0] = rows[0][1] = 1
    for i in range(1, p):
        rows[i][i + 1] = 1
    rows[p][0] = 1
    return SquareMatrix(rows)


def qp_power(p: int, n: int) -> SquareMatrix:
    """Exact n-th power of the Q_p matrix via binary exponentiation."""
    base = qp_matrix(p)  # checks p before n is read
    if not 0 <= n <= MAX_QP_POWER:
        raise ParameterError(f"n must be in 0..{MAX_QP_POWER}, got {n}")
    result = SquareMatrix.identity(p + 1)
    while n:
        if n & 1:
            result = result @ base
        base = base @ base
        n >>= 1
    return result
