"""Stakhov's continuous golden cipher and its chosen-plaintext break.

The original cipher multiplies a 2x2 message matrix by Q(2x), whose entries
are the symmetric hyperbolic Fibonacci sine and cosine of the secret real
key x.  Encrypting the unit matrix M1 hands the attacker sFs(2x) directly
as a ciphertext entry, and tau^(2x) follows from a quadratic, so x falls
out of a single chosen plaintext.  Everything here is double-precision:
the attacked system is continuous by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import AttackError, ParameterError

TAU = (1 + math.sqrt(5)) / 2
_SQRT5 = math.sqrt(5)
MAX_FUNCTION_ARG = 300.0
MAX_KEY = 100.0

Matrix2 = tuple[tuple[float, float], tuple[float, float]]

# The four chosen plaintexts: unit matrices selecting one entry of Q(2x) each.
M1: Matrix2 = ((1.0, 0.0), (0.0, 0.0))
M2: Matrix2 = ((0.0, 1.0), (0.0, 0.0))
M3: Matrix2 = ((0.0, 0.0), (1.0, 0.0))
M4: Matrix2 = ((0.0, 0.0), (0.0, 1.0))


@dataclass(frozen=True)
class AttackResult:
    recovered_x: float
    k1: float
    z: float
    residual: float


def sfs(x: float) -> float:
    """Symmetric hyperbolic Fibonacci sine: (tau^x - tau^-x) / sqrt(5)."""
    if not abs(x) <= MAX_FUNCTION_ARG:
        raise ParameterError(f"|x| must be at most {MAX_FUNCTION_ARG}, got {x}")
    return (TAU**x - TAU**-x) / _SQRT5


def cfs(x: float) -> float:
    """Symmetric hyperbolic Fibonacci cosine: (tau^x + tau^-x) / sqrt(5)."""
    if not abs(x) <= MAX_FUNCTION_ARG:
        raise ParameterError(f"|x| must be at most {MAX_FUNCTION_ARG}, got {x}")
    return (TAU**x + TAU**-x) / _SQRT5


def golden_q(x: float) -> Matrix2:
    """The enciphering matrix Q(2x); its determinant is identically 1."""
    s = sfs(2 * x)
    return ((cfs(2 * x + 1), s), (s, cfs(2 * x - 1)))


def _mul2(a: Matrix2, b: Matrix2) -> Matrix2:
    return (
        (
            a[0][0] * b[0][0] + a[0][1] * b[1][0],
            a[0][0] * b[0][1] + a[0][1] * b[1][1],
        ),
        (
            a[1][0] * b[0][0] + a[1][1] * b[1][0],
            a[1][0] * b[0][1] + a[1][1] * b[1][1],
        ),
    )


def stakhov_encrypt(m: Matrix2, x: float) -> Matrix2:
    """Encrypt a 2x2 real matrix: m @ Q(2x)."""
    if not abs(x) <= MAX_KEY:
        raise ParameterError(f"|x| must be at most {MAX_KEY}, got {x}")
    return _mul2(m, golden_q(x))


def recover_x(c1: Matrix2) -> AttackResult:
    """Recover the secret key from the ciphertext of M1.

    M1 @ Q(2x) exposes k1 = sFs(2x) at position (0, 1); the positive root
    z = (k1*sqrt(5) + sqrt(5*k1^2 + 4)) / 2 equals tau^(2x), and
    x = log_tau(z) / 2.  The residual is the max-abs difference between the
    observed ciphertext and M1 re-encrypted under the recovered key.
    """
    k1 = c1[0][1]
    if not math.isfinite(k1):
        raise AttackError(f"non-finite ciphertext entry {k1!r}")
    z = (k1 * _SQRT5 + math.sqrt(5 * k1 * k1 + 4)) / 2
    if not math.isfinite(z) or z <= 0:
        raise AttackError(f"non-positive root {z!r}")
    x = 0.5 * math.log(z) / math.log(TAU)
    if not math.isfinite(x):
        raise AttackError(f"non-finite key estimate {x!r}")
    check = stakhov_encrypt(M1, x)
    residual = max(
        abs(check[i][j] - c1[i][j]) for i in range(2) for j in range(2)
    )
    return AttackResult(recovered_x=x, k1=k1, z=z, residual=residual)
