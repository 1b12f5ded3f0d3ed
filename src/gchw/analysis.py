"""Plain/cipher statistics: Pearson correlation, t-tests, contrast series.

Ciphertext series are the flattened block entries as real numbers (scaled
integers divided by 2**scale_exp).  A paired statistic truncates both
series to the shorter one: the plaintext of a stored message, whose last
block is padded, and most often the cipher series of one FGK shortens.

The seed variants of :func:`analyze_message` share the payload and Z, so
their series share one length and one paired plaintext sample, which is
centred once.  Each variant's cipher sample is centred once, for the
correlation and, when it is the whole series, for the unpaired test.
Each shared value comes from the same operations on the same floats, in
the same order, as in :func:`correlation`, :func:`paired_t` and
:func:`unpaired_t`, so the reports are bit-identical to theirs.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, replace
from itertools import chain, repeat
from operator import mul, pow, sub, truediv

from . import auth
from .blockcipher import _entries
from .envelope import CipherEnvelope, _check, _compress, _seal_packed
from .errors import ParameterError, StatisticsError
from .keyschedule import CipherKey

MAX_SEEDS = 1000  # seed variants per analysis; each derives its own key and encrypts once


@dataclass(frozen=True)
class AnalysisReport:
    """One seed variant's relationship between plaintext and ciphertext."""

    correlation: float
    paired_t: float
    paired_p: float
    unpaired_t: float
    unpaired_p: float
    n_pairs: int


def _centred(x) -> tuple[list[float], float, float]:
    """Deviations from the mean, their sum of ``v ** 2`` (which can round
    differently from ``v * v``) and the mean."""
    mean = sum(x) / len(x)
    d = list(map(sub, x, repeat(mean)))
    return d, sum(map(pow, d, repeat(2.0))), mean


def _pearson(dx, sxx: float, dy, syy: float) -> float:
    """:func:`correlation` from each sample's deviations and sum of squares."""
    if sxx == 0 or syy == 0:
        raise StatisticsError("zero variance")
    return sum(map(mul, dx, dy)) / math.sqrt(sxx * syy)


def correlation(x, y) -> float:
    """Pearson product-moment correlation coefficient."""
    if len(x) != len(y):
        raise StatisticsError(f"length mismatch: {len(x)} vs {len(y)}")
    if len(x) < 2:
        raise StatisticsError("need at least two pairs")
    dx, sxx, _ = _centred(x)
    dy, syy, _ = _centred(y)
    return _pearson(dx, sxx, dy, syy)


def paired_t(x, y) -> tuple[float, float]:
    """Paired t statistic and two-tailed p for equal-length samples."""
    if len(x) != len(y):
        raise StatisticsError(f"length mismatch: {len(x)} vs {len(y)}")
    n = len(x)
    if n < 2:
        raise StatisticsError("need at least two pairs")
    _, ss, md = _centred(list(map(sub, x, y)))
    if ss == 0:
        raise StatisticsError("zero variance of differences")
    sd = math.sqrt(ss / (n - 1))
    t = md / (sd / math.sqrt(n))
    return t, student_t_p_two_sided(t, n - 1)


def _moments(x) -> tuple[int, float, float]:
    """Size, mean and sample variance: one sample's share of :func:`unpaired_t`."""
    n = len(x)
    if n < 2:
        raise StatisticsError("need at least two values per sample")
    _, ss, mean = _centred(x)
    return n, mean, ss / (n - 1)


def unpaired_t(x, y) -> tuple[float, float]:
    """Welch's two-sample t and two-tailed p (Welch-Satterthwaite df)."""
    return _welch(_moments(x), _moments(y))


def _welch(first, second) -> tuple[float, float]:
    """:func:`unpaired_t` from the two samples' :func:`_moments`."""
    n1, m1, v1 = first
    n2, m2, v2 = second
    se2 = v1 / n1 + v2 / n2
    if se2 == 0:
        raise StatisticsError("both samples have zero variance")
    t = (m1 - m2) / math.sqrt(se2)
    df = se2**2 / ((v1 / n1) ** 2 / (n1 - 1) + (v2 / n2) ** 2 / (n2 - 1))
    return t, student_t_p_two_sided(t, df)


def student_t_p_two_sided(t: float, df: float) -> float:
    """P(|T| >= |t|) for Student's t with df degrees of freedom.

    Evaluated as the regularized incomplete beta I_x(df/2, 1/2) with
    x = df / (df + t^2).
    """
    if df <= 0:
        raise StatisticsError(f"degrees of freedom must be positive, got {df}")
    x = df / (df + t * t)
    p = _regularized_incomplete_beta(df / 2.0, 0.5, x)
    return min(1.0, max(0.0, p))


_BETA_EPS = 1e-13
_BETA_FPMIN = 1e-300
_BETA_MAX_ITER = 500


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Lentz's continued fraction for the incomplete beta integral."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    d = h = 1.0 / (_BETA_FPMIN if abs(d) < _BETA_FPMIN else d)
    for m in range(1, _BETA_MAX_ITER + 1):
        m2 = 2 * m
        # the even and the odd step of the fraction
        for aa in (
            m * (b - m) * x / ((qam + m2) * (a + m2)),
            -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)),
        ):
            d = 1.0 + aa * d
            d = 1.0 / (_BETA_FPMIN if abs(d) < _BETA_FPMIN else d)
            c = 1.0 + aa / c
            c = _BETA_FPMIN if abs(c) < _BETA_FPMIN else c
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _BETA_EPS:
            return h
    raise StatisticsError("incomplete beta continued fraction did not converge")


def _regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    log_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(log_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def cipher_series(env: CipherEnvelope) -> list[float]:
    """The body's ciphertext entries, in wire order, as reals (scaled ints / 2**scale_exp)."""
    _check(env)
    return list(map(truediv, _entries(env.body, env.entry_bytes), repeat(float(1 << env.scale_exp))))


def seed_variant(key: CipherKey, index: int) -> CipherKey:
    """Variant 0 is the key itself; others replace the seed deterministically."""
    if index == 0:
        return key
    return replace(key, seed=auth.mac(key.seed, b"seed-variant" + index.to_bytes(4, "big")))


def analyze_message(message: bytes, key: CipherKey, seeds: int = 1) -> list[AnalysisReport]:
    """Encrypt under ``seeds`` seed variants and report the statistics.

    Each variant's cipher series is compared pairwise against the plaintext
    bytes (correlation and paired t) and, unpaired, against variant 0's
    cipher series.  The variants differ only in the seed, so the message is
    compressed (or stored) once and each variant runs the keyed half of ``seal``.
    """
    return _analyze(message, key, seeds)[0]


def _analyze(message: bytes, key: CipherKey, seeds: int) -> tuple[list[AnalysisReport], list[float]]:
    """:func:`analyze_message`, plus variant 0's cipher series, that of ``seal(message, key)``."""
    if type(seeds) is not int or not 1 <= seeds <= MAX_SEEDS:
        raise StatisticsError(f"seeds must be in 1..{MAX_SEEDS}, got {seeds!r}")
    unkeyed = _compress(message)
    envelopes = (_seal_packed(*unkeyed, len(message), seed_variant(key, i)) for i in range(seeds))
    first = next(envelopes)
    # the variants share the payload and Z, so every series has this size
    size = len(first.body) // first.entry_bytes
    n = min(len(message), size)
    if n < 2:
        raise StatisticsError("need at least two pairs")
    plain = list(map(float, message[:n]))
    dx, sxx, _ = _centred(plain)
    reports = []
    for env in chain([first], envelopes):
        series = cipher_series(env)
        cipher = series[:n]
        dy, syy, mean = _centred(cipher)
        corr = _pearson(dx, sxx, dy, syy)
        t, p = paired_t(plain, cipher)
        # when the paired sample is the whole series, it has the series' moments
        moments = (n, mean, syy / (n - 1)) if n == size else _moments(series)
        if env is first:
            # every variant's unpaired t compares with variant 0's series
            baseline, first_series = moments, series
        ut, up = _welch(moments, baseline)
        reports.append(AnalysisReport(corr, t, p, ut, up, n))
    return reports, first_series


def contrast_csv(plain: bytes, env: CipherEnvelope, char: str | None = None) -> str:
    """CSV of index,plain_value,cipher_value rows, padded to the longer series.

    When ``char`` is given, one extra row ``char,position,cipher_value`` is
    appended per occurrence of that character in the plaintext.
    """
    if not isinstance(plain, (bytes, bytearray)):
        raise ParameterError(f"plain must be bytes or bytearray, got {type(plain).__name__}")
    if char is not None and (type(char) is not str or len(char) != 1):
        raise ParameterError(f"char must be exactly one character, got {char!r}")
    return _contrast_csv(plain, cipher_series(env), char)


def _contrast_csv(plain: bytes, series: list[float], char: str | None) -> str:
    """:func:`contrast_csv` from the cipher series, with its arguments checked."""
    cipher = list(map(repr, series))
    out = io.StringIO()
    out.write("index,plain_value,cipher_value\n")
    # ints and float reprs never need quoting; a missing value is an empty field
    columns = [chain(column, repeat("")) for column in (plain, cipher)]
    rows = zip(range(max(len(plain), len(cipher))), *columns)
    out.write("".join([f"{index},{byte},{value}\n" for index, byte, value in rows]))
    if char is not None:
        target = ord(char)
        csv.writer(out, lineterminator="\n").writerows(
            (char, position, cipher[position] if position < len(cipher) else "")
            for position, byte in enumerate(plain)
            if byte == target
        )
    return out.getvalue()
