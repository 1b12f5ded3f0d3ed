"""Statistics against quadrature oracles, plus the replication properties."""

import csv
import dataclasses
import hashlib
import io
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate

from conftest import make_key
from gchw import ahuffman, analysis, envelope
from gchw.analysis import (
    MAX_SEEDS,
    AnalysisReport,
    _analyze,
    analyze_message,
    cipher_series,
    contrast_csv,
    correlation,
    paired_t,
    seed_variant,
    student_t_p_two_sided,
    unpaired_t,
)
from gchw.errors import ParameterError, ShapeError, StatisticsError
from gchw.recurrence import RecurrenceKind

MESSAGE = b"Cryptographist is the science of overt secret writing"
MESSAGE_2 = b"meet me after party"
# random bytes, which seal stores rather than compresses
RANDOM = random.Random(4).randbytes(2048)
# each character that the CSV writer must quote, at positions 1, 3 and 7 first
QUOTED = b'a,b"cde\nf, "g"\n'


def t_density(u, df):
    log_norm = math.lgamma((df + 1) / 2) - math.lgamma(df / 2) - 0.5 * math.log(df * math.pi)
    return math.exp(log_norm) * (1 + u * u / df) ** (-(df + 1) / 2)


def quad_two_sided_p(t, df):
    """Oracle: numerically integrate the t density over both tails."""
    tail, _ = integrate.quad(t_density, abs(t), math.inf, args=(df,))
    return 2 * tail


def test_correlation_examples():
    x = [1.0, 2.0, 4.0, 7.0]
    assert correlation(x, x) == pytest.approx(1.0, abs=1e-12)
    assert correlation(x, [-v for v in x]) == pytest.approx(-1.0, abs=1e-12)
    # by-hand Pearson: 9 / (2 sqrt(21))
    assert correlation([1, 2, 3], [1, 2, 4]) == pytest.approx(
        9 / (2 * math.sqrt(21)), abs=1e-9
    )


def test_correlation_errors():
    with pytest.raises(StatisticsError):
        correlation([1, 2], [1, 2, 3])
    with pytest.raises(StatisticsError):
        correlation([1], [1])
    with pytest.raises(StatisticsError):
        correlation([3, 3, 3], [1, 2, 3])


@given(
    a=st.integers(-5, 5).filter(bool),
    b=st.integers(-10, 10),
    seed=st.integers(0, 10**6),
)
def test_correlation_symmetry_and_scale_invariance(a, b, seed):
    import random

    r = random.Random(seed)
    x = [r.uniform(-10, 10) for _ in range(8)]
    y = [r.uniform(-10, 10) for _ in range(8)]
    base = correlation(x, y)
    assert correlation(y, x) == pytest.approx(base, abs=1e-12)
    scaled = correlation([a * v + b for v in x], y)
    expected = base if a > 0 else -base
    assert scaled == pytest.approx(expected, abs=1e-9)


def test_paired_t_degenerate():
    with pytest.raises(StatisticsError):
        paired_t([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    with pytest.raises(StatisticsError, match="length mismatch: 2 vs 1"):
        paired_t([1.0, 2.0], [1.0])
    with pytest.raises(StatisticsError, match="at least two pairs"):
        paired_t([1.0], [2.0])


def test_paired_t_against_quadrature_oracle():
    x = [12.1, 14.3, 9.8, 11.0, 13.7, 10.2, 12.9, 11.4]
    y = [11.0, 13.1, 10.4, 10.1, 12.2, 10.0, 11.1, 10.9]
    t, p = paired_t(x, y)
    d = [a - b for a, b in zip(x, y)]
    n = len(d)
    md = sum(d) / n
    sd = math.sqrt(sum((v - md) ** 2 for v in d) / (n - 1))
    t_oracle = md / (sd / math.sqrt(n))
    assert t == pytest.approx(t_oracle, abs=1e-6)
    assert p == pytest.approx(quad_two_sided_p(t_oracle, n - 1), abs=1e-4)


def test_unpaired_t_identical_samples():
    t, p = unpaired_t([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert t == 0.0
    assert p == pytest.approx(1.0, abs=1e-12)


def test_unpaired_t_against_quadrature_oracle():
    x = [5.1, 4.9, 6.2, 5.8, 5.5, 4.7]
    y = [6.8, 7.1, 6.5, 7.4, 6.9]
    t, p = unpaired_t(x, y)
    n1, n2 = len(x), len(y)
    m1, m2 = sum(x) / n1, sum(y) / n2
    v1 = sum((a - m1) ** 2 for a in x) / (n1 - 1)
    v2 = sum((b - m2) ** 2 for b in y) / (n2 - 1)
    se2 = v1 / n1 + v2 / n2
    t_oracle = (m1 - m2) / math.sqrt(se2)
    df = se2**2 / ((v1 / n1) ** 2 / (n1 - 1) + (v2 / n2) ** 2 / (n2 - 1))
    assert t == pytest.approx(t_oracle, abs=1e-6)
    assert p == pytest.approx(quad_two_sided_p(t_oracle, df), abs=1e-4)


def test_unpaired_t_degenerate():
    with pytest.raises(StatisticsError):
        unpaired_t([2.0, 2.0, 2.0], [5.0, 5.0])
    with pytest.raises(StatisticsError, match="at least two values per sample"):
        unpaired_t([1.0, 2.0, 3.0], [4.0])


def test_student_t_p_matches_quadrature():
    for t in (0.0, 0.3, 1.0, 2.5, 4.0, -1.7):
        for df in (1, 2, 5, 9.5, 30, 100):
            assert student_t_p_two_sided(t, df) == pytest.approx(
                quad_two_sided_p(t, df), abs=1e-9
            )


def test_p_monotone_in_t():
    df = 12
    ps = [student_t_p_two_sided(t, df) for t in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0)]
    assert all(a > b for a, b in zip(ps, ps[1:]))
    assert 0.0 <= min(ps) and max(ps) <= 1.0


def test_replication_small(key):
    """Scaled-down version of the security replication: 3 seeds."""
    reports = analyze_message(MESSAGE_2, key, seeds=3)
    assert len(reports) == 3
    for r in reports:
        assert abs(r.correlation) < 0.5
        assert r.paired_p < 0.05
        assert r.n_pairs == len(MESSAGE_2)


def test_seed_variants_differ(key):
    assert seed_variant(key, 0) == key
    v1 = seed_variant(key, 1)
    v2 = seed_variant(key, 2)
    assert v1.seed != key.seed and v2.seed != v1.seed
    assert v1.mac_key == key.mac_key


def test_repeated_characters_disperse(key):
    """Same plaintext byte maps to differing cipher values across positions."""
    env = envelope.seal(MESSAGE, key)
    series = cipher_series(env)
    positions = [i for i, b in enumerate(MESSAGE) if b == ord("e")]
    assert len(positions) == 6  # 'e' occurs six times in the message
    values = {series[i] for i in positions}
    assert len(values) > 1


def test_contrast_csv_empty(key):
    env = envelope.seal(b"", key)
    assert contrast_csv(b"", env) == "index,plain_value,cipher_value\n"


def test_cipher_series_is_the_body_in_wire_order(key):
    env = envelope.seal(MESSAGE, key)
    width = env.entry_bytes
    entries = [
        int.from_bytes(env.body[i : i + width], "big", signed=True)
        for i in range(0, len(env.body), width)
    ]
    assert cipher_series(env) == [v / (1 << env.scale_exp) for v in entries]
    assert min(entries) < 0 < max(entries)


@pytest.mark.parametrize("cut", [-1, -8])
def test_cipher_series_of_a_body_that_is_not_whole_blocks_is_a_typed_error(key, cut):
    sealed = envelope.seal(MESSAGE, key)
    env = dataclasses.replace(sealed, body=sealed.body[:cut])
    with pytest.raises(ShapeError, match="not whole blocks"):
        cipher_series(env)
    with pytest.raises(ShapeError, match="not whole blocks"):
        contrast_csv(MESSAGE, env)


def test_contrast_csv_row_counts(key):
    env = envelope.seal(MESSAGE, key)
    series_len = len(cipher_series(env))
    text = contrast_csv(MESSAGE, env, char="e")
    lines = text.strip().split("\n")
    distribution = [line for line in lines if line.startswith("e,")]
    assert len(distribution) == 6
    assert len(lines) == 1 + max(len(MESSAGE), series_len) + len(distribution)


@pytest.mark.parametrize("char", ["ab", "", b"a"])
def test_contrast_csv_refuses_a_char_that_is_not_one_character(key, char):
    env = envelope.seal(MESSAGE, key)
    with pytest.raises(ParameterError, match="exactly one character"):
        contrast_csv(MESSAGE, env, char)


# the char rows of contrast_csv(QUOTED, seal(QUOTED, key), char), and the
# digest of the whole CSV, as csv.writer wrote every row
QUOTED_ROWS = [
    (
        ",",
        '",",1,26874.375\n",",9,14585.25\n',
        "620d128ea1f814ccd1366321f27c97dc25d2dc620ab19a222251d0c6347b2c40",
    ),
    (
        '"',
        '"""",3,32910.0\n"""",11,29420.0\n"""",13,1513.125\n',
        "00ea45294c5dded7133ffa0e0ae8cd55e683f01d45775dd291a8c4e249a668eb",
    ),
    (
        "\n",
        '"\n",7,44625.0\n"\n",14,120.5\n',
        "e4507e8584825c67fe95f902b0b1ae9c5524ea5c0e85ed514145508f2365ddc4",
    ),
]


@pytest.mark.parametrize("char, rows, digest", QUOTED_ROWS, ids=["comma", "quote", "newline"])
def test_contrast_csv_quotes_the_char_rows_that_need_it(key, char, rows, digest):
    env = envelope.seal(QUOTED, key)
    text = contrast_csv(QUOTED, env, char)
    assert text == contrast_csv(QUOTED, env) + rows
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    parsed = list(csv.reader(io.StringIO(text)))
    char_rows = parsed[1 + max(len(QUOTED), len(cipher_series(env))) :]
    assert [row[0] for row in char_rows] == [char] * QUOTED.count(char.encode())


@pytest.mark.parametrize(
    "plain", ["abc", [300, 1], None, memoryview(MESSAGE)], ids=["str", "list", "None", "memoryview"]
)
def test_contrast_csv_refuses_a_plain_that_is_not_bytes_before_any_work(monkeypatch, key, plain):
    env = envelope.seal(MESSAGE, key)
    monkeypatch.setattr(analysis, "cipher_series", None)
    with pytest.raises(ParameterError, match="^plain must be bytes or bytearray, got "):
        contrast_csv(plain, env)


def test_contrast_csv_of_a_bytearray_is_that_of_the_bytes(key):
    env = envelope.seal(MESSAGE, key)
    assert contrast_csv(bytearray(MESSAGE), env, "e") == contrast_csv(MESSAGE, env, "e")


def test_analyze_message_compresses_once(monkeypatch, key):
    encoded = []
    real_encode = ahuffman.encode

    def counting_encode(message):
        encoded.append(message)
        return real_encode(message)

    monkeypatch.setattr(ahuffman, "encode", counting_encode)
    for seeds in (1, 4):
        del encoded[:]
        analyze_message(MESSAGE, key, seeds=seeds)
        assert encoded == [MESSAGE]


@pytest.mark.parametrize("message", [MESSAGE, MESSAGE_2, pytest.param(RANDOM, id="random")])
def test_analyze_message_matches_one_seal_per_variant(key, message):
    # the reports analyze_message gave when it sealed each variant in full
    reports = []
    baseline = None
    for index in range(4):
        series = cipher_series(envelope.seal(message, seed_variant(key, index)))
        n = min(len(message), len(series))
        plain = [float(b) for b in message[:n]]
        corr = correlation(plain, series[:n])
        t, p = paired_t(plain, series[:n])
        baseline = series if baseline is None else baseline
        ut, up = unpaired_t(series, baseline)
        reports.append(AnalysisReport(corr, t, p, ut, up, n))
    assert analyze_message(message, key, seeds=4) == reports


def public_reports(message, key, seeds):
    """The public statistics of each variant's sealed series against the plaintext."""
    reports, baseline = [], None
    for index in range(seeds):
        series = cipher_series(envelope.seal(message, seed_variant(key, index)))
        n = min(len(message), len(series))
        plain = list(map(float, message[:n]))
        corr = correlation(plain, series[:n])
        t, p = paired_t(plain, series[:n])
        baseline = series if baseline is None else baseline
        reports.append(AnalysisReport(corr, t, p, *unpaired_t(series, baseline), n))
    return reports


PROPERTY_KEY = make_key()


@settings(max_examples=60, deadline=None)
@given(
    message=st.binary(max_size=600)
    | st.builds(lambda byte, size: bytes([byte]) * size, st.integers(0, 255), st.integers(0, 600))
    | st.lists(st.sampled_from(b"the golden matrix cipher "), max_size=600).map(bytes)
)
# no pair (lengths 0 and 1), a pair of one constant byte, and a pair that varies
@example(message=b"")
@example(message=b"a")
@example(message=b"aa")
@example(message=b"ab")
# compressed: the paired sample is the whole series
@example(message=MESSAGE * 4)
# stored, and exactly whole blocks: again the whole series
@example(message=RANDOM[:64])
# stored with padding: the series is longer than the message
@example(message=RANDOM[:63])
def test_analyze_message_is_the_public_statistics_of_each_variant(message):
    try:
        expected = public_reports(message, PROPERTY_KEY, 3)
    except StatisticsError as exc:
        with pytest.raises(StatisticsError) as raised:
            analyze_message(message, PROPERTY_KEY, seeds=3)
        assert str(raised.value) == str(exc)
    else:
        assert analyze_message(message, PROPERTY_KEY, seeds=3) == expected


@pytest.mark.parametrize("seeds", [1, 3])
def test_analyze_returns_the_series_of_the_sealed_variant_0(key, seeds):
    reports, series = _analyze(MESSAGE, key, seeds)
    assert reports == analyze_message(MESSAGE, key, seeds=seeds)
    assert series == cipher_series(envelope.seal(MESSAGE, key))


def test_analyze_returns_the_series_of_the_stored_envelope_of_a_random_message(key):
    env = envelope.seal(RANDOM, key)
    assert env.version == envelope.STORED
    reports, series = _analyze(RANDOM, key, 2)
    assert series == cipher_series(env)
    assert reports == analyze_message(RANDOM, key, seeds=2)


def test_analyze_message_rejects_zero_seeds(key):
    with pytest.raises(StatisticsError):
        analyze_message(MESSAGE_2, key, seeds=0)


def test_analyze_message_refuses_more_than_max_seeds_before_any_work(monkeypatch, key):
    # each variant derives a key and encrypts, so the count is capped
    assert MAX_SEEDS == 1000
    encoded = []
    monkeypatch.setattr(ahuffman, "encode", encoded.append)
    for seeds in (MAX_SEEDS + 1, 10**9, True, 2.0):
        with pytest.raises(StatisticsError, match=r"seeds must be in 1\.\.1000"):
            analyze_message(MESSAGE_2, key, seeds=seeds)
    assert encoded == []


# Reports and CSVs as the generator-expression statistics computed them.
# Each triple below is one where summing v * v instead of v ** 2 changes
# the last bit of the result, so the squares must stay powers.
PINNED_STATISTICS = [
    (
        correlation,
        [249.0, 30.0, 161.0],
        [-1324.344, 749.632, -612.763],
        ("-0x1.fedf99c132a0ep-1",),
    ),
    (
        unpaired_t,
        [229.0, 165.0, 196.0],
        [-3830.782, 1055.249, 2105.333],
        ("0x1.d6580c9716131p-3", "0x1.aded647b9924ep-1"),
    ),
    (
        paired_t,
        [170.0, 61.0, 156.0],
        [1089.353, 3469.926, 663.753],
        ("-0x1.c75997ec58237p+0", "0x1.bcf05a3293d16p-3"),
    ),
]
# correlation, paired t and p, unpaired t and p of seed variants 0, 1 and 2
PINNED_REPORTS = [
    ("0x1.01da8071ce901p-5", "-0x1.16c7e6b75f898p+6", "0x0.0p+0")
    + ("0x0.0p+0", "0x1.0000000000000p+0"),
    ("-0x1.38e84bf08c252p-6", "-0x1.6eb7730a53e16p+6", "0x0.0p+0")
    + ("0x1.a5accacbdbedfp+0", "0x1.98504a2ebb920p-4"),
    ("-0x1.37fc634c1de9dp-5", "-0x1.7a67a7fc87047p+6", "0x0.0p+0")
    + ("-0x1.20911f29b529ap+2", "0x1.d196af5ee1a9fp-18"),
]
PINNED_CSV_SHA256 = {
    None: "9df3a7264c4b012a57828a9b7b1c73d95b647b006f3f5f01b31debb3ac6359cb",
    "e": "e5c90f41847d4f460cce7f91895daf17079b9835d8a672741954d805ffeaa15f",
}


@pytest.mark.parametrize("statistic, x, y, expected", PINNED_STATISTICS)
def test_statistics_are_pinned_bit_for_bit(statistic, x, y, expected):
    result = statistic(x, y)
    assert tuple(v.hex() for v in (result if isinstance(result, tuple) else (result,))) == expected


def test_reports_and_contrast_csv_are_pinned_bit_for_bit():
    message = b"meet me after party, every evening; " * 60
    key = make_key(kind=RecurrenceKind.LUCAS, n=4, level=3)
    reports = analyze_message(message, key, seeds=3)
    fields = ("correlation", "paired_t", "paired_p", "unpaired_t", "unpaired_p")
    assert [tuple(getattr(r, f).hex() for f in fields) for r in reports] == PINNED_REPORTS
    assert [r.n_pairs for r in reports] == [1024] * 3
    env = envelope.seal(message, key)
    for char, digest in PINNED_CSV_SHA256.items():
        assert hashlib.sha256(contrast_csv(message, env, char).encode()).hexdigest() == digest
