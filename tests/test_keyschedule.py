"""Key validation, the enciphering-matrix derivation, and the key file format."""

import dataclasses
import random
import time
from fractions import Fraction as F

import pytest

from conftest import make_key
from gchw import keyschedule
from gchw.blockcipher import body_blocks, decrypt_message, encrypt_message
from gchw.envelope import open as open_envelope
from gchw.envelope import seal
from gchw.errors import CorruptionError, ParameterError, ParseError, SingularMatrixError
from gchw.keyschedule import (
    MAX_LEVEL,
    MAX_N,
    MODULUS,
    CipherKey,
    KeyMatrixPair,
    derive,
    format_key,
    golden_base,
    pad_to_z,
    parse_key,
)
from gchw.matrix import SquareMatrix, inverse_mod_p
from gchw.recurrence import RecurrenceKind
from helpers import base_transform, det_adjugate, dyadic_exponent, reference_derive, scale
from test_golden_vectors import WIRE_DIGESTS, wire_key_file

LEVEL1_KEY_MATRIX = SquareMatrix([[F(1, 4), F(-1, 2)], [F(-1, 2), 1]])


def rational_e(kp) -> SquareMatrix:
    """E itself, e_scaled / 2**scale_exp, in exact rationals."""
    return SquareMatrix([[F(v, 1 << kp.scale_exp) for v in row] for row in kp.e_scaled])


def assert_exact_adjugate(kp):
    """E_scaled @ adj = det * I with det != 0, and the inverse mod p is adj / det mod p."""
    det, adj = det_adjugate(kp.e_scaled)
    assert det % MODULUS != 0
    scaled = SquareMatrix(kp.e_scaled)
    assert scaled @ SquareMatrix(adj) == scale(det, SquareMatrix.identity(kp.z))
    inv = pow(det, -1, MODULUS)
    for inverse_col, adj_col in zip(kp.inverse_cols_mod_p, zip(*adj)):
        assert [(x - a * inv) % MODULUS for x, a in zip(inverse_col, adj_col)] == [0] * kp.z


def test_golden_base_examples():
    assert golden_base(make_key(n=1, p=0, level=1)) == SquareMatrix([[1]])
    assert golden_base(make_key(n=1, p=1)) == SquareMatrix([[1, 1], [1, 0]])
    assert golden_base(make_key(kind=RecurrenceKind.ELC, n=1)) == SquareMatrix(
        [[22, 14], [14, 8]]
    )
    assert golden_base(make_key(kind=RecurrenceKind.LUCAS, n=2)) == SquareMatrix(
        [[4, 3], [3, 1]]
    )


def test_pad_to_z():
    one = SquareMatrix([[1]])
    assert pad_to_z(one, 1) == SquareMatrix([[1, 0], [0, 0]])
    padded = pad_to_z(one, 2)
    assert padded.order == 4
    assert padded.rows[0][0] == 1
    assert sum(1 for row in padded.rows for v in row if v != 0) == 1
    q = SquareMatrix([[1, 1], [1, 0]])
    assert pad_to_z(q, 1) == q
    assert pad_to_z(SquareMatrix.identity(3), 1).order == 4  # next power of two wins


def test_base_transform_known_answers():
    assert base_transform(make_key(n=1, p=0, level=1)) == LEVEL1_KEY_MATRIX
    level2 = base_transform(make_key(n=1, p=0, level=2))
    assert level2 == SquareMatrix(
        [
            [F(1, 16), F(-1, 8), F(-1, 2), 0],
            [F(-1, 8), F(1, 4), 0, 0],
            [F(-1, 2), 0, 1, 0],
            [0, 0, 0, 0],
        ]
    )


def test_derive_escalates_when_base_is_singular(monkeypatch):
    # the 2x2 transformed matrix has det 0 and no zero to cover, so attempt 0
    # perturbs every position, as attempt 1 does when attempt 0 is refused
    key = make_key(n=1, p=0, level=1)
    assert LEVEL1_KEY_MATRIX.det() == 0
    assert all(v != 0 for row in LEVEL1_KEY_MATRIX.rows for v in row)
    first = derive(key)
    real = KeyMatrixPair.from_scaled

    def refuse_attempt_0(rows, scale_exp, attempt=0):
        if attempt == 0:
            raise SingularMatrixError("attempt 0 refused")
        return real(rows, scale_exp, attempt)

    monkeypatch.setattr(KeyMatrixPair, "from_scaled", refuse_attempt_0)
    escalated = derive(key)
    assert (first.attempt, escalated.attempt) == (0, 1)
    assert first.e_scaled != escalated.e_scaled
    for kp in (first, escalated):
        e = rational_e(kp)
        for i in range(2):
            for j in range(2):
                delta = e.rows[i][j] - LEVEL1_KEY_MATRIX.rows[i][j]
                assert delta.denominator == 1 and 1 <= delta <= 255


# one key of each family whose Haar-transformed matrix has no zero; attempt
# 0 once covered only the zeros, so these keys read no seed byte and any
# seed opened their envelopes
ZERO_FREE_KEYS = [
    (RecurrenceKind.LUCAS, 5, 1, 1),
    (RecurrenceKind.ELC, 3, 1, 1),
    (RecurrenceKind.FIBONACCI, 5, 1, 1),
    (RecurrenceKind.FIBONACCI, 11, 3, 1),
    (RecurrenceKind.FIBONACCI, 40, 7, 1),
    (RecurrenceKind.FIBONACCI, 100, 15, 1),
    (RecurrenceKind.FIBONACCI, 6, 2, 2),
    (RecurrenceKind.FIBONACCI, 11, 3, 2),
    (RecurrenceKind.FIBONACCI, 22, 6, 2),
    (RecurrenceKind.FIBONACCI, 40, 7, 2),
    (RecurrenceKind.FIBONACCI, 100, 15, 2),
    (RecurrenceKind.FIBONACCI, 22, 6, 3),
    (RecurrenceKind.FIBONACCI, 40, 7, 3),
    (RecurrenceKind.FIBONACCI, 100, 15, 4),
]


@pytest.mark.parametrize("kind, n, p, level", ZERO_FREE_KEYS)
def test_the_seed_reaches_a_key_whose_transform_has_no_zero(kind, n, p, level):
    key, other = (make_key(kind=kind, n=n, p=p, level=level, seed=bytes([s]) * 32) for s in (1, 3))
    assert all(v != 0 for row in base_transform(key).rows for v in row)
    assert key.matrix_pair.e_scaled != other.matrix_pair.e_scaled
    # the keys share the MAC key and the header fields, so only decryption can object
    env = seal(random.Random(level).randbytes(100), key)
    kp = other.matrix_pair
    assert (env.z, env.scale_exp, env.entry_bytes) == (kp.z, kp.scale_exp, kp.entry_bytes)
    with pytest.raises(CorruptionError, match="^decrypted entry"):
        open_envelope(env, other)


def test_derive_covers_exactly_the_zeros():
    key = make_key(n=1, p=0, level=2)
    t = base_transform(key)
    kp = derive(key)
    assert kp.attempt == 0
    e = rational_e(kp)
    for i in range(4):
        for j in range(4):
            delta = e.rows[i][j] - t.rows[i][j]
            if t.rows[i][j] == 0:
                assert delta != 0 and delta.denominator == 1 and 1 <= delta <= 255
            else:
                assert delta == 0


def test_derive_is_deterministic():
    a = derive(make_key())
    b = derive(make_key())
    assert a == b


def test_derive_inverse_for_200_random_keys(rng):
    for _ in range(200):
        key = make_key(
            kind=rng.choice(list(RecurrenceKind)),
            n=rng.randint(1, 30),
            p=1,
            level=rng.randint(1, 3),
            seed=rng.randbytes(32),
            mac_key=rng.randbytes(32),
        )
        assert_exact_adjugate(derive(key))


def test_derive_failure_after_attempt_budget(monkeypatch):
    from gchw import keyschedule
    from gchw.errors import KeyDerivationError

    monkeypatch.setattr(keyschedule, "MAX_ATTEMPTS", 0)
    with pytest.raises(KeyDerivationError):
        derive(make_key())


def test_matrix_pair_is_the_derived_pair_memoized():
    key = make_key()
    assert key.matrix_pair == derive(key)
    assert key.matrix_pair is key.matrix_pair


def test_memoized_key_keeps_equality_hash_and_repr():
    key = make_key(kind=RecurrenceKind.ELC, n=7, level=3)
    fresh = parse_key(format_key(key))
    key.matrix_pair
    assert key == fresh and fresh == key
    assert hash(key) == hash(fresh)
    assert repr(key) == repr(fresh)
    assert "matrix" not in repr(key)


def test_derive_inverse_and_scaling(rng):
    for _ in range(20):
        key = make_key(
            kind=rng.choice(list(RecurrenceKind)),
            n=rng.randint(1, 30),
            p=1,
            level=rng.randint(1, 3),
            seed=rng.randbytes(32),
            mac_key=rng.randbytes(32),
        )
        kp = derive(key)
        assert kp.scale_exp == 2 * key.level
        # 2**scale_exp clears the transform's denominators, and E differs
        # from the transform by integers
        t = base_transform(key)
        assert dyadic_exponent(t) <= kp.scale_exp
        for e_row, t_row in zip(rational_e(kp).rows, t.rows):
            assert all((x - y).denominator == 1 for x, y in zip(e_row, t_row))
        assert_exact_adjugate(kp)


def test_derive_at_the_top_level():
    kp = derive(make_key(level=MAX_LEVEL))
    assert kp.z == 64
    assert_exact_adjugate(kp)


def test_derive_at_the_largest_p():
    kp = derive(make_key(p=63, level=1))
    assert kp.z == 64
    assert_exact_adjugate(kp)


def assert_matches_reference(key):
    kp, ref = derive(key), reference_derive(key)
    assert kp.attempt == ref.attempt
    assert kp.e_scaled == ref.e_scaled
    assert kp.inverse_cols_mod_p == ref.inverse_cols_mod_p


def test_derive_matches_the_rational_bareiss_reference_on_200_random_keys(rng):
    for _ in range(200):
        kind = rng.choice(list(RecurrenceKind))
        assert_matches_reference(
            make_key(
                kind=kind,
                n=rng.randint(1, 30),
                p=rng.randint(0, 7) if kind is RecurrenceKind.FIBONACCI else 1,
                level=rng.randint(1, 4),
                seed=rng.randbytes(32),
                mac_key=rng.randbytes(32),
            )
        )


def test_derive_matches_the_rational_bareiss_reference_on_the_golden_keys():
    for kind, level in sorted(WIRE_DIGESTS):
        assert_matches_reference(parse_key(wire_key_file(kind, level)))


def test_a_fresh_level_6_key_names_a_tampered_body_fast_and_keeps_nothing_new():
    # naming the fault lifts one row through the inverse mod p that derive
    # already made; no exact determinant or adjugate is built or kept
    kp = derive(make_key(level=6, seed=bytes(range(100, 132))))
    data = bytes(range(256)) * 256
    body = bytearray(encrypt_message(data, kp))
    w = kp.entry_bytes
    body[:w] = (int.from_bytes(body[:w], "big", signed=True) + 1).to_bytes(w, "big", signed=True)
    start = time.perf_counter()
    with pytest.raises(CorruptionError, match="decrypted entry is not an integer"):
        decrypt_message(bytes(body), kp, len(data))
    assert time.perf_counter() - start < 0.3
    fields = {field.name for field in dataclasses.fields(kp)}
    cached = {"e_scaled_cols", "entry_bytes", "pad_row", "wire_rows", "wide_rows", "wide_inverse_rows"}
    assert set(vars(kp)) <= fields | cached


def test_from_scaled_refuses_a_matrix_singular_mod_p():
    # det = (MODULUS + 1) * 1 - 1 * 1 = MODULUS: nonzero over Z, but 0 mod p
    rows = [[MODULUS + 1, 1], [1, 1]]
    assert det_adjugate(rows)[0] == MODULUS
    with pytest.raises(SingularMatrixError):
        KeyMatrixPair.from_scaled(rows, scale_exp=2)


def test_derive_moves_past_an_attempt_singular_mod_p(monkeypatch):
    key = make_key(level=3)
    assert derive(key).attempt == 0
    calls = []

    def singular_first(rows):
        calls.append(rows)
        return None if len(calls) == 1 else inverse_mod_p(rows)

    monkeypatch.setattr(keyschedule, "inverse_mod_p", singular_first)
    kp = derive(key)
    assert len(calls) == 2
    # attempt 1 perturbs every position of the transform
    assert kp.attempt == 1
    e, t = rational_e(kp), base_transform(key)
    for i in range(kp.z):
        for j in range(kp.z):
            assert 1 <= e.rows[i][j] - t.rows[i][j] <= 255
    assert_exact_adjugate(kp)


def test_key_matrix_pair_from_singular_matrix():
    with pytest.raises(SingularMatrixError):
        KeyMatrixPair.from_scaled([[1, 1], [1, 1]], scale_exp=2)


# the largest n whose key fits the 8-byte wire, at levels 1..6, for seed 00...
LARGEST_N = {
    RecurrenceKind.FIBONACCI: (77, 74, 71, 68, 65, 62),
    RecurrenceKind.LUCAS: (75, 72, 69, 66, 63, 60),
    RecurrenceKind.ELC: (70, 68, 65, 62, 59, 56),
}


@pytest.mark.parametrize("kind", list(RecurrenceKind))
def test_largest_n_that_fits_the_wire(kind, monkeypatch):
    for level, largest in enumerate(LARGEST_N[kind], start=1):
        kp = derive(make_key(kind=kind, n=largest, level=level, seed=bytes(32)))
        assert kp.entry_bytes == 8
        # entries of block @ E_scaled reach their extremes in the widest
        # column: 255 wherever that column is positive (or negative), else 0
        cols = kp.e_scaled_cols
        j = max(range(kp.z), key=lambda k: sum(map(abs, cols[k])))
        assert 256 * sum(map(abs, cols[j])) == kp.entry_bound < 1 << 63
        high = bytes(255 if v > 0 else 0 for v in cols[j])
        low = bytes(255 if v < 0 else 0 for v in cols[j])
        data = high * kp.z + low * kp.z
        body = encrypt_message(data, kp)
        top, bottom = body_blocks(body, kp.z, kp.entry_bytes)
        assert top[j] == 255 * sum(v for v in cols[j] if v > 0)
        assert bottom[j] == 255 * sum(v for v in cols[j] if v < 0)
        assert decrypt_message(body, kp, len(data)) == data

    def no_elimination(rows):
        raise AssertionError("an over-wide key reached the elimination")

    monkeypatch.setattr(keyschedule, "inverse_mod_p", no_elimination)
    for level, largest in enumerate(LARGEST_N[kind], start=1):
        with pytest.raises(ParameterError, match="64-bit wire; use a smaller n or level"):
            derive(make_key(kind=kind, n=largest + 1, level=level, seed=bytes(32)))


@pytest.mark.parametrize("kind", list(RecurrenceKind))
def test_the_largest_n_is_rejected_quickly_at_the_top_level(kind):
    start = time.perf_counter()
    with pytest.raises(ParameterError, match="past the signed 64-bit wire"):
        derive(make_key(kind=kind, n=MAX_N, level=MAX_LEVEL))
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n=0),
        dict(n=10**4 + 1),
        dict(p=-1),
        dict(p=65),
        dict(level=0),
        dict(level=9),
        dict(seed=b"short"),
        dict(mac_key=b"\x00" * 31),
        dict(kind=RecurrenceKind.LUCAS, p=2),
        dict(kind="fibonacci"),
        dict(level=7),
        dict(p=64),  # a Q_p base of order 65 would need Z = 128
    ],
)
def test_cipher_key_validation(kwargs):
    with pytest.raises(ParameterError):
        make_key(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n=5.0),
        dict(p=1.0),
        dict(level=2.0),
        dict(n="5"),
        dict(seed="s" * 32),
        dict(seed=bytearray(32)),
        dict(mac_key=bytearray(32)),
        dict(n=True),
        dict(level=True),
        dict(p=False),
    ],
)
def test_cipher_key_refuses_a_field_of_the_wrong_type(kwargs):
    with pytest.raises(ParameterError, match="must be"):
        make_key(**kwargs)


def test_key_file_roundtrip():
    key = make_key(kind=RecurrenceKind.ELC, n=7, level=3)
    assert parse_key(format_key(key)) == key


def test_key_file_is_line_oriented():
    text = format_key(make_key())
    lines = text.strip().split("\n")
    assert [line.split("=")[0] for line in lines] == [
        "kind",
        "n",
        "p",
        "level",
        "seed",
        "mac_key",
    ]
    assert lines[0] == "kind=fibonacci"


@pytest.mark.parametrize(
    "mangle",
    [
        lambda t: t.replace("kind=", "type="),
        lambda t: "comment=x\n" + t,
        lambda t: t + "extra=1\n",
        lambda t: t.replace("n=5", "n=five"),
        lambda t: t.replace("seed=", "seed=zz"),
        lambda t: "\n".join(t.splitlines()[:-1]) + "\n",
        # fields out of order
        lambda t: "\n".join(reversed(t.strip().split("\n"))) + "\n",
        # values that int() or bytes.fromhex() read but format_key never writes
        lambda t: t.replace("n=5", "n=1_0"),
        lambda t: t.replace("n=5", "n= 5"),
        lambda t: t.replace("n=5", "n=+5"),
        lambda t: t.replace("n=5", "n=05"),
        lambda t: t.replace("n=5", "n=5 "),
        lambda t: t.replace("level=2", "level=\u0662"),  # ARABIC-INDIC DIGIT TWO
        lambda t: t.replace(bytes(range(32)).hex(), bytes(range(32)).hex(" ")),  # the seed
        lambda t: t.replace("0a0b", "0A0B"),
        lambda t: t.replace("mac_key=2021", "mac_key=21"),
        lambda t: t.replace("kind=fibonacci", "kind=pell"),
        # a decimal with more digits than int() reads
        lambda t: t.replace("n=5", "n=" + "9" * 5000),
    ],
)
def test_key_file_strictness(mangle):
    with pytest.raises(ParseError):
        parse_key(mangle(format_key(make_key())))


def test_key_file_bounds_are_semantic_errors():
    text = format_key(make_key()).replace("n=5", "n=99999")
    with pytest.raises(ParameterError):
        parse_key(text)
