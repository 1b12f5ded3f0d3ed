"""Sequence terms and golden matrices against brute-force oracles."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gchw.errors import ParameterError
from gchw.matrix import SquareMatrix
from gchw.recurrence import MAX_INDEX, RecurrenceKind, golden_matrix, qp_matrix, qp_power
from helpers import golden_inverse, sequence_term

KINDS = list(RecurrenceKind)
INITIAL = {
    RecurrenceKind.FIBONACCI: (0, 1),
    RecurrenceKind.LUCAS: (2, 1),
    RecurrenceKind.ELC: (8, 14),
}


def iterated_term(kind, index):
    """Oracle: iterate t(n+1) = t(n) + t(n-1) forward or backward."""
    a, b = INITIAL[kind]  # (t(k), t(k+1)) starting at k = 0
    if index >= 0:
        for _ in range(index):
            a, b = b, a + b
    else:
        for _ in range(-index):
            a, b = b - a, a
    return a


@pytest.mark.parametrize(
    "kind,index,expected",
    [
        (RecurrenceKind.FIBONACCI, 6, 8),
        (RecurrenceKind.LUCAS, 0, 2),
        (RecurrenceKind.ELC, 3, 36),
        (RecurrenceKind.FIBONACCI, 0, 0),
        (RecurrenceKind.FIBONACCI, -1, 1),
        (RecurrenceKind.LUCAS, -1, -1),
    ],
)
def test_sequence_term_examples(kind, index, expected):
    assert sequence_term(kind, index) == expected


@pytest.mark.parametrize("kind", KINDS)
def test_sequence_term_matches_iteration(kind):
    for index in range(-50, 51):
        assert sequence_term(kind, index) == iterated_term(kind, index)


@given(
    kind=st.sampled_from(KINDS),
    n=st.integers(min_value=-300, max_value=300),
)
def test_recurrence_relation_holds(kind, n):
    assert sequence_term(kind, n + 1) == sequence_term(kind, n) + sequence_term(kind, n - 1)


def test_sequence_term_range_error():
    with pytest.raises(ParameterError):
        sequence_term(RecurrenceKind.FIBONACCI, MAX_INDEX + 1)
    with pytest.raises(ParameterError):
        sequence_term(RecurrenceKind.LUCAS, -(MAX_INDEX + 1))
    with pytest.raises(ParameterError, match="at most"):
        golden_matrix(RecurrenceKind.FIBONACCI, MAX_INDEX + 1)


def test_golden_matrix_examples():
    assert golden_matrix(RecurrenceKind.FIBONACCI, 1) == SquareMatrix([[1, 1], [1, 0]])
    assert golden_matrix(RecurrenceKind.FIBONACCI, 0) == SquareMatrix.identity(2)
    assert golden_matrix(RecurrenceKind.ELC, 1) == SquareMatrix([[22, 14], [14, 8]])
    assert golden_matrix(RecurrenceKind.LUCAS, 1) == SquareMatrix([[3, 1], [1, 2]])


def test_golden_inverse_examples():
    assert golden_inverse(RecurrenceKind.FIBONACCI, 1) == SquareMatrix([[0, 1], [1, -1]])
    assert golden_inverse(RecurrenceKind.FIBONACCI, 0) == SquareMatrix.identity(2)
    # det(E^1) = 22*8 - 14^2 = -20
    expected = SquareMatrix(
        [
            [Fraction(8, -20), Fraction(-14, -20)],
            [Fraction(-14, -20), Fraction(22, -20)],
        ]
    )
    assert golden_inverse(RecurrenceKind.ELC, 1) == expected


@pytest.mark.parametrize("kind", KINDS)
def test_golden_inverse_is_exact_inverse(kind):
    for n in range(-32, 33):
        product = golden_matrix(kind, n) @ golden_inverse(kind, n)
        assert product == SquareMatrix.identity(2), (kind, n)


def test_cassini_identity():
    for n in range(-64, 65):
        assert golden_matrix(RecurrenceKind.FIBONACCI, n).det() == (-1) ** n


def test_lucas_and_elc_determinants():
    for n in range(-32, 33):
        assert golden_matrix(RecurrenceKind.LUCAS, n).det() == 5 * (-1) ** (n + 1)
        assert golden_matrix(RecurrenceKind.ELC, n).det() == 20 * (-1) ** n


def test_qp_matrix_examples():
    assert qp_matrix(0) == SquareMatrix([[1]])
    assert qp_matrix(1) == SquareMatrix([[1, 1], [1, 0]])
    assert qp_matrix(3) == SquareMatrix(
        [[1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]]
    )


def test_qp_power_examples():
    assert qp_power(1, 2) == SquareMatrix([[2, 1], [1, 1]])
    for p in range(5):
        assert qp_power(p, 0) == SquareMatrix.identity(p + 1)


def test_qp_power_matches_golden_matrix():
    for n in range(1, 21):
        assert qp_power(1, n) == golden_matrix(RecurrenceKind.FIBONACCI, n)


def test_qp_power_additivity():
    for p in range(5):
        powers = [qp_power(p, n) for n in range(33)]
        for a in range(17):
            for b in range(17):
                assert powers[a] @ powers[b] == powers[a + b], (p, a, b)


def test_qp_range_errors():
    with pytest.raises(ParameterError):
        qp_matrix(65)
    with pytest.raises(ParameterError):
        qp_matrix(-1)
    with pytest.raises(ParameterError):
        qp_power(1, 10**4 + 1)
    with pytest.raises(ParameterError):
        qp_power(1, -1)
    # p is checked before n, whether n is in range or not
    for n in (1, -1):
        with pytest.raises(ParameterError, match="p must be in 0..64, got 65"):
            qp_power(65, n)
