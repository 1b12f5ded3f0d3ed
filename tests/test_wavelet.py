"""Lifting steps and the 2-D Haar transform, with known-answer key matrices."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from gchw.errors import ParameterError, ShapeError
from gchw.matrix import SquareMatrix
from gchw.wavelet import _lift_scaled, haar2d_forward, haar2d_forward_scaled
from helpers import (
    dyadic_exponent,
    haar2d_inverse,
    lift_inverse_1d,
    matrix_add,
    reference_haar2d_forward,
    reference_lift,
    scale,
    zeros,
)

# known answers: the transforms of a padded unit matrix at levels 1 and 2
LEVEL1_KEY = SquareMatrix([[F(1, 4), F(-1, 2)], [F(-1, 2), 1]])
LEVEL2_KEY = SquareMatrix(
    [
        [F(1, 16), F(-1, 8), F(-1, 2), 0],
        [F(-1, 8), F(1, 4), 0, 0],
        [F(-1, 2), 0, 1, 0],
        [0, 0, 0, 0],
    ]
)


def test_lift_forward_examples():
    assert reference_lift([1, 0]) == [F(1, 2), -1]
    assert reference_lift([7, 7]) == [7, 0]
    assert reference_lift([3, 7, 2, 10]) == [5, 6, 4, 8]
    # the library's integer step, on the first example times 2
    assert _lift_scaled([2, 0]) == [1, -2]
    assert _lift_scaled([3, 7, 2, 10]) == [5, 6, 4, 8]


def test_lift_inverse_examples():
    assert lift_inverse_1d([F(1, 2)], [-1]) == [1, 0]
    assert lift_inverse_1d([5, 6], [4, 8]) == [3, 7, 2, 10]
    assert lift_inverse_1d([9], [0]) == [9, 9]


def test_lift_shape_errors():
    with pytest.raises(ShapeError):
        _lift_scaled([1, 2, 3])
    with pytest.raises(ShapeError):
        _lift_scaled([])
    with pytest.raises(ShapeError):
        lift_inverse_1d([1], [2, 3])
    with pytest.raises(ShapeError):
        lift_inverse_1d([], [])


@given(st.lists(st.integers(-1000, 1000), min_size=1, max_size=32))
def test_lift_roundtrip(half):
    signal = []
    for v in half:
        signal.extend([v, v // 3 - 7])
    lifted = reference_lift(signal)
    assert lift_inverse_1d(lifted[: len(half)], lifted[len(half) :]) == signal


def test_haar2d_level1_key_matrix():
    m = SquareMatrix([[1, 0], [0, 0]])
    assert haar2d_forward(m, 1) == LEVEL1_KEY
    assert haar2d_inverse(LEVEL1_KEY, 1) == m


def test_haar2d_level2_key_matrix():
    m = SquareMatrix([[1 if (i, j) == (0, 0) else 0 for j in range(4)] for i in range(4)])
    assert haar2d_forward(m, 2) == LEVEL2_KEY
    assert haar2d_inverse(LEVEL2_KEY, 2) == m


def test_haar2d_zero_fixed_point():
    zero = zeros(8)
    for levels in (1, 2, 3):
        assert haar2d_forward(zero, levels) == zero
        assert haar2d_inverse(zero, levels) == zero


def test_haar2d_perfect_reconstruction(rng):
    for order in (2, 4, 8, 16, 32, 64):
        max_levels = order.bit_length() - 1
        for levels in {1, max_levels // 2 or 1, max_levels}:
            m = SquareMatrix(
                [[rng.randint(-999, 999) for _ in range(order)] for _ in range(order)]
            )
            forward = haar2d_forward(m, levels)
            assert haar2d_inverse(forward, levels) == m, (order, levels)


def test_haar2d_denominator_bound(rng):
    for order, levels in ((4, 2), (8, 3), (16, 4)):
        m = SquareMatrix(
            [[rng.randint(-999, 999) for _ in range(order)] for _ in range(order)]
        )
        assert dyadic_exponent(haar2d_forward(m, levels)) <= 2 * levels


def test_haar2d_root_is_mean(rng):
    for order in (2, 4, 8, 16):
        m = SquareMatrix(
            [[rng.randint(-99, 99) for _ in range(order)] for _ in range(order)]
        )
        full = haar2d_forward(m, order.bit_length() - 1)
        mean = F(sum(sum(row) for row in m.rows), order * order)
        assert full.rows[0][0] == mean


@settings(max_examples=30)
@given(
    a=st.integers(-9, 9).filter(bool),
    seed=st.integers(0, 2**32 - 1),
)
def test_haar2d_linearity(a, seed):
    import random

    r = random.Random(seed)
    m1 = SquareMatrix([[r.randint(-50, 50) for _ in range(4)] for _ in range(4)])
    m2 = SquareMatrix([[r.randint(-50, 50) for _ in range(4)] for _ in range(4)])
    lhs = haar2d_forward(matrix_add(scale(a, m1), m2), 2)
    rhs = matrix_add(scale(a, haar2d_forward(m1, 2)), haar2d_forward(m2, 2))
    assert lhs == rhs


def test_haar2d_forward_matches_the_rational_lifting_reference(rng):
    for order in (2, 4, 8, 16, 32):
        for levels in range(1, order.bit_length()):
            m = SquareMatrix(
                [[rng.randint(-(1 << 40), 1 << 40) for _ in range(order)] for _ in range(order)]
            )
            assert haar2d_forward(m, levels) == reference_haar2d_forward(m, levels)
    rational = SquareMatrix(
        [[F(rng.randint(-99, 99), rng.choice((1, 2, 3, 8))) for _ in range(4)] for _ in range(4)]
    )
    assert haar2d_forward(rational, 2) == reference_haar2d_forward(rational, 2)


def test_haar2d_forward_scaled_is_the_transform_times_4_to_the_levels(rng):
    for order, levels in ((2, 1), (8, 2), (16, 4), (64, 6)):
        m = SquareMatrix([[rng.randint(-999, 999) for _ in range(order)] for _ in range(order)])
        scaled = haar2d_forward_scaled(scale(4**levels, m).rows, levels)
        assert all(type(v) is int for row in scaled for v in row)
        assert SquareMatrix(scaled) == scale(4**levels, haar2d_forward(m, levels))


def test_haar2d_forward_scaled_rejects_an_inexact_halving():
    # the unit matrix at scale 2 instead of 4 halves an odd difference
    with pytest.raises(ParameterError):
        haar2d_forward_scaled([[2, 0], [0, 0]], 1)
    assert haar2d_forward_scaled([[4, 0], [0, 0]], 1) == [[1, -2], [-2, 4]]


def test_haar2d_shape_errors():
    with pytest.raises(ShapeError):
        haar2d_forward(SquareMatrix.identity(2), 2)  # too many levels
    with pytest.raises(ShapeError):
        haar2d_forward(SquareMatrix.identity(3), 1)  # not a power of two
    with pytest.raises(ShapeError):
        haar2d_forward(SquareMatrix.identity(4), 0)
    with pytest.raises(ShapeError):
        haar2d_inverse(SquareMatrix.identity(4), 3)
