"""Exact linear algebra: determinant and adjugate against independent oracles."""

import itertools
from fractions import Fraction

import pytest

from gchw.errors import ShapeError
from gchw.matrix import MODULUS, SquareMatrix, inverse_mod_p
from helpers import det_adjugate, dyadic_exponent, matrix_add, scale, zeros


def permutation_det(m):
    """Oracle: Leibniz expansion over all permutations."""
    n = m.order
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):  # count inversions
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = Fraction(1)
        for i in range(n):
            term *= m.rows[i][perm[i]]
        total += sign * term
    return total


def test_constructor_rejects_non_square():
    with pytest.raises(ShapeError):
        SquareMatrix([[1, 2], [3]])
    with pytest.raises(ShapeError):
        SquareMatrix([])


def test_identity_and_equality():
    eye = SquareMatrix.identity(3)
    assert eye == SquareMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert eye.rows[0][0] == Fraction(1)
    assert zeros(2) == SquareMatrix([[0, 0], [0, 0]])


def test_det_matches_permutation_expansion(rng):
    for order in (2, 3, 4):
        for _ in range(20):
            m = SquareMatrix(
                [
                    [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(order)]
                    for _ in range(order)
                ]
            )
            assert m.det() == permutation_det(m)


def test_det_adjugate_matches_oracle(rng):
    # zero-heavy entries force row swaps and singular matrices at every order
    cases = [[[0, 1], [1, 0]]]
    for order in range(1, 6):
        for _ in range(60):
            cases.append(
                [[rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(order)] for _ in range(order)]
            )
    singular = 0
    for rows in cases:
        m = SquareMatrix(rows)
        det, adj = det_adjugate(rows)
        assert det == permutation_det(m)
        if det == 0:
            assert adj is None
            singular += 1
        else:
            scaled_identity = scale(det, SquareMatrix.identity(m.order))
            assert m @ SquareMatrix(adj) == scaled_identity
            assert SquareMatrix(adj) @ m == scaled_identity
    assert 0 < singular < len(cases)
    assert det_adjugate([[0, 1], [1, 0]]) == (-1, ((0, -1), (-1, 0)))


def test_det_adjugate_of_singular_matrix():
    assert det_adjugate([[1, 2], [2, 4]]) == (0, None)
    assert SquareMatrix([[1, 2], [2, 4]]).det() == 0


def inverse_mod_p_from_adjugate(rows):
    """Oracle: adj(a) * det(a)^-1 mod p, as least-magnitude residues."""
    det, adj = det_adjugate(rows)
    if det % MODULUS == 0:
        return None
    inv, half = pow(det, -1, MODULUS), MODULUS // 2
    return [tuple((a * inv + half) % MODULUS - half for a in row) for row in adj]


def test_inverse_mod_p_matches_the_adjugate(rng):
    # zero-heavy small entries force row swaps and singular matrices; wide
    # and negative entries exercise the reduction on entry; p and its
    # multiples are 0 mod p though not 0
    big = (MODULUS, -MODULUS, 2 * MODULUS, 1 << 64, -(1 << 70) - 5)
    cases = [[[MODULUS + 1, 1], [1, 1]], [[0, 1], [1, 0]]]
    for order in range(1, 10):
        for _ in range(30):
            cases.append(
                [
                    [rng.choice((0, 0, rng.randint(-9, 9), rng.choice(big), rng.getrandbits(90)))
                     for _ in range(order)]
                    for _ in range(order)
                ]
            )
    singular = 0
    for rows in cases:
        expected = inverse_mod_p_from_adjugate(rows)
        assert inverse_mod_p(rows) == expected
        singular += expected is None
    assert 0 < singular < len(cases)


def test_inverse_mod_p_at_order_64(rng):
    # a @ inverse = I mod p checks it independently of the (slow) adjugate
    rows = [[rng.randint(-(1 << 60), 1 << 60) for _ in range(64)] for _ in range(64)]
    inverse = inverse_mod_p(rows)
    assert all(abs(x) < 1 << 30 for row in inverse for x in row)
    for i, row in enumerate(rows):
        for j, col in enumerate(zip(*inverse)):
            assert sum(map(lambda a, b: a * b, row, col)) % MODULUS == (i == j)


def test_matmul_order_mismatch():
    with pytest.raises(ShapeError):
        SquareMatrix.identity(2) @ SquareMatrix.identity(3)


def test_dyadic_exponent():
    m = SquareMatrix([[Fraction(3, 8), 1], [Fraction(-1, 2), 0]])
    assert dyadic_exponent(m) == 3
    assert dyadic_exponent(SquareMatrix.identity(2)) == 0
    with pytest.raises(ValueError):
        dyadic_exponent(SquareMatrix([[Fraction(1, 3), 0], [0, 1]]))


def test_add_and_scalar_multiply():
    a = SquareMatrix([[1, 2], [3, 4]])
    b = SquareMatrix([[10, 0], [0, 10]])
    assert matrix_add(a, b) == SquareMatrix([[11, 2], [3, 14]])
    assert scale(2, a) == SquareMatrix([[2, 4], [6, 8]])
