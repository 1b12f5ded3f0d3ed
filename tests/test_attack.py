"""Stakhov cipher functions and the chosen-plaintext key recovery."""

import math

import pytest

from gchw.attack import (
    M1,
    M2,
    M3,
    M4,
    TAU,
    cfs,
    golden_q,
    recover_x,
    sfs,
    stakhov_encrypt,
)
from gchw.errors import AttackError, ParameterError


def test_sfs_cfs_base_values():
    assert sfs(0) == 0.0
    assert cfs(0) == pytest.approx(2 / math.sqrt(5), abs=1e-12)
    # tau + 1/tau = sqrt(5), so cfs(+-1) = 1
    assert cfs(1) == pytest.approx(1.0, abs=1e-12)
    assert cfs(-1) == pytest.approx(1.0, abs=1e-12)
    assert sfs(-2.5) == pytest.approx(-sfs(2.5), abs=1e-12)


def test_determinant_identity():
    # det subtracts terms of size tau^(4x)/5, so double-precision noise grows
    # with |x|: measured ~4e-11 at |x|=7 and ~2e-8 at |x|=10.  The 1e-10
    # identity bound is therefore asserted on [-6, 6] and only a noise
    # envelope beyond that.
    for k in range(-1200, 1201):
        x = k * 0.005
        q = golden_q(x)
        det = q[0][0] * q[1][1] - q[0][1] * q[1][0]
        assert abs(det - 1.0) <= 1e-10, x
    for k in range(-200, 201):
        x = k * 0.05
        q = golden_q(x)
        det = q[0][0] * q[1][1] - q[0][1] * q[1][0]
        assert abs(det - 1.0) <= 1e-7, x


def test_encrypt_identity_at_zero():
    c = stakhov_encrypt(((1.0, 0.0), (0.0, 1.0)), 0.0)
    for i in range(2):
        for j in range(2):
            assert c[i][j] == pytest.approx(1.0 if i == j else 0.0, abs=1e-12)


def test_chosen_plaintexts_select_entries():
    x = 2.25
    q = golden_q(x)
    assert stakhov_encrypt(M1, x) == ((q[0][0], q[0][1]), (0.0, 0.0))
    assert stakhov_encrypt(M2, x) == ((q[1][0], q[1][1]), (0.0, 0.0))
    assert stakhov_encrypt(M3, x) == ((0.0, 0.0), (q[0][0], q[0][1]))
    assert stakhov_encrypt(M4, x) == ((0.0, 0.0), (q[1][0], q[1][1]))


def test_decrypt_via_numerical_inverse():
    x = 1.75
    m = ((3.5, -1.25), (0.75, 2.0))
    c = stakhov_encrypt(m, x)
    q = golden_q(x)
    det = q[0][0] * q[1][1] - q[0][1] * q[1][0]
    q_inv = (
        (q[1][1] / det, -q[0][1] / det),
        (-q[1][0] / det, q[0][0] / det),
    )
    recovered = (
        (
            c[0][0] * q_inv[0][0] + c[0][1] * q_inv[1][0],
            c[0][0] * q_inv[0][1] + c[0][1] * q_inv[1][1],
        ),
        (
            c[1][0] * q_inv[0][0] + c[1][1] * q_inv[1][0],
            c[1][0] * q_inv[0][1] + c[1][1] * q_inv[1][1],
        ),
    )
    for i in range(2):
        for j in range(2):
            assert recovered[i][j] == pytest.approx(m[i][j], abs=1e-8)


def test_recover_zero_key():
    result = recover_x(stakhov_encrypt(M1, 0.0))
    assert result.k1 == 0.0
    assert result.z == pytest.approx(1.0, abs=1e-12)
    assert result.recovered_x == pytest.approx(0.0, abs=1e-12)


def test_recover_known_key():
    result = recover_x(stakhov_encrypt(M1, 1.5))
    assert abs(result.recovered_x - 1.5) <= 1e-9
    assert result.residual <= 1e-8


def test_recovery_sweep(rng):
    for _ in range(200):
        x = rng.uniform(0.05, 8.0)
        result = recover_x(stakhov_encrypt(M1, x))
        assert abs(result.recovered_x - x) <= 1e-9
        assert result.residual <= 1e-8


def test_z_is_monotone_in_x():
    xs = [0.1 * k for k in range(0, 60)]
    zs = [recover_x(stakhov_encrypt(M1, x)).z for x in xs]
    assert all(a < b for a, b in zip(zs, zs[1:]))
    # z really is tau^(2x)
    assert zs[10] == pytest.approx(TAU ** (2 * xs[10]), rel=1e-12)


def test_range_errors():
    with pytest.raises(ParameterError):
        sfs(301.0)
    with pytest.raises(ParameterError):
        cfs(-301.0)
    with pytest.raises(ParameterError):
        stakhov_encrypt(M1, 101.0)


@pytest.mark.parametrize("function", [sfs, cfs, lambda x: stakhov_encrypt(M1, x)])
def test_a_nan_argument_is_a_parameter_error(function):
    with pytest.raises(ParameterError):
        function(math.nan)


def test_non_finite_ciphertext_is_attack_error():
    with pytest.raises(AttackError):
        recover_x(((0.0, math.nan), (0.0, 0.0)))
    with pytest.raises(AttackError):
        recover_x(((0.0, math.inf), (0.0, 0.0)))
