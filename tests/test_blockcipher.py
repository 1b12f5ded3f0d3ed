"""Block partitioning and the encrypt/decrypt pair, with a multiply counter."""

from fractions import Fraction as F

import pytest

from conftest import make_key
from gchw.blockcipher import (
    PAD,
    OpCounter,
    _product,
    _product_counted,
    decrypt_block,
    encrypt_block,
    partition,
    unpartition,
)
from gchw.errors import CorruptionError, ParameterError, ShapeError, WireOverflowError
from gchw.keyschedule import KeyMatrixPair, derive
from gchw.matrix import SquareMatrix

# an arbitrary nonsingular dyadic matrix used by the known-answer product tests
EXAMPLE_E = SquareMatrix([[F(1, 4), F(-1, 2)], [F(-1, 2), 2]])


def example_pair() -> KeyMatrixPair:
    return KeyMatrixPair.from_matrix(EXAMPLE_E, scale_exp=2)


def as_fractions(scaled) -> list[F]:
    """The exact dyadic entries behind scaled cipher entries at scale_exp 2."""
    return [F(v, 4) for v in scaled]


def test_partition_examples():
    blocks = partition(bytes([65, 66, 67]), 2)
    assert blocks == [(65, 66, 67, -1)]
    assert partition(b"", 2) == []
    assert partition(bytes([1, 2, 3, 4]), 2) == [(1, 2, 3, 4)]
    assert len(partition(bytes(17), 2)) == 5


def test_partition_rejects_tiny_order():
    with pytest.raises(ParameterError):
        partition(b"xy", 1)


def test_unpartition_inverts_partition(rng):
    for _ in range(50):
        data = rng.randbytes(rng.randrange(0, 200))
        z = rng.choice([2, 3, 4, 8])
        assert unpartition(partition(data, z), len(data)) == data


def test_unpartition_padding_violations():
    with pytest.raises(CorruptionError):
        unpartition([(65, 66, 67, 0)], 3)  # tail not -1
    with pytest.raises(CorruptionError):
        unpartition([(65, -1, 67, -1)], 3)  # pad inside data
    with pytest.raises(CorruptionError):
        unpartition([(65, 66, 67, -1)], 5)  # too few entries


def test_encrypt_with_identity_key_is_identity():
    kp = KeyMatrixPair.from_matrix(SquareMatrix.identity(2), scale_exp=2)
    block = (9, 8, 7, -1)
    cipher = encrypt_block(block, kp)
    assert cipher == (36, 32, 28, -4)
    assert as_fractions(cipher) == [9, 8, 7, -1]
    assert decrypt_block(cipher, kp) == block


def test_encrypt_block_known_answer():
    # exact product [[65,66],[67,68]] @ EXAMPLE_E, frozen from a by-hand
    # matrix multiply
    cipher = encrypt_block((65, 66, 67, 68), example_pair())
    assert cipher == (-67, 398, -69, 410)
    assert as_fractions(cipher) == [F(-67, 4), F(199, 2), F(-69, 4), F(205, 2)]


def test_unit_block_selects_first_row_of_e():
    kp = example_pair()
    cipher = encrypt_block((1, 0, 0, 0), kp)
    assert cipher == (1, -2, 0, 0)  # first row of E_scaled
    e00, e01 = kp.e.rows[0]
    assert as_fractions(cipher) == [e00, e01, 0, 0]


def test_decrypt_block_known_answer():
    kp = example_pair()
    cipher = encrypt_block((65, 66, 67, 68), kp)
    assert decrypt_block(cipher, kp) == (65, 66, 67, 68)


def test_decrypt_rejects_tampered_entry():
    kp = example_pair()
    tampered = list(encrypt_block((65, 66, 67, 68), kp))
    tampered[1] += 1  # +1/4 on the dyadic entry
    with pytest.raises(CorruptionError):
        decrypt_block(tuple(tampered), kp)


@pytest.mark.parametrize("q", [256, -2])
def test_decrypt_rejects_exact_integer_outside_byte_range(q):
    # the product divides exactly but lands outside {-1} | 0..255
    kp = example_pair()
    cipher = encrypt_block((65, q, 67, 68), kp)
    with pytest.raises(CorruptionError, match="outside the byte range"):
        decrypt_block(cipher, kp)


@pytest.mark.parametrize(
    "plain, tampered_index, message",
    [
        ((300, 66, 67, 68), 3, "outside the byte range"),  # row 0 faults first
        ((65, 66, 67, 300), 0, "not an integer"),
    ],
)
def test_decrypt_error_names_the_first_faulty_entry(plain, tampered_index, message):
    kp = example_pair()
    tampered = list(encrypt_block(plain, kp))
    tampered[tampered_index] += 1  # breaks exact division in that row only
    with pytest.raises(CorruptionError, match=message):
        decrypt_block(tuple(tampered), kp)


@pytest.mark.parametrize("z", [2, 4, 8])
def test_product_matches_counted_product(z, rng):
    values = [PAD, 0, 255, 1 << 62, -(1 << 63), (1 << 63) - 1]
    for _ in range(20):
        flat = tuple(
            rng.choice(values) if rng.random() < 0.3 else rng.randrange(-(1 << 40), 1 << 40)
            for _ in range(z * z)
        )
        cols = tuple(
            tuple(rng.randrange(-(1 << 70), 1 << 70) for _ in range(z)) for _ in range(z)
        )
        assert _product(flat, cols, z) == _product_counted(flat, cols, z, OpCounter())


def test_roundtrip_under_derived_keys(rng):
    for _ in range(15):
        key = make_key(n=rng.randint(1, 25), level=rng.randint(1, 3), seed=rng.randbytes(32))
        kp = derive(key)
        data = rng.randbytes(rng.randrange(0, 3 * kp.z * kp.z))
        blocks = partition(data, kp.z)
        decrypted = [decrypt_block(encrypt_block(b, kp), kp) for b in blocks]
        assert unpartition(decrypted, len(data)) == data


def test_blocks_are_independent(rng):
    kp = derive(make_key())
    data = rng.randbytes(3 * kp.z * kp.z)
    blocks = partition(data, kp.z)
    ciphers = [encrypt_block(b, kp) for b in blocks]
    shuffled = list(zip(blocks, ciphers))
    rng.shuffle(shuffled)
    for block, cipher in shuffled:
        assert encrypt_block(block, kp) == cipher


def test_multiply_counter_is_z_cubed():
    for z in (2, 4, 8):
        kp = KeyMatrixPair.from_matrix(SquareMatrix.identity(z), scale_exp=2)
        block = tuple(range(z * z))
        counter = OpCounter()
        cipher = encrypt_block(block, kp, counter=counter)
        assert counter.mults == z**3
        assert counter.adds == z * z * (z - 1)
        counter = OpCounter()
        decrypt_block(cipher, kp, counter=counter)
        assert counter.mults == z**3


def test_order_mismatch_is_shape_error():
    kp = example_pair()  # Z = 2
    with pytest.raises(ShapeError):
        encrypt_block(tuple(range(16)), kp)
    with pytest.raises(ShapeError):
        decrypt_block(tuple(range(16)), kp)


def test_wire_overflow_is_rejected():
    huge = KeyMatrixPair.from_matrix(SquareMatrix([[1 << 62, 0], [0, 1]]), scale_exp=2)
    with pytest.raises(WireOverflowError):
        encrypt_block((255, 255, 255, 255), huge)
