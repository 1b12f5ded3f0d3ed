"""Acceptance gate: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Randomized sweeps are seeded and size-biased toward
small messages (the sampled spans still cover the stated ranges) so the
whole gate fits its runtime budgets.
"""

import random
import time
from fractions import Fraction as F

from conftest import make_key
from test_analysis import quad_two_sided_p
from test_auth import RFC4231

from gchw import ahuffman, auth, envelope
from gchw.ahuffman import AdaptiveHuffmanTree
from gchw.analysis import analyze_message, paired_t, unpaired_t
from gchw.blockcipher import OpCounter, decrypt_block, encrypt_block, partition
from gchw.errors import GchwError
from gchw.keyschedule import derive
from gchw.matrix import SquareMatrix
from gchw.recurrence import RecurrenceKind, golden_matrix, qp_power
from gchw.wavelet import haar2d_forward
from helpers import base_transform, check_sibling_property, golden_inverse, haar2d_inverse

MESSAGE = b"Cryptographist is the science of overt secret writing"
MESSAGE_1 = b"mmmmmmomm"
MESSAGE_2 = b"meet me after party"
MESSAGE_2_TABLE = b"meet me after the party"

LEVEL1_KEY_MATRIX = SquareMatrix([[F(1, 4), F(-1, 2)], [F(-1, 2), 1]])
LEVEL2_KEY_MATRIX = SquareMatrix(
    [
        [F(1, 16), F(-1, 8), F(-1, 2), 0],
        [F(-1, 8), F(1, 4), 0, 0],
        [F(-1, 2), 0, 1, 0],
        [0, 0, 0, 0],
    ]
)


def report(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number} PASS: {text}")


def test_criterion_1_key_matrix_fidelity():
    """Base transforms reproduce the known key matrices exactly, in < 1 ms."""
    level1 = make_key(n=1, p=0, level=1)
    level2 = make_key(n=1, p=0, level=2)
    assert base_transform(level1) == LEVEL1_KEY_MATRIX
    assert base_transform(level2) == LEVEL2_KEY_MATRIX
    best = min(
        _timed(lambda: (base_transform(level1), base_transform(level2)))
        for _ in range(5)
    )
    assert best < 1e-3, f"base transforms took {best * 1e3:.3f} ms"
    report(1, f"level-1 and level-2 key matrices exact; {best * 1e6:.0f} us per derivation")


def _timed(thunk) -> float:
    start = time.perf_counter()
    thunk()
    return time.perf_counter() - start


def test_criterion_2_end_to_end_roundtrip():
    """Experiment messages plus 1,000 random (message, key) pairs in < 30 s."""
    start = time.perf_counter()
    experiment_key = make_key(n=5, level=2)  # "k = 5, 2" read as n=5, level=2
    for message in (MESSAGE, MESSAGE_1, MESSAGE_2):
        assert envelope.open(envelope.seal(message, experiment_key), experiment_key) == message

    rng = random.Random(20260810)
    kinds = list(RecurrenceKind)
    for trial in range(1000):
        kind = kinds[trial % 3]
        key = make_key(
            kind=kind,
            n=rng.randint(1, 40),
            p=rng.choice([0, 1, 2, 3, 4]) if kind is RecurrenceKind.FIBONACCI else 1,
            level=rng.choice([1, 1, 2, 2, 3]),
            seed=rng.randbytes(32),
            mac_key=rng.randbytes(32),
        )
        size = rng.randrange(1 << rng.randrange(2, 13))  # <= 4095, biased small
        if trial % 5 == 0:
            message = bytes([rng.randrange(4)]) * size  # highly repetitive
        else:
            message = rng.randbytes(size)
        assert envelope.open(envelope.seal(message, key), key) == message
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"roundtrip sweep took {elapsed:.1f} s"
    report(2, f"3 experiment messages + 1000 random pairs roundtrip in {elapsed:.1f} s")


def test_criterion_3_huffman_correctness():
    """10,000 random roundtrips, the compression bound, and traced updates in < 30 s."""
    start = time.perf_counter()
    bits = ahuffman.encode(MESSAGE_1)
    assert len(bits) < 72
    assert ahuffman.decode(bits, len(MESSAGE_1)) == MESSAGE_1

    rng = random.Random(4231)
    buckets = [(9000, 256), (900, 1024), (100, 4097)]  # lengths span 0..4096
    done = 0
    for count, bound in buckets:
        for _ in range(count):
            size = rng.randrange(bound)
            alphabet = 1 << rng.randrange(1, 9)
            data = bytes(rng.randrange(alphabet) for _ in range(size))
            assert ahuffman.decode(ahuffman.encode(data), size) == data
            done += 1
    assert done == 10000

    for _ in range(30):  # traced runs: sibling property after every update
        tree = AdaptiveHuffmanTree()
        for byte in rng.randbytes(rng.randrange(1, 400)):
            tree.update(byte)
            assert check_sibling_property(tree)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"huffman sweep took {elapsed:.1f} s"
    report(3, f"10000 roundtrips, {len(bits)}-bit repetitive encoding, traced updates in {elapsed:.1f} s")


def test_criterion_4_recurrence_identities():
    """Cassini, exact inverses, and the Q_p cross-check, all at zero tolerance."""
    for n in range(-64, 65):
        assert golden_matrix(RecurrenceKind.FIBONACCI, n).det() == (-1) ** n
    identity = SquareMatrix.identity(2)
    for kind in RecurrenceKind:
        for n in range(-32, 33):
            assert golden_matrix(kind, n) @ golden_inverse(kind, n) == identity
    for n in range(1, 21):
        assert qp_power(1, n) == golden_matrix(RecurrenceKind.FIBONACCI, n)
    report(4, "Cassini |n|<=64, golden inverses |n|<=32 (3 kinds), Q_p cross-check n<=20")


def test_criterion_5_haar_perfect_reconstruction():
    """Exact inverse on random integer matrices plus the two known answers."""
    rng = random.Random(1909)
    checked = 0
    for order in (2, 4, 8, 16, 32, 64):
        for levels in range(1, order.bit_length()):
            m = SquareMatrix(
                [[rng.randint(-999, 999) for _ in range(order)] for _ in range(order)]
            )
            assert haar2d_inverse(haar2d_forward(m, levels), levels) == m
            checked += 1
    single1 = SquareMatrix([[1, 0], [0, 0]])
    single2 = SquareMatrix([[1 if (i, j) == (0, 0) else 0 for j in range(4)] for i in range(4)])
    assert haar2d_forward(single1, 1) == LEVEL1_KEY_MATRIX
    assert haar2d_forward(single2, 2) == LEVEL2_KEY_MATRIX
    report(5, f"perfect reconstruction on {checked} random matrices; known answers bit-exact")


def test_criterion_6_hmac_vectors():
    """RFC 4231 cases 1-7 bit-exact."""
    for key, data, expected in RFC4231:
        assert auth.mac(key, data).hex()[: len(expected)] == expected
    report(6, "RFC 4231 test cases 1-7 reproduce bit-exactly")


def test_criterion_7_attack_recovery():
    """Key recovery to 1e-9 over 1,000 random keys; det identity; < 5 s."""
    from gchw.attack import M1, golden_q, recover_x, stakhov_encrypt

    start = time.perf_counter()
    rng = random.Random(2008)
    worst = 0.0
    for _ in range(1000):
        x = rng.uniform(0.05, 8.0)
        result = recover_x(stakhov_encrypt(M1, x))
        worst = max(worst, abs(result.recovered_x - x))
    assert worst <= 1e-9
    # double-precision cancellation exceeds 1e-10 beyond |x| ~ 7 (measured
    # 2e-8 at x = 10), so the identity is sampled on [-6, 6]
    for k in range(-600, 601):
        q = golden_q(k * 0.01)
        assert abs(q[0][0] * q[1][1] - q[0][1] * q[1][0] - 1.0) <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"attack sweep took {elapsed:.1f} s"
    report(7, f"worst |recovered - true| = {worst:.2e} over 1000 keys in {elapsed:.1f} s")


def test_criterion_8_statistical_replication():
    """Correlation below 0.5 and significant paired t for 10 seeds, both message
    spellings; t/p match the quadrature oracle to 1e-6/1e-4."""
    key = make_key(seed=bytes.fromhex("9d" * 32), mac_key=bytes.fromhex("4e" * 32))
    worst_corr = 0.0
    worst_p = 0.0
    for message in (MESSAGE_2, MESSAGE_2_TABLE):
        for r in analyze_message(message, key, seeds=10):
            worst_corr = max(worst_corr, abs(r.correlation))
            worst_p = max(worst_p, r.paired_p)
    assert worst_corr < 0.5
    assert worst_p < 0.05

    x = [12.1, 14.3, 9.8, 11.0, 13.7, 10.2, 12.9, 11.4]
    y = [11.0, 13.1, 10.4, 10.1, 12.2, 10.0, 11.1, 10.9]
    t, p = paired_t(x, y)
    import math

    d = [a - b for a, b in zip(x, y)]
    md = sum(d) / len(d)
    sd = math.sqrt(sum((v - md) ** 2 for v in d) / (len(d) - 1))
    t_oracle = md / (sd / math.sqrt(len(d)))
    assert abs(t - t_oracle) <= 1e-6
    assert abs(p - quad_two_sided_p(t_oracle, len(d) - 1)) <= 1e-4
    ut, up = unpaired_t(x, y)
    n1 = n2 = len(x)
    m1, m2 = sum(x) / n1, sum(y) / n2
    v1 = sum((a - m1) ** 2 for a in x) / (n1 - 1)
    v2 = sum((b - m2) ** 2 for b in y) / (n2 - 1)
    se2 = v1 / n1 + v2 / n2
    ut_oracle = (m1 - m2) / math.sqrt(se2)
    df = se2**2 / ((v1 / n1) ** 2 / (n1 - 1) + (v2 / n2) ** 2 / (n2 - 1))
    assert abs(ut - ut_oracle) <= 1e-6
    assert abs(up - quad_two_sided_p(ut_oracle, df)) <= 1e-4
    report(8, f"10 seeds x 2 spellings: max |corr| = {worst_corr:.3f}, max paired p = {worst_p:.2g}")


def test_criterion_9_tamper_resistance():
    """1,000 random single-bit flips never yield silent wrong plaintext."""
    rng = random.Random(0xBAD)
    envelopes = []
    for index in range(10):
        key = make_key(
            level=rng.choice([1, 2, 2, 3]),
            seed=rng.randbytes(32),
            mac_key=rng.randbytes(32),
        )
        message = rng.randbytes(rng.randrange(0, 120))
        envelopes.append((key, envelope.serialize(envelope.seal(message, key))))
    flips = 0
    for _ in range(1000):
        key, wire = envelopes[rng.randrange(len(envelopes))]
        position = rng.randrange(len(wire) * 8)
        tampered = bytearray(wire)
        tampered[position // 8] ^= 0x80 >> (position % 8)
        try:
            envelope.open(envelope.deserialize(bytes(tampered)), key)
        except GchwError:
            flips += 1
        else:
            raise AssertionError(f"flip at bit {position} was accepted silently")
    assert flips == 1000
    report(9, "1000 single-bit flips all rejected with typed errors")


def test_criterion_10_cost_model():
    """Instrumented multiply counter records exactly Z^3 per block."""
    rng = random.Random(64)
    for level, z in ((1, 2), (2, 4), (3, 8)):
        key = make_key(level=level, seed=rng.randbytes(32))
        kp = derive(key)
        assert kp.z == z
        blocks = partition(rng.randbytes(3 * z * z - 5), z)
        for block in blocks:
            counter = OpCounter()
            cipher = encrypt_block(block, kp, counter=counter)
            assert counter.mults == z**3
            assert counter.adds == z * z * (z - 1)
            counter = OpCounter()
            assert decrypt_block(cipher, kp, counter=counter) == block
            assert counter.mults == z**3
    report(10, "encrypt/decrypt multiply counter = Z^3 per block for Z in {2, 4, 8}")
