"""Block partitioning, the encrypt/decrypt pair with a multiply counter, and the packed route."""

import random
import struct
from collections import Counter
from fractions import Fraction as F
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_key
from gchw import blockcipher
from gchw.blockcipher import (
    CHUNK_ENTRIES,
    PAD,
    OpCounter,
    _product,
    body_blocks,
    decrypt_block,
    decrypt_message,
    encrypt_block,
    encrypt_message,
    partition,
    unpartition,
)
from gchw.envelope import deserialize, seal, serialize
from gchw.envelope import open as open_envelope
from gchw.errors import CorruptionError, ParameterError, ShapeError
from gchw.keyschedule import MODULUS, KeyMatrixPair, derive
from gchw.matrix import SquareMatrix
from gchw.recurrence import RecurrenceKind
from helpers import det_adjugate

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1

# an arbitrary nonsingular dyadic matrix used by the known-answer product tests
EXAMPLE_E = SquareMatrix([[F(1, 4), F(-1, 2)], [F(-1, 2), 2]])


def example_pair() -> KeyMatrixPair:
    return KeyMatrixPair.from_scaled([[1, -2], [-2, 8]], scale_exp=2)  # EXAMPLE_E * 4


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
    kp = KeyMatrixPair.from_scaled([[4, 0], [0, 4]], scale_exp=2)  # E = I
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
    assert as_fractions(cipher) == [*EXAMPLE_E.rows[0], 0, 0]


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
        assert _product(flat, cols, z) == _product(flat, cols, z, OpCounter())


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
        kp = KeyMatrixPair.from_scaled([[4 * (i == j) for j in range(z)] for i in range(z)], 2)
        block = tuple(range(z * z))
        counter = OpCounter()
        cipher = encrypt_block(block, kp, counter=counter)
        assert counter.mults == z**3
        assert counter.adds == z * z * (z - 1)
        counter = OpCounter()
        decrypt_block(cipher, kp, counter=counter)
        assert counter.mults == z**3


def test_multiply_counter_is_twice_z_cubed_for_a_key_that_re_encrypts():
    # entry_bound >= 2**30: the candidates, then their re-encryption, Z**3 each
    for kp in (level_pair(5), diagonal_pair((1 << 55) - 1)):
        assert kp.entry_bound >= 1 << 30
        block = partition(random.Random(kp.z).randbytes(kp.z * kp.z - 3), kp.z)[0]
        counter = OpCounter()
        cipher = encrypt_block(block, kp)
        assert decrypt_block(cipher, kp, counter=counter) == block
        assert counter.mults == 2 * kp.z**3


def test_order_mismatch_is_shape_error():
    kp = example_pair()  # Z = 2
    with pytest.raises(ShapeError):
        encrypt_block(tuple(range(16)), kp)
    with pytest.raises(ShapeError):
        decrypt_block(tuple(range(16)), kp)


def test_wire_overflow_is_rejected():
    # E_scaled's first column sums to 2**64, so entry_bound is 2**72
    with pytest.raises(ParameterError, match="73-bit number, past the signed 64-bit wire"):
        KeyMatrixPair.from_scaled([[1 << 64, 0], [0, 4]], scale_exp=2)


# --- the packed message route against the per-block route ---------------------


@cache
def level_pair(level: int) -> KeyMatrixPair:
    return derive(make_key(level=level))


def pack_blocks(blocks, width: int) -> bytes:
    """Blocks of scaled entries as a wire body: signed big-endian, ``width`` bytes each."""
    return b"".join(v.to_bytes(width, "big", signed=True) for block in blocks for v in block)


def per_block_body(data: bytes, kp: KeyMatrixPair) -> bytes:
    """The wire body built block by block, the oracle for :func:`encrypt_message`."""
    return pack_blocks((encrypt_block(b, kp) for b in partition(data, kp.z)), kp.entry_bytes)


def width_limits(width: int) -> tuple[int, int]:
    return -(1 << (8 * width - 1)), (1 << (8 * width - 1)) - 1


def outcome(f, *args):
    try:
        return f(*args)
    except CorruptionError as exc:
        return type(exc), str(exc)


def diagonal_pair(top_left: int) -> KeyMatrixPair:
    """Z = 2, E_scaled = [[top_left, 0], [0, 1]]: entries reach exactly +-top_left."""
    return KeyMatrixPair.from_scaled([[top_left, 0], [0, 1]], scale_exp=2)


@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_encrypt_message_matches_the_per_block_route(level):
    kp = level_pair(level)
    cells = kp.z * kp.z
    rng = random.Random(level)
    first_pass = CHUNK_ENTRIES // cells * cells  # one more byte starts a second pass
    for length in (0, 1, cells - 1, cells, cells + 1, first_pass + 1):
        data = rng.randbytes(length)
        body = encrypt_message(data, kp)
        assert body == per_block_body(data, kp), length
        assert decrypt_message(body, kp, length) == data, length


@settings(max_examples=60, deadline=None)
@given(st.binary(max_size=300), st.sampled_from([1, 2, 3]))
def test_packed_route_matches_per_block_on_random_data(data, level):
    kp = level_pair(level)
    body = encrypt_message(data, kp)
    assert body == per_block_body(data, kp)
    assert decrypt_message(body, kp, len(data)) == data


@pytest.mark.parametrize("level", range(1, 7))
def test_row_and_column_packing_match_the_per_block_route(level):
    # up to Z**2 - Z bytes a block has fewer than Z data rows and is packed
    # by row; from Z**2 - Z + 1 on, by column
    kp = level_pair(level)
    z = kp.z
    rng = random.Random(level)
    for length in (0, 1, z - 1, z, z + 1, z * z - z, z * z - 1, z * z, z * z + 1):
        for data in (rng.randbytes(length), b"\xff" * length):
            body = encrypt_message(data, kp)
            assert body == per_block_body(data, kp), length
            assert decrypt_message(body, kp, length) == data, length


def test_keys_past_the_int64_limit_are_rejected_at_derive():
    # n = 77 is the largest Fibonacci n at level 1 whose entries fit the wire
    assert derive(make_key(n=77, level=1)).entry_bytes == 8
    for n in (78, 80, 84, 88, 90):
        with pytest.raises(ParameterError, match="past the signed 64-bit wire"):
            derive(make_key(n=n, level=1))


@pytest.mark.parametrize(
    "top_left, data, fits",
    [
        ((1 << 55) - 1, bytes([255, 0, 255, 0]), True),  # entries of 255 * (2**55 - 1)
        (-((1 << 55) - 1), bytes([255, 0, 0]), True),  # -255 * (2**55 - 1), then padding
        ((1 << 55) - 1, b"\x00", True),  # the padding row gives -(2**55 - 1)
        (1 << 63, b"\x01", False),  # 2**63 is one past INT64_MAX
        ((1 << 63) - 1, b"\x02", False),
        (1 << 120, b"\x01", False),
    ],
)
def test_int64_limits_are_exact(top_left, data, fits):
    # entry_bound = 256 * |top_left| must stay below 2**63
    if fits:
        kp = diagonal_pair(top_left)
        assert kp.entry_bytes == 8
        body = encrypt_message(data, kp)
        assert body == per_block_body(data, kp)
        assert decrypt_message(body, kp, len(data)) == data
    else:
        # data @ E_scaled passes int64; the key is refused before any message
        (block,) = partition(data, 2)
        assert max(_product(block, ((top_left, 0), (0, 1)), 2)) > INT64_MAX
        with pytest.raises(ParameterError, match="past the signed 64-bit wire"):
            diagonal_pair(top_left)


def test_large_n_key_still_overflows_in_seal():
    # derive refuses the key, so not even the empty message seals
    key = make_key(n=90, level=1)
    for message in (b"", b"\xff" * 64):
        with pytest.raises(ParameterError, match="past the signed 64-bit wire"):
            seal(message, key)


@pytest.mark.parametrize("width", range(2, 8))
def test_entry_width_steps_at_the_sign_bit(width):
    # E_scaled = [[t - 1, 1], [1, 0]] has det -1 at every t (a diagonal key
    # with t = 2**31 - 1 at w = 5 would be singular mod p) and entry_bound
    # 256 * t: just below 2**(8w - 1) the entries fit w bytes, and at
    # 2**(8w - 1) they need w + 1
    top = 1 << (8 * width - 9)
    below, at = (KeyMatrixPair.from_scaled([[t - 1, 1], [1, 0]], 2) for t in (top - 1, top))
    assert below.entry_bound == (1 << (8 * width - 1)) - 256
    assert at.entry_bound == 1 << (8 * width - 1)
    assert (below.entry_bytes, at.entry_bytes) == (width, width + 1)
    data = bytes([255, 255, 0, 255, 0, 7])  # entries reach 255 * t, -t and the -1 padding
    for kp in (below, at):
        body = encrypt_message(data, kp)
        assert body == per_block_body(data, kp)
        assert len(body) == 8 * kp.entry_bytes
        assert decrypt_message(body, kp, len(data)) == data


@pytest.mark.parametrize("width", range(2, 9))
def test_the_scatter_places_every_byte_of_every_entry_width(width):
    # the keys of test_every_byte_of_a_received_entry_reaches_its_slot, over
    # two passes packed by column: odd widths scatter in 1-byte units through
    # byte slices, the others in 2-, 4- or 8-byte memoryview units
    t = (1 << (8 * width - 9)) - 1
    kp = KeyMatrixPair.from_scaled([[t - 1, 1], [1, 0]], 2)
    assert kp.entry_bytes == width
    step = blockcipher._pass_cells(kp.z * kp.z)
    # random bytes, then a row of 255s that fills each entry's top byte
    data = random.Random(width).randbytes(step + 5 * kp.z - 2) + b"\xff\xff"
    body = encrypt_message(data, kp)
    assert body == per_block_body(data, kp)
    assert decrypt_message(body, kp, len(data)) == data


@pytest.mark.parametrize("width", range(2, 9))
def test_every_byte_of_a_received_entry_reaches_its_slot(monkeypatch, width):
    # the key of test_entry_width_steps_at_the_sign_bit whose entries fill
    # w bytes, over two passes packed by column.  A middle row of the first
    # pass holds (255, 255); its ciphertext (255 * t, 255) decrypts as
    # (c1, c0 - (t - 1) * c1), so each byte change below leaves the bytes
    t = (1 << (8 * width - 9)) - 1
    kp = KeyMatrixPair.from_scaled([[t - 1, 1], [1, 0]], 2)
    z, w, cells = kp.z, kp.entry_bytes, kp.z * kp.z
    assert w == width
    step = blockcipher._pass_cells(cells)
    # the second pass holds 5 rows, at least Z, so it is packed by column too
    data = bytearray(random.Random(width).randbytes(step + 5 * z))
    row = step // z // 2
    data[row * z : (row + 1) * z] = (255, 255)
    body = encrypt_message(bytes(data), kp)
    assert decrypt_message(body, kp, len(data)) == data
    block = row * z // cells
    cases = []
    for at in range(row * z * w, (row + 1) * z * w):
        tampered = bytearray(body)
        tampered[at] = (tampered[at] + 1) % 256
        (cipher,) = body_blocks(tampered[block * cells * w : (block + 1) * cells * w], z, w)
        want = outcome(lambda: unpartition([decrypt_block(cipher, kp)], cells))
        assert want[0] is CorruptionError, at
        entries = tampered[row * z * w : (row + 1) * z * w]
        lift = [int.from_bytes(entries[k : k + w], "big", signed=True) for k in range(0, z * w, w)]
        cases.append((bytes(tampered), want, tuple(lift)))
    forbid_decrypt_block(monkeypatch)
    lifted = record_lifts(monkeypatch)
    for tampered, want, lift in cases:
        del lifted[:]
        assert outcome(decrypt_message, tampered, kp, len(data)) == want
        assert lifted == [lift]


def test_entry_width_is_at_most_eight_bytes():
    # entry_bound = 256 * top_left: 2**63 - 256 fits 8 signed bytes, 2**63 does not
    kp = diagonal_pair((1 << 55) - 1)
    assert kp.entry_bound == (1 << 63) - 256
    assert kp.entry_bytes == 8
    for top_left in (1 << 55, 1 << 120):
        with pytest.raises(ParameterError, match="past the signed 64-bit wire"):
            diagonal_pair(top_left)


def test_round_trips_never_take_the_per_block_route(monkeypatch):
    def per_block(*args):
        raise AssertionError("the per-block product ran")

    monkeypatch.setattr(blockcipher, "_product", per_block)
    rng = random.Random(3)
    for level in (1, 2, 3, 4):
        key = make_key(level=level)
        for message in (b"", b"x", rng.randbytes(700), b"meet me after party" * 40):
            wire = serialize(seal(message, key))
            assert open_envelope(deserialize(wire), key) == message


def test_a_pass_holds_at_most_2_to_the_14_entries(monkeypatch):
    # at Z = 32 a pass is 16 blocks, so 40 blocks take three passes
    kp = level_pair(5)
    assert kp.z == 32
    data = random.Random(5).randbytes(40 * 1024 - 100)
    body = encrypt_message(data, kp)
    sizes = []
    real_pass = blockcipher._decrypt_pass

    def recording_pass(chunk, *args):
        sizes.append(len(chunk) // kp.entry_bytes)
        return real_pass(chunk, *args)

    monkeypatch.setattr(blockcipher, "_decrypt_pass", recording_pass)
    assert decrypt_message(body, kp, len(data)) == data
    assert sizes == [1 << 14, 1 << 14, 8 * 1024]
    assert body == per_block_body(data, kp)


def test_a_pass_holds_at_least_8_blocks_at_z_64(monkeypatch):
    # 2**14 entries are four blocks at Z = 64; the floor makes a pass eight
    kp = level_pair(6)
    assert kp.z == 64
    data = random.Random(6).randbytes(20 * 4096 - 100)
    body = encrypt_message(data, kp)
    sizes = []
    real_pass = blockcipher._decrypt_pass

    def recording_pass(chunk, *args):
        sizes.append(len(chunk) // kp.entry_bytes)
        return real_pass(chunk, *args)

    monkeypatch.setattr(blockcipher, "_decrypt_pass", recording_pass)
    assert decrypt_message(body, kp, len(data)) == data
    assert sizes == [8 * 4096, 8 * 4096, 4 * 4096]
    assert body == per_block_body(data, kp)


def test_decrypt_message_rejects_a_partial_block():
    kp = level_pair(2)
    body = encrypt_message(b"abc", kp)
    for cut in (1, kp.entry_bytes):
        with pytest.raises(ShapeError):
            decrypt_message(body[:-cut], kp, 3)


def forbid_decrypt_block(monkeypatch) -> None:
    """Fail on any call of ``blockcipher.decrypt_block``: ``decrypt_message`` never takes it."""

    def per_block(*args, **kwargs):
        raise AssertionError("decrypt_message called decrypt_block")

    monkeypatch.setattr(blockcipher, "decrypt_block", per_block)


def record_lifts(monkeypatch) -> list[tuple[int, ...]]:
    """The rows that ``blockcipher._lift_row`` is called with, in call order."""
    lifted = []
    real_lift = blockcipher._lift_row

    def recording_lift(row, kp):
        lifted.append(tuple(row))
        return real_lift(row, kp)

    monkeypatch.setattr(blockcipher, "_lift_row", recording_lift)
    return lifted


@pytest.mark.parametrize("level", range(1, 7))
def test_decrypt_message_fails_like_the_per_block_route(monkeypatch, level):
    # entries of a three-block body nudged or set, then each region boundary
    # moved; a value past the entry width is clamped to its limits.  Past
    # Z = 8 the positions and byte counts are sampled, since the per-block
    # reference costs Z**3 multiplies per block
    kp = level_pair(level)
    cells = kp.z * kp.z
    low, high = width_limits(kp.entry_bytes)
    rng = random.Random(level)
    data = rng.randbytes(2 * cells + 5)
    body = encrypt_message(data, kp)
    blocks = [tuple(b) for b in body_blocks(body, kp.z, kp.entry_bytes)]
    known = {}

    def decrypt_once(cipher):
        # decrypt_block is pure, so each distinct block is decrypted once
        if cipher not in known:
            try:
                known[cipher] = decrypt_block(cipher, kp)
            except CorruptionError as exc:
                known[cipher] = exc
        if isinstance(known[cipher], CorruptionError):
            raise known[cipher]
        return known[cipher]

    def reference(blocks, byte_count):
        return unpartition([decrypt_once(b) for b in blocks], byte_count)

    if cells <= 64:
        counts, positions = range(len(data) - cells, 3 * cells + 2), range(cells)
    else:
        edge = len(data)
        counts = (edge - cells, edge - 1, edge, edge + 1, 3 * cells, 3 * cells + 1)
        positions = rng.sample(range(cells), max(1, 4096 // cells))
    cases = [(blocks, n) for n in counts]
    nudges = (1, -1, 1 << 40, MODULUS, -MODULUS, 2 * MODULUS, -2 * MODULUS)
    # the edges of [-2**30, 2**30), the range that spares keys below 2**30
    # the re-encryption
    edges = (low, high, 1 << 30, (1 << 30) - 1, -(1 << 30), -(1 << 30) - 1)
    for b in range(3):
        for i in positions:
            values = (*(blocks[b][i] + d for d in nudges), *edges)
            for value in {max(low, min(high, v)) for v in values}:
                tampered = list(blocks)
                tampered[b] = blocks[b][:i] + (value,) + blocks[b][i + 1 :]
                cases.append((tampered, len(data)))
    forbid_decrypt_block(monkeypatch)
    for tampered, byte_count in cases:
        expected = outcome(reference, tampered, byte_count)
        wire = pack_blocks(tampered, kp.entry_bytes)
        assert outcome(decrypt_message, wire, kp, byte_count) == expected


def moved_by_p(entry: int) -> int:
    """``entry`` moved by p toward zero, which keeps it inside the entry width."""
    return entry - MODULUS if entry >= 0 else entry + MODULUS


@pytest.mark.parametrize("level", range(1, 7))
def test_a_block_packed_by_row_fails_like_the_per_block_route(monkeypatch, level):
    # one block whose data ends one entry into row Z/2 - 1: an entry of a
    # data row, of that row's -1 tail and of an all-padding row changed by
    # 1, and at L5 and L6 moved by p, which only the re-encryption sees;
    # then two all-padding rows changed, of which the first is named
    kp = level_pair(level)
    z, w = kp.z, kp.entry_bytes
    data_rows = max(1, z // 2)
    length = (data_rows - 1) * z + 1
    data = random.Random(level).randbytes(length)
    (block,) = body_blocks(encrypt_message(data, kp), z, w)
    first_pad = data_rows * z  # entry 0 of the first all-padding row
    changes = [{0: 1}, {data_rows * z - 1: 1}, {first_pad: 1}, {first_pad: 1, z * z - 1: -1}]
    if level >= 5:
        changes += [{i: moved_by_p(block[i]) - block[i]} for i in (0, data_rows * z - 1, first_pad)]
    cases = []
    for change in changes:
        tampered = list(block)
        for i, delta in change.items():
            tampered[i] += delta
        want = outcome(lambda: unpartition([decrypt_block(tampered, kp)], length))
        cases.append((change, tampered, want))

    def column_pass(*args):
        raise AssertionError("a block with fewer than Z data rows was packed by column")

    monkeypatch.setattr(blockcipher, "_decrypt_pass", column_pass)
    forbid_decrypt_block(monkeypatch)
    for change, tampered, want in cases:
        assert want[0] is CorruptionError, change
        lifted = record_lifts(monkeypatch)
        assert outcome(decrypt_message, pack_blocks([tampered], w), kp, length) == want, change
        # only the first changed row is lifted
        first = min(change) // z * z
        assert lifted == [tuple(tampered[first : first + z])], change


def test_only_keys_with_entries_past_2_to_the_30_re_encrypt(monkeypatch):
    # below 2**30 a range check on the received entries proves the candidate
    # exact, so decrypt_message reads E_scaled only to re-encrypt
    levels = (1, 2, 3, 4)
    skipping = [derive(make_key(kind=k, level=level)) for k in RecurrenceKind for level in levels]
    keeping = [level_pair(5), level_pair(6), diagonal_pair((1 << 55) - 1)]
    reads = []
    columns = KeyMatrixPair.e_scaled_cols.func
    counted = property(lambda kp: reads.append(kp.z) or columns(kp))
    monkeypatch.setattr(KeyMatrixPair, "e_scaled_cols", counted)
    for kp in skipping + keeping:
        reencrypts = kp in keeping
        assert (kp.entry_bound >= 1 << 30) == reencrypts
        data = random.Random(kp.z).randbytes(3 * kp.z * kp.z - 7)
        body = encrypt_message(data, kp)
        del reads[:]
        assert decrypt_message(body, kp, len(data)) == data
        assert bool(reads) == reencrypts, (kp.z, kp.entry_bound.bit_length())


@pytest.mark.parametrize("value", [None, INT64_MIN, INT64_MAX])
def test_of_two_bad_blocks_the_first_is_named(monkeypatch, value):
    # an int64 limit shifted down to the entry width is that width's limit
    kp = level_pair(3)
    cells = kp.z * kp.z
    data = random.Random(9).randbytes(5 * cells)
    body = encrypt_message(data, kp)
    blocks = [list(b) for b in body_blocks(body, kp.z, kp.entry_bytes)]
    blocks[2][7] = blocks[2][7] + 1 if value is None else value >> (64 - 8 * kp.entry_bytes)
    assert value is None or blocks[2][7] in width_limits(kp.entry_bytes)
    blocks[4][0] += 1
    forbid_decrypt_block(monkeypatch)
    lifted = record_lifts(monkeypatch)
    wire = pack_blocks(blocks, kp.entry_bytes)
    with pytest.raises(CorruptionError):
        decrypt_message(wire, kp, len(data))
    # entry 7 is in block 2's first row, and only that row is lifted
    assert lifted == [tuple(blocks[2][: kp.z])]


@pytest.mark.parametrize("level", [5, 6])
def test_a_row_only_the_re_encryption_rejects_is_named_before_a_later_mask_fault(
    monkeypatch, level
):
    # block 0, row 1 moved by p keeps its candidates mod p, so only the
    # re-encryption rejects it; block 2, entry 0 plus 1 fails the masks.
    # Both lie in one pass, and the earlier row is the one lifted
    kp = level_pair(level)
    assert kp.entry_bound >= 1 << 30
    cells = kp.z * kp.z
    assert 3 * cells <= blockcipher._pass_cells(cells)
    data = random.Random(level).randbytes(3 * cells)
    blocks = [list(b) for b in body_blocks(encrypt_message(data, kp), kp.z, kp.entry_bytes)]
    entry = blocks[0][kp.z]
    blocks[0][kp.z] = entry - MODULUS if entry >= 0 else entry + MODULUS
    blocks[2][0] += 1
    low, high = width_limits(kp.entry_bytes)
    assert low <= blocks[0][kp.z] and blocks[2][0] <= high
    forbid_decrypt_block(monkeypatch)
    lifted = record_lifts(monkeypatch)
    with pytest.raises(CorruptionError, match="^decrypted entry is not an integer$"):
        decrypt_message(pack_blocks(blocks, kp.entry_bytes), kp, len(data))
    assert lifted == [tuple(blocks[0][kp.z : 2 * kp.z])]


def test_a_padding_fault_before_a_non_integer_entry_is_named_first(monkeypatch):
    # block 0 decrypts exactly but holds -1 in its data region, and block 1
    # has an entry that is not an integer: the first fault in wire order wins
    kp = level_pair(2)
    cells = kp.z * kp.z
    padded = encrypt_block((7, PAD) + tuple(range(cells - 2)), kp)
    nudged = list(encrypt_block(tuple(range(cells)), kp))
    nudged[5] += 1
    with pytest.raises(CorruptionError, match="^decrypted entry is not an integer$"):
        decrypt_block(nudged, kp)
    forbid_decrypt_block(monkeypatch)
    with pytest.raises(CorruptionError, match="^padding marker inside the data region$"):
        decrypt_message(pack_blocks([padded, nudged], kp.entry_bytes), kp, 2 * cells)


@pytest.mark.parametrize("tail", [0, 5])
def test_an_overlong_byte_count_is_refused_before_any_pass(monkeypatch, tail):
    # refused from the body's length alone, whether or not the last block is padded
    kp = level_pair(6)
    cells = kp.z * kp.z
    data = random.Random(6).randbytes(2 * cells - tail)
    body = encrypt_message(data, kp)

    def no_pass(*args):
        raise AssertionError("decrypt_message ran a packed pass")

    monkeypatch.setattr(blockcipher, "_decrypt_pass", no_pass)
    forbid_decrypt_block(monkeypatch)
    with pytest.raises(CorruptionError, match="^fewer block entries than the recorded byte count$"):
        decrypt_message(body, kp, 2 * cells + 1)


@pytest.mark.parametrize("level, block_count", [(3, 4), (2, CHUNK_ENTRIES // 16 + 3)])
def test_a_count_one_byte_short_is_a_padding_fault(monkeypatch, level, block_count):
    # with Z = 4, CHUNK_ENTRIES // 16 + 3 blocks take two passes
    kp = level_pair(level)
    cells = kp.z * kp.z
    data = random.Random(level).randbytes(block_count * cells - 3)
    body = encrypt_message(data, kp)
    forbid_decrypt_block(monkeypatch)
    with pytest.raises(CorruptionError, match="^block tail is not all padding$"):
        decrypt_message(body, kp, len(data) - 1)


@pytest.mark.parametrize("level", [2, 5, 6])
def test_a_data_region_that_ends_before_the_first_faulty_block_leaves_only_padding(
    monkeypatch, level
):
    # two all-padding blocks pass for byte count 0, then a data block fails;
    # levels 5 and 6 compare all-padding rows with their re-encryption
    kp = level_pair(level)
    cells = kp.z * kp.z
    pad = encrypt_block((PAD,) * cells, kp)
    data = encrypt_block(tuple(i % 256 for i in range(cells)), kp)
    body = pack_blocks([pad, pad, data], kp.entry_bytes)
    forbid_decrypt_block(monkeypatch)
    with pytest.raises(CorruptionError, match="^block tail is not all padding$"):
        decrypt_message(body, kp, 0)
    assert decrypt_message(pack_blocks([pad, pad], kp.entry_bytes), kp, 0) == b""


@pytest.mark.parametrize("count", [-1, -6])
def test_a_negative_byte_count_is_a_parameter_error(count):
    # a negative slice bound counts from the end, so it must not reach one
    kp = level_pair(2)
    body = encrypt_message(b"0123456789", kp)
    with pytest.raises(ParameterError, match=f"^byte count must be at least 0, got {count}$"):
        decrypt_message(body, kp, count)
    with pytest.raises(ParameterError, match=f"^byte count must be at least 0, got {count}$"):
        unpartition(partition(b"ab", 2), count)


def test_wide_decryption_slots_name_the_first_bad_block(monkeypatch):
    # column-0 entries of up to 255 * (2**55 - 1) fill the 8-byte wire, and
    # 2**55 - 1 has a large inverse mod p, so a nudged column-0 entry gives
    # a huge re-encryption
    kp = diagonal_pair((1 << 55) - 1)
    assert kp.entry_bytes == 8
    entry = struct.Struct(">4q")
    data = bytes([255, 5, 0, 7, 128, 9, 1, 250, 0, 0, 255, 1])
    blocks = [list(b) for b in entry.iter_unpack(encrypt_message(data, kp))]
    forbid_decrypt_block(monkeypatch)
    for b in range(3):
        for i in range(4):
            for delta in (1, -1, 1 << 62):
                tampered = [list(x) for x in blocks]
                tampered[b][i] = max(INT64_MIN, min(INT64_MAX, tampered[b][i] + delta))
                if tampered == blocks:
                    continue
                # a nudged column-1 entry can be another valid ciphertext, or
                # one with -1 in the data region that unpartition must name
                expected = outcome(lambda: unpartition([decrypt_block(x, kp) for x in tampered], 12))
                wire = b"".join(entry.pack(*x) for x in tampered)
                assert outcome(decrypt_message, wire, kp, len(data)) == expected


# --- decrypt_block against the exact adjugate -------------------------------


def adjugate_decrypt_block(cipher, kp: KeyMatrixPair, det: int, adjugate_cols) -> tuple[int, ...]:
    """cipher @ adj / det, raising at the first entry that does not divide or is not a byte.

    ``decrypt_block`` as it stood on the Bareiss adjugate: the reference for
    its outcome and its message.
    """
    entries = []
    for v in _product(cipher, adjugate_cols, kp.z):
        q, r = divmod(v, det)
        if r:
            raise CorruptionError("decrypted entry is not an integer")
        if q != PAD and not 0 <= q <= 255:
            raise CorruptionError("decrypted entry outside the byte range")
        entries.append(q)
    return tuple(entries)


def partial_nudges(det: int, adjugate) -> list[tuple[int, int]]:
    """(j, det // q) pairs where adding det // q to entry j of a cipher row leaves
    some entries of its plaintext row integers and makes others fractions.

    That row gains adj[j] / q, so q ranges over prime powers dividing det.
    """
    found = []
    for f in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        q = f
        while det % q == 0:
            for j, row in enumerate(adjugate):
                if 0 < sum(a % q == 0 for a in row) < len(row):
                    found.append((j, det // q))
            q *= f
    return found


# exact integers outside {-1} | 0..255, small and past p / 2
OUTSIDE = (256, -2, 300, -255, MODULUS // 2 + 1, MODULUS, 3 * MODULUS + 5, -(MODULUS // 2) - 1, 1 << 40)
NUDGES = (1, -1, 2, 1 << 20, -(1 << 20), MODULUS, -MODULUS, 1 << 40)
BYTE_OR_PAD = frozenset((PAD, *range(256)))
NOT_INTEGER = "decrypted entry is not an integer"
OUTSIDE_RANGE = "decrypted entry outside the byte range"


def tampered_blocks(kp: KeyMatrixPair, adjugate, det: int, count: int, rng):
    """``count`` cipher blocks: valid, nudged, exact but outside the byte range, and mixed."""
    z, cells = kp.z, kp.z * kp.z
    partial = partial_nudges(det, adjugate)
    for k in range(count):
        plain = list(rng.randbytes(cells))
        if rng.random() < 0.3:  # a final block, padded with -1
            tail = rng.randrange(1, cells)
            plain[tail:] = [PAD] * (cells - tail)
        kind = k % 5
        row = rng.randrange(z)
        if kind in (2, 4):  # an exact integer outside the range, alone or mixed
            plain[row * z + rng.randrange(z)] = rng.choice(OUTSIDE)
        cipher = _product(plain, kp.e_scaled_cols, z)
        if kind in (1, 3):
            for _ in range(rng.choice((1, 1, 2))):
                cipher[row * z + rng.randrange(z)] += rng.choice(NUDGES)
        if kind in (3, 4) and partial:  # some entries of the row fractions, others integers
            j, nudge = rng.choice(partial)
            cipher[row * z + j] += nudge * rng.choice((1, -1))
        yield tuple(cipher)


def test_decrypt_block_fails_like_the_exact_adjugate():
    # the outcome and message of decrypt_block, which lifts p-adically
    # through E_scaled^-1 mod p, against cipher @ adj / det on 1030 blocks at
    # L1-L5 and 300 under the widest 8-byte key
    rng = random.Random(18)
    seen = Counter()
    keys = [(level_pair(level), n) for level, n in ((1, 300), (2, 300), (3, 200), (4, 150), (5, 80))]
    for kp, count in [*keys, (diagonal_pair((1 << 55) - 1), 300)]:
        det, adjugate = det_adjugate(kp.e_scaled)
        adjugate_cols = tuple(zip(*adjugate))
        for cipher in tampered_blocks(kp, adjugate, det, count, rng):
            expected = outcome(adjugate_decrypt_block, cipher, kp, det, adjugate_cols)
            assert outcome(decrypt_block, cipher, kp) == expected
            if expected[0] is not CorruptionError:
                seen["valid"] += 1
                continue
            message = expected[1]
            seen[message] += 1
            # the first faulty row: does it mix fractions with integers outside the range?
            sums = _product(cipher, adjugate_cols, kp.z)
            rows = (sums[base : base + kp.z] for base in range(0, len(sums), kp.z))
            for row in rows:
                faults = {bool(v % det) for v in row if v % det or v // det not in BYTE_OR_PAD}
                if faults:
                    seen["mixed, " + message] += faults == {True, False}
                    break
    assert seen["valid"] + seen[NOT_INTEGER] + seen[OUTSIDE_RANGE] == 1330
    assert min(seen["valid"], seen[NOT_INTEGER], seen[OUTSIDE_RANGE]) >= 200, seen
    assert min(seen["mixed, " + NOT_INTEGER], seen["mixed, " + OUTSIDE_RANGE]) >= 20, seen

