"""FGK codec: bit-exact traces, roundtrips, and the sibling property."""

import random
from bisect import bisect_left
from math import inf

import pytest
from hypothesis import given, settings, strategies as st

from gchw.ahuffman import (
    _KID,
    _LEAF_AT,
    _MATURE_AT,
    _TOP_NUMBER,
    _UP,
    _WEIGHT_AT,
    NYT,
    AdaptiveHuffmanTree,
    decode,
    encode,
)
from gchw.bits import BitString
from gchw.errors import CorruptStreamError, ParameterError
from helpers import (
    ReferenceTree,
    append_uint,
    bits_from01,
    check_sibling_property,
    code_for,
    contains,
    nyt_code,
    path,
    reference_decode,
    reference_encode,
    reference_update,
    snapshot,
)
from test_golden_vectors import english_like, skewed


def test_encode_empty():
    assert encode(b"").to01() == ""
    assert decode(BitString(), 0) == b""


@pytest.mark.parametrize("symbol_count", [-1, -8])
def test_a_negative_symbol_count_is_a_parameter_error(symbol_count):
    for bits in (BitString(), encode(b"ab")):
        with pytest.raises(ParameterError, match="at least 0"):
            decode(bits, symbol_count)


def test_encode_single_byte_is_raw_literal():
    # empty NYT code followed by the 8-bit literal, MSB first
    assert encode(b"a").to01() == "01100001"


def test_encode_repeated_byte():
    # after the first 'a' the root has NYT on the left and 'a' on the right
    assert encode(b"aa").to01() == "011000011"
    assert decode(bits_from01("011000011"), 2) == b"aa"


def test_repetitive_message_compresses():
    bits = encode(b"mmmmmmomm")
    # literal m (8) + five 1-bit m codes + NYT code and literal o (9) + two m codes
    assert len(bits) == 24
    assert len(bits) < 72
    assert decode(bits, 9) == b"mmmmmmomm"


@given(st.binary(max_size=600))
def test_roundtrip(data):
    assert decode(encode(data), len(data)) == data


@settings(max_examples=40)
@given(st.binary(min_size=1, max_size=300), st.integers(2, 16))
def test_roundtrip_low_entropy(data, modulus):
    data = bytes(b % modulus for b in data)
    assert decode(encode(data), len(data)) == data


def test_roundtrip_random_sweep(rng):
    for _ in range(400):
        size = rng.randrange(0, 1 << rng.randrange(0, 10))
        alphabet = 1 << rng.randrange(1, 9)
        data = bytes(rng.randrange(alphabet) for _ in range(size))
        assert decode(encode(data), len(data)) == data


def test_sibling_property_after_every_update(rng):
    tree = AdaptiveHuffmanTree()
    assert check_sibling_property(tree)
    for byte in b"aabbb":
        tree.update(byte)
        assert check_sibling_property(tree)
    for _ in range(25):
        tree = AdaptiveHuffmanTree()
        size = rng.randrange(1, 300)
        for byte in (rng.randrange(256) for _ in range(size)):
            tree.update(byte)
            assert check_sibling_property(tree)


def abcabc_tree() -> AdaptiveHuffmanTree:
    tree = AdaptiveHuffmanTree()
    for byte in b"abcabc":
        tree.update(byte)
    assert check_sibling_property(tree)
    return tree


def test_sibling_property_detects_corruption():
    tree = abcabc_tree()
    tree.weight_at[tree.leaf_at[ord("a")]] += 3
    assert not check_sibling_property(tree)


def test_sibling_property_checks_up():
    tree = abcabc_tree()
    nyt = tree.leaf_at[NYT]
    assert tree.up[nyt] != _TOP_NUMBER
    tree.up[nyt] = _TOP_NUMBER  # the NYT's parent still lists it as a child
    assert not check_sibling_property(tree)

    # the leaf "a" turned into a second parent of the NYT's pair, whose
    # first parent still claims it: weights and every count still add up
    tree = abcabc_tree()
    a = ord("a")
    nyt = tree.leaf_at[NYT]
    assert tree.weight_at[tree.leaf_at[a]] == tree.weight_at[nyt] + tree.weight_at[nyt + 1]
    tree.kid[tree.leaf_at[a]] = nyt
    tree.leaf_at[a] = -1
    assert not check_sibling_property(tree)

    tree = abcabc_tree()
    tree.up[_TOP_NUMBER] = tree.kid[_TOP_NUMBER]  # the root gets a parent
    assert not check_sibling_property(tree)


def test_sibling_property_checks_leaf_at():
    tree = abcabc_tree()
    a, b = ord("a"), ord("b")
    tree.leaf_at[a], tree.leaf_at[b] = tree.leaf_at[b], tree.leaf_at[a]
    assert not check_sibling_property(tree)

    tree = abcabc_tree()
    tree.leaf_at[ord("z")] = tree.leaf_at[ord("a")]  # an unseen byte claims a leaf
    assert not check_sibling_property(tree)

    tree = abcabc_tree()
    b, c = ord("b"), ord("c")
    tree.kid[tree.leaf_at[c]] = ~b  # two leaves hold "b"
    tree.leaf_at[c] = -1
    assert not check_sibling_property(tree)


def test_sibling_property_checks_kid_range():
    tree = abcabc_tree()
    tree.kid[_TOP_NUMBER] = 4 * _TOP_NUMBER  # past the arrays: False, not IndexError
    assert not check_sibling_property(tree)

    tree = abcabc_tree()
    tree.kid[_TOP_NUMBER] = tree.leaf_at[NYT] - 2  # below the allocated numbers
    assert not check_sibling_property(tree)

    tree = abcabc_tree()
    q = tree.up[tree.leaf_at[ord("b")]]
    tree.kid[q] = q ^ 1  # a child pair that holds the node itself
    assert not check_sibling_property(tree)

    tree = abcabc_tree()
    tree.kid[tree.leaf_at[ord("a")]] = ~(NYT + 1)  # a symbol past leaf_at
    assert not check_sibling_property(tree)


def test_sibling_property_checks_every_position_has_a_parent():
    tree = abcabc_tree()
    nyt = tree.leaf_at[NYT]
    parent = tree.up[nyt]
    assert tree.weight_at[parent] > 0
    tree.kid[parent] = ~ord("d")  # the NYT's parent becomes a leaf, orphaning its pair
    tree.leaf_at[ord("d")] = parent
    assert not check_sibling_property(tree)


def assert_matches_reference(data: bytes) -> None:
    """Bisecting and scanning updates build the same tree after every symbol."""
    tree = AdaptiveHuffmanTree()
    reference = ReferenceTree()
    for byte in data:
        tree.update(byte)
        reference_update(reference, byte)
        assert snapshot(tree) == reference.snapshot()


def parent_tops_block(reference: ReferenceTree, byte: int) -> bool:
    """True when the seen ``byte``'s parent leads the leaf's weight block."""
    leaf = reference.leaf_of[byte]
    weight = reference.weight[leaf]
    parent = reference.parent[leaf]
    above = reference.number[parent] + 1
    return reference.weight[parent] == weight and (
        above == len(reference.node_at) or reference.weight[reference.node_at[above]] != weight
    )


def test_update_matches_scanning_reference_on_random_bytes(rng):
    for size in (1, 40, 300, 1500):
        assert_matches_reference(rng.randbytes(size))


def test_update_matches_scanning_reference_on_skewed_bytes(rng):
    for alphabet in (2, 3, 7, 16, 61, 256):
        weights = [1 / (rank + 1) ** 1.2 for rank in range(alphabet)]
        symbols = rng.sample(range(256), alphabet)
        assert_matches_reference(bytes(rng.choices(symbols, weights, k=600)))


def test_update_matches_scanning_reference_on_text():
    assert_matches_reference(english_like(3000, 8))


def test_update_matches_scanning_reference_when_parent_tops_block():
    # after "a" the root's children are NYT (0) and a (1): the root ties
    # with a and leads their block, so the second "a" skips the parent
    reference = ReferenceTree()
    reference_update(reference, ord("a"))
    assert parent_tops_block(reference, ord("a"))
    assert_matches_reference(b"aabbbcab" * 3)


def assert_encodes_like_reference(data: bytes) -> None:
    """The one-walk encoder writes the two-walk encoder's bits, and they decode."""
    bits = encode(data)
    assert bits == reference_encode(data)
    assert decode(bits, len(data)) == data


def test_encode_matches_two_walk_reference_on_random_bytes(rng):
    for size in (1, 40, 300, 1500, 6000):
        assert_encodes_like_reference(rng.randbytes(size))


def test_encode_matches_two_walk_reference_on_skewed_bytes(rng):
    for alphabet in (2, 3, 5, 20):
        weights = [1 / (rank + 1) ** 1.2 for rank in range(alphabet)]
        symbols = rng.sample(range(256), alphabet)
        assert_encodes_like_reference(bytes(rng.choices(symbols, weights, k=1500)))


def test_encode_matches_two_walk_reference_on_text():
    # every symbol young, then one and two mature symbols, and more
    for size in (_MATURE_AT, _MATURE_AT + 1, _MATURE_AT + 2, 6000):
        assert_encodes_like_reference(english_like(size, 8))


def test_encode_matches_two_walk_reference_on_every_literal(rng):
    every = list(range(256))
    assert_encodes_like_reference(bytes(every))
    rng.shuffle(every)
    assert_encodes_like_reference(bytes(every) * 2)


def test_encode_matches_two_walk_reference_when_parent_tops_block():
    assert_encodes_like_reference(b"aabbbcab" * 3)


@settings(max_examples=150)
@given(
    st.lists(st.integers(0, 255), min_size=1, max_size=6, unique=True).flatmap(
        lambda alphabet: st.lists(st.sampled_from(alphabet), max_size=120)
    )
)
def test_encode_matches_two_walk_reference_on_small_alphabets(symbols):
    assert_encodes_like_reference(bytes(symbols))


@st.composite
def shifted_runs(draw) -> bytes:
    """Two seeded skewed runs over two different small alphabets.

    The first run is 1.5 to 2 times ``_MATURE_AT`` bytes, so the encoder
    keeps codes for a while before the alphabet shifts; the second is 1 to
    1.5 times.
    """
    alphabets = st.lists(st.integers(0, 255), min_size=1, max_size=8, unique=True)
    first = draw(alphabets)
    second = draw(alphabets.filter(lambda alphabet: alphabet != first))
    seed = draw(st.integers(0, 2**32 - 1))
    half = _MATURE_AT // 2
    sizes = (draw(st.integers(3 * half, 4 * half)), draw(st.integers(2 * half, 3 * half)))
    return b"".join(skewed(size, bytes(a), seed) for size, a in zip(sizes, (first, second)))


@settings(max_examples=60, deadline=None)
@given(shifted_runs())
def test_encode_matches_two_walk_reference_when_the_alphabet_shifts(data):
    # the second run's symbols overtake the first's, so swaps reach high
    # numbers after a long stretch of kept codes
    assert_encodes_like_reference(data)


def copy_of(tree: AdaptiveHuffmanTree) -> AdaptiveHuffmanTree:
    copy = AdaptiveHuffmanTree()
    for name in AdaptiveHuffmanTree.__slots__:
        setattr(copy, name, getattr(tree, name)[:])
    return copy


def held(tree: AdaptiveHuffmanTree) -> list[int]:
    """What each number holds: ``~symbol`` at a leaf, else the sibling pair of its children.

    The pair, not the 0-child's number: when a swap's two numbers are
    siblings, their parent's 0-child follows the moved node, so the parent
    holds the same pair and its own code does not change.
    """
    return [k if k < 0 else k >> 1 for k in tree.kid]


@pytest.mark.parametrize(
    "data",
    [
        random.Random(1).randbytes(700),
        english_like(2500, 3),
        skewed(1200, b"xyz", 4),
        skewed(600, b"abcdef", 5) + skewed(600, b"uvw", 6),
    ],
    ids=["random", "text", "three-symbols", "shifted"],
)
def test_climb_returns_the_highest_number_it_changed(data):
    tree = AdaptiveHuffmanTree()
    tops = []
    for byte in data:
        q = tree.leaf_at[byte]
        if q == -1:
            q = tree._spawn(byte)
        before = copy_of(tree)
        top = tree._climb(q)
        tops.append(top)
        changed = [n for n, (a, b) in enumerate(zip(held(before), held(tree))) if a != b]
        moved = [n for a, b in zip(before.leaf_at, tree.leaf_at) if a != b for n in (a, b)]
        assert max(changed + moved, default=-1) == top
        # what the encoder's kept codes rest on: every leaf above top keeps its code
        for leaf in before.leaf_at:
            if leaf > top:
                assert path(tree, leaf) == path(before, leaf)
    # both kinds of climb occur: one that swaps and one that does not
    assert -1 in tops and max(tops) > -1


def decode_outcome(decoder, bits: BitString, symbol_count: int):
    """The decoded bytes, or the message of the ``CorruptStreamError`` raised."""
    try:
        return decoder(bits, symbol_count)
    except CorruptStreamError as exc:
        return str(exc)


def assert_decodes_like_reference(bits: BitString, symbol_count: int) -> None:
    """The iterator decoder and the index-based decoder agree, errors included."""
    assert decode_outcome(decode, bits, symbol_count) == decode_outcome(
        reference_decode, bits, symbol_count
    )


def test_decode_matches_index_reference_on_random_bytes(rng):
    for size in (1, 40, 300, 1500, 6000):
        data = rng.randbytes(size)
        assert_decodes_like_reference(encode(data), size)
        assert decode(encode(data), size) == data


def test_decode_matches_index_reference_on_skewed_bytes(rng):
    for alphabet in (2, 3, 5, 20, 61):
        weights = [1 / (rank + 1) ** 1.2 for rank in range(alphabet)]
        symbols = rng.sample(range(256), alphabet)
        data = bytes(rng.choices(symbols, weights, k=1500))
        assert_decodes_like_reference(encode(data), len(data))


def test_decode_matches_index_reference_on_text():
    # T - 1, T and T + 1 symbols, T = _MATURE_AT: the young loop alone for
    # the first two, then one mature symbol; each also read at count -1 and +1
    for size in (_MATURE_AT - 1, _MATURE_AT, _MATURE_AT + 1, 6000):
        data = english_like(size, 8)
        bits = encode(data)
        assert reference_decode(bits, size) == data
        for count in (size - 1, size, size + 1):
            assert_decodes_like_reference(bits, count)


def test_decode_matches_index_reference_on_every_literal(rng):
    every = list(range(256))
    rng.shuffle(every)
    data = bytes(every) * 2
    bits = encode(data)
    assert_decodes_like_reference(bits, len(data))
    # cut inside literals and codes, and append a bit, at several counts
    for cut in (1, 4, 8, 9, 300, len(bits) // 2):
        assert_decodes_like_reference(BitString(bits[:-cut]), len(data))
    assert_decodes_like_reference(BitString(bits + b"\x01"), len(data))
    for count in (0, 1, 255, 256, 257, len(data) - 1, len(data) + 1):
        assert_decodes_like_reference(bits, count)


@settings(max_examples=300)
@given(st.lists(st.integers(0, 1), max_size=400), st.integers(0, 60))
def test_decode_matches_index_reference_on_arbitrary_streams(stream, symbol_count):
    assert_decodes_like_reference(BitString(stream), symbol_count)


@settings(max_examples=300)
@given(
    st.binary(max_size=200),
    st.integers(0, 12),
    st.lists(st.integers(0, 1), max_size=12),
    st.integers(-2, 2),
)
def test_decode_matches_index_reference_on_altered_encodings(data, cut, appended, delta):
    # the encoding truncated by ``cut`` bits, then ``appended`` added, read
    # for a symbol count ``delta`` away from the true one
    stream = encode(data)
    bits = BitString(stream[: len(stream) - cut] + bytes(appended))
    assert_decodes_like_reference(bits, max(0, len(data) + delta))


def tree_after(data: bytes) -> AdaptiveHuffmanTree:
    tree = AdaptiveHuffmanTree()
    for byte in data:
        tree.update(byte)
    return tree


@pytest.mark.parametrize("prefix", [_MATURE_AT - 1, 4200], ids=["first-mature-symbol", "deep"])
def test_decode_restores_the_tie_of_the_nyt_sibling_in_a_mature_tree(prefix):
    # After some text, a byte new to it ("#") comes twice in a row, the
    # second time as the first mature symbol or long after.  Its leaf, the
    # NYT's sibling at nyt + 1, then ties its parent at nyt + 2, which the
    # one-pass loop has already incremented, and another weight-1 leaf lies
    # above, so the update swaps.
    data = english_like(prefix, 1) + b"##" + english_like(300, 9)
    tree = tree_after(data[: prefix + 1])
    leaf = tree.leaf_at[ord("#")]
    assert leaf == tree.leaf_at[NYT] + 1 and tree.up[leaf] == leaf + 1
    assert tree.weight_at[leaf] == tree.weight_at[leaf + 1] == 1
    lead = bisect_left(tree.weight_at, 2, leaf + 2) - 1
    assert lead > leaf + 1 and tree.kid[lead] < 0
    bits = encode(data)
    assert decode(bits, len(data)) == data
    assert_decodes_like_reference(bits, len(data))
    assert decode_outcome(decode, bits, len(data) - 1) == "trailing bits after the final symbol"
    assert decode_outcome(decode, bits, len(data) + 1) == "bit stream ended mid-code"


@pytest.mark.parametrize("young", [_MATURE_AT - 1, _MATURE_AT], ids=["symbol-T", "symbol-T+1"])
def test_decode_reads_a_literal_on_either_side_of_the_switch(young):
    # a byte new to the text, as the last young symbol and as the first mature one
    data = english_like(young, 4) + b"#"
    bits = encode(data)
    assert decode(bits, len(data)) == data
    # the literal cut short, and spelled for a byte that already has a code
    cut = BitString(bits[:-3])
    seen = BitString(bits[:-8])
    append_uint(seen, ord("e"), 8)
    assert decode_outcome(decode, cut, len(data)) == "bit stream ended mid-literal"
    assert decode_outcome(decode, seen, len(data)) == "literal of a byte that already has a code"
    for stream in (bits, cut, seen):
        assert_decodes_like_reference(stream, len(data))


@st.composite
def altered_long_encodings(draw) -> tuple[BitString, int]:
    """An encoding of text of 50 bytes fewer to 200 more than ``_MATURE_AT``, altered at its end.

    The text, then a few arbitrary bytes; then maybe the NYT code and the literal
    of a new byte or of one that already has a code; then cut by up to 12
    bits, extended by up to 12 and read for a symbol count up to 2 away.
    """
    text = english_like(draw(st.integers(_MATURE_AT - 50, _MATURE_AT + 200)), draw(st.integers(0, 3)))
    data = text + draw(st.binary(max_size=30))
    stream = encode(data)
    count = len(data)
    if draw(st.booleans()):
        stream += bytes(nyt_code(tree_after(data)))
        append_uint(stream, draw(st.integers(0, 255)), 8)
        count += 1
    cut = draw(st.integers(0, 12))
    appended = bytes(draw(st.lists(st.integers(0, 1), max_size=12)))
    return BitString(stream[: len(stream) - cut] + appended), count + draw(st.integers(-2, 2))


@settings(max_examples=80, deadline=None)
@given(altered_long_encodings())
def test_decode_matches_index_reference_on_altered_long_encodings(case):
    assert_decodes_like_reference(*case)


def test_each_tree_starts_from_its_own_copy_of_the_initial_arrays():
    initial = {
        "weight_at": [-1] * _TOP_NUMBER + [0, inf],
        "up": [-1] * (_TOP_NUMBER + 1),
        "kid": [0] * _TOP_NUMBER + [~NYT],
        "leaf_at": [-1] * (_TOP_NUMBER // 2) + [_TOP_NUMBER],
    }
    first, second = AdaptiveHuffmanTree(), AdaptiveHuffmanTree()
    lists = [getattr(tree, name) for tree in (first, second) for name in initial]
    lists += [_WEIGHT_AT, _UP, _KID, _LEAF_AT]
    assert len({id(array) for array in lists}) == len(lists)
    for byte in b"mutated":
        first.update(byte)
    data = english_like(_MATURE_AT + 100, 2)
    assert decode(encode(data), len(data)) == data
    for tree in (second, AdaptiveHuffmanTree()):
        assert {name: getattr(tree, name) for name in initial} == initial


def test_a_new_leaf_never_swaps(rng):
    """The invariant the encoder's literal shortcut rests on.

    Right after a spawn the number above the new leaf is the old NYT's, of
    weight 0, and every allocated number above that weighs at least 1, so
    the leaf's leader is its parent and hence the leaf itself: the leaf and
    the old NYT both go from 0 to 1 without a swap.
    """
    tree = AdaptiveHuffmanTree()
    spawns = 0
    for byte in (rng.randrange(256) for _ in range(1500)):
        if not contains(tree, byte):
            spawns += 1
            spawned = AdaptiveHuffmanTree()
            for name in AdaptiveHuffmanTree.__slots__:
                setattr(spawned, name, getattr(tree, name)[:])
            old = spawned._spawn(byte)
            assert old == tree.leaf_at[NYT]
            weight_at = spawned.weight_at
            leaf = spawned.leaf_at[byte]
            assert spawned.up[leaf] == leaf + 1 == old
            assert weight_at[leaf + 1] == 0
            assert all(weight_at[q] >= 1 for q in range(old + 1, _TOP_NUMBER + 1))
            # the leader the update would find for the leaf at weight 0
            assert bisect_left(weight_at, 1, leaf + 2) - 1 == spawned.up[leaf]
        tree.update(byte)
    assert spawns > 200


def test_sibling_property_checks_weight_at_layout():
    tree = AdaptiveHuffmanTree()
    for byte in b"aaab":
        tree.update(byte)
    assert check_sibling_property(tree)
    # renumber the root's children (weights 1 and 3) against their order:
    # every parent still outnumbers its children, but weight_at is unsorted
    q_low, q_high = sorted((tree.kid[_TOP_NUMBER], tree.kid[_TOP_NUMBER] ^ 1))
    low, high = tree.kid[q_low], tree.kid[q_high]
    tree.kid[q_low], tree.kid[q_high] = high, low
    for moved, q in ((low, q_high), (high, q_low)):
        if moved < 0:
            tree.leaf_at[~moved] = q
        else:
            tree.up[moved] = tree.up[moved ^ 1] = q
    tree.kid[_TOP_NUMBER] ^= 1  # each child keeps its code
    tree.weight_at[q_low], tree.weight_at[q_high] = tree.weight_at[q_high], tree.weight_at[q_low]
    assert tree.weight_at[q_low] > tree.weight_at[q_high]
    assert not check_sibling_property(tree)

    tree = AdaptiveHuffmanTree()
    for byte in b"aaab":
        tree.update(byte)
    tree.weight_at[tree.leaf_at[NYT] - 1] = 0  # below the NYT must hold -1
    assert not check_sibling_property(tree)


def test_encoder_decoder_trees_stay_synchronized(rng):
    """Lockstep harness: decode each code with a second tree and compare."""
    for _ in range(10):
        data = bytes(rng.randrange(64) for _ in range(rng.randrange(1, 120)))
        enc_tree = AdaptiveHuffmanTree()
        dec_tree = AdaptiveHuffmanTree()
        for byte in data:
            if contains(enc_tree, byte):
                bits = code_for(enc_tree, byte)
            else:
                bits = nyt_code(enc_tree) + [
                    (byte >> shift) & 1 for shift in range(7, -1, -1)
                ]
            # walk the decoder tree over those bits
            k = dec_tree.kid[_TOP_NUMBER]
            pos = 0
            while k >= 0:
                k = dec_tree.kid[k ^ bits[pos]]
                pos += 1
            if ~k == NYT:
                value = 0
                for _ in range(8):
                    value = (value << 1) | bits[pos]
                    pos += 1
            else:
                value = ~k
            assert pos == len(bits)
            assert value == byte
            enc_tree.update(byte)
            dec_tree.update(byte)
            assert snapshot(enc_tree) == snapshot(dec_tree)


def test_decode_rejects_truncation():
    bits = encode(b"adaptive")  # ends with the NYT code and the literal "e"
    for cut in (1, 5, 8):
        truncated = BitString(bits[:-cut])
        with pytest.raises(CorruptStreamError, match="^bit stream ended mid-literal$"):
            decode(truncated, 8)


def test_decode_names_a_stream_that_ends_mid_code():
    data = b"abcabc"
    start = len(encode(data[:-1]))
    bits = encode(data)
    assert len(bits) - start >= 2  # the last "c" is a code of two bits or more
    with pytest.raises(CorruptStreamError, match="^bit stream ended mid-code$"):
        decode(BitString(bits[: start + 1]), len(data))


def test_decode_rejects_trailing_bits():
    bits = encode(b"adaptive")
    bits.append(0)
    with pytest.raises(CorruptStreamError, match="^trailing bits after the final symbol$"):
        decode(bits, 8)


def test_decode_rejects_wrong_symbol_count():
    bits = encode(b"adaptive")
    with pytest.raises(CorruptStreamError, match="^trailing bits after the final symbol$"):
        decode(bits, 7)
    with pytest.raises(CorruptStreamError, match="^bit stream ended mid-code$"):
        decode(bits, 9)


def test_decode_rejects_bit_starvation_on_literal():
    with pytest.raises(CorruptStreamError, match="^bit stream ended mid-literal$"):
        decode(bits_from01("0110"), 1)


def test_decode_rejects_a_literal_of_a_seen_byte():
    # "aa" encodes as 011000011; spelling the second "a" as the NYT code
    # plus its literal again is not a stream the encoder writes
    with pytest.raises(CorruptStreamError, match="^literal of a byte that already has a code$"):
        decode(bits_from01("01100001" "0" "01100001"), 2)
