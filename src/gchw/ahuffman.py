"""One-pass adaptive Huffman (FGK) codec over the byte alphabet.

The tree starts as a single zero-weight NYT leaf standing for every symbol
not yet transmitted.  A known symbol emits its current code (left edge = 0,
right edge = 1); an unseen symbol emits the current NYT code followed by
the raw 8-bit literal, MSB first.  After each symbol both sides run the
same update procedure, so encoder and decoder trees never diverge.

The update walks from the symbol's leaf to the root.  At each node it first
swaps the node with the highest-numbered node of equal weight (the block
leader, never the node's own parent), then increments the node's weight.
The sibling property keeps weights non-decreasing by number, so weights are
stored by number (``weight_at``) and the leader is found by bisecting that
array for the first number of a larger weight.  A node whose next number
holds a larger weight leads its own block and needs no search; on text that
is almost every node.
"""

from __future__ import annotations

from bisect import bisect_left
from math import inf

from .bits import _FROM_ASCII, _TO_ASCII, BitString
from .errors import CorruptStreamError

ALPHABET_SIZE = 256
# The byte alphabet plus NYT gives at most 257 leaves, hence 2*257 - 1
# nodes.  The root keeps the top number; each NYT spawn claims the two
# numbers directly below the old NYT's.
_TOP_NUMBER = 2 * (ALPHABET_SIZE + 1) - 1


class AdaptiveHuffmanTree:
    """Mutable FGK tree state, identical on the encoding and decoding side.

    Nodes live in parallel arrays indexed by allocation order; ``node_at``
    maps a sibling-property number back to its node and ``weight_at`` holds
    the weight at each number.  Numbers below the NYT's hold -1 and one
    infinite sentinel sits above the root, so ``weight_at`` is sorted end to
    end.  The NYT leaf is the node whose id equals ``nyt``.
    """

    __slots__ = (
        "weight_at",
        "parent",
        "left",
        "right",
        "symbol",
        "number",
        "node_at",
        "leaf_of",
        "root",
        "nyt",
    )

    def __init__(self):
        self.weight_at = [-1] * _TOP_NUMBER + [0, inf]
        self.parent = [-1]
        self.left = [-1]
        self.right = [-1]
        self.symbol = [-1]
        self.number = [_TOP_NUMBER]
        self.node_at = [-1] * (_TOP_NUMBER + 1)
        self.node_at[_TOP_NUMBER] = 0
        self.leaf_of = [-1] * ALPHABET_SIZE
        self.root = 0
        self.nyt = 0

    def _spawn(self, byte: int) -> int:
        """NYT gives birth: new NYT on the left, the symbol leaf on the right.

        The new NYT takes the lower of the two freed numbers; the old NYT
        becomes an internal node and keeps its own number.
        """
        old = self.nyt
        base = self.number[old]
        nyt = len(self.parent)
        leaf = nyt + 1
        self.weight_at[base - 2] = self.weight_at[base - 1] = 0
        self.parent.extend((old, old))
        self.left.extend((-1, -1))
        self.right.extend((-1, -1))
        self.symbol.extend((-1, byte))
        self.number.extend((base - 2, base - 1))
        self.node_at[base - 2] = nyt
        self.node_at[base - 1] = leaf
        self.left[old] = nyt
        self.right[old] = leaf
        self.nyt = nyt
        self.leaf_of[byte] = leaf
        return leaf

    def update(self, byte: int) -> None:
        """Account for one occurrence of ``byte``, preserving the sibling property."""
        node = self.leaf_of[byte]
        if node == -1:
            node = self._spawn(byte)
        # hottest loop in the codec: arrays bound to locals, swap inlined
        weight_at = self.weight_at
        parent = self.parent
        left = self.left
        right = self.right
        number = self.number
        node_at = self.node_at
        while node != -1:
            q = number[node]
            w = weight_at[q]
            parent_node = parent[node]
            if weight_at[q + 1] == w:
                # the block leader holds the last number of weight w
                lead = bisect_left(weight_at, w + 1, q + 2) - 1
                leader = node_at[lead]
                if leader == parent_node:
                    # the parent is never a swap target; take the next candidate
                    lead -= 1
                    leader = node_at[lead]
                if leader != node:
                    pb = parent[leader]
                    if left[parent_node] == node:
                        left[parent_node] = leader
                    else:
                        right[parent_node] = leader
                    if left[pb] == leader:
                        left[pb] = node
                    else:
                        right[pb] = node
                    parent[leader] = parent_node
                    parent[node] = pb
                    number[leader] = q
                    number[node] = lead
                    node_at[q] = leader
                    node_at[lead] = node
                    parent_node = pb
                    q = lead
            # the swap moved an equal weight, so w still sits at q
            weight_at[q] = w + 1
            node = parent_node

    def snapshot(self):
        """Canonical nested-tuple rendering, for structural comparison."""

        def walk(node):
            q = self.number[node]
            if self.left[node] == -1:
                label = "NYT" if node == self.nyt else self.symbol[node]
                return (q, self.weight_at[q], label)
            return (
                q,
                self.weight_at[q],
                walk(self.left[node]),
                walk(self.right[node]),
            )

        return walk(self.root)


def check_sibling_property(tree: AdaptiveHuffmanTree) -> bool:
    """True iff the tree satisfies the FGK structural invariants.

    Checks: exactly one zero-weight NYT leaf, internal weights equal the sum
    of their children, child numbers below parent numbers, ``weight_at``
    non-decreasing over the allocated numbers, and -1 below the NYT's.
    """
    weight = [tree.weight_at[q] for q in tree.number]
    if tree.left[tree.nyt] != -1 or weight[tree.nyt] != 0:
        return False
    for i in range(len(weight)):
        is_leaf = tree.left[i] == -1
        if is_leaf != (tree.right[i] == -1):
            return False
        if is_leaf:
            if i != tree.nyt and weight[i] == 0:
                return False
        else:
            if weight[i] != weight[tree.left[i]] + weight[tree.right[i]]:
                return False
            if (
                tree.number[tree.left[i]] >= tree.number[i]
                or tree.number[tree.right[i]] >= tree.number[i]
            ):
                return False
    low = tree.number[tree.nyt]
    if any(w != -1 for w in tree.weight_at[:low]):
        return False
    allocated = tree.weight_at[low : _TOP_NUMBER + 1]
    return all(a <= b for a, b in zip(allocated, allocated[1:]))


def encode(data: bytes) -> BitString:
    """Compress a byte sequence to a bit string (no terminator in-band)."""
    tree = AdaptiveHuffmanTree()
    out = BitString()
    emit = out.bits.extend
    # arrays bound to locals (they are only ever mutated in place); each
    # code is walked leaf-to-root inline and reversed into one reused
    # buffer, so no per-symbol object outlives its symbol
    parent = tree.parent
    left = tree.left
    leaf_of = tree.leaf_of
    update = tree.update
    path = bytearray()
    step = path.append
    for byte in data:
        leaf = leaf_of[byte]
        node = tree.nyt if leaf == -1 else leaf
        p = parent[node]
        while p != -1:
            step(left[p] != node)
            node = p
            p = parent[node]
        path.reverse()
        emit(path)
        path.clear()
        if leaf == -1:
            emit(format(byte, "08b").encode().translate(_FROM_ASCII))
        update(byte)
    return out


def decode(bits: BitString, symbol_count: int) -> bytes:
    """Exact inverse of :func:`encode`; consumes every bit of ``bits``."""
    tree = AdaptiveHuffmanTree()
    left = tree.left
    right = tree.right
    symbol = tree.symbol
    update = tree.update
    root = tree.root
    out = bytearray()
    stream = bits.bits
    total = len(stream)
    pos = 0
    for _ in range(symbol_count):
        node = root
        try:
            while left[node] != -1:
                node = right[node] if stream[pos] else left[node]
                pos += 1
        except IndexError:
            raise CorruptStreamError("bit stream ended mid-code") from None
        if node == tree.nyt:
            if pos + 8 > total:
                raise CorruptStreamError("bit stream ended mid-literal")
            byte = int(stream[pos : pos + 8].translate(_TO_ASCII), 2)
            pos += 8
        else:
            byte = symbol[node]
        out.append(byte)
        update(byte)
    if pos != total:
        raise CorruptStreamError("trailing bits after the final symbol")
    return bytes(out)
