"""Adaptive Huffman (FGK) codec over the byte alphabet.

The tree starts as a single zero-weight NYT leaf standing for every symbol
not yet transmitted.  A known symbol emits its current code; an unseen
symbol emits the current NYT code followed by the raw 8-bit literal, MSB
first.  After each symbol both sides run the same update, so encoder and
decoder trees never diverge.

The tree is stored by sibling-property number alone (Knuth 1985; Vitter,
ACM TOMS 15(2), 1989): the root is at 512 and siblings sit at {2k, 2k+1}.
The update walks from the symbol's leaf to the root.  At each number it
first swaps contents (subtree or symbol, and the equal weight) with the
highest number of equal weight (the block leader, never the parent), then
increments the weight.  When the two are siblings, the parent's 0-child
becomes the leader's number, where the moved node now sits.  Weights are
non-decreasing by number, so the leader is found by bisecting
``weight_at``, and only when the next number holds the same weight.

``_climb`` runs this update and is the one place the leader rule is
written.  Below the first number whose next number holds the same weight,
each number is its own leader and the update only climbs the code path, so
the encoder walks each symbol once, reading the code bit and incrementing
at each number.  At that first number nothing above has moved: it reads the
rest of the code there and hands the number to ``_climb``, which finishes
the update.

Only a swap changes a code, so the encoder keeps the code it spells for a
symbol whose update did not climb, by the leaf's number, and sends it again
unspelled (still running the update) until a swap may have changed it.  A
swap with leader L changes codes only at numbers <= L: both moved subtrees
lie at or below L, as descendants are numbered below their ancestors, and
the parent's 0-child fix-up flips only the codes of the two swapped
numbers when they are siblings.  Increments change no code, and a spawn
splits only the NYT, whose code is never kept.  ``_climb`` returns its last
(highest) leader, and the encoder drops the kept codes up to it.

Both directions read symbols before index ``_MATURE_AT`` as young and the
rest as mature.  A young tree swaps often: 44% of the symbols of 16 B -
1 KiB messages of text reach ``_climb``, against 2.3% of 64 KiB of text.
So a kept code seldom pays there, and the encoder keeps codes only for
mature symbols.  The decoder reads a young symbol in two walks: a bare
descent to the leaf, then the update from the leaf, inlined up to the
hand-off to ``_climb``.  The first symbol is read there too; the root is
still the NYT leaf, so it is a literal with no code.

A mature symbol is read in one flat loop over the bits that descends and
updates at once: the root is incremented as a symbol starts, and each
number stepped to is checked for a tie with its next number and
incremented at once.  Every tie is read on the weights from before the
symbol, as the bottom-up walk reads them, with one exception.  The numbers
already incremented are ancestors, and an ancestor can be the next number
and weigh the same only when it is the parent and the sibling is the
zero-weight NYT: the NYT's sibling at ``nyt + 1`` under a parent at
``nyt + 2`` always ties, and one test per symbol restores that tie.  At the
leaf, if some number tied, the increments from the lowest tie up to the
root are undone and the tie is handed to ``_climb``, which leaves the tree
the bottom-up walk would.  A young tree pays that undo on most symbols,
hence the two walks: against the one-pass loop alone, they decode text of
64 B - 1 KiB in 78-87% of the time, and cost nothing measurable at 64 KiB.
Both loops decode any tree whose root is not a leaf, so ``_MATURE_AT``
moves only the time, never the bits.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import product
from math import inf

from .bits import BitString
from .errors import CorruptStreamError, ParameterError

ALPHABET_SIZE = 256
NYT = ALPHABET_SIZE  # the symbol of the not-yet-transmitted leaf
# At most 257 leaves, hence 2*257 - 1 numbers.  The root keeps the top one;
# each NYT spawn claims the two numbers directly below the old NYT's.
_TOP_NUMBER = 2 * ALPHABET_SIZE
# The index of the first mature symbol (see the module docstring), at
# least 1 as the mature loop needs a root that is not a leaf.  Of 256, 512,
# 1024, 2048 and 4096, 1024 decoded text of 64 B - 4 KiB fastest.
_MATURE_AT = 1024
# each byte's 8-bit literal as 0/1 values, least significant bit first
# (product counts up from 00000000, so the index is the byte)
_LITERAL_REVERSED = [bytes(bits[::-1]) for bits in product((0, 1), repeat=8)]
# a new tree's four arrays, copied by each tree rather than built again
_WEIGHT_AT = [-1] * _TOP_NUMBER + [0, inf]
_UP = [-1] * (_TOP_NUMBER + 1)
_KID = [0] * _TOP_NUMBER + [~NYT]
_LEAF_AT = [-1] * ALPHABET_SIZE + [_TOP_NUMBER]


class AdaptiveHuffmanTree:
    """Mutable FGK tree state, identical on the encoding and decoding side.

    Four arrays indexed by number: ``weight_at[q]`` is the weight, ``up[q]``
    the parent's number (-1 at the root), ``kid[q]`` the 0-child's number
    (the 1-child is at ``kid[q] ^ 1``) or ``~symbol`` at a leaf, and
    ``leaf_at[s]`` the number of symbol ``s``'s leaf (-1 while unseen; the
    NYT is at ``leaf_at[NYT]``).  Numbers below the NYT's hold weight -1 and
    an infinite sentinel sits above the root, so ``weight_at`` is sorted.
    """

    __slots__ = ("weight_at", "up", "kid", "leaf_at")

    def __init__(self):
        self.weight_at = _WEIGHT_AT.copy()
        self.up = _UP.copy()
        self.kid = _KID.copy()
        self.leaf_at = _LEAF_AT.copy()

    def _spawn(self, byte: int) -> int:
        """The NYT becomes the parent of a new NYT (0-child) and the byte's leaf.

        The leaf weighs 1 at once, as its increment never swaps (above it sit
        the old NYT's 0, then weights of at least 1); returns the old NYT's
        number, where the update goes on.
        """
        old = self.leaf_at[NYT]
        nyt = old - 2
        self.weight_at[nyt:old] = (0, 1)
        self.up[nyt:old] = (old, old)
        self.kid[nyt : old + 1] = (~NYT, ~byte, nyt)
        self.leaf_at[NYT] = nyt
        self.leaf_at[byte] = nyt + 1
        return old

    def update(self, byte: int) -> None:
        """Account for one occurrence of ``byte``, preserving the sibling property."""
        q = self.leaf_at[byte]
        self._climb(self._spawn(byte) if q == -1 else q)

    def _climb(self, q: int) -> int:
        """Run the update from number ``q`` to the root.

        At each number whose next number holds the same weight, the leader is
        the highest number of that weight, or the one below it if that is the
        parent; a leader other than ``q`` swaps contents with it, and the
        climb goes on from the leader's number.  Then the weight there, still
        the same as a swap moves an equal weight, is incremented.

        Returns the last swap's leader, the highest number whose contents
        changed as the climb only goes up, or -1 when nothing swapped.
        """
        # hottest loop in the codec: arrays bound to locals
        weight_at = self.weight_at
        up = self.up
        kid = self.kid
        leaf_at = self.leaf_at
        top = -1
        while q != _TOP_NUMBER:
            w = weight_at[q]
            if weight_at[q + 1] == w:
                p = up[q]
                lead = bisect_left(weight_at, w + 1, q + 2) - 1
                if lead == p:
                    lead -= 1
                if lead != q:
                    a, b = kid[q], kid[lead]
                    kid[q], kid[lead] = b, a
                    if a < 0:
                        leaf_at[~a] = lead
                    else:
                        up[a] = up[a ^ 1] = lead
                    if b < 0:
                        leaf_at[~b] = q
                    else:
                        up[b] = up[b ^ 1] = q
                    if up[lead] == p:
                        # siblings: the moved node is the 0-child
                        kid[p] = lead
                    q = top = lead
            weight_at[q] = w + 1
            q = up[q]
        # the root never ties: the infinite sentinel sits above it
        weight_at[q] += 1
        return top


def encode(data: bytes) -> BitString:
    """Compress a byte sequence to a bit string (no terminator in-band)."""
    tree = AdaptiveHuffmanTree()
    out = BitString()
    emit = out.extend
    # arrays bound to locals (they are only ever mutated in place); each
    # code is collected leaf-to-root into one reused buffer and reversed
    weight_at = tree.weight_at
    up = tree.up
    kid = tree.kid
    leaf_at = tree.leaf_at
    climb = tree._climb
    path = bytearray()
    step = path.append
    # code_at[n]: the code of the leaf at number n, spelled in an update
    # that did not climb and kept until a swap with a leader at n or above;
    # no slot below low holds one
    code_at = [None] * (_TOP_NUMBER + 2)
    low = _TOP_NUMBER + 1
    # the young symbols keep no code (no leaf number reaches keep); the
    # mature ones keep every code they may
    for keep, part in ((_TOP_NUMBER + 1, data[:_MATURE_AT]), (0, data[_MATURE_AT:])):
        for byte in part:
            leaf = q = leaf_at[byte]
            if q == -1:
                # the literal goes in first, reversed, so it follows the code
                path += _LITERAL_REVERSED[byte]
                q = tree._spawn(byte)
            elif (code := code_at[q]) is not None:
                emit(code)
                # the update alone, up to the same hand-off as below
                while q != _TOP_NUMBER:
                    w = weight_at[q]
                    if weight_at[q + 1] == w:
                        top = climb(q)
                        if top >= low:
                            code_at[low : top + 1] = [None] * (top + 1 - low)
                            low = top + 1
                        break
                    weight_at[q] = w + 1
                    q = up[q]
                else:
                    weight_at[q] += 1
                continue
            # one walk: each number's code bit and increment, up to the first
            # number whose next number holds the same weight
            while q != _TOP_NUMBER:
                w = weight_at[q]
                p = up[q]
                if weight_at[q + 1] == w:
                    # nothing above q has moved yet: finish the code, then climb
                    r, s = q, p
                    while s != -1:
                        step(r ^ kid[s])
                        r = s
                        s = up[r]
                    top = climb(q)
                    if top >= low:
                        code_at[low : top + 1] = [None] * (top + 1 - low)
                        low = top + 1
                    leaf = -1  # a swap may have moved it: keep no code
                    break
                step(q ^ kid[p])
                weight_at[q] = w + 1
                q = p
            else:
                weight_at[q] += 1
            path.reverse()
            if leaf >= keep:
                code_at[leaf] = bytes(path)
                if leaf < low:
                    low = leaf
            emit(path)
            path.clear()
    return out


def _literal(it) -> int:
    """Read an 8-bit literal, MSB first, from the bit iterator ``it``."""
    try:
        return (
            next(it) << 7 | next(it) << 6 | next(it) << 5 | next(it) << 4
            | next(it) << 3 | next(it) << 2 | next(it) << 1 | next(it)
        )
    except StopIteration:
        raise CorruptStreamError("bit stream ended mid-literal") from None


def decode(bits: BitString, symbol_count: int) -> bytes:
    """Exact inverse of :func:`encode`; consumes every bit of ``bits``."""
    if symbol_count < 0:
        raise ParameterError(f"symbol count must be at least 0, got {symbol_count}")
    tree = AdaptiveHuffmanTree()
    weight_at = tree.weight_at
    up = tree.up
    kid = tree.kid
    leaf_at = tree.leaf_at
    climb = tree._climb
    out = bytearray()
    # one iterator over the bits, shared by every code and literal
    it = iter(bits)
    young = min(symbol_count, _MATURE_AT)
    for _ in range(young):
        # a bare descent to the leaf, then the update from it
        k = kid[_TOP_NUMBER]
        if k >= 0:  # the root is a leaf only before the first symbol
            for bit in it:
                k = kid[k ^ bit]
                if k < 0:
                    break
            else:
                raise CorruptStreamError("bit stream ended mid-code")
        byte = ~k
        if byte == NYT:
            byte = _literal(it)
            if leaf_at[byte] != -1:
                raise CorruptStreamError("literal of a byte that already has a code")
            q = tree._spawn(byte)
        else:
            q = leaf_at[byte]
        out.append(byte)
        # the update, inlined up to the hand-off; the root never ties
        while q != _TOP_NUMBER:
            w = weight_at[q]
            if weight_at[q + 1] == w:
                climb(q)
                break
            weight_at[q] = w + 1
            q = up[q]
        else:
            weight_at[q] += 1
    left = symbol_count - young
    if left > 0:
        # one pass per symbol: each number stepped to is checked for a tie
        # on the weights from before the symbol and incremented at once; the
        # root is incremented before each descent
        weight_at[_TOP_NUMBER] += 1
        k = kid[_TOP_NUMBER]
        tie = -1
        for bit in it:
            q = k ^ bit
            w = weight_at[q]
            if weight_at[q + 1] == w:
                tie = q  # the lowest tie yet, as numbers fall on the way down
            weight_at[q] = w + 1
            k = kid[q]
            if k >= 0:
                continue
            byte = ~k
            if byte == NYT:
                byte = _literal(it)
                if leaf_at[byte] != -1:
                    raise CorruptStreamError("literal of a byte that already has a code")
                tree._spawn(byte)  # the old NYT's number, q, is already incremented
            elif q == leaf_at[NYT] + 1 and up[q] == q + 1:
                # the NYT's sibling ties its parent, which was incremented a
                # step ago
                tie = q
            out.append(byte)
            if tie != -1:
                # undo the increments from the tie up, then climb from it
                r = tie
                while r != -1:
                    weight_at[r] -= 1
                    r = up[r]
                climb(tie)
                tie = -1
            left -= 1
            if not left:
                break
            weight_at[_TOP_NUMBER] += 1
            k = kid[_TOP_NUMBER]
        else:
            raise CorruptStreamError("bit stream ended mid-code")
    if next(it, None) is not None:
        raise CorruptStreamError("trailing bits after the final symbol")
    return bytes(out)
