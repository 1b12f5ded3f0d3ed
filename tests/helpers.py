"""Test-only helpers over library objects: FGK code paths, snapshots and invariant checker, reference update, encoder and decoder, reference key derivation, 0/1 bit strings, matrix arithmetic, the exact determinant and adjugate, and the inverses and rational views of the key pipeline that the library itself never builds."""

from bisect import bisect_left
from fractions import Fraction
from types import SimpleNamespace

from gchw.ahuffman import _TOP_NUMBER, ALPHABET_SIZE, NYT, AdaptiveHuffmanTree
from gchw.bits import _TO_ASCII, BitString
from gchw.errors import CorruptStreamError, KeyDerivationError, ParameterError, ShapeError
from gchw.keyschedule import MAX_ATTEMPTS, MODULUS, _randomization_stream, golden_base, pad_to_z
from gchw.matrix import SquareMatrix
from gchw.recurrence import MAX_INDEX, RecurrenceKind, _term, golden_matrix
from gchw.wavelet import _check_transform_args, haar2d_forward


def contains(tree, byte: int) -> bool:
    return tree.leaf_at[byte] != -1


def path(tree, q: int) -> list[int]:
    """Root-to-position bits of an FGK tree position (0 = the 0-child, 1 = its sibling)."""
    bits = []
    parent = tree.up[q]
    while parent != -1:
        bits.append(q ^ tree.kid[parent])
        q = parent
        parent = tree.up[q]
    bits.reverse()
    return bits


def code_for(tree, byte: int) -> list[int]:
    """Current code of a previously seen symbol."""
    return path(tree, tree.leaf_at[byte])


def nyt_code(tree) -> list[int]:
    return path(tree, tree.leaf_at[NYT])


def snapshot(tree):
    """Canonical nested-tuple rendering of an FGK tree, for structural comparison."""

    def walk(q):
        k = tree.kid[q]
        if k < 0:
            return (q, tree.weight_at[q], "NYT" if k == ~NYT else ~k)
        return (q, tree.weight_at[q], walk(k), walk(k ^ 1))

    return walk(_TOP_NUMBER)


def check_sibling_property(tree: AdaptiveHuffmanTree) -> bool:
    """True iff the tree satisfies the FGK structural invariants.

    Checks: exactly one zero-weight NYT leaf, nonzero weight at every other
    leaf, internal weights equal the sum of their children, children below
    their parent, ``up`` and ``leaf_at`` agreeing with ``kid``, every
    number but the root's having a parent, ``weight_at`` non-decreasing
    over the allocated numbers, and -1 below the NYT's.

    The oracle of criterion 3's traced updates and of the sibling-property
    tests in ``test_ahuffman.py``, which also feed it corrupted trees.
    """
    weight_at, up, kid, leaf_at = tree.weight_at, tree.up, tree.kid, tree.leaf_at
    low = leaf_at[NYT]
    if not 0 <= low <= _TOP_NUMBER or kid[low] != ~NYT or weight_at[low] != 0:
        return False
    leaves = 0
    for q in range(low, _TOP_NUMBER + 1):
        k = kid[q]
        if k < 0:
            leaves += 1
            if k < ~NYT or leaf_at[~k] != q or (k != ~NYT and weight_at[q] == 0):
                return False
        elif k | 1 >= q or up[k] != q or up[k ^ 1] != q:
            return False
        elif weight_at[q] != weight_at[k] + weight_at[k ^ 1]:
            return False
    # each internal number claims its own pair below it, so with one leaf
    # more than internal numbers every number but the root's has a parent;
    # with as many leaf_at entries set as leaves, none points elsewhere
    internal = _TOP_NUMBER + 1 - low - leaves
    if up[_TOP_NUMBER] != -1 or leaves != internal + 1:
        return False
    if leaves != len(leaf_at) - leaf_at.count(-1) or any(w != -1 for w in weight_at[:low]):
        return False
    allocated = weight_at[low : _TOP_NUMBER + 1]
    return all(a <= b for a, b in zip(allocated, allocated[1:]))


class ReferenceTree:
    """FGK tree with per-node weights, for :func:`reference_update`.

    It keeps the library tree's numbering and the format of :func:`snapshot`, so
    the two trees can be compared after every symbol.
    """

    def __init__(self):
        self.weight = [0]
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

    def snapshot(self):
        def walk(node):
            if self.left[node] == -1:
                label = "NYT" if node == self.nyt else self.symbol[node]
                return (self.number[node], self.weight[node], label)
            return (
                self.number[node],
                self.weight[node],
                walk(self.left[node]),
                walk(self.right[node]),
            )

        return walk(self.root)


def reference_update(tree: ReferenceTree, byte: int) -> None:
    """The FGK update that finds each block leader by scanning upward.

    An independent oracle for ``AdaptiveHuffmanTree.update``: one number
    at a time, it walks up while the next number holds the same weight.
    """
    node = tree.leaf_of[byte]
    if node == -1:
        # NYT gives birth: new NYT on the left, the symbol leaf on the right
        old = tree.nyt
        base = tree.number[old]
        nyt = len(tree.weight)
        node = nyt + 1
        tree.weight.extend((0, 0))
        tree.parent.extend((old, old))
        tree.left.extend((-1, -1))
        tree.right.extend((-1, -1))
        tree.symbol.extend((-1, byte))
        tree.number.extend((base - 2, base - 1))
        tree.node_at[base - 2] = nyt
        tree.node_at[base - 1] = node
        tree.left[old] = nyt
        tree.right[old] = node
        tree.nyt = nyt
        tree.leaf_of[byte] = node
    weight = tree.weight
    parent = tree.parent
    left = tree.left
    right = tree.right
    number = tree.number
    node_at = tree.node_at
    while node != -1:
        w = weight[node]
        q = number[node]
        while q < _TOP_NUMBER:
            above = node_at[q + 1]
            if above == -1 or weight[above] != w:
                break
            q += 1
        leader = node_at[q]
        parent_node = parent[node]
        if leader == parent_node:
            # the parent is never a swap target; take the next candidate
            leader = node_at[q - 1]
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
            parent[node] = pb
            parent[leader] = parent_node
            na = number[node]
            nb = number[leader]
            number[node] = nb
            number[leader] = na
            node_at[na] = leader
            node_at[nb] = node
            weight[node] = w + 1
            node = pb
        else:
            weight[node] = w + 1
            node = parent_node


def reference_encode(data: bytes) -> BitString:
    """The two-walk FGK encoder, an oracle for ``ahuffman.encode``.

    For each symbol it reads the whole code from leaf to root (the NYT's
    code and the 8-bit literal, MSB first, for an unseen byte), and only
    then runs :func:`reference_update`.
    """
    tree = ReferenceTree()
    out = BitString()
    for byte in data:
        node = tree.leaf_of[byte]
        code = []
        at = tree.nyt if node == -1 else node
        while tree.parent[at] != -1:
            code.append(0 if tree.left[tree.parent[at]] == at else 1)
            at = tree.parent[at]
        code.reverse()
        if node == -1:
            code += [(byte >> shift) & 1 for shift in range(7, -1, -1)]
        out.extend(code)
        reference_update(tree, byte)
    return out


def reference_decode(bits: BitString, symbol_count: int) -> bytes:
    """The index-based FGK decoder, an oracle for ``ahuffman.decode``.

    It reads each bit as ``stream[pos]`` and each literal as an 8-bit slice,
    checks the bit count against the position after the last symbol, and
    climbs through the root in the inlined update.  It raises the same
    ``CorruptStreamError`` messages as the library decoder.
    """
    tree = AdaptiveHuffmanTree()
    weight_at = tree.weight_at
    up = tree.up
    kid = tree.kid
    leaf_at = tree.leaf_at
    out = bytearray()
    stream = bits
    total = len(stream)
    pos = 0
    for _ in range(symbol_count):
        k = kid[_TOP_NUMBER]
        try:
            while k >= 0:
                k = kid[k ^ stream[pos]]
                pos += 1
        except IndexError:
            raise CorruptStreamError("bit stream ended mid-code") from None
        byte = ~k
        if byte == NYT:
            if pos + 8 > total:
                raise CorruptStreamError("bit stream ended mid-literal")
            byte = int(stream[pos : pos + 8].translate(_TO_ASCII), 2)
            pos += 8
            if leaf_at[byte] != -1:
                raise CorruptStreamError("literal of a byte that already has a code")
            q = tree._spawn(byte)
        else:
            q = leaf_at[byte]
        out.append(byte)
        while q != -1:
            w = weight_at[q]
            if weight_at[q + 1] == w:
                p = up[q]
                lead = bisect_left(weight_at, w + 1, q + 2) - 1
                if lead == p:
                    lead -= 1
                if lead != q:
                    tree._climb(q)
                    break
            weight_at[q] = w + 1
            q = up[q]
    if pos != total:
        raise CorruptStreamError("trailing bits after the final symbol")
    return bytes(out)


def bits_from01(text: str) -> BitString:
    if set(text) - {"0", "1"}:
        raise ParameterError("bit string may only contain 0 and 1")
    return BitString(int(c) for c in text)


def append_uint(bits: BitString, value: int, width: int) -> None:
    """Append ``value`` as ``width`` bits, most significant bit first."""
    for shift in range(width - 1, -1, -1):
        bits.append((value >> shift) & 1)


def dyadic_exponent(m: SquareMatrix) -> int:
    """Smallest e such that 2**e times every entry is an integer.

    Raises ValueError if some entry has a denominator that is not a power of two.
    """
    worst = 0
    for row in m.rows:
        for x in row:
            den = getattr(x, "denominator", 1)
            if den & (den - 1):
                raise ValueError(f"entry {x!r} is not a dyadic rational")
            worst = max(worst, den.bit_length() - 1)
    return worst


def matrix_add(a: SquareMatrix, b: SquareMatrix) -> SquareMatrix:
    if a.order != b.order:
        raise ShapeError("orders differ")
    return SquareMatrix([[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a.rows, b.rows)])


def zeros(order: int) -> SquareMatrix:
    return SquareMatrix([[0] * order for _ in range(order)])


def scale(k, m: SquareMatrix) -> SquareMatrix:
    """The scalar multiple k * m."""
    return SquareMatrix([[k * x for x in row] for row in m.rows])


def det_adjugate(rows) -> tuple[int, tuple[tuple[int, ...], ...] | None]:
    """Determinant and adjugate of an integer matrix, ``a @ adj == det * I``.

    Fraction-free (Bareiss) Gauss-Jordan elimination on ``[a | I]``: every
    division is exact by Sylvester's identity, so all intermediates stay
    integers no larger than a minor of ``[a | I]``.  Once column k is
    eliminated, the pivot is the leading (k+1) x (k+1) minor of the
    row-swapped matrix, so the last pivot is det(a) up to the sign of the
    swaps and the right half is that pivot times a^-1.  Returns
    ``(0, None)`` for a singular matrix.

    The library never computes an exact determinant; this is the oracle of
    the exactness checks in ``test_keyschedule.py``, of the inverse mod p
    in ``test_matrix.py`` and ``reference_derive``, and of the adjugate
    reference for ``decrypt_block`` in ``test_blockcipher.py``.
    """
    n = len(rows)
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    sign, prev = 1, 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if m[r][k]), None)
        if pivot is None:
            return 0, None
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        pk = m[k][k]
        # columns <= k are left stale because they are never read again: the
        # left block ends as det * I and column k of the other rows becomes 0
        tail = m[k][k + 1 :]
        for i in range(n):
            if i != k:
                row = m[i]
                f = row[k]
                row[k + 1 :] = [(pk * x - f * y) // prev for x, y in zip(row[k + 1 :], tail)]
        prev = pk
    return sign * prev, tuple(tuple(sign * x for x in row[n:]) for row in m)


def reference_haar2d_forward(m: SquareMatrix, levels: int) -> SquareMatrix:
    """The 2-D Haar transform by rational lifting, an oracle for ``haar2d_forward``.

    Every halving makes a ``Fraction``; rows of the active sub-square
    first, then its columns, level by level.
    """
    grid = [list(row) for row in m.rows]
    side = m.order
    for _ in range(levels):
        for r in range(side):
            grid[r][:side] = reference_lift(grid[r][:side])
        for c in range(side):
            for r, value in enumerate(reference_lift([grid[r][c] for r in range(side)])):
                grid[r][c] = value
        side //= 2
    return SquareMatrix(grid)


def reference_lift(signal) -> list:
    """One forward lifting step in rationals: approx, then detail, in one list.

    The oracle of ``reference_haar2d_forward`` and of the lifting examples
    in ``test_wavelet.py``; ``lift_inverse_1d`` undoes it.
    """
    approx = [even + Fraction(odd - even, 2) for even, odd in zip(signal[0::2], signal[1::2])]
    return approx + [odd - even for even, odd in zip(signal[0::2], signal[1::2])]


def lift_inverse_1d(approx, detail) -> list:
    """Exact inverse of one forward lifting step, given its approx and detail halves."""
    if len(approx) != len(detail) or not approx:
        raise ShapeError("approx and detail must have equal nonzero lengths")
    signal = []
    for a, d in zip(approx, detail):
        even = a - Fraction(d, 2)
        signal.append(even)
        signal.append(d + even)
    return signal


def haar2d_inverse(m: SquareMatrix, levels: int) -> SquareMatrix:
    """Exact inverse of ``haar2d_forward`` (columns first, then rows).

    The oracle of criterion 5 (perfect reconstruction) and of the
    reconstruction tests in ``test_wavelet.py``.  Decryption multiplies by
    E^-1 mod p, so the library never inverts the transform.
    """
    _check_transform_args(m.order, levels)
    grid = [list(row) for row in m.rows]
    for level in range(levels, 0, -1):
        side = m.order >> (level - 1)
        half = side // 2
        for c in range(side):
            column = [grid[r][c] for r in range(side)]
            for r, value in enumerate(lift_inverse_1d(column[:half], column[half:])):
                grid[r][c] = value
        for r in range(side):
            row = grid[r][:side]
            grid[r][:side] = lift_inverse_1d(row[:half], row[half:])
    return SquareMatrix(grid)


def sequence_term(kind: RecurrenceKind, index: int) -> int:
    """The index-th term of the chosen sequence (negative indices allowed).

    The oracle of the sequence tests in ``test_recurrence.py``; the library
    reads terms only through ``golden_matrix``.
    """
    if abs(index) > MAX_INDEX:
        raise ParameterError(f"|index| must be at most {MAX_INDEX}, got {index}")
    return _term(kind, index)


def golden_inverse(kind: RecurrenceKind, n: int) -> SquareMatrix:
    """Exact inverse of the golden matrix, by adjugate over determinant.

    The determinant is +/-1, +/-5, or +/-20 depending on the kind, never
    zero, so the inverse always exists.  The oracle of criterion 4 and of
    the inverse tests in ``test_recurrence.py``.
    """
    m = golden_matrix(kind, n)
    (a, b), (c, d) = m.rows
    det = a * d - b * c
    return SquareMatrix(
        [
            [Fraction(d, det), Fraction(-b, det)],
            [Fraction(-c, det), Fraction(a, det)],
        ]
    )


def base_transform(key) -> SquareMatrix:
    """The Haar-transformed padded golden matrix, before randomization, in rationals.

    ``derive`` builds it only times 4**level, in integers.  The oracle of
    criterion 1 (the paper's level-1 and level-2 key matrices) and of the
    derivation tests in ``test_keyschedule.py``.
    """
    return haar2d_forward(pad_to_z(golden_base(key), key.level), key.level)


def reference_derive(key) -> SimpleNamespace:
    """Key derivation by rational Haar lifting and exact Bareiss, an oracle for ``derive``.

    Each attempt scales the rational matrix to integers and runs
    ``det_adjugate``; the first determinant that is nonzero mod p wins, as
    ``derive`` accepts no other, and the inverse mod p comes from the
    adjugate.  Returns ``attempt``, ``e_scaled`` and ``inverse_cols_mod_p``
    as ``KeyMatrixPair`` has them.
    """
    t = reference_haar2d_forward(pad_to_z(golden_base(key), key.level), key.level)
    z = t.order
    scale = 1 << (2 * key.level)
    zeros = [(i, j) for i in range(z) for j in range(z) if t.rows[i][j] == 0]
    for attempt in range(MAX_ATTEMPTS):
        rows = [list(row) for row in t.rows]
        stream = _randomization_stream(key.seed, attempt)
        if attempt == 0 and zeros:
            positions = zeros
        else:
            # every attempt after the first, and the first when there is no zero
            positions = [(i, j) for i in range(z) for j in range(z)]
        for i, j in positions:
            rows[i][j] += next(stream) % 255 + 1
        e_scaled = tuple(tuple(int(x * scale) for x in row) for row in rows)
        det, adj = det_adjugate(e_scaled)
        if det % MODULUS == 0:
            continue
        inv, half = pow(det, -1, MODULUS), MODULUS // 2
        inverse = tuple(tuple((a * inv + half) % MODULUS - half for a in col) for col in zip(*adj))
        return SimpleNamespace(attempt=attempt, e_scaled=e_scaled, inverse_cols_mod_p=inverse)
    raise KeyDerivationError(f"no nonsingular matrix within {MAX_ATTEMPTS} attempts")
