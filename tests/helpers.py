"""Test-only helpers over library objects: FGK code paths, 0/1 bit strings, matrix arithmetic."""

from gchw.bits import BitString
from gchw.errors import ParameterError, ShapeError
from gchw.matrix import SquareMatrix


def contains(tree, byte: int) -> bool:
    return tree.leaf_of[byte] != -1


def path(tree, node: int) -> list[int]:
    """Root-to-node bits of an FGK tree node (0 = left child, 1 = right)."""
    bits = []
    parent = tree.parent[node]
    while parent != -1:
        bits.append(0 if tree.left[parent] == node else 1)
        node = parent
        parent = tree.parent[node]
    bits.reverse()
    return bits


def code_for(tree, byte: int) -> list[int]:
    """Current code of a previously seen symbol."""
    return path(tree, tree.leaf_of[byte])


def nyt_code(tree) -> list[int]:
    return path(tree, tree.nyt)


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
