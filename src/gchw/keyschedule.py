"""Derivation of the enciphering matrix E and its inverse mod p.

The pipeline is: build the golden base matrix from the shared secret,
zero-pad it to the power-of-two order Z, run the multi-level 2-D Haar
transform, then repair singularity by adding secret-derived integers.
Attempt 0 adds them only where the transformed matrix is exactly zero
(covering the zeros), or at every position when it has no zero, so the
seed reaches every key; attempts 1 and up perturb every position, because
covering the zeros alone can leave a matrix singular.

The additive integers come from HMAC-SHA-256 in counter mode keyed by the
secret seed, so the receiver reconstructs E bit-for-bit without any
material crossing the wire.

All of it runs on E_scaled = E * 4**level, which is an integer matrix:
the Haar lifting works on the golden matrix pre-scaled by 4**level, and
the additive integers are scaled likewise.  Each attempt is decided by
one Gauss-Jordan elimination modulo p = 2^31 - 1, which also yields
E_scaled^-1 mod p, the only inverse that decryption reads: a determinant
that is nonzero mod p is nonzero, and an attempt whose determinant is 0
mod p is treated as singular.  That refuses a nonsingular attempt whose
determinant is a multiple of p, about one attempt in 2^31, so that one
elimination decides every key.  ``derive`` computes no exact determinant.

A matrix whose ciphertext entries could need more than 8 signed bytes is
refused before any elimination (:meth:`KeyMatrixPair.from_scaled`), so
every accepted key seals every message.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Iterator

from . import auth
from .errors import KeyDerivationError, ParameterError, ParseError, SingularMatrixError
from .matrix import MODULUS, SquareMatrix, inverse_mod_p
from .recurrence import RecurrenceKind, golden_matrix, qp_power
from .wavelet import haar2d_forward_scaled

MAX_N = 10**4
MAX_LEVEL = 6
MAX_P = (1 << MAX_LEVEL) - 1  # the Q_p base has order p + 1, so Z stays <= 2**MAX_LEVEL
SECRET_BYTES = 32
MAX_ATTEMPTS = 64


@dataclass(frozen=True)
class CipherKey:
    """The shared secret.

    ``n`` is the matrix power (the short session key), ``p`` the Q_p order
    parameter (only meaningful for the Fibonacci kind), ``level`` the Haar
    depth, ``seed`` feeds the randomization stream and ``mac_key`` the
    authentication tag.
    """

    kind: RecurrenceKind
    n: int
    p: int
    level: int
    seed: bytes
    mac_key: bytes

    def __post_init__(self):
        if not isinstance(self.kind, RecurrenceKind):
            raise ParameterError(f"kind must be a RecurrenceKind, got {self.kind!r}")
        if not all(type(v) is int for v in (self.n, self.p, self.level)):
            raise ParameterError(f"n, p and level must be ints, got {self.n!r}, {self.p!r}, {self.level!r}")
        if not (isinstance(self.seed, bytes) and isinstance(self.mac_key, bytes)):
            raise ParameterError("seed and mac_key must be bytes")
        if not 1 <= self.n <= MAX_N:
            raise ParameterError(f"n must be in 1..{MAX_N}, got {self.n}")
        if not 0 <= self.p <= MAX_P:
            raise ParameterError(f"p must be in 0..{MAX_P}, got {self.p}")
        if self.kind is not RecurrenceKind.FIBONACCI and self.p != 1:
            raise ParameterError(f"p must be 1 for kind {self.kind.value}")
        if not 1 <= self.level <= MAX_LEVEL:
            raise ParameterError(f"level must be in 1..{MAX_LEVEL}, got {self.level}")
        if len(self.seed) != SECRET_BYTES:
            raise ParameterError(f"seed must be {SECRET_BYTES} bytes")
        if len(self.mac_key) != SECRET_BYTES:
            raise ParameterError(f"mac_key must be {SECRET_BYTES} bytes")

    @cached_property
    def matrix_pair(self) -> "KeyMatrixPair":
        """``derive(self)``, run on first use and kept for the life of this object.

        The memo sits in the instance ``__dict__``, outside the dataclass
        fields, so equality, hashing and ``repr`` still see only the secret.
        An equal key built separately derives its own pair.
        """
        return derive(self)


@dataclass(frozen=True)
class KeyMatrixPair:
    """The scaled enciphering matrix, its inverse mod p, and the wire scaling data.

    E = e_scaled / 2**scale_exp.  ``inverse_cols_mod_p`` holds the columns
    of ``E_scaled^-1 mod MODULUS`` as residues of least magnitude (each
    below 2**30 in absolute value); both decryption routes multiply by it.
    ``entry_bound``, 256 times the largest column sum of |E_scaled|, bounds
    every entry of block @ E_scaled.
    """

    z: int
    scale_exp: int
    attempt: int
    e_scaled: tuple[tuple[int, ...], ...]
    inverse_cols_mod_p: tuple[tuple[int, ...], ...]
    entry_bound: int

    @classmethod
    def from_scaled(cls, e_scaled, scale_exp: int, attempt: int = 0) -> "KeyMatrixPair":
        """Build a pair from the integer rows of ``e * 2**scale_exp``.

        Raises :class:`ParameterError`, before any elimination, if the
        entries of ``block @ e_scaled`` could overflow the signed 64-bit
        wire, and :class:`SingularMatrixError` if the determinant is 0 mod
        p, which refuses the rare nonsingular matrix whose determinant is a
        multiple of p along with every singular one.
        """
        bound = 256 * max(map(sum, zip(*(map(abs, row) for row in e_scaled))))
        if bound.bit_length() > 63:
            raise ParameterError(
                f"ciphertext entries are bounded by a {bound.bit_length()}-bit number,"
                " past the signed 64-bit wire; use a smaller n or level"
            )
        inverse = inverse_mod_p(e_scaled)
        if inverse is None:
            raise SingularMatrixError("matrix is singular modulo 2**31 - 1")
        return cls(
            z=len(e_scaled),
            scale_exp=scale_exp,
            attempt=attempt,
            e_scaled=tuple(map(tuple, e_scaled)),
            inverse_cols_mod_p=tuple(zip(*inverse)),
            entry_bound=bound,
        )

    @cached_property
    def e_scaled_cols(self) -> tuple[tuple[int, ...], ...]:
        return tuple(zip(*self.e_scaled))

    @cached_property
    def pad_row(self) -> bytes:
        """The wire entries of the all-padding row (-1, ..., -1) @ E_scaled.

        E_scaled is nonsingular, so this is the only row that decrypts to all -1.
        """
        w = self.entry_bytes
        return b"".join((-sum(col)).to_bytes(w, "big", signed=True) for col in zip(*self.e_scaled))

    @property
    def wide_bytes(self) -> int:
        """Bytes per slot of a packed decryption sum (``blockcipher._residue_folds`` has the bounds)."""
        return -(-max(64, 8 * self.entry_bytes + 31 + self.z.bit_length()) // 8)

    @cached_property
    def wire_rows(self) -> tuple[int, ...]:
        """The rows of E_scaled packed into ``entry_bytes``-wide slots (:func:`pack_rows`)."""
        return pack_rows(self.e_scaled, 8 * self.entry_bytes)

    @cached_property
    def wide_rows(self) -> tuple[int, ...]:
        """The rows of E_scaled packed into ``wide_bytes``-wide slots."""
        return pack_rows(self.e_scaled, 8 * self.wide_bytes)

    @cached_property
    def wide_inverse_rows(self) -> tuple[int, ...]:
        """The rows of E_scaled^-1 mod p packed into ``wide_bytes``-wide slots."""
        return pack_rows(zip(*self.inverse_cols_mod_p), 8 * self.wide_bytes)

    @cached_property
    def entry_bytes(self) -> int:
        """Bytes per wire entry: the narrowest signed big-endian width that holds ``entry_bound``.

        :meth:`from_scaled` refuses a bound of more than 63 bits, so this is
        never more than 8.
        """
        return (self.entry_bound.bit_length() + 8) // 8


def pack_rows(rows, slot_bits: int) -> tuple[int, ...]:
    """Each row as one integer, its entries in ``slot_bits``-bit slots, the first in the top slot.

    The entries are signed digits: a sum of multiples of packed rows holds
    each column's sum in that column's slot, as long as every sum fits its
    slot (Kronecker substitution).
    """
    return tuple(reduce(lambda acc, v: (acc << slot_bits) + v, row, 0) for row in rows)


def golden_base(key: CipherKey) -> SquareMatrix:
    """The integer golden matrix selected by the key."""
    if key.kind is RecurrenceKind.FIBONACCI:
        return qp_power(key.p, key.n)
    return golden_matrix(key.kind, key.n)


def pad_to_z(g: SquareMatrix, level: int) -> SquareMatrix:
    """Zero-pad to order Z = 2^max(level, ceil(log2(order)))."""
    z = 1 << max(level, (g.order - 1).bit_length())
    rows = [[0] * z for _ in range(z)]
    for i, row in enumerate(g.rows):
        rows[i][: g.order] = row
    return SquareMatrix(rows)


def _randomization_stream(seed: bytes, attempt: int) -> Iterator[int]:
    """Deterministic byte stream: HMAC-SHA-256(seed, attempt || counter) blocks."""
    prefix = attempt.to_bytes(4, "big")
    counter = 0
    while True:
        yield from auth.mac(seed, prefix + counter.to_bytes(4, "big"))
        counter += 1


def derive(key: CipherKey) -> KeyMatrixPair:
    """Derive the enciphering matrix pair; pure and uncached (see ``CipherKey.matrix_pair``).

    Works on E * 4**level throughout, where every entry is an integer.
    Raises :class:`KeyDerivationError` if no attempt in the budget yields a
    nonsingular matrix (a pathological seed; pick another).
    """
    shift = 2 * key.level
    padded = pad_to_z(golden_base(key), key.level)
    # the Haar transform of the padded golden matrix, times 4**level, lifted in integers
    t = haar2d_forward_scaled([[v << shift for v in row] for row in padded.rows], key.level)
    z = len(t)
    everywhere = [(i, j) for i in range(z) for j in range(z)]
    # attempt 0 covers the zeros, or perturbs every position of a matrix
    # with none, so that the seed reaches every key
    first = [(i, j) for i, j in everywhere if t[i][j] == 0] or everywhere
    for attempt in range(MAX_ATTEMPTS):
        rows = [list(row) for row in t]
        stream = _randomization_stream(key.seed, attempt)
        for i, j in first if attempt == 0 else everywhere:
            rows[i][j] += (next(stream) % 255 + 1) << shift
        try:
            return KeyMatrixPair.from_scaled(rows, scale_exp=shift, attempt=attempt)
        except SingularMatrixError:
            continue
    raise KeyDerivationError(f"no nonsingular matrix within {MAX_ATTEMPTS} attempts")


_KEY_FIELDS = ("kind", "n", "p", "level", "seed", "mac_key")
# the values format_key writes: decimal without a sign or leading zero, and lowercase hex
_DECIMAL = re.compile(r"0|[1-9][0-9]*")
_SECRET_HEX = re.compile(f"[0-9a-f]{{{2 * SECRET_BYTES}}}")


def format_key(key: CipherKey) -> str:
    """Render the line-oriented key file (fixed field order)."""
    return (
        f"kind={key.kind.value}\n"
        f"n={key.n}\n"
        f"p={key.p}\n"
        f"level={key.level}\n"
        f"seed={key.seed.hex()}\n"
        f"mac_key={key.mac_key.hex()}\n"
    )


def parse_key(text: str) -> CipherKey:
    """Parse a key file; strict about field names, order and count, and
    about values: only what :func:`format_key` writes is accepted."""
    lines = [line for line in text.splitlines() if line.strip()]
    if len(lines) != len(_KEY_FIELDS):
        raise ParseError(f"key file must have exactly {len(_KEY_FIELDS)} fields")
    values = {}
    for line, expected in zip(lines, _KEY_FIELDS):
        name, sep, value = line.partition("=")
        if not sep or name != expected:
            raise ParseError(f"expected field {expected!r}, got {line!r}")
        values[name] = value
    try:
        kind = RecurrenceKind(values["kind"])
    except ValueError as exc:
        raise ParseError(f"unknown recurrence kind {values['kind']!r}") from exc
    for name in _KEY_FIELDS[1:]:
        pattern = _SECRET_HEX if name in ("seed", "mac_key") else _DECIMAL
        if not pattern.fullmatch(values[name]):
            raise ParseError(f"malformed key field {name!r}")  # not echoed: it may hold a secret
    try:
        n, p, level = int(values["n"]), int(values["p"]), int(values["level"])
    except ValueError as exc:  # more digits than int() reads
        raise ParseError(f"malformed key field: {exc}") from exc
    seed, mac_key = bytes.fromhex(values["seed"]), bytes.fromhex(values["mac_key"])
    return CipherKey(kind=kind, n=n, p=p, level=level, seed=seed, mac_key=mac_key)


def save_key_file(path, key: CipherKey) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_key(key))


def load_key_file(path) -> CipherKey:
    with open(path, "r", encoding="ascii") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"key file is not ASCII: {exc}") from exc
    return parse_key(text)
