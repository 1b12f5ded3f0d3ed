"""Z x Z block encryption by right-multiplication with the enciphering matrix.

A block is a row-major tuple of Z*Z integers; Z and the scale exponent s
live on the key and on the envelope header, not on each block.  Plaintext
bytes fill blocks row-major; the final block's tail is padded with -1,
which cannot collide with byte values.  Encryption computes the exact
product block @ E (block on the left); since E = (E * 2^s) / 2^s with an
integer scaled form, the wire-ready scaled ciphertext is just the integer
product block @ E_scaled.

Messages take the packed route, and its wire body stores each entry as a
signed big-endian integer of ``kp.entry_bytes`` bytes, the narrowest
width that holds every entry the key can produce (at most 8: the key
schedule refuses a key whose entries could need more).  Messages are
handled in passes of whole blocks, and each pass is packed one of two
ways (Kronecker substitution), whichever takes fewer Python-level steps:

* By column, when the pass's data fills Z rows or more.  Stacking the
  rows of its blocks gives a tall plaintext matrix; :func:`encrypt_message`
  stores each of its columns in one integer, one slot of that width per
  row, so a ciphertext column is Z big-integer multiply-adds with
  entries of E_scaled.
* By row, when the data fills fewer than Z rows: a message of at most
  Z^2 - Z bytes, or the tail of a longer one.  Each data row is one
  multiply-add against the rows of E_scaled packed into Z slots
  (``kp.wire_rows``).  All-padding rows are never multiplied: each is
  the key's all-padding row ciphertext, ``kp.pad_row``.

:func:`decrypt_message` multiplies the received entries, in slots wider
than the wire's, by E_scaled^-1 modulo the Mersenne prime p = 2^31 - 1
(by its columns, or by its rows ``kp.wide_inverse_rows`` when the pass
is packed by row), folds every slot back below p, and reads a candidate
entry from each.  A pass packed by row compares its all-padding rows with
``kp.pad_row`` byte for byte instead: E_scaled is nonsingular, so no
other row decrypts to all -1.  It accepts the candidates only if each is
a byte in the data region and -1 after it, and one more check holds.
For a key whose ``entry_bound`` is below 2^30 (n = 5 at levels 1-4),
every received entry must lie in [-2^30, 2^30): the ciphertext minus the
candidates' product with E_scaled is then 0 mod p and smaller than p in
magnitude, so it is 0 (the CRT bound).  Any other key (levels 5 and 6,
larger n) re-encrypts the candidates at the wire width and compares
bytes.  Either check makes the result exact: E_scaled is nonsingular, so
only the true plaintext re-encrypts to the ciphertext, and a candidate
that passes is that plaintext (Dixon's modular solving with an exact
check).

When a pass fails, p-adic lifting of its first faulty row (``_lift_row``),
two packed row products per step through the same rows of E_scaled^-1
mod p and of E_scaled, names the fault: an entry that is not an integer,
an integer outside {-1} | 0..255, or else -1 or a byte on the wrong side
of the byte count; so the first fault in wire order is named.  The
per-block route, :func:`encrypt_block` and :func:`decrypt_block`,
multiplies one block by E_scaled and by E_scaled^-1 mod p, with the same
exactness rule, and counts its multiplies: it is the reference for the
packed route and the cost model.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import reduce
from math import isqrt, prod
from operator import mul

from .errors import CorruptionError, ParameterError, ShapeError
from .keyschedule import MODULUS, KeyMatrixPair, pack_rows

PAD = -1
CHUNK_ENTRIES = 1 << 14  # entries per packed pass; bounds the big-integer working set
PASS_BLOCKS = 8  # the fewest blocks per pass; only Z = 64 has fewer in CHUNK_ENTRIES


@dataclass
class OpCounter:
    """Tallies entry multiplications/additions for the cost-model checks."""

    mults: int = 0
    adds: int = 0

    def mul(self, a: int, b: int) -> int:
        self.mults += 1
        return a * b

    def add(self, a: int, b: int) -> int:
        self.adds += 1
        return a + b

    def total(self, terms) -> int:
        """Sum of ``terms`` by :meth:`add`."""
        return reduce(self.add, terms)


def partition(data: bytes, z: int) -> list[tuple[int, ...]]:
    """Split bytes into ceil(len/z^2) blocks, padding the last with -1."""
    if z < 2:
        raise ParameterError(f"block order must be at least 2, got {z}")
    cells = z * z
    blocks = []
    for offset in range(0, len(data), cells):
        chunk = data[offset : offset + cells]
        blocks.append(tuple(chunk) + (PAD,) * (cells - len(chunk)))
    return blocks


def unpartition(blocks, byte_count: int) -> bytes:
    """Invert :func:`partition`, verifying the -1 tail."""
    if byte_count < 0:
        raise ParameterError(f"byte count must be at least 0, got {byte_count}")
    flat = [v for block in blocks for v in block]
    if byte_count > len(flat):
        raise CorruptionError("fewer block entries than the recorded byte count")
    data = flat[:byte_count]
    if PAD in data:
        raise CorruptionError("padding marker inside the data region")
    tail = flat[byte_count:]
    if tail.count(PAD) != len(tail):
        raise CorruptionError("block tail is not all padding")
    return bytes(data)


def _product(flat, cols, z: int, counter: OpCounter | None = None) -> list[int]:
    """flat (row-major, z entries per row) times the matrix given by its columns.

    With a ``counter``, each entry multiplication and addition is tallied
    as it is performed.
    """
    times, total = (mul, sum) if counter is None else (counter.mul, counter.total)
    rows = [flat[base : base + z] for base in range(0, len(flat), z)]
    return [total(map(times, row, col)) for row in rows for col in cols]


def encrypt_block(block, kp: KeyMatrixPair, counter: OpCounter | None = None) -> tuple[int, ...]:
    """Exact product block @ E, returned as scaled entries (entry * 2**scale_exp)."""
    if len(block) != kp.z * kp.z:
        raise ShapeError(f"block of {len(block)} entries does not match key order {kp.z}")
    return tuple(_product(block, kp.e_scaled_cols, kp.z, counter))


def decrypt_block(cipher, kp: KeyMatrixPair, counter: OpCounter | None = None) -> tuple[int, ...]:
    """Exact product cipher @ E^-1; rejects non-integer or non-byte entries.

    Each row's candidates are row @ E_scaled^-1 mod p, and the row is exact
    if they are all in {-1} | 0..255 and it passes ``_decrypt_pass``'s check
    (the range check, or a re-encryption whose multiplies ``counter`` also
    tallies).  ``_lift_row`` names the fault of the first row that is not exact.
    """
    z = kp.z
    if len(cipher) != z * z:
        raise ShapeError(f"block of {len(cipher)} entries does not match key order {z}")
    half = MODULUS // 2
    plain = []
    for base in range(0, z * z, z):
        row = list(cipher[base : base + z])
        got = [(v + half) % MODULUS - half for v in _product(row, kp.inverse_cols_mod_p, z, counter)]
        if any(v != PAD and not 0 <= v <= 255 for v in got) or not (
            all(-(1 << 30) <= c < 1 << 30 for c in row)
            if kp.entry_bound < 1 << 30
            else _product(got, kp.e_scaled_cols, z, counter) == row
        ):
            got = _lift_row(row, kp)
        plain += got
    return tuple(plain)


def _lift_row(row, kp: KeyMatrixPair) -> list[int]:
    """The exact row x = row @ E_scaled^-1, raising at its first entry that is not a byte or -1.

    Lifts x p-adically (Dixon, *Numer. Math.* 40, 1982): d = r @ E_scaled^-1
    mod p, then r = (r - d @ E_scaled) / p, which divides exactly, until r = 0
    (x is exact) or p**K > 2 * N * (H + 1), with H**2 the product of the
    squared row norms of E_scaled, so |det| <= H (Hadamard), and N = |row| * H
    bounding every numerator of x (Cramer).  Then an entry is an integer iff
    its residue s mod p**K of least magnitude has |s| <= N, and then it is s:
    s * det minus the numerator is a multiple of p**K smaller than p**K / 2, so 0.

    Each step is two packed row products (Kronecker substitution): r times
    the rows of E_scaled^-1 mod p gives d, and d times the rows of E_scaled
    is subtracted from r, kept packed, which one exact division by p ends.
    """
    p, half, z = MODULUS, MODULUS // 2, kp.z
    h2 = prod(sum(map(mul, e_row, e_row)) for e_row in kp.e_scaled)
    h, n = isqrt(h2) + 1, isqrt(h2 * sum(map(mul, row, row))) + 1
    # every |r| stays below max(|row|, entry_bound / 511), so a slot of
    # 32 + bit_length(z) bits more than |row| holds r @ E_scaled^-1 mod p
    # (entries below 2**30), d @ E_scaled and r; a row that fits the wire
    # fits the key's wide slots
    width = max(kp.wide_bytes, -(-(max(map(abs, row)).bit_length() + 32 + z.bit_length()) // 8))
    if width == kp.wide_bytes:
        e_rows, inverse_rows = kp.wide_rows, kp.wide_inverse_rows
    else:
        e_rows = pack_rows(kp.e_scaled, 8 * width)
        inverse_rows = pack_rows(zip(*kp.inverse_cols_mod_p), 8 * width)
    r, packed, x, scale = row, pack_rows([row], 8 * width)[0], [0] * z, 1
    while packed and scale <= 2 * n * (h + 1):
        # digits of least magnitude sum to the residue of least magnitude mod scale * p
        d = [(v + half) % p - half for v in _slots(sum(map(mul, r, inverse_rows)), z, width)]
        # r - d @ E_scaled is 0 mod p in every slot, so p divides the packed residual exactly
        packed = (packed - sum(map(mul, d, e_rows))) // p
        r = _slots(packed, z, width)
        x = [a + scale * b for a, b in zip(x, d)]
        scale *= p
    for s in x:
        if abs(s) > n:
            raise CorruptionError("decrypted entry is not an integer")
        if s != PAD and not 0 <= s <= 255:
            raise CorruptionError("decrypted entry outside the byte range")
    return x


def _ones(width: int, rows: int) -> int:
    """``rows`` adjacent ``width``-byte slots, each holding 1; other slot masks are its shifts."""
    return int.from_bytes((1).to_bytes(width, "big") * rows, "big")


def _slots(v: int, count: int, width: int) -> list[int]:
    """The ``count`` signed ``width``-byte slots of ``v``, top slot first.

    ``v`` is a sum of signed slot values that each fit their slot; adding
    2**(8 * width - 1) to each makes every slot a plain unsigned digit.
    """
    flip = _ones(width, count) << (8 * width - 1)
    raw = ((v + flip) ^ flip).to_bytes(count * width, "big")
    return [int.from_bytes(raw[k : k + width], "big", signed=True) for k in range(0, len(raw), width)]


def _residue_folds(ones: int, slot_bits: int, w: int, z: int):
    """The map from packed sums to slots that hold 256 + q for a byte or -1 q.

    Each ``slot_bits``-bit slot of a sum, one per slot of ``ones``, is Z
    ``w``-byte received entries times entries of E_scaled^-1 mod p, so
    |sum| < z * 2**(8w + 29); adding p * 2**e (0 mod p) keeps every slot
    positive, and 256 makes a slot end as 256 + q.  Slot bounds for w <= 8
    and z <= 64: 2**(8w + 31 + z.bit_length()) <= 2**102, then 2**62 +
    2**40 (2**62 is 1 mod p), 2**32 + 2**9 and 2**31 + 3, so a slot that
    ends in 255..511 is exact.  Slots of ``kp.wide_bytes`` bytes hold the
    sums and have the 64 bits the folds by 2**62 and 2**31 need.
    """
    e = 8 * w - 1 + z.bit_length()
    lift = (ones << (e + 31)) - (ones << e) + (ones << 8)
    low62, rest62 = (ones << 62) - ones, (ones << (slot_bits - 62)) - ones
    low31, rest31 = (ones << 31) - ones, (ones << (slot_bits - 31)) - ones

    def fold(v: int) -> int:
        v += lift
        v = (v & low62) + ((v >> 62) & rest62)
        v = (v & low31) + ((v >> 31) & rest31)
        return (v & low31) + ((v >> 31) & rest31)

    return fold


def _slot_masks(ones: int, slot_bits: int, n: int) -> tuple[int, int]:
    """(mask, expect): ``slot & mask == expect`` in every slot of ``ones``
    iff the first ``n`` slots hold 256..511 (a byte) and the rest exactly 255 (-1)."""
    pad = ones >> (slot_bits * n)  # the slots after the first n
    return (ones << slot_bits) - ((ones - pad) << 8) - pad, (ones << 8) - pad


def _copy_unit(w: int) -> tuple[int, str | None]:
    """The widest of 1, 2, 4 or 8 bytes that divides w, and its memoryview format.

    :func:`encrypt_message` scatters each column's w-byte slots into the
    wire in that unit: w // unit slice assignments per column, one for
    w = 2, 4 or 8.  1-byte units (odd w) have no format: ``bytes`` and
    ``bytearray`` extended slices copy them faster than memoryview's
    generic strided path.
    """
    unit = (w | 8) & -(w | 8)
    return unit, {1: None, 2: "H", 4: "I", 8: "Q"}[unit]


# the byte that sign-extends an entry whose top byte is the index
_SIGN_FILL = bytes(0xFF if b & 0x80 else 0 for b in range(256))


def _widen(body: bytes, entry_bytes: int) -> bytes:
    """``body``'s ``entry_bytes``-wide signed big-endian entries as big-endian int64."""
    if entry_bytes == 8:
        return bytes(body)
    pad = 8 - entry_bytes
    out = bytearray(8 * (len(body) // entry_bytes))
    fill = body[::entry_bytes].translate(_SIGN_FILL)
    for k in range(pad):
        out[k::8] = fill
    for b in range(entry_bytes):
        out[pad + b :: 8] = body[b::entry_bytes]
    return bytes(out)


def _entries(body: bytes, entry_bytes: int) -> tuple[int, ...]:
    """``body``'s ``entry_bytes``-wide signed big-endian entries, in wire order."""
    return struct.unpack(f">{len(body) // entry_bytes}q", _widen(body, entry_bytes))


def body_blocks(body: bytes, z: int, entry_bytes: int):
    """The blocks of a wire body of whole blocks: an iterator of tuples of z*z scaled entries."""
    return struct.Struct(f">{z * z}q").iter_unpack(_widen(body, entry_bytes))


def _pass_cells(cells: int) -> int:
    """Entries per packed pass: whole blocks, at most CHUNK_ENTRIES or at least PASS_BLOCKS."""
    return max(PASS_BLOCKS, CHUNK_ENTRIES // cells) * cells


def encrypt_message(data: bytes, kp: KeyMatrixPair) -> bytes:
    """``data``'s wire body: each block's :func:`encrypt_block` entries, ``kp.entry_bytes`` wide.

    Column k of the tall plaintext matrix (all block rows stacked) is one
    integer with a fixed-width slot per row, so each ciphertext column is
    Z big-integer multiply-adds per pass of whole blocks (``_pass_cells``).
    A pass whose data fills fewer than Z rows is one block, packed by row
    instead (``_encrypt_rows``): a multiply-add per data row, then the
    key's all-padding row for each row left.
    """
    z, w = kp.z, kp.entry_bytes
    slot_bits = 8 * w
    unit, fmt = _copy_unit(w)
    step = _pass_cells(z * z)
    parts = []
    for start in range(0, len(data), step):
        chunk = data[start : start + step]
        data_rows = -(-len(chunk) // z)
        if data_rows < z:
            # one block: its data rows packed by row, then all-padding rows
            parts.append(_encrypt_rows(chunk, kp) + kp.pad_row * (z - data_rows))
            continue
        rows = -(-len(chunk) // (z * z)) * z
        ones = _ones(w, rows)
        plain = []
        for k in range(z):
            column = chunk[k::z]
            buf = bytearray(rows * w)
            buf[w - 1 : len(column) * w : w] = column
            # the -1 padding fills the last, least significant slots
            plain.append(int.from_bytes(buf, "big") - (ones >> (slot_bits * len(column))))
        # |entry| < entry_bound < 2**(8w - 1), so entry + 2**(8w - 1) fills
        # its slot without a carry: the w-byte entry with its sign bit flipped
        flip = ones << (slot_bits - 1)
        out = bytearray(rows * z * w)
        out_units = memoryview(out).cast(fmt) if fmt else out
        for j, col in enumerate(kp.e_scaled_cols):
            acc = sum(map(mul, col, plain)) + flip
            slots = (acc ^ flip).to_bytes(rows * w, "big")
            if fmt:
                slots = memoryview(slots).cast(fmt)
            for b in range(0, w, unit):
                # each row's slot into entry j of that row
                out_units[(j * w + b) // unit :: z * w // unit] = slots[b // unit :: w // unit]
        parts.append(out)
    return b"".join(parts)


def _encrypt_rows(data: bytes, kp: KeyMatrixPair) -> bytes:
    """The wire entries of ``data``'s rows, the last padded with -1: one multiply-add per row.

    Row i of the result is sum_j x_ij * (row j of E_scaled), with the rows
    packed into ``kp.entry_bytes``-wide slots (``kp.wire_rows``); the rows
    are stacked in one integer, the first in its top slots.
    """
    z, w, e_rows = kp.z, kp.entry_bytes, kp.wire_rows
    acc = 0
    for base in range(0, len(data), z):
        row = data[base : base + z]
        # the -1 padding of a short last row subtracts the rows it meets
        acc = (acc << 8 * w * z) + sum(map(mul, row, e_rows)) - sum(e_rows[len(row) :])
    cells = -(-len(data) // z) * z
    # as in encrypt_message: each entry plus 2**(8w - 1) fills its slot
    flip = _ones(w, cells) << (8 * w - 1)
    return ((acc + flip) ^ flip).to_bytes(cells * w, "big")


def decrypt_message(body: bytes, kp: KeyMatrixPair, byte_count: int) -> bytes:
    """Invert :func:`encrypt_message`, with :func:`decrypt_block`'s result and errors.

    Each pass of whole blocks multiplies the received columns by
    E_scaled^-1 mod p and accepts only exact bytes in the data region and
    -1 after it (``_decrypt_pass`` has the checks); a pass whose data fills
    fewer than Z rows multiplies each data row instead, and compares the
    rest with the all-padding row (``_decrypt_rows``).  A failed pass's first
    faulty row alone names the fault, the first in wire order: ``_lift_row``
    names an entry that is not an integer or a byte, and :func:`unpartition`
    of the exact row a padding fault.
    """
    if byte_count < 0:
        raise ParameterError(f"byte count must be at least 0, got {byte_count}")
    z, w = kp.z, kp.entry_bytes
    cells = z * z
    if len(body) % (cells * w):
        raise ShapeError(f"body of {len(body)} bytes is not whole blocks of key order {z}")
    total = len(body) // w
    if byte_count > total:
        raise CorruptionError("fewer block entries than the recorded byte count")
    step = _pass_cells(cells)
    parts = []
    for start in range(0, total, step):
        chunk = body[start * w : (start + step) * w]
        data_count = max(0, min(byte_count - start, len(chunk) // w))
        # fewer than Z data rows: packed by row, the padding rows compared
        part = (_decrypt_rows if -(-data_count // z) < z else _decrypt_pass)(chunk, kp, data_count)
        if isinstance(part, int):
            # entries `at` on are the first faulty row: _lift_row or unpartition raises
            at = start + part * z
            row = _lift_row(_entries(body[at * w : (at + z) * w], w), kp)
            unpartition([row], max(0, min(z, byte_count - at)))
        parts.append(part)
    return b"".join(parts)


def _decrypt_pass(chunk: bytes, kp: KeyMatrixPair, data_count: int):
    """The first ``data_count`` plaintext bytes of one pass, or the index of its first bad row.

    The candidate q solves q @ E_scaled = c mod p; in a row the masks pass,
    every entry of q is in {-1} | 0..255, so |q @ E_scaled| <= 255/256 *
    entry_bound.  If entry_bound < 2**30 and every received entry lies in
    [-2**30, 2**30), the difference c - q @ E_scaled is 0 mod p and below
    2**31 - 2**22 < p in magnitude, so it is 0 and q is exact; a received
    entry outside that range cannot equal q @ E_scaled, which is below 2**30
    in magnitude, so its row is faulty.  Those keys (n = 5 at levels 1-4)
    check that range.  Other keys (levels 5 and 6, and large n) re-encrypt
    q at the wire width with :func:`encrypt_message` and compare bytes with
    c; a row moved by a multiple of p passes the masks and fails only this.
    """
    z, w = kp.z, kp.entry_bytes
    rows = len(chunk) // (z * w)
    # one slot per row, kp.wide_bytes wide: room for the lifted modular sums
    # (``_residue_folds``) and so for an entry plus 2**30
    width = kp.wide_bytes
    slot_bits = 8 * width
    ones = _ones(width, rows)
    sign = ones << (8 * w - 1)
    # top: the highest bit at which a check differs from what it expects
    top = 0
    # the unsigned w-byte entry u lies in [-2**30, 2**30) iff u + 2**30 has no
    # bit set in 31..8w-1 (a carry out of 8w bits is a negative entry); it
    # stays inside its slot, since width > w, and w <= 3 is always in range
    span = 0 if w <= 3 or kp.entry_bound >= 1 << 30 else (ones << 8 * w) - (ones << 31)
    offset = ones << 30
    received = []  # signed entries, one slot per row
    for j in range(z):
        buf = bytearray(rows * width)
        for b in range(w):
            # byte b of entry j of each row into the low w bytes of its slot
            buf[width - w + b :: width] = chunk[j * w + b :: z * w]
        u = int.from_bytes(buf, "big")
        if span:
            top = max(top, (u + offset & span).bit_length())
        received.append((u ^ sign) - sign)
    fold = _residue_folds(ones, slot_bits, w, z)
    plain = [fold(sum(map(mul, col, received))) for col in kp.inverse_cols_mod_p]
    # a data slot must hold 256..511 (a byte), a padding slot exactly 255 (-1)
    masks = {}
    for k, t in enumerate(plain):
        n = len(range(k, data_count, z))
        if n not in masks:
            masks[n] = _slot_masks(ones, slot_bits, n)
        mask, expect = masks[n]
        top = max(top, (t & mask ^ expect).bit_length())
    # the highest differing bit lies in the first faulty row's slot (rows if none)
    bad = rows - 1 - (top - 1) // slot_bits
    if bad < rows and kp.entry_bound < 1 << 30:
        return bad
    out = bytearray(rows * z)
    for k, t in enumerate(plain):
        out[k::z] = t.to_bytes(rows * width, "big")[width - 1 :: width]
    if kp.entry_bound >= 1 << 30:
        # rows before `bad` hold bytes and -1, so their re-encryption fits the
        # wire width; then all-padding rows to spare
        again = encrypt_message(out[:data_count], kp) + kp.pad_row * rows
        bad = min(bad, _first_differing_row(chunk, again, z * w))
    return out[:data_count] if bad == rows else bad


def _decrypt_rows(chunk: bytes, kp: KeyMatrixPair, data_count: int):
    """``_decrypt_pass`` for a pass whose data fills fewer than Z rows, packed by row.

    Each data row's candidates are one multiply-add against the rows of
    E_scaled^-1 mod p (``kp.wide_inverse_rows``), with ``_decrypt_pass``'s
    slot width, folds and masks; the data rows are stacked in one integer,
    so the masks are those of one column of that many slots.  A key below
    2**30 checks the received entries' range, any other re-encrypts the
    candidates.  Every row after the data must be ``kp.pad_row`` byte for
    byte: the only row that decrypts to all -1, since E_scaled is nonsingular.
    """
    z, w, width = kp.z, kp.entry_bytes, kp.wide_bytes
    rows, data_rows = len(chunk) // (z * w), -(-data_count // z)
    cut = data_rows * z * w
    received = _entries(chunk[:cut], w)
    checks_range = kp.entry_bound < 1 << 30
    bad, acc, inverse_rows = rows, 0, kp.wide_inverse_rows
    for i, base in enumerate(range(0, data_rows * z, z)):
        row = received[base : base + z]
        if checks_range and bad == rows and (min(row) < -(1 << 30) or max(row) >= 1 << 30):
            bad = i
        acc = (acc << 8 * width * z) + sum(map(mul, row, inverse_rows))
    slot_bits, ones = 8 * width, _ones(width, data_rows * z)
    t = _residue_folds(ones, slot_bits, w, z)(acc)
    mask, expect = _slot_masks(ones, slot_bits, data_count)
    top = (t & mask ^ expect).bit_length()
    if top:
        # the highest differing bit lies in the first faulty slot
        bad = min(bad, (data_rows * z - 1 - (top - 1) // slot_bits) // z)
    out = t.to_bytes(data_rows * z * width, "big")[width - 1 :: width]
    head = chunk[:cut] if checks_range else _encrypt_rows(out[:data_count], kp)
    bad = min(bad, _first_differing_row(chunk, head + kp.pad_row * (rows - data_rows), z * w))
    return out[:data_count] if bad == rows else bad


def _first_differing_row(chunk: bytes, again: bytes, row_bytes: int) -> int:
    """The first ``row_bytes``-byte row of ``chunk`` that ``again`` does not repeat, or the row count."""
    if again.startswith(chunk):
        return len(chunk) // row_bytes
    return next(i for i, (a, b) in enumerate(zip(chunk, again)) if a != b) // row_bytes
