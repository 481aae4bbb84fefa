"""Bit-packed GF(2) vectors and matrices.

A vector of length ``n`` is a Python int whose bit ``i`` is the value at
column ``i``; bits at or above ``n`` are always zero.  Packed for numpy, bit
i is bit i % 8 of byte i // 8, and 64-bit words (``pack_rows``) are stored
low word first.  One codec converts: ``ints_as_bytes`` and ``bytes_as_ints``
between ints and rows of bytes, ``bools_as_bytes`` and ``bytes_as_bools``
between rows of bools and those bytes.  Each GF(2)-linear job
of the package has one routine here: ``insert_rows`` (basis insertion, the
first phase of ``rref``), ``preimages`` (words with given parities, and a
kernel), ``parities`` (a matrix applied to one word) and ``packed_table``
(a fixed matrix as byte tables), which ``apply_packed`` applies to a block
of words at once.  A decoder's block is ``check_block``'s
(count, ceil(n/8)) uint8 array, and ``word_block`` makes the one-row block
of a single word.  ``transpose_bytes`` transposes packed rows in 8 x 8 bit
blocks.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import InvalidInput


def _check_bits(n: int, bits: int) -> int:
    if n < 0:
        raise InvalidInput(f"negative length {n}")
    if bits < 0 or bits >> n:
        raise InvalidInput(f"value has bits beyond length {n}")
    return bits


@dataclass(frozen=True)
class BitVector:
    """Immutable GF(2) vector; bit ``i`` of ``bits`` is column ``i``."""

    n: int
    bits: int

    def __post_init__(self) -> None:
        _check_bits(self.n, self.bits)

    @classmethod
    def ones(cls, n: int) -> "BitVector":
        return cls(n, (1 << n) - 1)

    @classmethod
    def from_string(cls, text: str) -> "BitVector":
        """Parse a 0/1 string; the first character is column 0."""
        if set(text) - {"0", "1"}:
            raise InvalidInput(f"not a 0/1 string: {text!r}")
        bits = 0
        for j, ch in enumerate(text):
            if ch == "1":
                bits |= 1 << j
        return cls(len(text), bits)

    def to_string(self) -> str:
        return "".join("1" if self.bits >> j & 1 else "0" for j in range(self.n))

    def weight(self) -> int:
        return self.bits.bit_count()

    def bit(self, j: int) -> int:
        if not 0 <= j < self.n:
            raise InvalidInput(f"index {j} out of range for length {self.n}")
        return self.bits >> j & 1

    def support(self) -> tuple[int, ...]:
        return tuple(j for j in range(self.n) if self.bits >> j & 1)

    def _same_length(self, other: "BitVector") -> None:
        if self.n != other.n:
            raise InvalidInput(f"length mismatch: {self.n} != {other.n}")

    def __xor__(self, other: "BitVector") -> "BitVector":
        self._same_length(other)
        return BitVector(self.n, self.bits ^ other.bits)

    def __and__(self, other: "BitVector") -> "BitVector":
        self._same_length(other)
        return BitVector(self.n, self.bits & other.bits)

    def __or__(self, other: "BitVector") -> "BitVector":
        self._same_length(other)
        return BitVector(self.n, self.bits | other.bits)

    def concat(self, other: "BitVector") -> "BitVector":
        return BitVector(self.n + other.n, self.bits | other.bits << self.n)

    def delete(self, columns: Iterable[int]) -> "BitVector":
        drop = set(columns)
        bits = 0
        pos = 0
        for j in range(self.n):
            if j in drop:
                continue
            bits |= (self.bits >> j & 1) << pos
            pos += 1
        return BitVector(pos, bits)

    def __str__(self) -> str:
        return self.to_string()


class BitMatrix:
    """Row-major GF(2) matrix; rows are packed ints like BitVector."""

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, cols: int, row_bits: Iterable[int]):
        self.cols = cols
        self._data = data = list(row_bits)
        self.rows = len(data)
        if cols < 0:
            raise InvalidInput(f"negative length {cols}")
        # one range check over all rows, raising as _check_bits on each would
        if data and (min(data) < 0 or max(data) >> cols):
            raise InvalidInput(f"value has bits beyond length {cols}")

    @classmethod
    def from_vectors(cls, vectors: Sequence[BitVector]) -> "BitMatrix":
        if not vectors:
            raise InvalidInput("cannot infer width from an empty vector list")
        n = vectors[0].n
        for v in vectors:
            if v.n != n:
                raise InvalidInput("rows of differing lengths")
        return cls(n, [v.bits for v in vectors])

    @classmethod
    def from_strings(cls, rows: Sequence[str]) -> "BitMatrix":
        vecs = [BitVector.from_string(r) for r in rows]
        return cls.from_vectors(vecs)

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(n, [1 << i for i in range(n)])

    def row(self, i: int) -> BitVector:
        return BitVector(self.cols, self._data[i])

    def row_bits(self) -> list[int]:
        """Rows as raw ints (fresh list; the matrix itself stays immutable)."""
        return list(self._data)

    def __iter__(self) -> Iterator[BitVector]:
        return (BitVector(self.cols, r) for r in self._data)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BitMatrix)
            and self.cols == other.cols
            and self._data == other._data
        )

    def __hash__(self) -> int:
        return hash((self.cols, tuple(self._data)))

    def get(self, i: int, j: int) -> int:
        return self._data[i] >> j & 1

    def column_bits(self, j: int) -> int:
        """Column ``j`` packed as an int with bit ``i`` = entry in row ``i``."""
        out = 0
        for i, r in enumerate(self._data):
            out |= (r >> j & 1) << i
        return out

    def transpose(self) -> "BitMatrix":
        """All columns at once, by ``transpose_bytes`` of the packed rows."""
        packed = ints_as_bytes(self._data, (self.cols + 7) // 8)
        return BitMatrix(self.rows, bytes_as_ints(transpose_bytes(packed, self.cols)))

    def to_text(self) -> str:
        """Repo matrix format: 'rows cols' header then one 0/1 string per row."""
        lines = [f"{self.rows} {self.cols}"]
        lines += [BitVector(self.cols, r).to_string() for r in self._data]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "BitMatrix":
        lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
        if not lines:
            raise InvalidInput("empty matrix text")
        try:
            rows, cols = map(int, lines[0].split())
        except ValueError as exc:
            raise InvalidInput(f"bad matrix header: {lines[0]!r}") from exc
        if cols == 0 and rows >= 0 and len(lines) == 1:
            return cls(0, [0] * rows)  # zero-width rows are blank lines
        if len(lines) - 1 != rows:
            raise InvalidInput(f"expected {rows} rows, found {len(lines) - 1}")
        vecs = []
        for ln in lines[1:]:
            if len(ln) != cols:
                raise InvalidInput(f"row of width {len(ln)}, expected {cols}")
            vecs.append(BitVector.from_string(ln).bits)
        return cls(cols, vecs)

    def __repr__(self) -> str:
        return f"BitMatrix({self.rows}x{self.cols})"


def insert_rows(basis: dict[int, int], rows: Iterable[int]) -> list[int]:
    """Reduce each row against ``basis``, keyed by lowest set bit, and add
    what is left under its new key; returns those residues in row order."""
    added = []
    for v in rows:
        while v:
            p = (v & -v).bit_length() - 1
            b = basis.get(p)
            if b is None:
                basis[p] = v
                added.append(v)
                break
            v ^= b
    return added


def _back_substitute(basis: dict[int, int]) -> list[int]:
    """Clear every other pivot column of an ``insert_rows`` basis in place,
    from the highest pivot down; returns the pivots in increasing order."""
    pivots = sorted(basis)
    mask = 0  # the pivot columns above the current one
    for p in reversed(pivots):
        v = basis[p]
        while hit := v & mask:
            v ^= basis[(hit & -hit).bit_length() - 1]
        basis[p] = v
        mask |= 1 << p
    return pivots


def rref(m: BitMatrix) -> tuple[BitMatrix, tuple[int, ...]]:
    """Reduced row echelon form over GF(2), zero rows dropped.

    The rows go into a basis by ``insert_rows``; back-substitution from the
    highest pivot down then clears every other pivot column.  The RREF of a
    row space is unique, so rows and pivots are those of a sweep that pivots
    on the leftmost nonzero column, with no column permutation and whatever
    the row order; this fixes the pivot/non-pivot column split used by the
    meet-in-the-middle distance search.

    A matrix of at least 2 * cols rows is filtered first, in rounds while
    that many are left: a spread sample of about cols of them goes into the
    basis, back-substituted, and every row left whose residual vanishes is
    dropped, with one ``apply_packed`` product.  The residual of r is r XOR the basis rows at r's pivot bits,
    a linear map whose image of e_j is the basis row of pivot j without
    its pivot bit, or e_j off the pivots; it vanishes exactly on the span,
    as the parities against the basis's kernel do.  The rows left after a
    round lie outside the span, so every later round adds a pivot: at most
    rank + 1 rounds, the worst case being rows that repeat with the
    sample's stride, one pivot a round.  The rest goes in by
    ``insert_rows``.  Only rows of the span are dropped, so the span, and
    with it the unique RREF, is that of every row.
    """
    basis: dict[int, int] = {}
    rows, cols = m._data, m.cols
    packed = None
    while len(basis) < cols <= len(rows) // 2:
        insert_rows(basis, rows[:: len(rows) // cols])
        if len(basis) == cols:
            break
        _back_substitute(basis)
        residual = packed_table([basis.get(j, 0) ^ 1 << j for j in range(cols)], cols)
        if packed is None:
            packed = ints_as_bytes(rows, (cols + 7) // 8)
        keep = np.flatnonzero(apply_packed(residual, packed).any(axis=1))
        rows, packed = [rows[i] for i in keep.tolist()], packed[keep]
    if len(basis) < cols:
        insert_rows(basis, rows)
    pivots = _back_substitute(basis)
    return BitMatrix(cols, [basis[p] for p in pivots]), tuple(pivots)


def rank(m: BitMatrix) -> int:
    return len(rref(m)[1])


def nullspace_basis(m: BitMatrix) -> BitMatrix:
    """Basis of {v : M v = 0}, one row per non-pivot column, in column order."""
    red, pivots = rref(m)
    return BitMatrix(m.cols, kernel_from_rref(red.row_bits(), pivots, m.cols))


def kernel_from_rref(rows: Sequence[int], pivots: Sequence[int], cols: int) -> list[int]:
    """Nullspace basis of the first ``cols`` columns of a matrix in rref.

    Bits of ``rows`` at or above ``cols`` (an augmented part) are ignored.
    """
    pivot_set = set(pivots)
    basis = []
    for f in range(cols):
        if f in pivot_set:
            continue
        v = 1 << f
        for row, p in zip(rows, pivots):
            if row >> f & 1:
                v |= 1 << p
        basis.append(v)
    return basis


def preimages(rows: Sequence[int], cols: int) -> tuple[list[int], list[int]]:
    """Words w_j with ``parities(rows, w_j)`` = e_j for k independent rows R
    of ``cols`` bits, and a kernel basis of R, from one rref of [R | I_k]:
    its rows are T_i R with pivots p_i, and R w = s for w the sum of e_{p_i}
    over the i with T_i . s = 1."""
    k = len(rows)
    red, pivots = rref(BitMatrix(cols + k, [r | 1 << (cols + j) for j, r in enumerate(rows)]))
    if pivots and pivots[-1] >= cols:
        raise InvalidInput(f"the {k} rows have rank below {k}")
    red_rows = red.row_bits()
    images = [
        sum(1 << p for row, p in zip(red_rows, pivots) if row >> (cols + j) & 1)
        for j in range(k)
    ]
    return images, kernel_from_rref(red_rows, pivots, cols)


def parities(rows: Sequence[int], word: int) -> int:
    """Bit i is the parity of ``rows[i] & word``: the GF(2) product M @ word."""
    out = 0
    for i, r in enumerate(rows):
        out |= ((r & word).bit_count() & 1) << i
    return out


def packed_table(images: Sequence[int], width: int) -> np.ndarray:
    """The map whose c columns are ``images``, each below 2^``width``, as
    one (ceil(c/8), 256, ceil(width/64)) uint64 array for ``apply_packed``:
    entry [k, v] is the XOR of the images of v's set bits at 8k..8k+7
    ("Four Russians", Arlazarov et al. 1970), split into 64-bit words, low
    word first, however narrow the images are.  The entries of a last
    partial byte with bits beyond c stay zero.  Built in numpy, entries
    2^j..2^(j+1)-1 from the lower ones, with no Python int per entry."""
    if any(image < 0 or image >> width for image in images):
        raise InvalidInput(f"an image has bits beyond the output width {width}")
    columns = pack_rows(images, width)
    nbytes = -(-len(images) // 8)
    bits = np.zeros((8 * nbytes, columns.shape[1]), dtype=np.uint64)
    bits[: len(images)] = columns
    bits = bits.reshape(nbytes, 8, columns.shape[1])
    table = np.zeros((nbytes, 256, columns.shape[1]), dtype=np.uint64)
    for j in range(8):
        table[:, 1 << j : 2 << j] = table[:, : 1 << j] ^ bits[:, j, None]
    if len(images) % 8:
        table[-1, 1 << len(images) % 8 :] = 0
    return table


def packed_parities(rows: Sequence[int], cols: int) -> np.ndarray:
    """``packed_table`` of the map ``word -> parities(rows, word)`` on
    words of ``cols`` bits."""
    return packed_table(BitMatrix(cols, rows).transpose().row_bits(), len(rows))


def apply_packed(table: np.ndarray, packed: np.ndarray) -> np.ndarray:
    """The images of many words under one map, ``table`` being its
    ``packed_table``.  Row r of ``packed``, a (count, bytes)
    uint8 array, is a word's little-endian bytes; row r of the (count,
    words) uint64 result is its image.  One gather and one XOR per byte."""
    out = np.zeros((packed.shape[0], table.shape[2]), dtype=table.dtype)
    for k, byte_table in enumerate(table):
        out ^= byte_table.take(packed[:, k], axis=0)
    return out


def words_as_bytes(words: np.ndarray, n: int) -> np.ndarray:
    """The first ceil(n/8) bytes of each row of a (count, words) uint64
    array, such as ``apply_packed`` returns, as a (count, ceil(n/8)) uint8
    view: the layout of ``ints_as_bytes``."""
    return words.view(np.uint8)[:, : (n + 7) // 8]


def check_block(words: np.ndarray, n: int) -> None:
    """Refuse anything but a (count, ceil(n/8)) uint8 block of n-bit words."""
    width = (n + 7) // 8
    if words.dtype != np.uint8 or words.ndim != 2 or words.shape[1] != width:
        raise InvalidInput(f"a block of {n}-bit words is a (count, {width}) uint8 array")
    if n % 8 and len(words) and (words[:, -1] >> (n % 8)).any():
        raise InvalidInput(f"received word has bits beyond length {n}")


def decode_in_slices(decode_block, words: np.ndarray, rows: int):
    """``decode_block`` on slices of at most ``rows`` rows of ``words``, its
    (decoded, failure) results joined: a decoder whose work arrays grow
    with rows times a large dimension keeps them bounded this way."""
    parts = [decode_block(words[lo : lo + rows]) for lo in range(0, len(words), rows)]
    return np.concatenate([d for d, _ in parts]), np.concatenate([f for _, f in parts])


def word_block(bits: int, n: int) -> np.ndarray:
    """One n-bit word as a one-row block, refusing one that is negative or
    has a bit at or above n."""
    if bits < 0 or bits >> n:
        raise InvalidInput(f"received word has bits beyond length {n}")
    return ints_as_bytes([bits], (n + 7) // 8)


def in_rowspace(m_rref: BitMatrix, pivots: Sequence[int], v: BitVector) -> bool:
    """Membership test against a precomputed rref basis."""
    if v.n != m_rref.cols:
        raise InvalidInput(f"length mismatch: {v.n} != {m_rref.cols}")
    acc = v.bits
    data = m_rref.row_bits()
    for i, p in enumerate(pivots):
        if acc >> p & 1:
            acc ^= data[i]
    return acc == 0


def ints_as_bytes(values: Sequence[int], nbytes: int) -> np.ndarray:
    """A writable (len, nbytes) uint8 array whose row i is ``values[i]``."""
    raw = bytearray().join(v.to_bytes(nbytes, "little") for v in values)
    return np.frombuffer(raw, dtype=np.uint8).reshape(len(values), nbytes)


def bytes_as_ints(rows: np.ndarray) -> list[int]:
    """The int of each row of uint8 bytes, or of 64-bit words low word first,
    read from slices of one ``tobytes()`` of the whole array."""
    width = rows[:1].nbytes
    if not width:
        return [0] * len(rows)
    data = rows.tobytes()
    return [int.from_bytes(data[i : i + width], "little") for i in range(0, len(data), width)]


def bools_as_bytes(bits: np.ndarray) -> np.ndarray:
    """A (count, n) bool array packed to (count, ceil(n/8)) uint8 bytes."""
    return np.packbits(bits, axis=1, bitorder="little")


def bytes_as_bools(rows: np.ndarray, n: int) -> np.ndarray:
    """The first ``n`` bits of each row of a uint8 array, as a bool array."""
    return np.unpackbits(rows, axis=1, count=n, bitorder="little").view(bool)


def transpose_bytes(rows: np.ndarray, cols: int) -> np.ndarray:
    """The transpose of a (count, ceil(cols/8)) uint8 block of bit rows, as
    (cols, ceil(count/8)) uint8 bytes.  Each 8 x 8 bit block, row i in byte
    i and column j in bit j, is one uint64 with entry (i, j) at bit 8i + j,
    transposed in place by three delta swaps (Hacker's Delight, 7-3), each
    exchanging the off-diagonal quarters of every 2 x 2, 4 x 4 and 8 x 8
    sub-block; byte j of block (g, c) is then the 8 rows 8g..8g+7 of column
    8c + j."""
    count, width = rows.shape
    groups = -(-count // 8)
    blocks = np.zeros((groups, 8, width), dtype=np.uint8)
    blocks.reshape(8 * groups, width)[:count] = rows
    words = np.ascontiguousarray(blocks.transpose(0, 2, 1)).view(np.uint64)[..., 0]
    for shift, mask in ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0)):
        swap = (words ^ words >> shift) & mask
        words ^= swap ^ swap << shift
    return np.ascontiguousarray(words.view(np.uint8).reshape(groups, 8 * width).T[:cols])


def pack_rows(row_bits: Sequence[int], cols: int) -> np.ndarray:
    """Rows as a (len, words) uint64 array: ``ints_as_bytes`` seen as words."""
    return ints_as_bytes(row_bits, 8 * max(1, (cols + 63) // 64)).view(np.uint64)
