"""Bit-packed GF(2) vectors and matrices.

A vector of length ``n`` is a Python int whose bit ``i`` is the value at
column ``i``; bits at or above ``n`` are always zero.  Each GF(2)-linear job
of the package has one routine here: ``insert_rows`` (basis insertion, the
first phase of ``rref``), ``preimages`` (words with given parities, and a
kernel) and ``ParityMap`` (a fixed matrix applied to many words, one at a
time or, through ``apply_packed``, a numpy block at once).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import getitem, xor
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import InvalidInput

_WORD_MASK = (1 << 64) - 1


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
    def zeros(cls, n: int) -> "BitVector":
        return cls(n, 0)

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

    def __init__(self, cols: int, row_bits: Sequence[int]):
        self.cols = cols
        self._data = [_check_bits(cols, r) for r in row_bits]
        self.rows = len(self._data)

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
    def zeros(cls, rows: int, cols: int) -> "BitMatrix":
        return cls(cols, [0] * rows)

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
        """All columns at once, unpacked to a byte per bit and packed back."""
        nbytes = (self.cols + 7) // 8
        if not self._data or not nbytes:
            return BitMatrix(self.rows, [0] * self.cols)
        raw = b"".join(r.to_bytes(nbytes, "little") for r in self._data)
        packed = np.frombuffer(raw, dtype=np.uint8).reshape(self.rows, nbytes)
        bits = np.unpackbits(packed, axis=1, count=self.cols, bitorder="little")
        columns = np.packbits(bits.T, axis=1, bitorder="little")
        return BitMatrix(self.rows, [int.from_bytes(c.tobytes(), "little") for c in columns])

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


def rref(m: BitMatrix) -> tuple[BitMatrix, tuple[int, ...]]:
    """Reduced row echelon form over GF(2), zero rows dropped.

    The rows go into a basis by ``insert_rows``; back-substitution from the
    highest pivot down then clears every other pivot column.  The RREF of a
    row space is unique, so rows and pivots are those of a sweep that pivots
    on the leftmost nonzero column, with no column permutation and whatever
    the row order; this fixes the pivot/non-pivot column split used by the
    meet-in-the-middle distance search.
    """
    basis: dict[int, int] = {}
    insert_rows(basis, m.row_bits())
    pivots = sorted(basis)
    mask = 0  # the pivot columns above the current one
    for p in reversed(pivots):
        v = basis[p]
        while hit := v & mask:
            v ^= basis[(hit & -hit).bit_length() - 1]
        basis[p] = v
        mask |= 1 << p
    return BitMatrix(m.cols, [basis[p] for p in pivots]), tuple(pivots)


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


class ParityMap:
    """A fixed GF(2) matrix applied to many words, one lookup per input byte.

    ``images`` are its c columns.  Table k maps a byte v to the XOR of the
    images of v's set bits at 8k..8k+7 ("Four Russians", Arlazarov et al.
    1970): ceil(c/8) lists of 256 ints as wide as the output.  A last partial
    byte fills 2^(c mod 8) entries, so a word must stay below 2^c.
    """

    __slots__ = ("tables",)

    def __init__(self, images: Sequence[int]):
        self.tables = []
        for k in range(0, len(images), 8):
            column = images[k : k + 8]
            table = [0] * 256
            for v in range(1, 1 << len(column)):
                low = v & -v
                table[v] = table[v ^ low] ^ column[low.bit_length() - 1]
            self.tables.append(table)

    @classmethod
    def from_rows(cls, rows: Sequence[int], cols: int) -> "ParityMap":
        """The map ``word -> parities(rows, word)`` on words of ``cols`` bits."""
        return cls(BitMatrix(cols, rows).transpose().row_bits())

    def __call__(self, word: int) -> int:
        tables = self.tables
        return reduce(xor, map(getitem, tables, word.to_bytes(len(tables), "little")), 0)

    def packed_table(self) -> np.ndarray:
        """The tables as one (bytes, 256, words) uint64 array for
        ``apply_packed``: entry [k, v] is table k's image of byte v, split
        into 64-bit words, low word first.  It is built on request, so maps
        that are only applied one word at a time never pay for it."""
        width = max((max(t).bit_length() for t in self.tables), default=0)
        packed = pack_rows([v for t in self.tables for v in t], width)
        return packed.reshape(len(self.tables), 256, packed.shape[1])


def apply_packed(table: np.ndarray, packed: np.ndarray) -> np.ndarray:
    """The images of many words under one map, ``table`` being its
    ``ParityMap.packed_table()``.  Row r of ``packed``, a (count, bytes)
    uint8 array, is a word's little-endian bytes; row r of the (count,
    words) uint64 result is its image.  One gather and one XOR per byte."""
    out = np.zeros((packed.shape[0], table.shape[2]), dtype=table.dtype)
    for k, byte_table in enumerate(table):
        out ^= byte_table.take(packed[:, k], axis=0)
    return out


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


def pack_rows(row_bits: Sequence[int], cols: int) -> np.ndarray:
    """Rows as a (len, words) uint64 array, 64 columns per word, little-endian."""
    words = max(1, (cols + 63) // 64)
    arr = np.zeros((len(row_bits), words), dtype=np.uint64)
    for i, r in enumerate(row_bits):
        for w in range(words):
            arr[i, w] = (r >> (64 * w)) & _WORD_MASK
    return arr
