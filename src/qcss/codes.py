"""Binary linear codes: duals, orthogonality, weight spectra, distances.

Both enumerations run on word-major blocks: a (words, m) uint64 array holds
m codewords, row i their i-th 64-bit word, so that a popcount is one
``np.bitwise_count`` and a sum of ``words`` rows.

- Weight spectra: a two-level Gray-code scan.  The span of the low 16
  generator rows is expanded once into a (words, 2^16) block, the remaining
  rows are Gray-stepped and XORed into the whole block at once, and the
  weights go to ``np.bincount``.  This is what makes 2^29-codeword
  enumerations practical.  The same kernel counts cosets f + C: each offset
  f is XORed into the block first.  ``bch.cyclic_weight_counts`` uses that
  to scan one coset per orbit of the cyclic shift.
- Distance certificates: ``min_distance_split`` is a meet-in-the-middle
  search whose pivot and non-pivot halves both call ``_low_weight_min``.
  Their depths add up to one less than the largest weight searched for, or
  two less when the caller names a cyclic length N, the code is invariant
  under the shift of its first N coordinates, its pivots are 0..k - 1 and
  that weight is below N / gcd(N, k) (see ``split_patterns``).  Each half
  is a generator [I | R] whose identity part stays implicit: the word of a
  support S of rows weighs |S| + popcount(XOR R[S]), so only R is scanned
  and |S| is added once per scan (the information-set bookkeeping of the
  Brouwer-Zimmermann family;
  M. Grassl, "Searching for linear codes with large minimum distance",
  2006).  That kernel keeps every XOR of up to 3 rows in one block and the
  XORs of the rows before them in colex-ordered tables, and scans all the
  longer supports that share their last prefix row against the block at
  once.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import InternalConsistencyError, InvalidInput, PreconditionError, ResourceLimit
from .gf2 import (
    BitMatrix,
    BitVector,
    in_rowspace,
    insert_rows,
    kernel_from_rref,
    pack_rows,
    parities,
    preimages,
    rref,
)

DEFAULT_BUDGET = 1 << 29

_BLOCK_BITS = 16
# cap on the 64-bit words in the split search's block of row XORs
_SPLIT_BLOCK_WORDS = 1 << 20
# numpy buffer size, in elements, of the split search's walk
_SCAN_BUFFER = 256


@dataclass(frozen=True)
class WeightEnumerator:
    """Coefficients A_0..A_n; A_w counts codewords of Hamming weight w."""

    counts: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.counts) - 1

    def total(self) -> int:
        return sum(self.counts)

    def min_distance(self) -> int:
        for w in range(1, len(self.counts)):
            if self.counts[w]:
                return w
        raise InvalidInput("zero-dimensional code has no minimum distance")

    def to_csv(self) -> str:
        lines = ["w,count"]
        lines += [f"{w},{c}" for w, c in enumerate(self.counts)]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SplitDistanceResult:
    """Outcome of the pivot/non-pivot low-weight search.

    ``found`` is True when a codeword of weight <= bound exists; ``value`` is
    then the exact minimum distance.  Otherwise ``value`` = bound + 1 is a
    certified lower bound, and ``witness_weight`` (the lightest codeword seen
    during the scan) is an upper bound on the true distance.  ``depths`` are
    the pivot and non-pivot depths scanned, None when nothing was.
    """

    found: bool
    value: int
    witness_weight: int | None
    patterns_scanned: int
    depths: tuple[int, int] | None = None


class LinearCode:
    """An [n, k] binary code held as k independent generator rows."""

    def __init__(self, generator: BitMatrix):
        red, pivots = rref(generator)
        if red.rows != generator.rows:
            raise InvalidInput(
                f"generator rows are dependent: rank {red.rows} < {generator.rows}"
            )
        self._keep(generator, red, pivots)

    def _keep(self, generator: BitMatrix, red: BitMatrix, pivots: tuple[int, ...]) -> None:
        self.generator = generator
        self._rref = red
        self._pivots = pivots
        self._dual: LinearCode | None = None
        self._enumerator: WeightEnumerator | None = None

    @classmethod
    def from_spanning(cls, rows: BitMatrix) -> "LinearCode":
        """Code spanned by arbitrary rows; the kept basis is the rref, which
        is its own rref, so it is not reduced again."""
        red, pivots = rref(rows)
        code = cls.__new__(cls)
        code._keep(red, red, pivots)
        return code

    @classmethod
    def from_text(cls, text: str) -> "LinearCode":
        return cls.from_spanning(BitMatrix.from_text(text))

    def to_text(self) -> str:
        return self.generator.to_text()

    @property
    def n(self) -> int:
        return self.generator.cols

    @property
    def k(self) -> int:
        return self.generator.rows

    @property
    def pivots(self) -> tuple[int, ...]:
        return self._pivots

    @property
    def rref_matrix(self) -> BitMatrix:
        return self._rref

    def __repr__(self) -> str:
        return f"LinearCode[{self.n},{self.k}]"

    # -- membership and comparisons ------------------------------------

    def contains(self, word: BitVector) -> bool:
        return in_rowspace(self._rref, self._pivots, word)

    def same_code(self, other: "LinearCode") -> bool:
        return (
            self.n == other.n
            and self.k == other.k
            and all(other.contains(r) for r in self.generator)
        )

    def is_subcode_of(self, other: "LinearCode") -> bool:
        if self.n != other.n:
            raise InvalidInput(f"length mismatch: {self.n} != {other.n}")
        return all(other.contains(r) for r in self.generator)

    def is_self_orthogonal(self) -> bool:
        rows = self.generator.row_bits()
        return not any(parities(rows[i:], a) for i, a in enumerate(rows))

    def dual(self) -> "LinearCode":
        if self._dual is None:
            basis = kernel_from_rref(self._rref.row_bits(), self._pivots, self.n)
            dual = LinearCode.from_spanning(BitMatrix(self.n, basis))
            dual._dual = self
            self._dual = dual
        return self._dual

    # -- enumeration ----------------------------------------------------

    def weight_enumerator(self, budget: int = DEFAULT_BUDGET) -> WeightEnumerator:
        """The spectrum; ``ResourceLimit`` beyond ``budget``, cached or not."""
        if 1 << self.k > budget:
            raise ResourceLimit(
                f"2^{self.k} codewords exceed the budget of {budget}; "
                "use min_distance_split for distance bounds"
            )
        if self._enumerator is None:
            counts = _weight_counts(self.generator.row_bits(), self.n)
            self._enumerator = WeightEnumerator(tuple(int(c) for c in counts))
        return self._enumerator

    def min_distance(self, budget: int = DEFAULT_BUDGET) -> int:
        return self.weight_enumerator(budget).min_distance()

    def weight_modulus(self) -> int:
        """Largest of 4, 2, 1 dividing every codeword weight, from the basis."""
        rows = self.generator.row_bits()
        if any(r.bit_count() & 1 for r in rows):
            return 1
        if all(r.bit_count() % 4 == 0 for r in rows) and self.is_self_orthogonal():
            return 4
        return 2

    def min_distance_split(
        self, bound: int, budget: int = DEFAULT_BUDGET, cyclic: int | None = None
    ) -> SplitDistanceResult:
        return _min_distance_split(self, bound, budget, cyclic)


def require_mutually_orthogonal(c1: LinearCode, c2: LinearCode) -> None:
    """Refuse a pair unless C2 lies inside the dual of C1: the rows of the
    two generators are pairwise orthogonal."""
    if c1.n != c2.n:
        raise PreconditionError(f"length mismatch: {c1.n} != {c2.n}")
    rows2 = c2.generator.row_bits()
    if any(parities(rows2, a) for a in c1.generator.row_bits()):
        raise PreconditionError("the second code is not inside the dual of the first")


# -- word-major enumeration ------------------------------------------------


def _weights(block: np.ndarray, nbits: int, out: np.ndarray | None = None) -> np.ndarray:
    """Popcount of every column of a word-major (words, ...) block of
    nbits-bit columns: the uint8 counts of the words, in ``out`` if given,
    are summed in the narrowest unsigned type that holds nbits."""
    c = np.bitwise_count(block, out=out)
    if len(c) == 1:
        return c[0]
    w = c[0].astype(
        np.uint8 if nbits < 1 << 8 else np.uint16 if nbits < 1 << 16 else np.uint32, copy=False
    )
    for word in c[1:]:
        w += word
    return w


def _span_block(cols: np.ndarray, words: int) -> np.ndarray:
    """Every XOR of the (words, 1) columns ``cols``, as a (words, 2^len) block."""
    block = np.zeros((words, 1), dtype=np.uint64)
    for c in cols:
        block = np.concatenate([block, block ^ c], axis=1)
    return block


def _weight_counts(
    row_bits: Sequence[int], n: int, offsets: Sequence[int] = (0,)
) -> np.ndarray:
    """Weight counts of the cosets f ^ span(row_bits), summed over the words
    f in ``offsets``; the default is the spectrum of the span itself.  The
    span of the low rows is expanded once, each nonzero offset is XORed into
    that block, and the remaining rows are Gray-stepped over the result."""
    k = len(row_bits)
    arr = pack_rows(row_bits, n)[:, :, None]  # row j is a (words, 1) column
    k_lo = min(k, _BLOCK_BITS)
    span = _span_block(arr[:k_lo], arr.shape[1])
    counts = np.zeros(n + 1, dtype=np.int64)
    for f in offsets:
        block = span ^ pack_rows([f], n).T if f else span
        counts += np.bincount(_weights(block, n), minlength=n + 1)
        if k > k_lo:
            buf = np.empty_like(block)
            acc = np.zeros((arr.shape[1], 1), dtype=np.uint64)
            for i in range(1, 1 << (k - k_lo)):
                acc ^= arr[(i & -i).bit_length() - 1 + k_lo]
                np.bitwise_xor(block, acc, out=buf)
                counts += np.bincount(_weights(buf, n), minlength=n + 1)
    return counts


def _low_weight_min(
    rows: Sequence[int], nbits: int, depth: int, free: Sequence[int] = ()
) -> tuple[int, int]:
    """Smallest |S| + popcount(f ^ XOR(rows[S])) over 1 <= |S| <= depth and f
    in the span of the independent words ``free``, and over S = {} with
    f != 0.  Returns (best, patterns), one pattern per pair (S, f).

    The rows are the part of a generator outside an identity: row i stands
    for e_i | rows[i], so the word of S has weight |S| + popcount(XOR
    rows[S]), and |S| is never scanned.  Every scan below covers supports of
    one size, so the size is added to a chunk's minimum, not to its cells.

    The XORs of 1..r rows (r <= 3) sit in one word-major block, level by
    level, those of exactly r rows last and in lexicographic order, so the
    r-sets that extend a prefix ending at row j are a contiguous suffix of
    the block.  The prefixes of up to depth - r rows are grouped by their
    last row j: the XORs of the s-sets of rows below j are the first C(j, s)
    columns of a colex-ordered table, so every prefix of s + 1 rows that
    ends at j is one column of an array scanned against that suffix at once.
    The tables hold as many levels t as fit in ``_SPLIT_BLOCK_WORDS``;
    longer prefixes take their rows above the lowest t one at a time in
    Python.  The span of the first free words is a middle axis of the block,
    as far as it stays within 2^16 cells; the rest is Gray-stepped around
    the whole walk.  Each chunk is XORed and popcounted into buffers that
    every chunk reuses.
    """
    kk, depth = len(rows), min(depth, len(rows))
    arr, free_arr = pack_rows(rows, nbits), pack_rows(free, nbits)
    words = arr.shape[1]
    best, patterns = 1 << 62, 0
    if free:  # S = {}: the spectrum of the span
        best = int(np.flatnonzero(_weight_counts(free, nbits)[1:])[0]) + 1
        patterns = (1 << len(free)) - 1
    if depth == 0:
        return best, patterns
    r = min(3, depth)
    while r > 1 and math.comb(kk, r) * words > _SPLIT_BLOCK_WORDS:
        r -= 1
    sizes = [math.comb(kk, s) for s in range(1, r + 1)]
    # level s of the block: the XORs of s rows, in columns levels[s - 1]..levels[s]
    levels = list(itertools.accumulate(sizes, initial=0))
    b = 0
    while b < len(free) and levels[r] * words << (b + 1) <= 1 << _BLOCK_BITS:
        b += 1
    block = np.empty((words, 1 << b, levels[r]), dtype=np.uint64)
    flat = block[:, 0]
    flat[:, :kk] = arr.T
    for s in range(2, r + 1):
        # the s-sets that start at row i: row i XOR the last C(kk - i - 1, s - 1)
        # columns of the (s - 1)-sets, so every level stays lexicographic
        prev, end = flat[:, levels[s - 2] : levels[s - 1]], levels[s - 1]
        for i in range(kk):
            tail = prev[:, sizes[s - 2] - math.comb(kk - i - 1, s - 1) :]
            np.bitwise_xor(tail, arr[i, :, None], out=flat[:, end : end + tail.shape[1]])
            end += tail.shape[1]
    span = _span_block(free_arr[:b, :, None], words)
    np.bitwise_xor(flat[:, None, :], span[:, 1:, None], out=block[:, 1:])
    # where the suffix of a prefix ending at row j starts: the r-sets after j
    starts = [levels[r] - math.comb(kk - j - 1, r) for j in range(kk - r)]
    if depth == r:  # no prefixes
        starts = []
    terms = arr[:, :, None]  # row j as a (words, 1) column
    # lows[s]: XORs of the s-sets of rows 0..kk - r - 2 in colex order (the
    # sets of rows below i first), as many levels as the block cap allows
    lows = [np.zeros((words, 1), dtype=np.uint64)]
    used = words
    while len(lows) < depth - r:
        s = len(lows)
        used += math.comb(kk - r - 1, s) * words
        if used > _SPLIT_BLOCK_WORDS:
            break
        low, end = np.empty((words, math.comb(kk - r - 1, s)), dtype=np.uint64), 0
        for i in range(s - 1, kk - r - 1):
            # the s-sets with largest row i: row i XOR the (s - 1)-sets below it
            prev = lows[-1][:, : math.comb(i, s - 1)]
            np.bitwise_xor(prev, terms[i], out=low[:, end : end + prev.shape[1]])
            end += prev.shape[1]
        lows.append(low)
    t = len(lows) - 1
    acc = np.zeros((words, 1), dtype=np.uint64)
    # a chunk has at most 2^_BLOCK_BITS cells, or one prefix against a whole
    # level when that level alone is larger
    cells = max(1 << _BLOCK_BITS, (1 << b) * max(sizes))
    pre_buf = np.empty((words, 1 << _BLOCK_BITS), dtype=np.uint64)
    xor_buf = np.empty(words * cells, dtype=np.uint64)
    count_buf = np.empty(words * cells, dtype=np.uint8)

    def scan(
        lower: np.ndarray, x: np.ndarray, size: int, start: int, stop: int | None = None
    ) -> None:
        # the prefixes x ^ (a column of lower) against block columns
        # start..stop, every pair a support of ``size`` rows
        nonlocal best, patterns
        seg = block[:, None, :, start:stop]
        per = seg[0].size
        step = max(1, (1 << _BLOCK_BITS) // per)
        for lo in range(0, lower.shape[1], step):
            chunk = lower[:, lo : lo + step]
            pre = np.bitwise_xor(chunk, x, out=pre_buf[:, : chunk.shape[1]])
            shape = (words, chunk.shape[1]) + seg.shape[2:]
            m = words * chunk.shape[1] * per
            xs = np.bitwise_xor(pre[:, :, None, None], seg, out=xor_buf[:m].reshape(shape))
            w = _weights(xs, nbits, count_buf[:m].reshape(shape))
            best = min(best, int(w.min()) + size)
        patterns += lower.shape[1] * per

    # numpy's buffered iteration splits a broadcast XOR whose suffix is
    # shorter than its buffer at about 3x the cost a cell; a buffer of
    # _SCAN_BUFFER cells takes each suffix as it is, and the errstate
    # scope restores the caller's size on return or on an exception
    with np.errstate():
        np.setbufsize(_SCAN_BUFFER)
        for g in range(1 << (len(free) - b)):
            if g:
                acc = acc ^ free_arr[b + (g & -g).bit_length() - 1, :, None]
            for s in range(1, r + 1):
                scan(lows[0], acc, s, levels[s - 1], levels[s])
            for j, start in enumerate(starts):
                x = acc ^ terms[j]
                # the prefixes of s + 1 rows that end at row j
                for s, low in enumerate(lows):
                    scan(low[:, : math.comb(j, s)], x, s + 1 + r, start)
                # longer ones: the rows between their lowest t and j are added one
                # at a time, downward, and the lowest t come from lows[t]; with
                # ``left`` rows still to add, z and a column of lows[t] make a
                # prefix of depth - r - left + 1 rows
                todo = [(x, j, depth - r - 1 - t)]
                while todo:
                    y, top, left = todo.pop()
                    if left:
                        for i in range(t, top):
                            z = y ^ terms[i]
                            scan(lows[t][:, : math.comb(i, t)], z, depth - left + 1, start)
                            todo.append((z, i, left - 1))
    return best, patterns


# -- meet-in-the-middle distance certification ----------------------------


def _compact(word: int, cols: Sequence[int]) -> int:
    """The bits of ``word`` at ``cols``, packed into bits 0..len(cols) - 1."""
    return sum((word >> c & 1) << i for i, c in enumerate(cols))


def split_patterns(k: int, rank: int, pivot_depth: int, nonpivot_depth: int) -> int:
    """Work of the split search on k rows whose non-pivot part has the given
    rank: every row support of size 1..pivot_depth, and every RA-row support
    of size 0..nonpivot_depth once per kernel word, less the empty support
    with the zero kernel word.  This is exactly ``patterns_scanned``.

    Depths h1 on the pivot side and h2 on the non-pivot side with
    h1 + h2 = max_w - 1 find every nonzero codeword of weight w <= max_w.
    Its pivot weight p and non-pivot weight q add up to w.  If p <= h1, the
    pivot side lists its message, which is its pivot restriction.  Otherwise
    p >= h1 + 1, so q <= max_w - h1 - 1 = h2, and the non-pivot side lists
    it: the RA-row support mu of its non-pivot part has |mu| <= q, since RA
    is reduced, and its message is the preimage of mu plus a kernel word.

    With a shift, h1 + h2 = max_w - 2 is enough (the Brouwer-Zimmermann
    argument with an automorphism: M. Grassl, 2006; A. Betten et al.,
    "Error-Correcting Linear Codes", 2006, 1.7).  Let sigma shift the first
    N coordinates cyclically and fix the rest, let the code be
    sigma-invariant with pivots 0..k - 1, k < N, and let max_w < N / gcd(N,
    k).  sigma keeps weights, so the search needs to list one sigma^s c of
    each lightest word c.  Let a(s) be the pivot weight of sigma^s c and w_N
    the weight of c on the N moving coordinates; every moving coordinate
    passes the k pivots once over the N shifts, so sum_s a(s) = k w_N.  A
    nonzero word has a(s) >= 1, and the search misses sigma^s c only if
    h1 + 1 <= a(s) <= w - h2 - 1 <= max_w - h2 - 1 <= h1 + 1.  Missing every
    shift makes a(s) constant, so N a = k w_N and N / gcd(N, k) divides w_N.
    w_N <= max_w < N / gcd(N, k) leaves w_N = 0, so c is zero on the pivots
    and c = 0.
    """
    kernel_size = 1 << (k - rank)
    pivot = sum(math.comb(k, i) for i in range(1, pivot_depth + 1))
    nonpivot = sum(math.comb(rank, i) for i in range(1, nonpivot_depth + 1))
    return kernel_size - 1 + pivot + nonpivot * kernel_size


def _split_depths(
    code: LinearCode, bound: int, cyclic: int | None = None
) -> tuple[int, int] | None:
    """Pivot and non-pivot depths of the split search up to weight ``bound``,
    or None when it scans nothing (k = 0, k = n, or no nonzero codeword
    weight up to the bound).  max_w is the largest multiple of the weight
    modulus up to the bound; the depths add up to top = max_w - 1, or to
    max_w - 2 (at least 0) when ``cyclic`` = N names a shift premise with
    k < N and max_w < N / gcd(N, k), by the arguments in ``split_patterns``;
    h1 = (top + 1) // 2 and h2 = top - h1."""
    modulus = code.weight_modulus()
    max_w = (bound // modulus) * modulus
    if code.k in (0, code.n) or max_w <= 0:
        return None
    shift = cyclic is not None and code.k < cyclic and max_w < cyclic // math.gcd(cyclic, code.k)
    top = max(max_w - 2, 0) if shift else max_w - 1
    h1 = (top + 1) // 2
    return h1, top - h1


def _split_plan(
    code: LinearCode, bound: int, cyclic: int | None = None
) -> tuple[tuple[int, int], BitMatrix, list[int], tuple[int, ...]] | None:
    """What the split search up to weight ``bound`` scans, or None when it
    scans nothing: its depths, the non-pivot part A of the rref (rows
    compacted to the non-pivot columns) and RA = rref(A) with its pivots."""
    depths = _split_depths(code, bound, cyclic)
    if depths is None:
        return None
    pivots = set(code.pivots)
    nonpivots = [c for c in range(code.n) if c not in pivots]
    a_mat = BitMatrix(len(nonpivots), [_compact(r, nonpivots) for r in code.rref_matrix.row_bits()])
    ra, ra_pivots = rref(a_mat)
    return depths, a_mat, ra.row_bits(), ra_pivots


def predicted_split_patterns(code: LinearCode, bound: int, cyclic: int | None = None) -> int:
    """``patterns_scanned`` of ``code.min_distance_split(bound, cyclic=cyclic)``
    without the scan: ``split_patterns`` of the search's depths and of the
    rank of the generator's non-pivot columns, the count the search gates its
    budget on and checks its scan against."""
    plan = _split_plan(code, bound, cyclic)
    if plan is None:
        return 0
    depths, _, _, ra_pivots = plan
    return split_patterns(code.k, len(ra_pivots), *depths)


def _require_shift_premise(code: LinearCode, cyclic: int) -> None:
    """Refuse the shift rule of ``split_patterns`` unless the pivots are
    0..k - 1 within the first ``cyclic`` = N coordinates and the shift of
    those N coordinates maps every generator row into the code."""
    n, k = code.n, code.k
    if not 0 < cyclic <= n:
        raise InvalidInput(f"cyclic length {cyclic} outside 1..{n}")
    if k > cyclic or code.pivots != tuple(range(k)):
        raise PreconditionError(
            f"the pivots are not 0..{k - 1} within the first {cyclic} coordinates"
        )
    low = (1 << cyclic) - 1
    for r in code.generator.row_bits():
        m = r & low
        if not code.contains(BitVector(n, r ^ m | (m << 1 | m >> (cyclic - 1)) & low)):
            raise PreconditionError(
                f"the code is not invariant under the shift of its first {cyclic} coordinates"
            )


def _min_distance_split(
    code: LinearCode, bound: int, budget: int, cyclic: int | None = None
) -> SplitDistanceResult:
    n, k = code.n, code.k
    if cyclic is not None:
        _require_shift_premise(code, cyclic)
    if k == 0:
        return SplitDistanceResult(False, bound + 1, None, 0)
    if k == n:
        # full [n, n] code: unit vectors are codewords
        return SplitDistanceResult(bound >= 1, 1 if bound >= 1 else bound + 1, 1, 0)

    row_witness = min(r.bit_count() for r in code.rref_matrix.row_bits())
    plan = _split_plan(code, bound, cyclic)
    if plan is None:
        return SplitDistanceResult(False, bound + 1, row_witness, 0)
    # Write A = U . RA with RA = rref(A).  The kernel of m -> m.A consists of
    # the codewords supported entirely on pivot columns; they are scanned in
    # full because their non-pivot weight is 0 regardless of the depth.
    depths, a_mat, ra_rows, ra_pivots = plan
    h1, h2 = depths
    a_rows = a_mat.row_bits()
    predicted = split_patterns(k, len(ra_pivots), h1, h2)
    if predicted > budget:
        raise ResourceLimit(
            f"the split search would scan {predicted:.3g} patterns, beyond the "
            f"budget of {budget}"
        )

    # The columns of A at RA's pivots are the rows of U^T, so m_j with
    # U^T m_j = e_j has m_j . A = RA row j, and ker U^T = ker(m -> m . A).
    solvers, kernel = preimages([a_mat.column_bits(q) for q in ra_pivots], k)

    # ``_low_weight_min`` adds |S| to the popcount of a support S; on both
    # sides that sum is the weight of the codeword S stands for.
    # Pivot side: row i of the rref has a single 1 among the pivot columns,
    # at pivot i, so the codeword of message S is S on the pivots and
    # XOR a_rows[S] elsewhere, and weighs |S| + wt(XOR a_rows[S]).
    pivot_best, pivot_patterns = _low_weight_min(a_rows, a_mat.cols, h1)
    # Non-pivot side: every message m with wt(m . A) <= h2 is m = XOR m_j[mu]
    # ^ f for an RA-row support mu and a kernel word f; mu = {} gives the
    # kernel codewords themselves.  The codeword is m on the pivots and
    # m . A = XOR RA[mu] elsewhere.  RA is reduced, so XOR RA[mu] is mu on
    # RA's pivots, and the codeword weighs |mu| + wt(m) + wt(XOR RA[mu] off
    # RA's pivots): the popcount of the rows RA off its pivots with m_j above
    # them, XORed over mu and with f above them.
    ra_pivot_set = set(ra_pivots)
    rest = [c for c in range(a_mat.cols) if c not in ra_pivot_set]
    width = len(rest)
    nonpivot_best, nonpivot_patterns = _low_weight_min(
        [_compact(ra, rest) | m << width for ra, m in zip(ra_rows, solvers)],
        width + k,
        h2,
        [w << width for w in kernel],
    )
    # generator rows are codewords, so their weights bound the distance
    best = min(row_witness, pivot_best, nonpivot_best)
    patterns = pivot_patterns + nonpivot_patterns
    if patterns != predicted:
        raise InternalConsistencyError(
            f"the split search scanned {patterns} patterns, predicted {predicted}"
        )
    if best <= bound:
        return SplitDistanceResult(True, best, best, patterns, depths)
    return SplitDistanceResult(False, bound + 1, best, patterns, depths)


# -- MacWilliams transform -------------------------------------------------


@lru_cache(maxsize=None)
def _krawtchouk_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """Row j holds K_0(j)..K_n(j), the coefficients of (1 - z)^j (1 + z)^(n - j).

    Row 0 is binomial; (1 + z) P_j = (1 - z) P_{j-1} gives the rest as
    K_w(j) = K_w(j-1) - K_{w-1}(j-1) - K_{w-1}(j).
    """
    rows = [tuple(math.comb(n, w) for w in range(n + 1))]
    for _ in range(n):
        prev, row = rows[-1], [rows[-1][0]]
        for w in range(1, n + 1):
            row.append(prev[w] - prev[w - 1] - row[w - 1])
        rows.append(tuple(row))
    return tuple(rows)


def macwilliams(enum: WeightEnumerator, n: int, k: int) -> WeightEnumerator:
    """Weight enumerator of the dual of an [n, k] code, exactly.

    A'_w = 2^-k sum_j A_j K_w(j); any non-integer or negative coefficient
    means the input enumerator was not that of an [n, k] code.
    """
    if enum.n != n:
        raise InvalidInput(f"enumerator length {enum.n} != {n}")
    if enum.total() != 1 << k:
        raise InvalidInput(f"enumerator sums to {enum.total()}, expected 2^{k}")
    scale = 1 << k
    acc = [0] * (n + 1)
    for a, row in zip(enum.counts, _krawtchouk_rows(n)):
        if a:
            acc = [x + a * y for x, y in zip(acc, row)]
    out = []
    for w, total in enumerate(acc):
        q, r = divmod(total, scale)
        if r or q < 0:
            raise InternalConsistencyError(
                f"transform coefficient A'_{w} = {total}/{scale} is not a natural number"
            )
        out.append(q)
    return WeightEnumerator(tuple(out))


# -- assorted helpers used by constructions and the harness ----------------


def extend_with_parity(code: LinearCode) -> LinearCode:
    """Append an overall parity column to every generator row."""
    rows = []
    for r in code.generator.row_bits():
        rows.append(r | (r.bit_count() & 1) << code.n)
    return LinearCode(BitMatrix(code.n + 1, rows))


def appended_parity_counts(enum: WeightEnumerator) -> WeightEnumerator:
    """Spectrum of ``extend_with_parity`` of a code from the code's: a word
    of weight w gains its parity bit, so A'_{w + (w mod 2)} = A_w."""
    counts = [0] * (len(enum.counts) + 1)
    for w, a in enumerate(enum.counts):
        counts[w + w % 2] += a
    return WeightEnumerator(tuple(counts))


def dual_min_distance(code: LinearCode, budget: int = DEFAULT_BUDGET) -> int | None:
    """d_min of the dual from the smaller spectrum: the dual's own 2^(n-k)
    words, or the code's 2^k words and the MacWilliams transform.  None when
    the dual is zero-dimensional or that spectrum exceeds ``budget``."""
    if code.k == code.n:
        return None
    try:
        if code.n - code.k <= code.k:
            return code.dual().min_distance(budget)
        return macwilliams(code.weight_enumerator(budget), code.n, code.k).min_distance()
    except ResourceLimit:
        return None


def random_linear_code(n: int, k: int, rng) -> LinearCode:
    """Random [n, k] code (uniform over full-rank generators)."""
    if not 0 < k <= n:
        raise InvalidInput(f"bad dimensions [{n},{k}]")
    while True:
        rows = [int(rng.getrandbits(n)) for _ in range(k)]
        if len(insert_rows({}, rows)) == k:
            return LinearCode(BitMatrix(n, rows))


def random_self_orthogonal_code(n: int, k: int, rng) -> LinearCode:
    """Random self-orthogonal [n, k] code by incremental row rejection."""
    if k > n // 2:
        raise PreconditionError(f"self-orthogonal codes need k <= n/2, got [{n},{k}]")
    for _ in range(4000):
        rows: list[int] = []
        basis: dict[int, int] = {}  # the span of rows, for independence
        tries = 0
        while len(rows) < k and tries < 60 * (k + 1):
            tries += 1
            cand = int(rng.getrandbits(n))
            if not cand or cand.bit_count() & 1:
                continue
            if parities(rows, cand):
                continue
            if insert_rows(basis, [cand]):
                rows.append(cand)
        if len(rows) == k:
            return LinearCode(BitMatrix(n, rows))
    raise PreconditionError(f"could not sample a self-orthogonal [{n},{k}] code")
