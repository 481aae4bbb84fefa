"""Binary linear codes: duals, orthogonality, weight spectra, distances.

Weight spectra are computed by a two-level Gray-code scan: the low 16
generator rows are expanded once into a packed block, the remaining rows are
Gray-stepped and XORed into the whole block at once, and popcounts come from
``np.bitwise_count``.  This is what makes 2^29-codeword enumerations practical.
"""
from __future__ import annotations

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
    kernel_from_rref,
    nullspace_basis,
    pack_rows,
    parities,
    rref,
)

DEFAULT_BUDGET = 1 << 29

_BLOCK_BITS = 16


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
    during the scan) is an upper bound on the true distance.
    """

    found: bool
    value: int
    witness_weight: int | None
    patterns_scanned: int


class LinearCode:
    """An [n, k] binary code held as k independent generator rows."""

    def __init__(self, generator: BitMatrix):
        red, pivots = rref(generator)
        if red.rows != generator.rows:
            raise InvalidInput(
                f"generator rows are dependent: rank {red.rows} < {generator.rows}"
            )
        self.generator = generator
        self._rref = red
        self._pivots = pivots
        self._dual: LinearCode | None = None
        self._enumerator: WeightEnumerator | None = None

    @classmethod
    def from_spanning(cls, rows: BitMatrix) -> "LinearCode":
        """Code spanned by arbitrary rows; the kept basis is the rref."""
        red, _ = rref(rows)
        return cls(red)

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
            basis = nullspace_basis(self.generator)
            dual = LinearCode.from_spanning(basis)
            dual._dual = self
            self._dual = dual
        return self._dual

    # -- enumeration ----------------------------------------------------

    def weight_enumerator(self, budget: int = DEFAULT_BUDGET) -> WeightEnumerator:
        if self._enumerator is None:
            if 1 << self.k > budget:
                raise ResourceLimit(
                    f"2^{self.k} codewords exceed the budget of {budget}; "
                    "use min_distance_split for distance bounds"
                )
            counts = _weight_counts(self.generator.row_bits(), self.n)
            self._enumerator = WeightEnumerator(tuple(int(c) for c in counts))
        return self._enumerator

    def min_distance(self, budget: int = DEFAULT_BUDGET) -> int:
        if self.k == 0:
            raise InvalidInput("zero-dimensional code has no minimum distance")
        return self.weight_enumerator(budget).min_distance()

    def weight_modulus(self) -> int:
        """Largest of 4, 2, 1 dividing every codeword weight, from the basis."""
        rows = self.generator.row_bits()
        if any(r.bit_count() & 1 for r in rows):
            return 1
        pair_even = not any(parities(rows[i + 1 :], a) for i, a in enumerate(rows))
        if pair_even and all(r.bit_count() % 4 == 0 for r in rows):
            return 4
        return 2

    def min_distance_split(self, bound: int) -> SplitDistanceResult:
        return _min_distance_split(self, bound)


# -- spectrum scanner ----------------------------------------------------


def _weight_counts(row_bits: Sequence[int], n: int) -> np.ndarray:
    k = len(row_bits)
    arr = pack_rows(row_bits, n)
    words = arr.shape[1]
    k_lo = min(k, _BLOCK_BITS)
    block = np.zeros((1, words), dtype=np.uint64)
    for j in range(k_lo):
        block = np.vstack([block, block ^ arr[j]])
    counts = np.zeros(n + 1, dtype=np.int64)

    def accumulate(blk: np.ndarray) -> None:
        w = np.bitwise_count(blk).sum(axis=1, dtype=np.int64)
        nonlocal counts
        counts += np.bincount(w, minlength=n + 1)

    accumulate(block)
    if k > k_lo:
        buf = np.empty_like(block)
        acc = np.zeros(words, dtype=np.uint64)
        for i in range(1, 1 << (k - k_lo)):
            j = (i & -i).bit_length() - 1 + k_lo
            acc ^= arr[j]
            np.bitwise_xor(block, acc, out=buf)
            accumulate(buf)
    return counts


# -- meet-in-the-middle distance certification ----------------------------


def _low_weight_min(rows: list[int], extra: list[int] | None, depth: int) -> tuple[int, int]:
    """Minimum of |S| + popcount(xor rows[S]) (+ popcount(xor extra[S]))
    over all supports S with 1 <= |S| <= depth.

    When ``extra`` is given the |S| term is replaced by the popcount of the
    XOR of the extra accumulators (used for the coset-solver side where the
    message weight is not the support size).  Returns (best, patterns).
    """
    kk = len(rows)
    best = 1 << 62
    patterns = 0
    use_extra = extra is not None

    def rec(start: int, left: int, acc: int, eacc: int, base: int) -> None:
        nonlocal best, patterns
        if left == 1:
            if use_extra:
                for j in range(start, kk):
                    w = (acc ^ rows[j]).bit_count() + (eacc ^ extra[j]).bit_count()
                    if w < best:
                        best = w
            else:
                b = base + 1
                for j in range(start, kk):
                    w = b + (acc ^ rows[j]).bit_count()
                    if w < best:
                        best = w
            patterns += kk - start
            return
        for j in range(start, kk):
            y = acc ^ rows[j]
            e = eacc ^ extra[j] if use_extra else 0
            w = (y.bit_count() + e.bit_count()) if use_extra else (base + 1 + y.bit_count())
            if w < best:
                best = w
            patterns += 1
            rec(j + 1, left - 1, y, e, base + 1)

    if depth >= 1 and kk:
        rec(0, depth, 0, 0, 0)
    return best, patterns


def split_patterns(k: int, rank: int, half: int) -> int:
    """Work of the split search on k rows whose non-pivot part has the given
    rank: the 2^(k - rank) - 1 nonzero kernel words, every row support of
    size 1..half, and every RA-row support of size 1..half once per kernel
    word.  With a trivial kernel this is exactly ``patterns_scanned``.
    """
    kernel_size = 1 << (k - rank)
    return kernel_size - 1 + sum(
        math.comb(k, i) + math.comb(rank, i) * kernel_size for i in range(1, half + 1)
    )


def _min_distance_split(code: LinearCode, bound: int) -> SplitDistanceResult:
    n, k = code.n, code.k
    if k == 0:
        return SplitDistanceResult(False, bound + 1, None, 0)
    red = code.rref_matrix.row_bits()
    pivots = code.pivots
    nonpivots = [c for c in range(n) if c not in set(pivots)]

    n_np = len(nonpivots)
    if n_np == 0:
        # full [n, n] code: unit vectors are codewords
        return SplitDistanceResult(bound >= 1, 1 if bound >= 1 else bound + 1, 1, 0)

    modulus = code.weight_modulus()
    row_witness = min(r.bit_count() for r in red)
    max_w = (bound // modulus) * modulus
    if max_w <= 0:
        return SplitDistanceResult(False, bound + 1, row_witness, 0)
    half = max_w // 2

    # restriction of each rref row to the non-pivot columns, compacted
    a_rows = []
    for r in red:
        a_rows.append(sum((r >> c & 1) << i for i, c in enumerate(nonpivots)))

    # generator rows are codewords, so their weights bound the distance
    best = row_witness
    patterns = 0

    # Write A = U . RA with RA = rref(A).  The kernel of m -> m.A consists of
    # the codewords supported entirely on pivot columns; they are scanned in
    # full because their non-pivot weight is 0 regardless of `half`.
    a_mat = BitMatrix(n_np, a_rows)
    ra, ra_pivots = rref(a_mat)
    ra_rows = ra.row_bits()
    rank = len(ra_rows)
    predicted = split_patterns(k, rank, half)
    if predicted > DEFAULT_BUDGET:
        raise ResourceLimit(
            f"the split search would scan {predicted:.3g} patterns, beyond the "
            f"budget of {DEFAULT_BUDGET}"
        )

    # One rref of [U^T | I] gives the kernel of U^T and, in its identity
    # part T, a preimage m_j of every RA row j: U^T m_j = e_j is solved by
    # m_j = sum_i T_i[j] e_{c_i} over the pivots c_i of rref(U^T) = T U^T.
    u_rows = [a_mat.column_bits(q) for q in ra_pivots]  # columns of A at RA pivots
    aug = [u | 1 << (k + j) for j, u in enumerate(u_rows)]
    red_u, u_pivots = rref(BitMatrix(k + rank, aug))
    red_u_rows = red_u.row_bits()
    kernel = kernel_from_rref(red_u_rows, u_pivots, k)
    kernel_words = _span(kernel)
    for kw in kernel_words:
        if kw:
            w = kw.bit_count()
            if w < best:
                best = w
    patterns += len(kernel_words) - 1

    if half >= 1:
        # pivot side: codeword = XOR of rows S, pivot-restriction weight = |S|
        gen_best, gen_patterns = _low_weight_min(a_rows, None, half)
        best = min(best, gen_best)
        patterns += gen_patterns

        # non-pivot side: all messages m with wt(m . A) <= half.  Enumerating
        # mu-supports over RA rows covers every low-weight image; a preimage
        # of RA row j is carried alongside so popcount(m) is exact, and a
        # nontrivial kernel expands each preimage into a coset.
        solvers = [
            sum(1 << c for row, c in zip(red_u_rows, u_pivots) if row >> (k + j) & 1)
            for j in range(rank)
        ]
        if len(kernel_words) == 1:
            par_best, par_patterns = _low_weight_min(ra_rows, solvers, half)
        else:
            par_best, par_patterns = _low_weight_min_coset(
                ra_rows, solvers, kernel_words, half
            )
        best = min(best, par_best)
        patterns += par_patterns

    if best <= bound:
        return SplitDistanceResult(True, best, best, patterns)
    return SplitDistanceResult(False, bound + 1, best, patterns)


def _low_weight_min_coset(
    rows: list[int], solvers: list[int], kernel_words: list[int], depth: int
) -> tuple[int, int]:
    kk = len(rows)
    best = 1 << 62
    patterns = 0

    def rec(start: int, left: int, acc: int, m0: int) -> None:
        nonlocal best, patterns
        for j in range(start, kk):
            y = acc ^ rows[j]
            m = m0 ^ solvers[j]
            yw = y.bit_count()
            for kw in kernel_words:
                w = yw + (m ^ kw).bit_count()
                if w < best:
                    best = w
            patterns += 1
            if left > 1:
                rec(j + 1, left - 1, y, m)

    if depth >= 1 and kk:
        rec(0, depth, 0, 0)
    return best, patterns


def _span(basis: list[int]) -> list[int]:
    words = [0]
    for b in basis:
        words += [w ^ b for w in words]
    return words


# -- MacWilliams transform -------------------------------------------------


@lru_cache(maxsize=None)
def _krawtchouk(n: int, w: int, j: int) -> int:
    return sum(
        (-1) ** i * math.comb(j, i) * math.comb(n - j, w - i)
        for i in range(0, min(j, w) + 1)
    )


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
    out = []
    for w in range(n + 1):
        acc = sum(enum.counts[j] * _krawtchouk(n, w, j) for j in range(n + 1))
        q, r = divmod(acc, scale)
        if r or q < 0:
            raise InternalConsistencyError(
                f"transform coefficient A'_{w} = {acc}/{scale} is not a natural number"
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


def dual_distance_via_transform(code: LinearCode, budget: int = DEFAULT_BUDGET) -> int:
    """d_min of the dual, via the primal spectrum and the transform."""
    enum = code.weight_enumerator(budget)
    return macwilliams(enum, code.n, code.k).min_distance()


def random_linear_code(n: int, k: int, rng) -> LinearCode:
    """Random [n, k] code (uniform over full-rank generators)."""
    if not 0 < k <= n:
        raise InvalidInput(f"bad dimensions [{n},{k}]")
    while True:
        rows = [int(rng.getrandbits(n)) for _ in range(k)]
        m = BitMatrix(n, rows)
        if rref(m)[0].rows == k:
            return LinearCode(m)


def random_self_orthogonal_code(n: int, k: int, rng, max_tries: int = 4000) -> LinearCode:
    """Random self-orthogonal [n, k] code by incremental row rejection."""
    if k > n // 2:
        raise PreconditionError(f"self-orthogonal codes need k <= n/2, got [{n},{k}]")
    for _ in range(max_tries):
        rows: list[int] = []
        tries = 0
        while len(rows) < k and tries < 60 * (k + 1):
            tries += 1
            cand = int(rng.getrandbits(n))
            if not cand or cand.bit_count() & 1:
                continue
            if parities(rows, cand):
                continue
            m = BitMatrix(n, rows + [cand])
            if rref(m)[0].rows == len(rows) + 1:
                rows.append(cand)
        if len(rows) == k:
            return LinearCode(BitMatrix(n, rows))
    raise PreconditionError(f"could not sample a self-orthogonal [{n},{k}] code")
