"""Combinations of self-orthogonal codes.

Each operation returns a ConstructionReport holding the built code together
with the dimensions and dual-distance claim of the underlying theorem, so the
theorems themselves can serve as test oracles: ``report.verify()`` re-measures
everything the claim pins down.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bch import Gf2mField
from .codes import DEFAULT_BUDGET, LinearCode, _span_block, _weights, dual_min_distance
from .codes import require_mutually_orthogonal
from .errors import InvalidInput, PreconditionError, ResourceLimit
from .gf2 import BitMatrix, BitVector, apply_packed, bools_as_bytes, bytes_as_bools, bytes_as_ints
from .gf2 import insert_rows, ints_as_bytes, pack_rows, packed_table, rref, words_as_bytes

# words a side computation may enumerate: a predicted dual distance, the dual
# words of construction Y1, the distance `qcss pg` prints
PREDICT_BUDGET = 1 << 24


@dataclass(frozen=True)
class ConstructionReport:
    code: LinearCode
    predicted_n: int
    predicted_k: int
    predicted_dual_distance: int | None = None
    # how the measured dual distance relates to the prediction: the theorem
    # gives equality ("=="), a lower bound (">="), or only an upper bound ("<=")
    dual_distance_relation: str = "=="
    warning: str | None = None

    def verify(self, budget: int = DEFAULT_BUDGET) -> list[str]:
        """Re-measure the claims; returns human-readable violations (none = pass)."""
        problems = []
        if self.code.n != self.predicted_n:
            problems.append(f"length {self.code.n} != predicted {self.predicted_n}")
        if self.code.k != self.predicted_k:
            problems.append(f"dimension {self.code.k} != predicted {self.predicted_k}")
        if not self.code.is_self_orthogonal():
            problems.append("result is not self-orthogonal")
        p = self.predicted_dual_distance
        if p is not None:
            d = dual_min_distance(self.code, budget).exact
            if d is None:
                problems.append(f"dual distance claim not checked within the budget of {budget}")
            elif self.dual_distance_relation == "==" and d != p:
                problems.append(f"dual distance {d} != predicted {p}")
            elif self.dual_distance_relation == ">=" and d < p:
                problems.append(f"dual distance {d} below bound {p}")
            elif self.dual_distance_relation == "<=" and d > p:
                problems.append(f"dual distance {d} above bound {p}")
        return problems

    def quantum_parameters(self, budget: int = DEFAULT_BUDGET) -> tuple[int, int, int | None]:
        """[[n, n-2k, d]] of the CSS code built from the result with C1 = C2;
        d is the prediction under "==", else measured (None beyond ``budget``)."""
        d = self.predicted_dual_distance if self.dual_distance_relation == "==" else None
        if d is None:
            d = dual_min_distance(self.code, budget).exact
        return self.code.n, self.code.n - 2 * self.code.k, d


def _pure_min(*ds: int | None) -> int | None:
    """The least of some dual distances, None if any is unknown: the
    prediction of every construction whose dual words each lie in one block."""
    return None if None in ds else min(ds)


def _require_self_orthogonal(*codes: LinearCode) -> None:
    for c in codes:
        if not c.is_self_orthogonal():
            raise PreconditionError(f"{c!r} is not self-orthogonal")


def _coset_leader_basis(sub: LinearCode, sup: LinearCode) -> list[int]:
    """Deterministic basis of sup/sub: sup's rref rows reduced against sub."""
    if sub.n != sup.n:
        raise PreconditionError(f"length mismatch: {sub.n} != {sup.n}")
    if not sub.is_subcode_of(sup):
        raise PreconditionError("first code is not a subcode of the second")
    basis: dict[int, int] = {}
    insert_rows(basis, sub.rref_matrix.row_bits())
    leaders = insert_rows(basis, sup.rref_matrix.row_bits())
    if len(leaders) != sup.k - sub.k:
        raise PreconditionError("coset reduction lost rank")
    return leaders


# -- lengthening constructions ----------------------------------------------


def augment(code: LinearCode) -> ConstructionReport:
    """Adjoin the all-ones word to a self-orthogonal code of even length."""
    _require_self_orthogonal(code)
    if code.n % 2:
        raise PreconditionError(f"length {code.n} is odd")
    ones = BitVector.ones(code.n)
    if code.contains(ones):
        raise PreconditionError("code already contains the all-ones word")
    rows = code.generator.row_bits() + [ones.bits]
    out = LinearCode(BitMatrix(code.n, rows))
    return ConstructionReport(
        code=out,
        predicted_n=code.n,
        predicted_k=code.k + 1,
        predicted_dual_distance=dual_min_distance(code, PREDICT_BUDGET).exact,
        dual_distance_relation=">=",
    )


def shorten(code: LinearCode, i: int) -> ConstructionReport:
    """Keep the codewords vanishing at coordinate i, then delete it."""
    _require_self_orthogonal(code)
    if not 0 <= i < code.n:
        raise InvalidInput(f"coordinate {i} out of range for length {code.n}")
    zero_column = code.generator.column_bits(i) == 0
    warning = None
    if zero_column:
        warning = f"column {i} is identically zero; dimension does not drop"
    out = _remove_support(code, (i,))
    d = dual_min_distance(code, PREDICT_BUDGET).exact
    return ConstructionReport(
        code=out,
        predicted_n=code.n - 1,
        predicted_k=code.k if zero_column else code.k - 1,
        predicted_dual_distance=None if d is None else max(1, d - 1),
        dual_distance_relation=">=",
        warning=warning,
    )


def plotkin(c1: LinearCode, c2: LinearCode) -> ConstructionReport:
    """(u | u+v) combination; dual distance is exactly min(2*d2, d1)."""
    _require_self_orthogonal(c1, c2)
    require_mutually_orthogonal(c1, c2)
    n = c1.n
    rows = [g | g << n for g in c1.generator.row_bits()]
    rows += [h << n for h in c2.generator.row_bits()]
    out = LinearCode(BitMatrix(2 * n, rows))
    d1, d2 = (dual_min_distance(c, PREDICT_BUDGET).exact for c in (c1, c2))
    return ConstructionReport(
        code=out,
        predicted_n=2 * n,
        predicted_k=c1.k + c2.k,
        predicted_dual_distance=_pure_min(d1, None if d2 is None else 2 * d2),
        dual_distance_relation="==",
    )


def triple_sum(c1: LinearCode, c2: LinearCode) -> ConstructionReport:
    """(u+w | v+w | u+v+w) combination; no dual-distance estimate exists."""
    _require_self_orthogonal(c1, c2)
    require_mutually_orthogonal(c1, c2)
    n = c1.n
    rows = [g | g << (2 * n) for g in c1.generator.row_bits()]
    rows += [g << n | g << (2 * n) for g in c1.generator.row_bits()]
    rows += [h | h << n | h << (2 * n) for h in c2.generator.row_bits()]
    out = LinearCode(BitMatrix(3 * n, rows))
    return ConstructionReport(code=out, predicted_n=3 * n, predicted_k=2 * c1.k + c2.k)


def _kron(a: int, b: int, nb: int) -> int:
    out = 0
    aa = a
    while aa:
        low = aa & -aa
        out |= b << ((low.bit_length() - 1) * nb)
        aa ^= low
    return out


def nebe(c: LinearCode, d: LinearCode, e: LinearCode) -> ConstructionReport:
    """Tensor combination C (x) E + D (x) E_dual of length n*m.

    The dimension claim k*m needs E + E_dual to span the full space; when the
    hull of E is nontrivial the measured dimension is smaller and the report
    says so instead of overclaiming.
    """
    _require_self_orthogonal(c, d)
    if c.n != d.n:
        raise PreconditionError(f"length mismatch: {c.n} != {d.n}")
    if c.k != d.k:
        raise PreconditionError(f"dimension mismatch: {c.k} != {d.k}")
    m = e.n
    e_dual = e.dual()
    rows = [
        _kron(g, h, m)
        for g in c.generator.row_bits()
        for h in e.generator.row_bits()
    ]
    rows += [
        _kron(g, h, m)
        for g in d.generator.row_bits()
        for h in e_dual.generator.row_bits()
    ]
    out = LinearCode.from_spanning(BitMatrix(c.n * m, rows))
    warning = None
    predicted_k = c.k * m
    if out.k != predicted_k:
        warning = (
            f"hull of the length-{m} code is nontrivial: dimension {out.k} < {predicted_k}"
        )
        predicted_k = out.k
    return ConstructionReport(
        code=out, predicted_n=c.n * m, predicted_k=predicted_k, warning=warning
    )


def product(c1: LinearCode, c2: LinearCode) -> ConstructionReport:
    """Product code; dual distance is exactly min(d1, d2)."""
    if not (c1.is_self_orthogonal() or c2.is_self_orthogonal()):
        raise PreconditionError("neither factor is self-orthogonal")
    rows = [
        _kron(g, h, c2.n)
        for g in c1.generator.row_bits()
        for h in c2.generator.row_bits()
    ]
    out = LinearCode(BitMatrix(c1.n * c2.n, rows))
    d1, d2 = (dual_min_distance(c, PREDICT_BUDGET).exact for c in (c1, c2))
    return ConstructionReport(
        code=out,
        predicted_n=c1.n * c2.n,
        predicted_k=c1.k * c2.k,
        predicted_dual_distance=_pure_min(d1, d2),
        dual_distance_relation="==",
    )


# -- concatenation -----------------------------------------------------------


@dataclass(frozen=True)
class OuterCode:
    """An [n, k] code over GF(2^m); symbols are ints in poly representation."""

    field: Gf2mField
    n: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for row in self.rows:
            if len(row) != self.n:
                raise InvalidInput(f"outer row of length {len(row)}, expected {self.n}")
            if any(sym >> self.field.m for sym in row):
                raise InvalidInput(f"outer symbol outside GF(2^{self.field.m})")

    @property
    def k(self) -> int:
        return len(self.rows)

    @classmethod
    def repetition(cls, field: Gf2mField, n: int) -> "OuterCode":
        return cls(field=field, n=n, rows=((1,) * n,))

    @classmethod
    def identity(cls, field: Gf2mField, n: int) -> "OuterCode":
        rows = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        return cls(field=field, n=n, rows=rows)


def concatenate(inner: LinearCode, outer: OuterCode) -> ConstructionReport:
    """Concatenation: outer symbols live in GF(2^k1) and expand to inner words.

    The symbol-to-bits map is the coefficient vector with respect to the fixed
    primitive polynomial for the inner dimension; inner information bits sit
    on the rref pivot columns.

    The inner dual distance is only an upper bound on the dual distance of the
    result.  A word of the inner dual placed in one column block is orthogonal
    to every codeword, which gives the bound; the reverse direction fails, for
    example, when the outer code is a repetition code: (e|e|0...) with e a unit
    vector is orthogonal to every (w|w|w|...), so the dual distance drops to 2.
    """
    _require_self_orthogonal(inner)
    k1 = inner.k
    if outer.field.m != k1:
        raise PreconditionError(
            f"outer symbols are GF(2^{outer.field.m}) but the inner dimension is {k1}"
        )
    to_bits = packed_table(inner.rref_matrix.row_bits(), inner.n)
    mul = outer.field.mul
    # the symbols x^i * coef of outer row r, for each i < k1 in turn
    symbols = [mul(1 << i, coef) for row in outer.rows for i in range(k1) for coef in row]
    words = apply_packed(to_bits, ints_as_bytes(symbols, (k1 + 7) // 8))
    bits = bytes_as_bools(words_as_bytes(words, inner.n), inner.n)
    rows = bytes_as_ints(bools_as_bytes(bits.reshape(outer.k * k1, outer.n * inner.n)))
    out = LinearCode(BitMatrix(inner.n * outer.n, rows))
    return ConstructionReport(
        code=out,
        predicted_n=inner.n * outer.n,
        predicted_k=k1 * outer.k,
        predicted_dual_distance=dual_min_distance(inner, PREDICT_BUDGET).exact,
        dual_distance_relation="<=",
    )


# -- X-family ------------------------------------------------------------------


def _mixed_word_report(
    out: LinearCode, k: int, pure: tuple, mixed: tuple, extra: int
) -> ConstructionReport:
    """The X-family rule.  The dual holds pure words, a dual word of one code
    of ``pure`` in its own column block, and mixed words across blocks.  The
    prediction, ``_pure_min`` of the duals of ``pure``, is "==" while it does
    not exceed the floor that every mixed word weighs at least, the dual
    distances of ``mixed`` plus ``extra``, and "<=" with a warning beyond it
    or when the floor is unknown.  The floor is computed only for a prediction."""
    predicted = _pure_min(*(dual_min_distance(c, PREDICT_BUDGET).exact for c in pure))
    relation, warning = "==", None
    if predicted is not None:
        ds = [dual_min_distance(c, PREDICT_BUDGET).exact for c in mixed]
        floor = None if None in ds else sum(ds) + extra
        if floor is None or predicted > floor:
            relation = "<="
            least = "an unknown weight" if floor is None else f"as little as {floor}"
            warning = f"mixed dual words may weigh {least}; {predicted} is only an upper bound"
    return ConstructionReport(
        code=out,
        predicted_n=out.n,
        predicted_k=k,
        predicted_dual_distance=predicted,
        dual_distance_relation=relation,
        warning=warning,
    )


def _chain_with_tails(
    chain: tuple[LinearCode, ...], tails: tuple[LinearCode, ...]
) -> ConstructionReport:
    """c_0 < ... < c_s glued to tails: c_0's rows, then for each step the coset
    leaders of c_t over c_{t-1}, each glued to one row of tail t in its own
    column block after c_s's columns.  A mixed dual word is nonzero on the
    chain block, inside dual(c_0), and on some tail: floor d(dual(c_0)) + 1."""
    _require_self_orthogonal(*chain, *tails)
    rows = list(chain[0].generator.row_bits())
    offset = chain[-1].n
    for t, (sub, sup, tail) in enumerate(zip(chain, chain[1:], tails), 1):
        leaders = _coset_leader_basis(sub, sup)
        if tail.k != len(leaders):
            raise PreconditionError(f"tail {t} dimension {tail.k} != coset count {len(leaders)}")
        rows += [lead | g << offset for lead, g in zip(leaders, tail.generator.row_bits())]
        offset += tail.n
    out = LinearCode(BitMatrix(offset, rows))
    return _mixed_word_report(out, chain[-1].k, (chain[-1], *tails), chain[:1], 1)


def construction_x(c1: LinearCode, c2: LinearCode, c3: LinearCode) -> ConstructionReport:
    """(c2 | image of its coset) for a chain c1 < c2 with tail c3.  Dual
    distance min(d2, d3) by the X-family rule, floor d(dual(c1)) + 1."""
    return _chain_with_tails((c1, c2), (c3,))


def construction_x3(
    c1: LinearCode,
    c2: LinearCode,
    c3: LinearCode,
    c4: LinearCode,
    c5: LinearCode,
) -> ConstructionReport:
    """(c3 | coset of c2 over c1 | coset of c3 over c2), tails c4 and c5.  Dual
    distance min(d3, d4, d5) by the X-family rule, floor d(dual(c1)) + 1."""
    return _chain_with_tails((c1, c2, c3), (c4, c5))


def construction_x4(
    c1: LinearCode, c2: LinearCode, c3: LinearCode, c4: LinearCode
) -> ConstructionReport:
    """(c2 | coset image + c3) gluing two chains c1 < c2 and c3 < c4.  Dual
    distance min(d2, d4) by the X-family rule, floor d1 + d3: a mixed word
    pairs a word of dual(c1) \\ dual(c2) with one of dual(c3) \\ dual(c4)."""
    _require_self_orthogonal(c1, c2, c3, c4)
    leaders2 = _coset_leader_basis(c1, c2)
    leaders4 = _coset_leader_basis(c3, c4)
    if len(leaders2) != len(leaders4):
        raise PreconditionError(
            f"coset counts differ: {len(leaders2)} != {len(leaders4)}"
        )
    n1 = c2.n
    rows = list(c1.generator.row_bits())
    rows += [lead | other << n1 for lead, other in zip(leaders2, leaders4)]
    rows += [h << n1 for h in c3.generator.row_bits()]
    out = LinearCode(BitMatrix(n1 + c4.n, rows))
    return _mixed_word_report(out, c2.k + c3.k, (c2, c4), (c1, c3), 0)


# -- Y-family (shortening on dual supports) -----------------------------------


def _dual_span(code: LinearCode, budget: int) -> tuple[np.ndarray, np.ndarray]:
    """The dual's nonzero words as a word-major block, and their weights;
    ``ResourceLimit`` before any enumeration when its 2^k words exceed ``budget``."""
    dual = code.dual()
    if 1 << dual.k > budget:
        raise ResourceLimit(f"dual has 2^{dual.k} words, beyond the search budget of {budget}")
    packed = pack_rows(dual.generator.row_bits(), code.n)
    block = _span_block(packed[:, :, None], packed.shape[1])[:, 1:]
    return block, _weights(block, code.n)


def _least_support(block: np.ndarray, n: int) -> tuple[int, ...]:
    """The lexicographically least support of the words of a word-major block."""
    return min(BitVector(n, w).support() for w in set(bytes_as_ints(block.T)))


def _remove_support(code: LinearCode, support: tuple[int, ...]) -> LinearCode:
    """Keep the codewords vanishing on ``support``, then delete those columns.

    The rref of [G_S | G] clears the support columns first, so its rows with
    a pivot outside G_S span exactly the codewords that vanish on the support.
    """
    w = len(support)
    aug = [
        sum((r >> s & 1) << j for j, s in enumerate(support)) | r << w
        for r in code.generator.row_bits()
    ]
    red, pivots = rref(BitMatrix(w + code.n, aug))
    kept = [
        BitVector(code.n, r >> w).delete(support).bits
        for r, p in zip(red.row_bits(), pivots)
        if p >= w
    ]
    return LinearCode.from_spanning(BitMatrix(code.n - w, kept))


def construction_y1(code: LinearCode) -> ConstructionReport:
    """Shorten on the support of a minimum-weight dual word; of several, the
    lexicographically least support."""
    _require_self_orthogonal(code)
    words, weights = _dual_span(code, PREDICT_BUDGET)
    if not weights.size:
        raise PreconditionError("dual code is zero-dimensional")
    best_w = int(weights.min())
    out = _remove_support(code, _least_support(words[:, weights == best_w], code.n))
    return ConstructionReport(
        code=out,
        predicted_n=code.n - best_w,
        predicted_k=code.k - best_w + 1,
    )


def construction_y4(code: LinearCode) -> ConstructionReport:
    """Shorten on the union support of the best pair of distinct dual words:
    the lightest union, and of several, the lexicographically least support.

    The pair search is quadratic in the dual size, hence the tighter budget
    of 2^13 dual words.
    """
    _require_self_orthogonal(code)
    words, weights = _dual_span(code, 1 << 13)
    if weights.size < 2:
        raise PreconditionError("dual code has fewer than two nonzero words")
    best_w, best = code.n + 1, []
    for i in range(weights.size - 1):
        unions = words[:, i + 1 :] | words[:, i, None]
        union_weights = _weights(unions, code.n)
        w = int(union_weights.min())
        if w < best_w:
            best_w, best = w, []
        if w == best_w:
            best.append(unions[:, union_weights == w])
    out = _remove_support(code, _least_support(np.concatenate(best, axis=1), code.n))
    return ConstructionReport(
        code=out,
        predicted_n=code.n - best_w,
        predicted_k=code.k - best_w + 2,
    )


def extend_parity_dual(code: LinearCode) -> ConstructionReport:
    """Zero-pad the code and adjoin the all-ones word of even length n+1.

    This realizes the dual of the extended dual for odd-length self-orthogonal
    cyclic codes (the parity-bit route to even-distance table rows).
    """
    _require_self_orthogonal(code)
    if code.n % 2 == 0:
        raise PreconditionError(f"length {code.n} is even; extension needs odd length")
    rows = [g for g in code.generator.row_bits()]  # high bit (column n) stays 0
    rows.append((1 << (code.n + 1)) - 1)
    out = LinearCode(BitMatrix(code.n + 1, rows))
    return ConstructionReport(code=out, predicted_n=code.n + 1, predicted_k=code.k + 1)
