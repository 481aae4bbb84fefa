"""Cyclic and BCH codes over GF(2), with GF(2^m) arithmetic.

Polynomials over GF(2) are ints with bit i = coefficient of x^i, so the hex
rendering of a generator polynomial is its value at x = 2.

Each code length n has one cached table (``_length_table``): the cyclotomic
coset of every residue, and the units that are least in their coset under
doubling.  Zero sets are unions of cosets, so relabelling the roots by u or
by 2u gives the same scaled zero set, and window searches scan one unit per
coset.  ``best_windows`` scans the windows of a whole batch of zero sets in
numpy chunks; ``best_window`` is its one-set call, and the self-orthogonal
search makes one call for its code zero sets and one for their duals.

GF(2^m) multiplies as polynomials; its one log/exp table, ``_log_exp``, is
built when a Berlekamp-Massey decoder first runs.  A word's values at field
elements are GF(2)-linear in its bits: ``_position_values`` gives that map's
columns from the n powers of beta, whose ``gf2.packed_table`` is built once
per length and field for zero sets and once per spec for the decoder.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .codes import _BLOCK_BITS, DEFAULT_BUDGET, LinearCode, WeightEnumerator, _weight_counts
from .errors import (
    DecodingFailure,
    InternalConsistencyError,
    InvalidInput,
    PreconditionError,
    ResourceLimit,
)
from .gf2 import (
    BitMatrix,
    apply_packed,
    bools_as_bytes,
    bytes_as_bools,
    bytes_as_ints,
    check_block,
    insert_rows,
    ints_as_bytes,
    pack_rows,
    packed_table,
    word_block,
    words_as_bytes,
)

# One fixed primitive polynomial per extension degree (lowest-weight standard
# choices).  Primitivity is re-verified when a field is built.
PRIMITIVE_POLYS = {
    2: 0x7,
    3: 0xB,
    4: 0x13,
    5: 0x25,
    6: 0x43,
    7: 0x83,
    8: 0x11D,
    9: 0x211,
    10: 0x409,
    11: 0x805,
    12: 0x1053,
    13: 0x201B,
    14: 0x4443,
    15: 0x8003,
    16: 0x1100B,
    17: 0x20009,
    18: 0x40081,
    19: 0x80027,
    20: 0x100009,
}


# -- GF(2)[x] helpers -------------------------------------------------------


def poly_deg(p: int) -> int:
    return p.bit_length() - 1


def poly_mul(a: int, b: int) -> int:
    out = 0
    while a:
        low = a & -a
        out ^= b << (low.bit_length() - 1)
        a ^= low
    return out


def poly_divmod(a: int, b: int) -> tuple[int, int]:
    """(q, r) with a = q*b + r and deg r < deg b."""
    if b == 0:
        raise InvalidInput("division by the zero polynomial")
    db = b.bit_length()
    q = 0
    while (shift := a.bit_length() - db) >= 0:
        q |= 1 << shift
        a ^= b << shift
    return q, a


def poly_mod(a: int, b: int) -> int:
    return poly_divmod(a, b)[1]


def poly_divides(a: int, b: int) -> bool:
    """True when a | b."""
    return poly_divmod(b, a)[1] == 0


def poly_gcd(a: int, b: int) -> int:
    """Greatest common divisor, monic (over GF(2) every nonzero polynomial
    is); gcd(0, 0) is 0."""
    while b:
        a, b = b, poly_mod(a, b)
    return a


def poly_reverse(p: int) -> int:
    """The reciprocal x^deg(p) p(1/x): the coefficients in reverse order."""
    return int(f"{p:b}"[::-1], 2)


# -- GF(2^m) ---------------------------------------------------------------


class Gf2mField:
    """GF(2^m) as GF(2)[x] modulo a primitive polynomial of degree m, with
    alpha = x; elements are ints in poly representation.  The field holds
    no table: ``log`` reads ``_log_exp``, the one log/exp table."""

    def __init__(self, m: int, primitive_poly: int | None = None):
        if m < 1:
            raise InvalidInput(f"extension degree must be positive, got {m}")
        poly = PRIMITIVE_POLYS.get(m) if primitive_poly is None else primitive_poly
        if poly is None:
            raise InvalidInput(f"no primitive polynomial on record for m={m}")
        if poly < 0 or poly_deg(poly) != m:
            raise InvalidInput(f"polynomial 0x{poly:x} does not have degree {m}")
        self.m = m
        self.poly = poly
        self.order = (1 << m) - 1
        # x has order 2^m - 1: of the divisors d of 2^m - 1, x^d = 1 only at d = 2^m - 1
        if {d for d in _divisors(self.order) if self._power(2, d) == 1} != {self.order}:
            raise InvalidInput(f"0x{poly:x} is not primitive of degree {m}")

    def _element(self, a: int) -> int:
        """``a``, refused unless it is an element: 0..2^m - 1."""
        if not 0 <= a <= self.order:
            raise InvalidInput(f"{a} is not an element of GF(2^{self.m})")
        return a

    def _power(self, a: int, e: int) -> int:
        """a^e mod the field polynomial for e >= 0, by square-and-multiply."""
        out = 1
        while e:
            if e & 1:
                out = poly_mod(poly_mul(out, a), self.poly)
            a = poly_mod(poly_mul(a, a), self.poly)
            e >>= 1
        return out

    def mul(self, a: int, b: int) -> int:
        return poly_mod(poly_mul(self._element(a), self._element(b)), self.poly)

    def inv(self, a: int) -> int:
        if self._element(a) == 0:
            raise InvalidInput("zero has no inverse")
        return self._power(a, self.order - 1)

    def alpha_pow(self, e: int) -> int:
        return self._power(2, e % self.order)

    def log(self, a: int) -> int:
        if self._element(a) == 0:
            raise InvalidInput("log of zero")
        return int(_log_exp(self)[0][a])

    def __repr__(self) -> str:
        return f"Gf2mField(m={self.m}, poly=0x{self.poly:x})"


def _divisors(k: int) -> set[int]:
    """The divisors of k >= 1."""
    small = [d for d in range(1, math.isqrt(k) + 1) if k % d == 0]
    return {*small, *(k // d for d in small)}


@lru_cache(maxsize=None)
def default_field(m: int) -> Gf2mField:
    return Gf2mField(m)


def cyclic_field(n: int) -> Gf2mField:
    """The field of the cyclic codes of length n: GF(2^m) for the least m
    with n | 2^m - 1, searched up to the largest degree in ``PRIMITIVE_POLYS``."""
    if n < 1 or n % 2 == 0:
        raise InvalidInput(f"length must be odd and positive, got {n}")
    for m in range(1, max(PRIMITIVE_POLYS) + 1):
        if pow(2, m, n) == 1 % n:
            return default_field(m)
    raise InvalidInput(f"length {n} needs GF(2^m) with m > {max(PRIMITIVE_POLYS)}, none on record")


def cyclotomic_coset(e: int, n: int) -> tuple[int, ...]:
    """Orbit of e under doubling mod n, sorted."""
    seen = set()
    x = e % n
    while x not in seen:
        seen.add(x)
        x = (x * 2) % n
    return tuple(sorted(seen))


def minimal_polynomial(field: Gf2mField, e: int) -> int:
    """Binary minimal polynomial of gamma = alpha^e: the first GF(2)
    dependency among 1, gamma, ..., gamma^c, c the size of e's cyclotomic
    coset mod 2^m - 1 (MacWilliams and Sloane, ch. 4), found by
    ``insert_rows`` with the exponent i of gamma^i tagged as bit m + i."""
    n = field.order
    if not 0 <= e < n:
        raise InvalidInput(f"exponent {e} out of range for order {n}")
    c = len(cyclotomic_coset(e, n))
    powers = accumulate([field.alpha_pow(e)] * c, field.mul, initial=1)
    residues = insert_rows({}, (x | 1 << (field.m + i) for i, x in enumerate(powers)))
    bits = next((r >> field.m for r in residues if not r & n), 0)
    if poly_deg(bits) != c:
        raise InternalConsistencyError(f"minimal polynomial of degree {poly_deg(bits)}, not {c}")
    return bits


# -- cyclic code specifications --------------------------------------------


@dataclass(frozen=True)
class CyclicCodeSpec:
    """A length-n binary cyclic code pinned down by its zero set.

    ``zero_set`` holds the exponents i with g(beta^i) = 0 where
    beta = alpha^((2^m-1)/n); it is closed under doubling mod n.  The decoding
    window is a run of delta-1 zeros of the relabeled root beta^step:
    step*(b+j) mod n lies in the zero set for j = 0..delta-2.  ``delta`` is
    the designed distance; re-choosing the root (any unit step) is what makes
    the sharpest window reachable.
    """

    n: int
    m: int
    b: int
    delta: int
    zero_set: tuple[int, ...]
    generator: int
    step: int = 1
    field: Gf2mField = field(repr=False, compare=False, default=None)

    @property
    def dimension(self) -> int:
        return self.n - len(self.zero_set)

    def to_code(self) -> LinearCode:
        k = self.dimension
        rows = [self.generator << j for j in range(k)]
        return LinearCode(BitMatrix(self.n, rows))

    def dual_spec(self) -> "CyclicCodeSpec":
        dz = dual_zero_set(self)
        return spec_from_zero_set(self.n, dz, self.field)


@dataclass(frozen=True)
class _LengthTable:
    """The doubling structure of the residues mod an odd length n."""

    coset_of: tuple[tuple[int, ...], ...]  # cyclotomic coset of each residue
    coset_units: tuple[int, ...]  # units least in their coset, increasing
    inverses: np.ndarray  # inverses[r] * coset_units[r] = 1 mod n
    doubles: np.ndarray  # doubles[i] = 2i mod n


def units(n: int) -> list[int]:
    return [u for u in range(1, n) if math.gcd(u, n) == 1]


@lru_cache(maxsize=None)
def _length_table(n: int) -> _LengthTable:
    coset_of: list[tuple[int, ...]] = [()] * n
    for e in range(n):
        if not coset_of[e]:
            coset = cyclotomic_coset(e, n)
            for j in coset:
                coset_of[j] = coset
    reps = tuple(u for u in units(n) if coset_of[u][0] == u)
    inverses = np.array([pow(u, -1, n) for u in reps], dtype=np.int64)
    doubles = 2 * np.arange(n) % n
    for a in (inverses, doubles):
        a.flags.writeable = False
    return _LengthTable(tuple(coset_of), reps, inverses, doubles)


def _closure(exponents, n: int) -> tuple[int, ...]:
    coset_of = _length_table(n).coset_of
    out: set[int] = set()
    for e in exponents:
        out.update(coset_of[e % n])
    return tuple(sorted(out))


# minimal polynomial of beta^rep, by (field polynomial, n, least coset element rep)
_MINPOLYS: dict[tuple[int, int, int], int] = {}


def _coset_minpoly(n: int, e: int, fld: Gf2mField) -> int:
    """Minimal polynomial of beta^e, computed once per field, length and coset."""
    key = (fld.poly, n, _length_table(n).coset_of[e % n][0])
    if key not in _MINPOLYS:
        _MINPOLYS[key] = minimal_polynomial(fld, fld.order // n * key[2])
    return _MINPOLYS[key]


def _generator_from_zeros(n: int, zeros, fld: Gf2mField) -> int:
    """Product of the minimal polynomials of the cosets in a closed zero set."""
    coset_of = _length_table(n).coset_of
    g = 1
    for rep in {coset_of[e][0] for e in zeros}:
        # walks the few bits of the factor
        g = poly_mul(_coset_minpoly(n, rep, fld), g)
    return g


# cells of one (sets, units, n) block of best_windows; larger batches and
# lengths are scanned in chunks of at most this many cells
_WINDOW_CELLS = 1 << 16


@lru_cache(maxsize=16)
def _unit_positions(n: int, r0: int, units: int) -> np.ndarray:
    """positions[r, j] = inverses[r0 + r] * j mod n for j < n: exponent j of
    the scaled set u*Z is in it iff exponent inv*j is in Z."""
    positions = _length_table(n).inverses[r0 : r0 + units, None] * np.arange(n) % n
    positions.flags.writeable = False
    return positions


def best_windows(masks: np.ndarray, n: int) -> np.ndarray:
    """``best_window`` of every row of an (H, n) boolean array of zero sets,
    as an (H, 3) int64 array of (step, start, length) rows.

    Each chunk gathers the scaled sets u*Z of up to ``_WINDOW_CELLS`` // n
    (set, unit) pairs over one period.  The run ending at position j has
    length j + 1 minus the running maximum of k + 1 over the missing
    positions k <= j (int16 while n fits); the run through position 0 is
    the trailing run joined to the leading one.  A set's winner is its
    first unit with the longest run, and among that unit's longest runs the
    one with the smallest start: the first one to end, unless only the run
    through 0 is that long, since it starts after every other run.  A full
    set gets the window (1, 0, n) and an empty one (1, 0, 0).
    """
    masks = np.asarray(masks, dtype=bool)
    table = _length_table(n)
    if (masks & ~masks[:, table.doubles]).any():
        raise InvalidInput(f"zero set is not closed under doubling mod {n}")
    missing = ~masks
    ends = np.arange(1, n + 1, dtype=np.int16 if n < 1 << 15 else np.int32)
    pairs = max(1, _WINDOW_CELLS // n)  # (set, unit) pairs in one chunk
    units = max(1, min(len(table.inverses), pairs))
    sets = max(1, pairs // units)
    # n = 1 has no units, and its empty set keeps the window (1, 0, 0)
    longest = np.zeros((len(masks), max(1, len(table.inverses))), dtype=ends.dtype)
    first_start = np.zeros_like(longest)
    for r0 in range(0, len(table.inverses), units):
        positions = _unit_positions(n, r0, units)
        for h0 in range(0, len(masks), sets):
            gaps = missing[h0 : h0 + sets].take(positions, axis=1)  # (sets, units, n)
            runs = ends - np.maximum.accumulate(gaps * ends, axis=2)
            most = runs.max(axis=2)
            trailing = runs[..., -1]
            wrap = trailing + gaps.argmax(axis=2)  # a full set's is overridden below
            first = (runs == most[..., None]).argmax(axis=2) + 1 - most
            longest[h0 : h0 + sets, r0 : r0 + units] = np.maximum(most, wrap)
            first_start[h0 : h0 + sets, r0 : r0 + units] = np.where(wrap > most, n - trailing, first)
    rows = np.arange(len(masks))
    r = longest.argmax(axis=1)
    most = longest[rows, r]
    out = np.ones((len(masks), 3), dtype=np.int64)
    if len(table.inverses):
        out[:, 0] = table.inverses[r]
    out[:, 1] = np.where(most, first_start[rows, r], 0)
    out[:, 2] = most
    out[masks.all(axis=1)] = (1, 0, n)
    return out


def best_window(zero_set, n: int) -> tuple[int, int, int]:
    """(step, start, length) of the longest run of consecutive exponents of
    any relabeled root beta^step; the exponents step*(start+j) all lie in the
    zero set for j < length.

    The zero set must be closed under doubling mod n.  The winner is the
    first unit u = step^-1, in increasing order, whose scaled set u*Z has the
    longest run, and ``start`` is the smallest start among the longest runs
    of u*Z.  Since u*Z = 2u*Z, that unit is least in its doubling coset, so
    only those units are scanned.  This is the one-set call of
    ``best_windows``, which scans a batch of zero sets at once.
    """
    mask = np.zeros(n, dtype=bool)
    mask[np.fromiter(zero_set, dtype=np.int64) % n] = True
    return tuple(best_windows(mask[None], n)[0].tolist())


def bch_bound(zero_set, n: int) -> int:
    """Sharpest BCH-bound distance over all unit relabelings of the roots of
    a zero set closed under doubling mod n."""
    return best_window(zero_set, n)[2] + 1


def spec_from_zero_set(n: int, zero_set, fld: Gf2mField | None = None) -> CyclicCodeSpec:
    fld = fld or cyclic_field(n)
    zeros = _closure(zero_set, n)
    return _spec(n, fld, zeros, _generator_from_zeros(n, zeros, fld), best_window(zeros, n))


def _spec(
    n: int, fld: Gf2mField, zero_set: tuple[int, ...], g: int, window
) -> CyclicCodeSpec:
    step, start, length = window
    return CyclicCodeSpec(
        n=n, m=fld.m, b=start, delta=length + 1, zero_set=zero_set, generator=g,
        step=step, field=fld,
    )


def bch_generator(n: int, b: int, delta: int, fld: Gf2mField | None = None) -> CyclicCodeSpec:
    """BCH code with zeros beta^k for b <= k <= b + delta - 2."""
    if n < 1 or n % 2 == 0:
        raise InvalidInput(f"BCH length must be odd, got {n}")
    if delta < 2:
        raise InvalidInput(f"designed distance must be >= 2, got {delta}")
    fld = fld or cyclic_field(n)
    if fld.order % n:
        raise InvalidInput(f"{n} does not divide 2^{fld.m}-1")
    zero_set = _closure(range(b, b + delta - 1), n)
    if len(zero_set) >= n:
        raise PreconditionError(
            f"window (b={b}, delta={delta}) closes over all residues: empty code"
        )
    spec = _spec(n, fld, zero_set, _generator_from_zeros(n, zero_set, fld), (1, b, delta - 1))
    if not poly_divides(spec.generator, (1 << n) | 1):
        raise InvalidInput("generator does not divide x^n + 1")
    return spec


def dual_zero_set(spec: CyclicCodeSpec) -> tuple[int, ...]:
    """Zero set of the dual code: { i : n - i not in the zero set }."""
    zeros = set(spec.zero_set)
    return tuple(sorted(i for i in range(spec.n) if (spec.n - i) % spec.n not in zeros))


def is_self_orthogonal_cyclic(spec: CyclicCodeSpec) -> bool:
    """The code lies in its dual: the dual's zeros are among its own."""
    return set(dual_zero_set(spec)) <= set(spec.zero_set)


@lru_cache(maxsize=16)
def _coset_values(n: int, fld: Gf2mField) -> tuple[tuple[tuple[int, ...], ...], np.ndarray]:
    """The cosets mod n by least element c, and a word's values at each
    beta^c; keyed by the field, not its m, as polynomials differ."""
    if fld.order % n:
        raise InvalidInput(f"{n} does not divide 2^{fld.m}-1")
    cosets = tuple(sorted(set(_length_table(n).coset_of)))
    values = _position_values(fld, [c[0] for c in cosets], n, fld.m)
    return cosets, packed_table(values, fld.m * len(cosets))


def zero_set_of_polynomial(n: int, g: int, fld: Gf2mField | None = None) -> tuple[int, ...]:
    """Exponents i with g(beta^i) = 0.  g is binary, so g(beta^2i) =
    g(beta^i)^2 and g is evaluated at one residue per cyclotomic coset,
    after folding it modulo x^n + 1, which vanishes at every beta^i."""
    if g < 0:
        raise InvalidInput(f"polynomial {g} is negative")
    fld = fld or cyclic_field(n)
    cosets, values = _coset_values(n, fld)
    packed = bytes_as_ints(apply_packed(values, word_block(poly_mod(g, 1 << n | 1), n)))[0]
    zeros: list[int] = []
    for f, coset in enumerate(cosets):
        if not packed >> (fld.m * f) & fld.order:
            zeros += coset
    return tuple(sorted(zeros))


# -- weight spectra by shift orbits -----------------------------------------
#
# Let K be the subcode of a cyclic code C = {a(x) g(x)} that also has the
# cyclotomic coset J of j, of size m, among its zeros.  A word a(x) g(x) lies
# in K exactly when the minimal polynomial m_J of beta^j divides a (g has no
# zero at beta^j), so a mod m_J is an m-bit label of its coset of K, and the
# word a(x) g(x) with deg a < m is an offset that carries it.  The cyclic
# shift multiplies a codeword by x, so it multiplies the label by x modulo
# m_J: by beta^j, of order o = n / gcd(n, j), in the field GF(2)[x]/m_J.
# Multiplying by it fixes no nonzero label, so the 2^m - 1 cosets other than
# K fall into orbits of exactly o, and the shift maps each coset of an orbit
# onto the next one without changing any weight.  Hence
#     W(C) = W(K) + o * sum over orbit representatives r of W(r + K),
# and K is split again by the same rule.  The coset with the largest o
# leaves the fewest representatives, about 2^m / o of them.

# quotients C/K with labels of at most this many bits are walked; codes of
# dimension at most _BLOCK_BITS, one block of the scan, are scanned directly
ORBIT_LABEL_BITS = 12


@dataclass(frozen=True)
class OrbitLevel:
    """``multiplicity`` times the spectra of the cosets f + K, f in
    ``offsets``, where K is spanned by the shifts of ``generator`` by
    0..dim-1.  The innermost K is one level with offsets (0,) and
    multiplicity 1."""

    generator: int
    dim: int
    multiplicity: int
    offsets: tuple[int, ...]


@dataclass(frozen=True)
class OrbitScan:
    """The levels of one orbit scan, the innermost K last."""

    levels: tuple[OrbitLevel, ...]

    @property
    def words(self) -> int:
        """Codewords the scans visit, known before any scan runs."""
        return sum(len(lv.offsets) << lv.dim for lv in self.levels)


def _orbit_representatives(mj: int, m: int, order: int) -> list[int]:
    """The least label of each orbit of multiplication by x on the nonzero
    residues mod the degree-m irreducible ``mj``, whose root has ``order``."""
    seen = bytearray(1 << m)
    reps = []
    for a in range(1, 1 << m):
        if seen[a]:
            continue
        reps.append(a)
        x = a
        for _ in range(order):
            seen[x] = 1
            x <<= 1
            if x >> m & 1:
                x ^= mj
        if x != a:
            raise InternalConsistencyError(f"label {a} is not back after {order} shifts")
    if len(reps) * order != (1 << m) - 1:
        raise InternalConsistencyError(
            f"{len(reps)} orbits of {order} do not cover the 2^{m} - 1 nonzero labels"
        )
    return reps


def orbit_scan(spec: CyclicCodeSpec) -> OrbitScan:
    """The scans ``cyclic_weight_counts`` runs on a cyclic code: one level
    per quotient C/K, down to a code of dimension at most ``_BLOCK_BITS`` or
    to one whose nonzeros hold no coset of at most ``ORBIT_LABEL_BITS``
    elements.  Cosets go by decreasing o = n / gcd(n, j), then by least
    element; the coset {0} (o = 1) is never taken."""
    n = spec.n
    fld = spec.field or default_field(spec.m)
    zeros = set(spec.zero_set)
    cosets = sorted(
        (
            c for c in set(_length_table(n).coset_of)
            if c[0] and c[0] not in zeros and len(c) <= ORBIT_LABEL_BITS
        ),
        key=lambda c: (-(n // math.gcd(n, c[0])), c[0]),
    )
    g, k, levels = spec.generator, spec.dimension, []
    for coset in cosets:
        if k <= _BLOCK_BITS:
            break
        j, m = coset[0], len(coset)
        order = n // math.gcd(n, j)
        mj = _coset_minpoly(n, j, fld)
        reps = _orbit_representatives(mj, m, order)
        g_sub = poly_mul(mj, g)
        levels.append(OrbitLevel(g_sub, k - m, order, tuple(poly_mul(a, g) for a in reps)))
        g, k = g_sub, k - m
    levels.append(OrbitLevel(g, k, 1, (0,)))
    return OrbitScan(tuple(levels))


def cyclic_weight_counts(
    spec: CyclicCodeSpec, budget: int = DEFAULT_BUDGET, plan: OrbitScan | None = None
) -> WeightEnumerator:
    """Weight enumerator of a cyclic code from one coset per shift orbit
    (see ``orbit_scan``; ``plan`` is the spec's, when the caller has made
    it).  Raises ``ResourceLimit`` before any scan when the predicted words
    exceed ``budget``."""
    if plan is None:
        plan = orbit_scan(spec)
    if plan.words > budget:
        raise ResourceLimit(
            f"the orbit scan would visit {plan.words:,} words, beyond the budget of {budget:,}"
        )
    counts = sum(
        lv.multiplicity
        * _weight_counts([lv.generator << i for i in range(lv.dim)], spec.n, lv.offsets)
        for lv in plan.levels
    )
    enum = WeightEnumerator(tuple(int(c) for c in counts))
    if enum.total() != 1 << spec.dimension:
        raise InternalConsistencyError(
            f"orbit spectrum sums to {enum.total()}, expected 2^{spec.dimension}"
        )
    return enum


# -- Berlekamp-Massey decoding ----------------------------------------------
#
# The value of a binary word at a field element is GF(2)-linear in the
# word's bits, and so is the value of a locator polynomial in the bits of its
# coefficients.  The tables below hold those linear maps as
# ``gf2.apply_packed`` tables, built once per spec and field, so a block of
# words takes every syndrome and zero-set value with one gather per byte of
# the words, and the Chien search with one gather per byte of the locators'
# coefficients.  Berlekamp-Massey runs across the block's words at once, one
# step at a time, multiplying through log and exp arrays of the field.
#
# A field element sits in a lane: the least unsigned numpy type that holds m
# bits.  Values and locator coefficients are packed lane by lane, so a
# gather's result, seen as that type, is an array of field elements, and a
# locator array, seen as bytes, is the Chien map's input.

_RADIUS, _ROOTS, _ZERO_SET = 1, 2, 3  # failure codes of a decode


def _lane(m: int) -> np.dtype:
    """The least unsigned numpy type that holds an m-bit field element."""
    return np.dtype(np.uint8 if m <= 8 else np.uint16 if m <= 16 else np.uint32)


def _position_values(fld: Gf2mField, points, n: int, lane: int) -> list[int]:
    """The columns of the map from an n-bit word to its values at beta^e
    for e in ``points``, value f at bits lane*f up: entry p holds the values
    of x^p, gathered from the n powers of beta = alpha^((2^m - 1)/n)."""
    powers = list(accumulate([fld.alpha_pow(fld.order // n)] * (n - 1), fld.mul, initial=1))
    return [sum(powers[e * p % n] << (lane * f) for f, e in enumerate(points)) for p in range(n)]


@lru_cache(maxsize=8)
def _log_exp(fld: Gf2mField) -> tuple[np.ndarray, np.ndarray]:
    """The field's one log/exp table, built when a BM decoder first runs:
    log and exp as numpy arrays with a zero sentinel Z = 3 * order - 1:
    ``log[0]`` is Z and ``exp`` has 3 * order entries, alpha^(i mod order)
    below Z and 0 at Z.  A decoder's sums have at most three terms, logs of
    nonzero elements (0..order-1) and at most one order - log (1..order),
    so they stay below Z; a sum with Z among its terms is at least Z, so
    ``exp.take(sum, mode="clip")`` is the product, zero included.  exp is
    filled by doubling: exp[s:2s] = alpha^s exp[0:s], one ``apply_packed``
    of a fixed linear map, in chunks of at most 2^16; log is one scatter of
    exp, which must reach every nonzero element."""
    order, m, zero = fld.order, fld.m, 3 * fld.order - 1
    exp = np.empty(3 * order, dtype=_lane(m))
    exp[0], s = 1, 1
    while s < order:
        end = min(2 * s, s + (1 << 16), order)
        table = packed_table([fld.mul(fld.alpha_pow(s), 1 << j) for j in range(m)], m)
        exp[s:end] = apply_packed(table, exp[: end - s].view(np.uint8).reshape(end - s, -1))[:, 0]
        s = end
    exp[order : 2 * order] = exp[:order]
    exp[2 * order : zero] = exp[: order - 1]
    exp[zero] = 0
    log = np.full(1 << m, zero, dtype=np.int32)
    log[exp[:order]] = np.arange(order, dtype=np.int32)
    if (log[1:] == zero).any():
        raise InternalConsistencyError(f"the powers of alpha miss elements of GF(2^{m})")
    for a in (exp, log):
        a.flags.writeable = False
    return log, exp


@dataclass(frozen=True)
class _DecoderTables:
    """Tables of ``_bm_block`` for one spec over one field.

    A word's values hold one lane per field element: lane j < delta-1 is
    the value at beta^(step*(b+j)) (syndrome j), and the lanes after them
    the values at one zero per cyclotomic coset of the zero set.  The Chien
    map takes the lanes of the locator's coefficients 0..t to the m bit
    planes of lambda(beta^(-step*p)) over the positions p, plane b at bit
    b*W of the image, W = 64 ceil(n/64): one 64-bit word boundary a plane.
    """

    log: np.ndarray  # see _log_exp
    exp: np.ndarray
    values: np.ndarray  # apply_packed table: a word -> its values
    chien: np.ndarray  # apply_packed table: a locator -> its bit planes
    positions: np.ndarray  # (W/64,) uint64: the n position bits


@lru_cache(maxsize=64)
def _decoder_tables(spec: CyclicCodeSpec, poly: int) -> _DecoderTables:
    """Keyed by the field polynomial too: specs compare without their field,
    and equal specs over different fields have different tables."""
    fld = spec.field
    m, order, n = fld.m, fld.order, spec.n
    log, exp = _log_exp(fld)
    lane = 8 * _lane(m).itemsize
    s = order // n * spec.step % order  # the decoding root beta^step = alpha^s
    # the exponents of beta at which words are evaluated, one per lane
    points = [spec.step * (spec.b + j) for j in range(spec.delta - 1)]
    # c(beta^2z) = c(beta^z)^2 for a binary word c, so one zero per coset
    # tests the whole zero set
    points += sorted({_length_table(n).coset_of[z][0] for z in spec.zero_set})
    values = packed_table(_position_values(fld, points, n, lane), lane * len(points))
    # term (i, c): bit b of x^c * beta^(-i*step*p) at bit b*W + p
    t = (spec.delta - 1) // 2
    width = 64 * -(-n // 64)
    i = np.arange(t + 1, dtype=np.int64)[:, None, None]
    c = np.arange(m, dtype=np.int64)[None, :, None]
    terms = exp[(log[1 << c] - i * s * np.arange(n)) % order]
    planes = np.zeros((t + 1, m, m, width), dtype=bool)
    planes[..., :n] = terms[:, :, None, :] >> np.arange(m, dtype=exp.dtype)[:, None] & 1
    images = bytes_as_ints(bools_as_bytes(planes.reshape((t + 1) * m, m * width)))
    # the bits of a lane above m are zero in every locator
    lanes = [images[k * m : (k + 1) * m] + [0] * (lane - m) for k in range(t + 1)]
    chien = packed_table([x for k in lanes for x in k], m * width)
    positions = pack_rows([(1 << n) - 1], n)[0]
    return _DecoderTables(log, exp, values, chien, positions)


def _bm_block(spec: CyclicCodeSpec, words: np.ndarray):
    """Per row of a (count, ceil(n/8)) block of received words: the error
    pattern, in the same layout, zero where the decode fails; the failure
    code, 0 or one of _RADIUS, _ROOTS and _ZERO_SET; the LFSR length; and
    the number of roots of the locator.

    A row whose window syndromes are all zero has no error; it fails the
    zero-set check (_ZERO_SET) unless its values at the rest of the zero set
    vanish too, since the window's closure can be smaller than the zero
    set.  Every other row runs
    Berlekamp-Massey (E. R. Berlekamp, 1968; J. L. Massey, IEEE Trans. IT
    15, 1969), all rows at each step: the locator lambda and x^shift times
    the previous locator (kept as logs, shifted one column a step) are
    (rows, delta) arrays, since deg lambda <= L <= delta - 1 throughout.
    Then one Chien gather, whose planes OR to the nonzero positions, and one
    zero-set gather on the error pattern."""
    tables = _decoder_tables(spec, spec.field.poly)
    log, exp = tables.log, tables.exp
    order, n, nsyn = spec.field.order, spec.n, spec.delta - 1
    count = len(words)
    values = apply_packed(tables.values, words).view(exp.dtype)
    errors = np.zeros((count, (n + 7) // 8), dtype=np.uint8)
    window = values[:, :nsyn].any(axis=1)
    failure = _ZERO_SET * (~window & values[:, nsyn:].any(axis=1)).astype(np.uint8)
    lengths = np.zeros(count, dtype=np.int64)
    found = np.zeros(count, dtype=np.int64)
    live = np.flatnonzero(window)
    if not len(live):
        return errors, failure, lengths, found
    values = values[live]
    rows = len(live)
    syn = values[:, :nsyn]
    log_syn = log[syn]
    lam = np.zeros((rows, nsyn + 1), dtype=exp.dtype)
    lam[:, 0] = 1
    zero = log[0]
    # log of x^shift times the previous locator: x at the start
    shifted = np.full((rows, nsyn + 1), zero, dtype=log.dtype)
    shifted[:, 1] = 0
    length = np.zeros(rows, dtype=np.int32)
    inverse = np.full(rows, order, dtype=log.dtype)  # order - log prev_disc
    for step in range(1, nsyn + 1):
        log_lam = log.take(lam)
        # the discrepancy: S_(step-1) + sum over i >= 1 of lambda_i S_(step-1-i)
        disc = syn[:, step - 1]
        if step > 1:
            terms = exp.take(log_lam[:, 1:step] + log_syn[:, step - 2 :: -1], mode="clip")
            disc = disc ^ np.bitwise_xor.reduce(terms, axis=1)
        log_disc = log.take(disc)
        # lambda - (disc / prev_disc) x^shift prev; a zero disc adds nothing
        lam = lam ^ exp.take((log_disc + inverse)[:, None] + shifted, mode="clip")
        grow = (disc != 0) & (length <= (step - 1) // 2)
        length = np.where(grow, step - length, length)
        if step < nsyn:
            # the next step's x^shift prev: x lambda where the length grows,
            # else x times this step's; deg stays <= delta - 1 where it is read
            shifted[:, 1:] = np.where(grow[:, None], log_lam[:, :-1], shifted[:, :-1])
            inverse = np.where(grow, order - log_disc, inverse)
    degree = nsyn - np.argmax(lam[:, ::-1] != 0, axis=1)
    t_max = nsyn // 2
    # Chien search: position p is in error iff lambda(beta^-p) = 0
    coefficients = np.ascontiguousarray(lam[:, : t_max + 1]).view(np.uint8)
    planes = apply_packed(tables.chien, coefficients).reshape(rows, spec.field.m, -1)
    roots = ~np.bitwise_or.reduce(planes, axis=1) & tables.positions
    error = words_as_bytes(roots, n)
    # the corrected word's values are the received word's plus the error's
    corrected = values ^ apply_packed(tables.values, error).view(exp.dtype)
    root_count = np.bitwise_count(roots).sum(axis=1, dtype=np.int64)
    code = np.where(
        (length > t_max) | (degree != length), _RADIUS,
        np.where(root_count != length, _ROOTS, _ZERO_SET * corrected[:, nsyn:].any(axis=1)),
    ).astype(np.uint8)
    failure[live], lengths[live], found[live] = code, length, root_count
    errors[live] = np.where(code[:, None] == 0, error, 0)
    return errors, failure, lengths, found


def bm_decode(spec: CyclicCodeSpec, received: int) -> int:
    """The error pattern, as an n-bit word, of a received n-bit word with up
    to floor((delta-1)/2) errors, via syndromes, Berlekamp-Massey and a Chien
    search: the one-row call of the block decode.  Raises DecodingFailure
    beyond that, and InvalidInput for a word that is negative or has a bit
    at or above n.
    """
    errors, failure, length, roots = _bm_block(spec, word_block(received, spec.n))
    if failure[0] == _RADIUS:
        raise DecodingFailure(f"error weight exceeds the designed radius {(spec.delta - 1) // 2}")
    if failure[0] == _ROOTS:
        raise DecodingFailure(f"locator of degree {length[0]} has {roots[0]} roots")
    if failure[0] == _ZERO_SET:
        raise DecodingFailure("corrected word fails the zero-set check")
    return bytes_as_ints(errors)[0]


class BchDecoder:
    """Word decoder for a cyclic code, pluggable into the CSS pipeline.
    Failure codes: 1, the error weight exceeds the designed radius; 2, the
    locator has fewer roots than its degree; 3, the corrected word fails
    the zero-set check."""

    def __init__(self, spec: CyclicCodeSpec):
        self.spec = spec
        self.radius = (spec.delta - 1) // 2

    def decode_block(self, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        check_block(words, self.spec.n)
        errors, failure, _, _ = _bm_block(self.spec, words)
        return words ^ errors, failure

    def decode_word(self, bits: int) -> int:
        return bits ^ bm_decode(self.spec, bits)


# -- search over designed windows -------------------------------------------


@dataclass(frozen=True)
class BchSearchHit:
    """A self-orthogonal cyclic code whose dual is a BCH code."""

    code_spec: CyclicCodeSpec  # the self-orthogonal code
    dual_spec: CyclicCodeSpec  # the decodable BCH dual
    quantum_n: int
    quantum_k: int
    designed_distance: int


def search_self_orthogonal_bch(n: int) -> list[BchSearchHit]:
    """All (b, delta) BCH windows whose dual is self-orthogonal, deduplicated
    by zero set and sorted by (dimension, zero set).

    One loop over the window starts b walks delta = 2, 3, ... and keeps the
    dual's zero set (the closure of the window), its negation and the new
    exponent e of each step that changes the closure; it stops at the first
    delta where the two sets meet, and each closure is kept once.  A step
    that changes the closure adds the cyclotomic coset of e, which is
    disjoint from the closure (a union of cosets without e), so the dual's
    generator gains the minimal polynomial of beta^e and the code's zeros,
    the complement of the negation, lose exactly the coset of -e.  The dual
    generators are formed after the walk, up to b's last new closure only,
    since the steps after it are dropped.  The code's generator at the
    last step of b that kept a closure is x^n + 1 over the reciprocal of the
    dual's generator (the code's check polynomial), one exact division; back
    over the earlier steps it gains the minimal polynomial of beta^-e a step.
    All windows come from one ``best_windows`` call for the code zero sets
    and one for the dual zero sets.
    """
    if n < 3 or n % 2 == 0:
        raise InvalidInput(f"length must be odd and >= 3, got {n}")
    fld = cyclic_field(n)
    coset_of = _length_table(n).coset_of
    masks = [sum(1 << j for j in coset) for coset in coset_of]

    states = []  # (closure, negated, dual generator, code generator) per kept closure
    seen: set[int] = set()
    for b in range(n):
        # the dual's zero set (the window's closure) and its negation, as masks
        closure = negated = 0
        steps = []  # (e, closure, negated, new) per changed closure
        for delta in range(2, n + 1):
            e = (b + delta - 2) % n
            if closure >> e & 1:
                continue  # the closure of delta - 1 again
            closure |= masks[e]
            negated |= masks[-e % n]
            if closure & negated:
                # some i and -i are both dual zeros, so the dual is not a
                # superset code, here or for any larger delta
                break
            steps.append((e, closure, negated, closure not in seen))
            seen.add(closure)
        while steps and not steps[-1][3]:
            steps.pop()
        if not steps:
            continue
        # the dual's generators, up to the last new closure only
        dual_gs = []
        dual_g = 1
        for e, _, _, _ in steps:
            dual_g = poly_mul(_coset_minpoly(n, e, fld), dual_g)
            dual_gs.append(dual_g)
        code_g, rest = poly_divmod(1 << n | 1, poly_reverse(dual_g))
        if rest:
            raise InternalConsistencyError(f"x^{n} + 1 over a check polynomial leaves 0x{rest:X}")
        for i in range(len(steps) - 1, -1, -1):
            e, closure, negated, new = steps[i]
            if new:
                states.append((closure, negated, dual_gs[i], code_g))
            if i:
                code_g = poly_mul(_coset_minpoly(n, -e, fld), code_g)

    def rows(bitmasks: list[int]) -> np.ndarray:
        return bytes_as_bools(ints_as_bytes(bitmasks, (n + 7) // 8), n)

    def zero_sets(zeros: np.ndarray) -> list[tuple[int, ...]]:
        return [tuple(row.nonzero()[0].tolist()) for row in zeros]

    code_masks = ~rows([negated for _, negated, _, _ in states])
    dual_masks = rows([closure for closure, _, _, _ in states])
    hits = []
    for (_, _, dual_g, code_g), code_window, dual_window, code_zeros, dual_zeros in zip(
        states, best_windows(code_masks, n).tolist(), best_windows(dual_masks, n).tolist(),
        zero_sets(code_masks), zero_sets(dual_masks),
    ):
        code_spec = _spec(n, fld, code_zeros, code_g, code_window)
        dual_spec = _spec(n, fld, dual_zeros, dual_g, dual_window)
        hits.append(BchSearchHit(
            code_spec=code_spec,
            dual_spec=dual_spec,
            quantum_n=n,
            quantum_k=n - 2 * code_spec.dimension,
            designed_distance=dual_spec.delta,
        ))
    return sorted(hits, key=lambda h: (h.code_spec.dimension, h.code_spec.zero_set))


@dataclass(frozen=True)
class SearchMatch:
    hit: BchSearchHit
    unit: int
    alternate_primitive_poly: int | None


def match_polynomial_against_search(
    n: int, g: int, hits: list[BchSearchHit] | None = None
) -> SearchMatch | None:
    """Locate a search hit whose code equals the one generated by g, up to the
    coordinate relabeling induced by re-choosing the primitive element.

    unit == 1 means the hex is reproduced verbatim by the default field.  For
    prime-order lengths the primitive polynomial that reproduces g exactly is
    also returned (the minimal polynomial of the relabeled root).
    """
    fld = cyclic_field(n)
    zeros = zero_set_of_polynomial(n, g, fld)
    if len(zeros) != poly_deg(g):
        return None
    if hits is None:
        hits = search_self_orthogonal_bch(n)
    # zero sets are kept sorted, so a scaled set is looked up by its sorted
    # tuple among the hits of the same size
    by_zeros = {h.code_spec.zero_set: h for h in hits if len(h.code_spec.zero_set) == len(zeros)}
    # the zero set is closed, so u and 2u scale it alike and the first unit
    # that matches is least in its doubling coset
    for u in _length_table(n).coset_units:
        hit = by_zeros.get(tuple(sorted(u * i % n for i in zeros)))
        if hit is None:
            continue
        alt = None
        if n == fld.order and u != 1:
            # beta' = alpha^v with v*u = 1 mod n turns the scaled set back
            # into the zero set of g, so its minimal polynomial defines the
            # field in which the search reproduces the hex verbatim.
            v = pow(u, -1, n)
            alt = minimal_polynomial(fld, v)
        return SearchMatch(hit=hit, unit=u, alternate_primitive_poly=alt)
    return None
