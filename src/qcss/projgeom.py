"""Projective geometries over small prime-power fields, their incidence
configurations, and majority-logic decoding.

Points of PG(k, q) are the nonzero vectors of GF(q)^(k+1) scaled so the first
nonzero coordinate is 1, ordered lexicographically.  l-spaces are enumerated
as (l+1)-dimensional subspaces via their reduced-echelon canonical matrices.

Vectors are arrays of uint8 coordinates (field elements as table indices);
the base-q number of a vector, first coordinate most significant, indexes the
geometry's point lookup table.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product

import numpy as np

from .codes import LinearCode, extend_with_parity
from .errors import (
    DecodingFailure,
    InternalConsistencyError,
    InvalidInput,
    ResourceLimit,
    UnsupportedConfiguration,
)
from .gf2 import (
    BitMatrix,
    apply_packed,
    bools_as_bytes,
    bytes_as_bools,
    bytes_as_ints,
    check_block,
    decode_in_slices,
    packed_parities,
    packed_table,
    transpose_bytes,
    word_block,
)

# Most coordinates a geometry may list (q^(k+1) vectors of k+1 each) and most
# span coordinates or incidence entries one space enumeration may build.
# Every Table-2 geometry stays under 2^21; PG(3,8) fits as well.
GEOMETRY_BUDGET = 1 << 22

# span coordinates of one block of bases in enumerate_spaces
_SPAN_CELLS = 1 << 16

# most uint64 words of the column pairs one chunk of Configuration's meet
# check ANDs
_MEET_WORDS = 1 << 15

# vector images of one block of candidate maps in singer_order
_WALK_IMAGES = 1 << 8

# most violated-check cells (rows x checks) of one RudolphDecoder product; a
# larger block is decoded in row slices
_CHECK_CELLS = 1 << 20


def _factor_prime_power(q: int) -> tuple[int, int]:
    """(p, s) with q = p^s.  Trial division stops at sqrt(q): a q with no
    factor up to there is prime."""
    if q < 2:
        raise InvalidInput(f"{q} is not a prime power")
    p = next((d for d in range(2, math.isqrt(q) + 1) if q % d == 0), q)
    s, rest = 0, q
    while rest % p == 0:
        rest //= p
        s += 1
    if rest != 1:
        raise InvalidInput(f"{q} is not a prime power")
    return p, s


def _digits(start: int, stop: int, width: int, q: int) -> np.ndarray:
    """Base-q digits of start..stop-1, most significant first, as uint8 rows:
    the order of ``itertools.product(range(q), repeat=width)``."""
    powers = q ** np.arange(width - 1, -1, -1, dtype=np.int64)
    return (np.arange(start, stop, dtype=np.int64)[:, None] // powers % q).astype(np.uint8)


def _numbers(vectors: np.ndarray, q: int) -> np.ndarray:
    """Base-q number of each vector along the last axis, first digit most
    significant."""
    out = vectors[..., 0].astype(np.intp)
    for j in range(1, vectors.shape[-1]):
        out *= q
        out += vectors[..., j]
    return out


@lru_cache(maxsize=None)
def field_tables(q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only uint8 (add, mul, inv) tables of GF(q), q = p^s; inv[0] is 0.

    Element e is the polynomial over GF(p) whose coefficients, constant
    first, are the base-p digits of e, least significant first, so 0 and 1
    are the field's zero and one.  The modulus is the first monic degree-s
    polynomial, its lower coefficients (constant first) in ``product`` order,
    whose residue ring has no zero divisors: the first irreducible one.
    """
    p, s = _factor_prime_power(q)
    digits = _digits(0, q, s, p).astype(np.intp)
    coeffs = digits[:, ::-1]
    add = _numbers((coeffs[:, None] + coeffs)[..., ::-1] % p, p)
    product = np.zeros((q, q, 2 * s - 1), dtype=np.intp)
    for i in range(s):
        product[:, :, i : i + s] += coeffs[:, None, i, None] * coeffs
    for low in digits:
        rest = product.copy()
        for d in range(2 * s - 2, s - 1, -1):  # x^d = -x^(d-s) low(x)
            rest[..., d - s : d] -= rest[..., d, None] * low
        mul = _numbers(rest[..., s - 1 :: -1] % p, p)
        if (mul[1:, 1:] != 0).all():
            break
    tables = tuple(t.astype(np.uint8) for t in (add, mul, (mul == 1).argmax(axis=1)))
    for t in tables:
        t.flags.writeable = False
    return tables


class ProjGeometry:
    """Point set of PG(k, q) with canonical representatives.

    ``points`` holds the canonical vectors in lexicographic order, and
    ``lookup[x]`` the index of the point of the vector whose base-q number is
    x (-1 for the zero vector), so every multiple of a point maps to it.
    """

    def __init__(self, k: int, q: int):
        if k < 2:
            raise InvalidInput(f"projective dimension must be >= 2, got {k}")
        _factor_prime_power(q)
        count = q ** (k + 1)
        expected = (count - 1) // (q - 1)
        if count * (k + 1) > GEOMETRY_BUDGET:
            raise ResourceLimit(
                f"PG({k},{q}) has {expected:.3g} points; listing its {count:.3g} "
                f"vectors of {k + 1} coordinates exceeds the budget of {GEOMETRY_BUDGET}"
            )
        self.k = k
        self.q = q
        vectors = _digits(0, count, k + 1, q)
        first = vectors[np.arange(count), (vectors != 0).argmax(axis=1)]
        canonical = first == 1  # the first nonzero coordinate is 1
        self.points = tuple(map(tuple, vectors[canonical].tolist()))
        if len(self.points) != expected:
            raise InternalConsistencyError(
                f"{len(self.points)} canonical points, expected {expected}"
            )
        # scaling by the inverse of the first nonzero coordinate gives the
        # canonical vector; the zero vector stays zero and ranks -1
        _, mul, inv = field_tables(q)
        scaled = mul[inv[first][:, None], vectors]
        self.lookup = (np.cumsum(canonical) - 1)[_numbers(scaled, q)]
        self.lookup.flags.writeable = False


def singer_order(geom: ProjGeometry) -> tuple[int, ...]:
    """The points along one Singer cycle (J. Singer, Trans. AMS 43, 1938):
    entry i is the index of the point of x^i in GF(q)[x]/f, the residue
    a_0 + a_1 x + ... + a_k x^k read as the vector (a_0, ..., a_k).

    Multiplying by x is the linear map of f's companion matrix, invertible
    when f(0) != 0, so it permutes the points and maps every subspace onto a
    subspace; along the order it is the cyclic shift i -> i + 1 mod v, and
    every point-subspace incidence code is cyclic in this order.  f is the
    first monic polynomial of degree k + 1, its lower coefficients (constant
    first) in ``product`` order, whose walk from the point of e_0 = 1 visits
    all v points before it returns: that orbit is checked to be one v-cycle.
    The candidates' maps are built on all q^(k+1) vectors, by their base-q
    numbers, through the field's tables, _WALK_IMAGES images a block, and
    each walk follows its map.
    """
    q, dim, v = geom.q, geom.k + 1, len(geom.points)
    add, mul, _ = field_tables(q)
    negate = (add == 0).argmax(axis=1)
    vectors = _digits(0, q**dim, dim, q)
    shifted = np.zeros_like(vectors)  # the coefficients times x, below x^dim
    shifted[:, 1:] = vectors[:, :-1]
    top = negate[vectors[:, -1]][:, None]  # x^dim = -(f - x^dim)
    lows = vectors[vectors[:, 0] != 0]  # f(0) != 0, in product order
    lookup = geom.lookup.tolist()
    start = q ** (dim - 1)  # e_0: the first coordinate is the most significant
    block = max(1, _WALK_IMAGES // q**dim)
    for b0 in range(0, len(lows), block):
        maps = _numbers(add[shifted, mul[top, lows[b0 : b0 + block, None]]], q).tolist()
        for times_x in maps:
            order, x = [lookup[start]], times_x[start]
            while lookup[x] != order[0] and len(order) < v:
                order.append(lookup[x])
                x = times_x[x]
            if lookup[x] == order[0] and len(order) == v == len(set(order)):
                return tuple(order)
    raise InternalConsistencyError(
        f"no polynomial of degree {dim} walks the {v} points of PG({geom.k},{q})"
    )


@dataclass(frozen=True, eq=False)
class Configuration:
    """Incidence structure with constant row weight, column weight, and
    pairwise column intersection count.  ``incidence`` holds its b rows of
    v points as a (b, ceil(v/8)) uint8 block (``gf2.check_block``)."""

    incidence: np.ndarray
    b: int
    v: int
    r: int
    k_prime: int
    lam: int

    def __post_init__(self) -> None:
        check_block(self.incidence, self.v)

    @property
    def one_step_bound(self) -> int:
        """floor((r + lambda - 1) / (2 lambda)): the radius of one-step
        majority-logic decoding."""
        return (self.r + self.lam - 1) // (2 * self.lam)

    @property
    def two_pass_bound(self) -> int:
        """floor((r + lambda) / (2 lambda)): the radius when both hypotheses
        for the appended bit are decoded."""
        return (self.r + self.lam) // (2 * self.lam)

    def check_invariants(self) -> None:
        """Raise unless the incidence has b rows, every row k' points, every
        point r rows and every pair of points lambda rows in common: row and
        column weights by ``np.bitwise_count``, and the meet of every column
        pair i < j by AND-popcount of the columns packed as uint64 words,
        pairs in row-major order, chunks of at most _MEET_WORDS words."""
        packed = self.incidence
        if len(packed) != self.b:
            raise InternalConsistencyError("incidence shape mismatch")
        if (np.bitwise_count(packed).sum(axis=1) != self.k_prime).any():
            raise InternalConsistencyError("row weight differs from k'")
        columns = np.zeros((self.v, -(-self.b // 64) * 8), dtype=np.uint8)
        columns[:, : -(-self.b // 8)] = transpose_bytes(packed, self.v)
        columns = columns.view(np.uint64)  # (v, ceil(b/64))
        if (np.bitwise_count(columns).sum(axis=1) != self.r).any():
            raise InternalConsistencyError("column weight differs from r")
        # the pairs (i, j), i < j, numbered in row-major order: those of
        # column i start at number starts[i], and number p is j = i + 1 +
        # p - starts[i]
        counts = np.arange(self.v - 1, -1, -1)
        starts = np.cumsum(counts) - counts
        total = self.v * (self.v - 1) // 2
        step = max(1, _MEET_WORDS // columns.shape[1])
        for lo in range(0, total, step):
            pairs = np.arange(lo, min(lo + step, total))
            first = np.searchsorted(starts, pairs, side="right") - 1
            second = pairs - starts[first] + first + 1
            meets = np.bitwise_count(columns[first] & columns[second]).sum(axis=1, dtype=np.int32)
            if (meets != self.lam).any():
                raise InternalConsistencyError("a column pair meets in != lambda rows")


def _p_sum(p: int, s: int, i: int, j: int) -> int:
    return sum(p ** (m * s) for m in range(i, j + 1))


def config_params(k: int, q: int, l: int) -> tuple[int, int, int, int, int]:
    """(b, v, r, k', lambda) for the l-space incidence of PG(k, q); every
    division in the closed forms must be exact."""
    if not 1 <= l <= k - 1:
        raise InvalidInput(f"need 1 <= l <= k-1, got l={l}, k={k}")
    p, s = _factor_prime_power(q)

    def exact_div(num: int, den: int, name: str) -> int:
        quot, rem = divmod(num, den)
        if rem:
            raise InternalConsistencyError(f"{name} ratio is not an integer")
        return quot

    b_num = math.prod(_p_sum(p, s, i, k) for i in range(0, l + 1))
    b_den = math.prod(_p_sum(p, s, i, l) for i in range(0, l + 1))
    b = exact_div(b_num, b_den, "b")
    v = _p_sum(p, s, 0, k)
    r_num = math.prod(_p_sum(p, s, i, k) for i in range(1, l + 1))
    r_den = math.prod(_p_sum(p, s, i, l) for i in range(1, l + 1))
    r = exact_div(r_num, r_den, "r")
    k_prime = _p_sum(p, s, 0, l)
    if l == 1:
        lam = 1
    else:
        lam_num = math.prod(_p_sum(p, s, i, k) for i in range(2, l + 1))
        lam_den = math.prod(_p_sum(p, s, i, l) for i in range(2, l + 1))
        lam = exact_div(lam_num, lam_den, "lambda")
    return b, v, r, k_prime, lam


def _echelon_columns(k1: int, m: int, q: int, block: int):
    """All reduced-echelon k1 x m matrices of rank k1 over GF(q), one per
    k1-dimensional subspace, each as the base-q numbers of its m columns
    (the first row most significant), in (count, m) intp arrays of at most
    ``block`` matrices.

    Pivot sets come in ``combinations`` order and, within one, the free
    entries (right of their row's pivot, outside pivot columns, row by row)
    in ``product`` order, the first entry most significant.  Entry (i, c)
    adds its value times q^(k1-1-i) to column c's number, so the columns of
    a pivot set's matrices are one product of their free values."""
    pending: list[np.ndarray] = []
    count = 0
    for pivots in combinations(range(m), k1):
        free = [
            (i, c)
            for i in range(k1)
            for c in range(pivots[i] + 1, m)
            if c not in pivots
        ]
        place = np.zeros((len(free), m), dtype=np.intp)
        place[np.arange(len(free)), [c for _, c in free]] = [q ** (k1 - 1 - i) for i, _ in free]
        pivot_numbers = np.zeros(m, dtype=np.intp)
        pivot_numbers[list(pivots)] = q ** np.arange(k1 - 1, -1, -1)
        total = q ** len(free)
        for lo in range(0, total, block):
            values = _digits(lo, min(lo + block, total), len(free), q).astype(np.intp)
            columns = values @ place + pivot_numbers
            if count + len(columns) > block:
                yield np.concatenate(pending)
                pending, count = [], 0
            pending.append(columns)
            count += len(columns)
    yield np.concatenate(pending)


def enumerate_spaces(geom: ProjGeometry, l: int) -> Configuration:
    """Incidence matrix of all l-spaces of the geometry over its point set.

    The rows follow the reduced-echelon order of ``_echelon_columns``.  Spans
    go through one dot table of GF(q)^(l+1), T[x, c] = sum_i x_i c_i over
    the field, x and c by their base-q numbers.  The combination x of a
    basis's rows has coordinate T[x, c_j] at column j, c_j being the number
    of the basis's column j, so a block of bases becomes the base-q numbers
    of its spaces' vectors by one lookup of T per coordinate, weighted by
    q^j and summed, and their points by ``geom.lookup``.  T has q^(2(l+1))
    entries, at most b q^(l+1), so the span budget bounds it too.  The
    packed rows are the incidence, and pass its invariant check.
    """
    b, v, r, k_prime, lam = config_params(geom.k, geom.q, l)
    q = geom.q
    dim = l + 1
    ambient = geom.k + 1
    span_cells = b * q**dim * ambient
    if max(span_cells, b * v) > GEOMETRY_BUDGET:
        raise ResourceLimit(
            f"the {b:.3g} {l}-spaces of PG({geom.k},{q}) take {span_cells:.3g} span "
            f"coordinates and {b * v:.3g} incidence entries, beyond the budget of "
            f"{GEOMETRY_BUDGET}"
        )
    add, mul, _ = field_tables(q)
    digits = _digits(0, q**dim, dim, q)
    dot = np.zeros((q**dim, q**dim), dtype=np.uint8)  # symmetric in x and c
    for i in range(dim):
        dot = add[dot, mul[digits[:, i, None], digits[:, i]]]
    blocks = []
    for columns in _echelon_columns(dim, ambient, q, max(1, _SPAN_CELLS // (q**dim * ambient))):
        numbers = np.zeros((len(columns), q**dim), dtype=np.intp)
        for column in columns.T:
            numbers *= q
            numbers += dot[column]
        points = geom.lookup[numbers[:, 1:]]  # x = 0 gives the zero vector
        incidence = np.zeros((len(columns), v), dtype=bool)
        incidence[np.arange(len(columns))[:, None], points] = True
        blocks.append(bools_as_bytes(incidence))
    packed = np.concatenate(blocks)
    if len(packed) != b:
        raise InternalConsistencyError(f"enumerated {len(packed)} spaces, expected {b}")
    cfg = Configuration(incidence=packed, b=b, v=v, r=r, k_prime=k_prime, lam=lam)
    cfg.check_invariants()
    return cfg


def build_so_code(cfg: Configuration) -> LinearCode:
    """Span of the incidence rows, extended by an all-ones column when both
    k' and lambda are odd; rejected when the parities are mixed or the row
    products turn out uneven.

    Every incidence row has weight k', so when k' is odd the all-ones
    column is each row's parity, and the extended span is
    ``extend_with_parity`` of the span of the rows, with the same pivots."""
    kp_odd = cfg.k_prime % 2 == 1
    lam_odd = cfg.lam % 2 == 1
    if kp_odd != lam_odd:
        raise UnsupportedConfiguration(
            f"k'={cfg.k_prime} and lambda={cfg.lam} have mixed parity"
        )
    code = LinearCode.from_spanning(BitMatrix(cfg.v, bytes_as_ints(cfg.incidence)))
    if kp_odd:
        code = extend_with_parity(code)
    if not code.is_self_orthogonal():
        raise UnsupportedConfiguration(
            "row products are not uniformly "
            + ("odd" if kp_odd else "even")
            + "; the spanned code is not self-orthogonal"
        )
    return code


class RudolphDecoder:
    """One-step majority-logic decoder for the dual of the spanned code.

    Each incidence row is an orthogonal parity check; a bit is flipped when a
    strict majority of the r checks through it are violated.  With the
    all-ones extension the value of the appended bit is unknown to the checks,
    so both hypotheses are decoded and the consistent one wins; without it
    only hypothesis 0 is.

    ``code`` is the span of the incidence rows that the caller has built:
    ``build_so_code(cfg)``, or the plain span of the incidence rows.  It is
    extended when it has one coordinate more than the configuration's points.

    A block decodes at once: its violated checks by one gather of a packed
    table, the violated checks through every point by one float32 product
    with the incidence matrix, and the radius and syndrome tests of both
    hypotheses on whole arrays; a block of more than _CHECK_CELLS / b rows
    goes in row slices.
    """

    NO_CODEWORD = 1  # failure code: no hypothesis reaches a codeword within the radius
    TIE = 2  # failure code: both hypotheses do, at equal distance

    def __init__(self, cfg: Configuration, code: LinearCode, radius: int | None = None):
        if code.n not in (cfg.v, cfg.v + 1):
            raise InvalidInput(
                f"code of length {code.n} does not span {cfg.v} points or their extension"
            )
        self.cfg = cfg
        self.extended = extended = code.n == cfg.v + 1
        self.v = cfg.v
        self.n = code.n
        # bit i of column j is set when check i passes through point j
        columns = transpose_bytes(cfg.incidence, cfg.v)
        if (np.bitwise_count(columns).sum(axis=1) != cfg.r).any():
            raise InvalidInput("a point does not lie on exactly r checks")
        # points -> violated checks, the checks through each point, and a
        # word -> its syndrome in the code
        self._violated = packed_table(bytes_as_ints(columns), cfg.b)
        # a count of violated checks is not a GF(2) map, so this stays a
        # float32 product: on the PG(2,8) decoder with one BLAS thread, an
        # AND-popcount of the packed checks ran 3.4-12x slower at 50 to
        # 2,048 rows
        self._incidence = bytes_as_bools(cfg.incidence, cfg.v).astype(np.float32)
        self._syndrome = packed_parities(code.generator.row_bits(), code.n)
        self.one_step_bound = cfg.one_step_bound
        self.two_pass_bound = cfg.two_pass_bound
        if radius is None:
            radius = self.two_pass_bound if extended else self.one_step_bound
        self.radius = radius

    def _majority_block(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per row of a (count, ceil(v/8)) block of point words, the points
        through which a strict majority of the r checks are violated, for
        the appended bit 0 and for 1, as (count, v) bool arrays.  The
        appended bit 1 flips every check, so c violated checks through a
        point become r - c."""
        violated = bytes_as_bools(apply_packed(self._violated, points).view(np.uint8), self.cfg.b)
        twice = 2 * (violated.astype(np.float32) @ self._incidence)
        return twice > self.cfg.r, twice < self.cfg.r

    def decode_block(self, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        check_block(words, self.n)
        rows = max(1, _CHECK_CELLS // self.cfg.b)
        if len(words) > rows:
            return decode_in_slices(self.decode_block, words, rows)
        v = self.v
        bits = bytes_as_bools(words, self.n)
        points = bits[:, :v]
        passes = self._majority_block(bools_as_bytes(points))
        outs, weights, ok = [], [], []
        for hypothesis, flips in enumerate(passes[: 1 + self.extended]):
            out = bits.copy()
            out[:, :v] ^= flips
            weight = flips.sum(axis=1)
            if self.extended:
                out[:, v] = hypothesis
                weight += bits[:, v] != hypothesis
            out = bools_as_bytes(out)
            outs.append(out)
            weights.append(weight)
            ok.append((weight <= self.radius) & ~apply_packed(self._syndrome, out).any(axis=1))
        if not self.extended:
            failure = np.where(ok[0], 0, self.NO_CODEWORD).astype(np.uint8)
            return np.where(ok[0][:, None], outs[0], words), failure
        # the lighter consistent hypothesis wins; two at one weight are a tie
        pick1 = ok[1] & (~ok[0] | (weights[1] < weights[0]))
        tie = ok[0] & ok[1] & (weights[0] == weights[1])
        failure = np.where(ok[0] | ok[1], self.TIE * tie, self.NO_CODEWORD).astype(np.uint8)
        decoded = np.where(pick1[:, None], outs[1], outs[0])
        return np.where(failure[:, None] == 0, decoded, words), failure

    def decode_word(self, bits: int) -> int:
        decoded, failure = self.decode_block(word_block(bits, self.n))
        if failure[0] == self.TIE:
            raise DecodingFailure("both appended-bit hypotheses decode equally well")
        if failure[0]:
            raise DecodingFailure(
                "neither hypothesis for the appended bit decodes" if self.extended
                else "majority vote did not reach a codeword"
            )
        return bytes_as_ints(decoded)[0]
