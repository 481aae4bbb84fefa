"""Projective geometries over small prime-power fields, their incidence
configurations, and majority-logic decoding.

Points of PG(k, q) are the nonzero vectors of GF(q)^(k+1) scaled so the first
nonzero coordinate is 1, ordered lexicographically.  l-spaces are enumerated
as (l+1)-dimensional subspaces via their reduced-echelon canonical matrices.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product as iproduct

from .codes import LinearCode
from .errors import (
    DecodingFailure,
    InternalConsistencyError,
    InvalidInput,
    UnsupportedConfiguration,
)
from .gf2 import BitMatrix, BitVector, parities


class PrimePowerField:
    """GF(p^s) for tiny orders, backed by full add/mul tables."""

    def __init__(self, p: int, s: int):
        if s < 1 or p < 2:
            raise InvalidInput(f"bad field parameters p={p}, s={s}")
        for d in range(2, p):
            if p % d == 0:
                raise InvalidInput(f"{p} is not prime")
        self.p = p
        self.s = s
        self.q = p**s
        if s == 1:
            self.add = [[(a + b) % p for b in range(p)] for a in range(p)]
            self.mul = [[(a * b) % p for b in range(p)] for a in range(p)]
        else:
            modulus = self._find_irreducible(p, s)
            # element e <-> base-p digits, low coefficient first, so that the
            # integers 0 and 1 are the field's zero and one
            elems = []
            for e in range(p**s):
                digits = []
                x = e
                for _ in range(s):
                    digits.append(x % p)
                    x //= p
                elems.append(tuple(digits))
            index = {e: i for i, e in enumerate(elems)}
            self.add = [
                [index[tuple((x + y) % p for x, y in zip(a, b))] for b in elems]
                for a in elems
            ]
            self.mul = [
                [index[self._poly_mul_mod(a, b, modulus, p, s)] for b in elems]
                for a in elems
            ]
        self.neg = [self.add[a].index(0) for a in range(self.q)]
        self.inv = [0] * self.q
        for a in range(1, self.q):
            self.inv[a] = self.mul[a].index(1)

    @staticmethod
    def _poly_mul_mod(a, b, modulus, p, s):
        prod = [0] * (2 * s - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] = (prod[i + j] + x * y) % p
        # reduce by the monic modulus (degree s)
        for d in range(2 * s - 2, s - 1, -1):
            coef = prod[d]
            if coef:
                prod[d] = 0
                for j in range(s):
                    prod[d - s + j] = (prod[d - s + j] - coef * modulus[j]) % p
        return tuple(prod[:s])

    @staticmethod
    def _find_irreducible(p: int, s: int) -> tuple[int, ...]:
        """Lexicographically first monic irreducible of degree s over GF(p)."""

        def divides(small, big):
            # polynomial long division over GF(p); small is monic of degree ds
            big = list(big)
            ds = len(small) - 1
            while len(big) - 1 >= ds:
                if big[-1] == 0:
                    big.pop()
                    continue
                coef = big[-1]
                off = len(big) - 1 - ds
                for j in range(ds + 1):
                    big[off + j] = (big[off + j] - coef * small[j]) % p
                big.pop()
            return not any(big)

        monics_by_degree = {
            d: [tuple(c) + (1,) for c in iproduct(range(p), repeat=d)]
            for d in range(1, s // 2 + 1)
        }
        for low in iproduct(range(p), repeat=s):
            cand = tuple(low) + (1,)
            if cand[0] == 0:
                continue
            if any(
                divides(f, cand)
                for d in monics_by_degree
                for f in monics_by_degree[d]
            ):
                continue
            return cand
        raise InternalConsistencyError(f"no irreducible of degree {s} over GF({p})")


@lru_cache(maxsize=None)
def small_field(p: int, s: int) -> PrimePowerField:
    return PrimePowerField(p, s)


def _factor_prime_power(q: int) -> tuple[int, int]:
    for p in range(2, q + 1):
        if q % p == 0:
            s = 0
            qq = q
            while qq % p == 0:
                qq //= p
                s += 1
            if qq != 1:
                raise InvalidInput(f"{q} is not a prime power")
            return p, s
    raise InvalidInput(f"{q} is not a prime power")


class ProjGeometry:
    """Point set of PG(k, q) with canonical representatives."""

    def __init__(self, k: int, q: int):
        if k < 2:
            raise InvalidInput(f"projective dimension must be >= 2, got {k}")
        p, s = _factor_prime_power(q)
        self.k = k
        self.q = q
        self.field = small_field(p, s)
        pts = []
        for vec in iproduct(range(q), repeat=k + 1):
            first = next((x for x in vec if x), None)
            if first == 1:  # canonical: first nonzero coordinate is 1
                pts.append(vec)
        self.points = tuple(pts)
        expected = (q ** (k + 1) - 1) // (q - 1)
        if len(pts) != expected:
            raise InternalConsistencyError(
                f"{len(pts)} canonical points, expected {expected}"
            )
        self._index = {pt: i for i, pt in enumerate(pts)}

    def canonicalize(self, vec: tuple[int, ...]) -> tuple[int, ...]:
        f = self.field
        first = next((x for x in vec if x), None)
        if first is None:
            raise InvalidInput("zero vector has no projective point")
        scale = f.inv[first]
        return tuple(f.mul[scale][x] for x in vec)

    def point_index(self, vec: tuple[int, ...]) -> int:
        return self._index[self.canonicalize(vec)]


@dataclass(frozen=True)
class Configuration:
    """Incidence structure with constant row weight, column weight, and
    pairwise column intersection count."""

    incidence: BitMatrix
    b: int
    v: int
    r: int
    k_prime: int
    lam: int

    def check_invariants(self) -> None:
        rows = self.incidence.row_bits()
        if len(rows) != self.b or self.incidence.cols != self.v:
            raise InternalConsistencyError("incidence shape mismatch")
        for row in rows:
            if row.bit_count() != self.k_prime:
                raise InternalConsistencyError("row weight differs from k'")
        columns = self.incidence.transpose().row_bits()
        for col in columns:
            if col.bit_count() != self.r:
                raise InternalConsistencyError("column weight differs from r")
        for i, a in enumerate(columns):
            for bcol in columns[i + 1 :]:
                if (a & bcol).bit_count() != self.lam:
                    raise InternalConsistencyError(
                        "a column pair meets in != lambda rows"
                    )


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


def _echelon_matrices(k1: int, m: int, q: int):
    """All reduced-echelon k1 x m matrices of rank k1 over GF(q), as row
    tuples; one canonical matrix per k1-dimensional subspace."""
    for pivots in combinations(range(m), k1):
        # free entries sit right of their row's pivot, outside pivot columns
        free_positions = [
            (i, c)
            for i in range(k1)
            for c in range(pivots[i] + 1, m)
            if c not in pivots
        ]
        for values in iproduct(range(q), repeat=len(free_positions)):
            rows = [[0] * m for _ in range(k1)]
            for i, pc in enumerate(pivots):
                rows[i][pc] = 1
            for (i, c), val in zip(free_positions, values):
                rows[i][c] = val
            yield tuple(tuple(r) for r in rows)


def enumerate_spaces(geom: ProjGeometry, l: int) -> Configuration:
    """Incidence matrix of all l-spaces of the geometry over its point set."""
    b, v, r, k_prime, lam = config_params(geom.k, geom.q, l)
    f = geom.field
    q = geom.q
    dim = l + 1
    ambient = geom.k + 1
    rows = []
    for basis in _echelon_matrices(dim, ambient, q):
        bits = 0
        for coeffs in iproduct(range(q), repeat=dim):
            if not any(coeffs):
                continue
            vec = [0] * ambient
            for c, row in zip(coeffs, basis):
                if c:
                    for j, x in enumerate(row):
                        vec[j] = f.add[vec[j]][f.mul[c][x]]
            bits |= 1 << geom.point_index(tuple(vec))
        rows.append(bits)
    if len(rows) != b:
        raise InternalConsistencyError(f"enumerated {len(rows)} spaces, expected {b}")
    cfg = Configuration(
        incidence=BitMatrix(len(geom.points), rows),
        b=b,
        v=v,
        r=r,
        k_prime=k_prime,
        lam=lam,
    )
    cfg.check_invariants()
    return cfg


def build_so_code(cfg: Configuration) -> LinearCode:
    """Span of the incidence rows, extended by an all-ones column when both
    k' and lambda are odd; rejected when the parities are mixed or the row
    products turn out uneven."""
    kp_odd = cfg.k_prime % 2 == 1
    lam_odd = cfg.lam % 2 == 1
    if kp_odd != lam_odd:
        raise UnsupportedConfiguration(
            f"k'={cfg.k_prime} and lambda={cfg.lam} have mixed parity"
        )
    if kp_odd:
        rows = [r | 1 << cfg.v for r in cfg.incidence.row_bits()]
        matrix = BitMatrix(cfg.v + 1, rows)
    else:
        matrix = cfg.incidence
    code = LinearCode.from_spanning(matrix)
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
    so both hypotheses are decoded and the consistent one wins.
    """

    def __init__(self, cfg: Configuration, extended: bool, radius: int | None = None):
        self.cfg = cfg
        self.extended = extended
        self.checks = cfg.incidence.row_bits()
        self.v = cfg.v
        self.n = cfg.v + 1 if extended else cfg.v
        code = build_so_code(cfg) if extended else LinearCode.from_spanning(cfg.incidence)
        if extended and code.n != self.n:
            raise InvalidInput("configuration does not extend")
        self._span_rows = code.generator.row_bits()
        # bit i of column j is set when check i passes through point j
        self._columns = cfg.incidence.transpose().row_bits()
        if any(column.bit_count() != cfg.r for column in self._columns):
            raise InvalidInput("a point does not lie on exactly r checks")
        one_step = (cfg.r + cfg.lam - 1) // (2 * cfg.lam)
        two_pass = (cfg.r + cfg.lam) // (2 * cfg.lam)
        self.radius = radius if radius is not None else (two_pass if extended else one_step)
        self.one_step_bound = one_step
        self.two_pass_bound = two_pass

    def _is_codeword(self, bits: int) -> bool:
        return not parities(self._span_rows, bits)

    def _majority_pass(self, violated: int) -> tuple[int, int]:
        """Points through which a strict majority of the r checks are
        violated, for the appended bit 0 and for 1; bit i of ``violated`` is
        set when check i is violated with the appended bit 0.  The appended
        bit 1 flips every check, so c violated checks through a point become
        r - c."""
        r = self.cfg.r
        flips0 = flips1 = 0
        for j, column in enumerate(self._columns):
            twice = 2 * (violated & column).bit_count()
            if twice > r:
                flips0 |= 1 << j
            elif twice < r:
                flips1 |= 1 << j
        return flips0, flips1

    def decode(self, received: BitVector) -> BitVector:
        if received.n != self.n:
            raise InvalidInput(f"received length {received.n} != {self.n}")
        bits = received.bits
        if not self.extended:
            flips = self._majority_pass(parities(self.checks, bits))[0]
            out = bits ^ flips
            if flips.bit_count() > self.radius or not self._is_codeword(out):
                raise DecodingFailure("majority vote did not reach a codeword")
            return BitVector(self.n, out)

        points = bits & ((1 << self.v) - 1)
        candidates = []
        for hypothesis, flips in enumerate(self._majority_pass(parities(self.checks, points))):
            out = points ^ flips | hypothesis << self.v
            weight = (out ^ bits).bit_count()
            if weight <= self.radius and self._is_codeword(out):
                candidates.append((weight, out))
        if not candidates:
            raise DecodingFailure("neither hypothesis for the appended bit decodes")
        candidates.sort()
        if len(candidates) == 2 and candidates[0][0] == candidates[1][0] \
                and candidates[0][1] != candidates[1][1]:
            raise DecodingFailure("both appended-bit hypotheses decode equally well")
        return BitVector(self.n, candidates[0][1])

    def decode_word(self, bits: int) -> int:
        return self.decode(BitVector(self.n, bits)).bits
