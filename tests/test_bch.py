import dataclasses
import hashlib
import itertools
import os
import random
import subprocess
import sys
import time
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcss import bch
from qcss.bch import (
    PRIMITIVE_POLYS,
    BchDecoder,
    BchSearchHit,
    CyclicCodeSpec,
    Gf2mField,
    SearchMatch,
    bch_bound,
    bch_generator,
    best_window,
    best_windows,
    bm_decode,
    cyclic_field,
    cyclic_weight_counts,
    cyclotomic_coset,
    default_field,
    dual_zero_set,
    is_self_orthogonal_cyclic,
    match_polynomial_against_search,
    minimal_polynomial,
    orbit_scan,
    poly_deg,
    poly_divides,
    poly_divmod,
    poly_gcd,
    poly_mod,
    poly_mul,
    poly_reverse,
    search_self_orthogonal_bch,
    spec_from_zero_set,
    units,
    zero_set_of_polynomial,
)
from qcss.errors import (
    DecodingFailure,
    InternalConsistencyError,
    InvalidInput,
    PreconditionError,
    ResourceLimit,
)
from qcss.gf2 import BitVector, bytes_as_ints, ints_as_bytes
from qcss.tables import TABLE1_ROWS


def test_poly_arithmetic():
    # (x+1)(x^2+x+1) = x^3+1
    assert poly_mul(0b11, 0b111) == 0b1001
    assert poly_mod(0b1001, 0b11) == 0
    assert poly_divides(0x13, (1 << 15) | 1)
    assert poly_reverse(0b1101) == 0b1011


@settings(max_examples=300, deadline=None)
@given(st.integers(0, (1 << 300) - 1), st.integers(0, (1 << 80) - 1))
@example(0, 1)
@example(0b1001, 0b11)
@example(0b11, 0b1001)
@example(5, 0)
def test_poly_divmod_identity(a, b):
    if b == 0:
        with pytest.raises(InvalidInput):
            poly_divmod(a, b)
        return
    q, r = poly_divmod(a, b)
    assert poly_mul(q, b) ^ r == a
    assert poly_deg(r) < poly_deg(b)
    assert poly_mod(a, b) == r
    assert poly_divides(b, a) == (r == 0)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, (1 << 200) - 1))
def test_poly_reverse_is_an_involution_with_constant_term_one(p):
    p = p << 1 | 1
    assert poly_deg(poly_reverse(p)) == poly_deg(p)
    assert poly_reverse(poly_reverse(p)) == p


def test_field_rejects_non_primitive():
    with pytest.raises(InvalidInput):
        Gf2mField(4, 0x1F)  # x^4+x^3+x^2+x+1 is irreducible but has order 5


@pytest.mark.parametrize("m, poly", [(2, -5), (3, -11), (4, -0x13), (4, 0x25)])
def test_field_refuses_a_polynomial_not_of_degree_m(m, poly):
    # a negative int is no polynomial, and the order test's reduction would not end on it
    with pytest.raises(InvalidInput, match=f"does not have degree {m}"):
        Gf2mField(m, poly)


def _first_returns(m):
    """Every polynomial p of degree m, and the first step k <= 2^m - 1 at
    which the walk x^k mod p is back at 1 (0 if it is not): brute force,
    over all p at once."""
    polys = np.arange(1 << m, 2 << m, dtype=np.int64)
    x = np.ones_like(polys)
    first = np.zeros_like(polys)
    for k in range(1, 1 << m):
        x <<= 1
        x ^= np.where(x >> m & 1, polys, 0)
        first[(first == 0) & (x == 1)] = k
    return polys.tolist(), first.tolist()


def _primitivity_mismatches(m):
    """The polynomials of degree m that Gf2mField accepts or refuses unlike
    the walk: it accepts p exactly when the walk first returns at 2^m - 1."""
    wrong = []
    for p, k in zip(*_first_returns(m)):
        try:
            Gf2mField(m, p)
            accepted = True
        except InvalidInput as exc:
            assert str(exc) == f"0x{p:x} is not primitive of degree {m}"
            accepted = False
        if accepted != (k == (1 << m) - 1):
            wrong.append(p)
    return wrong


# primitive polynomials of degree m: phi(2^m - 1) / m
_PRIMITIVE_COUNTS = {1: 1, 2: 1, 3: 2, 4: 2, 5: 6, 6: 6, 7: 18, 8: 16, 9: 48, 10: 60}


@pytest.mark.parametrize("m", range(1, 11))
def test_field_accepts_exactly_the_primitive_polynomials(m):
    # every polynomial of degree m: reducible ones, 0x1F at m = 4, the primitive ones
    assert _primitivity_mismatches(m) == []
    _, first = _first_returns(m)
    assert first.count((1 << m) - 1) == _PRIMITIVE_COUNTS[m]


@pytest.mark.parametrize("m", [4, 6, 8, 10])
def test_order_test_without_one_divisor_accepts_non_primitive_polynomials(m, monkeypatch):
    # alpha^3 has order (2^m - 1) / 3 and a minimal polynomial of degree m,
    # which passes an order test that skips that divisor: 0x1F at m = 4
    minpoly = minimal_polynomial(default_field(m), 3)
    real = bch._divisors
    monkeypatch.setattr(bch, "_divisors", lambda k: real(k) - {k // 3})
    assert minpoly in _primitivity_mismatches(m)


def test_divisors():
    divisors = [sorted(bch._divisors(k)) for k in (1, 15, 63)]
    assert divisors == [[1], [1, 3, 5, 15], [1, 3, 7, 9, 21, 63]]
    assert len(bch._divisors((1 << 20) - 1)) == 48  # 3 * 5^2 * 11 * 31 * 41


def test_field_tables_consistent():
    f = default_field(5)
    for x in range(1, 32):
        assert f.alpha_pow(f.log(x)) == x
        assert f.mul(x, f.inv(x)) == 1


# without the range check a negative element wraps around the tables and 16 indexes past them
@pytest.mark.parametrize("call", [
    lambda f: f.mul(-1, 3), lambda f: f.mul(3, -1), lambda f: f.mul(16, 3),
    lambda f: f.mul(3, 16), lambda f: f.mul(0, 16), lambda f: f.mul(-1, 0),
    lambda f: f.inv(-2), lambda f: f.inv(16), lambda f: f.log(-3), lambda f: f.log(16),
], ids=["mul-neg", "mul-neg-right", "mul-16", "mul-16-right", "mul-zero-16", "mul-neg-zero",
        "inv-neg", "inv-16", "log-neg", "log-16"])
def test_field_refuses_values_outside_the_field(call):
    f = default_field(4)
    with pytest.raises(InvalidInput, match="not an element of GF"):
        call(f)
    assert f.mul(15, 15) == f.alpha_pow(2 * f.log(15)) and f.mul(0, 15) == 0


def test_minimal_polynomial_examples():
    f = default_field(4)
    assert minimal_polynomial(f, 0) == 0b11  # x + 1
    assert minimal_polynomial(f, 1) == 0x13
    m3 = minimal_polynomial(f, 3)
    assert poly_deg(m3) == len(cyclotomic_coset(3, 15))
    assert poly_divides(m3, (1 << 15) | 1)
    # the product of (x - a^i) over the coset {3,6,12,9}
    assert m3 == _coset_product_minpoly(_list_field(4, f.poly), 3) == 0x1F


def _coset_product_minpoly(fld, e):
    """minimal_polynomial as it was before the linear dependency: the
    product of (x - alpha^i) over the cyclotomic coset of e, in the
    arithmetic of ``fld``."""
    coeffs = [1]
    for i in cyclotomic_coset(e, fld.order):
        root = fld.alpha_pow(i)
        nxt = [0] * (len(coeffs) + 1)
        for d, c in enumerate(coeffs):
            nxt[d + 1] ^= c
            nxt[d] ^= fld.mul(c, root)
        coeffs = nxt
    assert set(coeffs) <= {0, 1}, "coset product did not collapse to GF(2)"
    return sum(c << d for d, c in enumerate(coeffs))


def test_minimal_polynomial_matches_the_coset_product():
    # every exponent for m <= 12, against one product per coset in list tables
    pairs = 0
    for m in range(2, 13):
        fld = default_field(m)
        oracle = _list_field(m, fld.poly)
        want = {}
        for e in range(fld.order):
            rep = cyclotomic_coset(e, fld.order)[0]
            if rep not in want:
                want[rep] = _coset_product_minpoly(oracle, rep)
            assert minimal_polynomial(fld, e) == want[rep], (m, e)
            pairs += 1
    assert pairs == 8177
    # a sample at m = 20, the product in the field's own arithmetic; the
    # cosets of order / 3, / 5, / 11 and / 33 have 2, 4, 10 and 10 elements
    fld = default_field(20)
    rng = random.Random(20)
    sample = [0, 1, fld.order // 3, fld.order // 5, fld.order // 11, fld.order // 33]
    for e in sample + [rng.randrange(fld.order) for _ in range(6)]:
        assert minimal_polynomial(fld, e) == _coset_product_minpoly(fld, e), e


def test_minimal_polynomial_refuses_a_dependency_of_the_wrong_degree(monkeypatch):
    # a coset one element too large: the first dependency has degree 4, not 5
    real = bch.cyclotomic_coset
    monkeypatch.setattr(bch, "cyclotomic_coset", lambda e, n: real(e, n) + (n,))
    with pytest.raises(InternalConsistencyError, match="of degree 4, not 5"):
        minimal_polynomial(default_field(4), 1)
    with pytest.raises(InvalidInput, match="out of range"):
        minimal_polynomial(default_field(4), 15)


def test_bch_generator_hamming_codes():
    spec15 = bch_generator(15, 1, 2)
    assert (spec15.n, spec15.dimension) == (15, 11)
    assert poly_deg(spec15.generator) == 4
    assert poly_divides(spec15.generator, (1 << 15) | 1)
    spec7 = bch_generator(7, 1, 3)
    assert (spec7.n, spec7.dimension) == (7, 4)
    assert spec7.to_code().min_distance() == 3


def test_bch_generator_empty_code():
    # window {0..5} closes over every residue, so deg(g) would reach n
    with pytest.raises(PreconditionError):
        bch_generator(7, 0, 7)
    # a window of length n-1 that misses exponent 0 is still a valid code
    assert bch_generator(7, 1, 7).dimension == 1


def test_dual_zero_set_involution_and_size():
    rng = random.Random(8)
    for n in (7, 15, 21, 31):
        for _ in range(10):
            b = rng.randrange(n)
            delta = rng.randrange(2, n // 2 + 2)
            try:
                spec = bch_generator(n, b, delta)
            except PreconditionError:
                continue
            dz = dual_zero_set(spec)
            assert len(spec.zero_set) + len(dz) == n
            back = dual_zero_set(spec.dual_spec())
            assert tuple(back) == spec.zero_set


def test_dual_zero_set_hamming():
    spec = bch_generator(7, 1, 3)
    assert spec.zero_set == (1, 2, 4)
    assert dual_zero_set(spec) == (0, 1, 2, 4)


def test_cyclic_self_orthogonality_matches_matrix_level():
    # every cyclic code of length <= 31 given by a union of cyclotomic cosets
    for n in (7, 15, 21, 31):
        cosets = sorted({cyclotomic_coset(e, n) for e in range(n)})
        for mask in range(1, 1 << len(cosets)):
            zeros = []
            for i, c in enumerate(cosets):
                if mask >> i & 1:
                    zeros.extend(c)
            if len(zeros) >= n:
                continue
            spec = spec_from_zero_set(n, zeros)
            assert is_self_orthogonal_cyclic(spec) == spec.to_code().is_self_orthogonal()


def test_generator_times_check_polynomial():
    for n in (7, 15, 31):
        for delta in (2, 3, 5):
            spec = bch_generator(n, 1, delta)
            check = spec.dual_spec()
            # reciprocal of the dual generator is the check polynomial
            assert poly_mul(spec.generator, poly_reverse(check.generator)) == (1 << n) | 1


def test_bm_decode_zero_syndrome():
    spec = bch_generator(15, 1, 3)
    cw = spec.to_code().generator.row_bits()[0]
    assert bm_decode(spec, cw) == 0


def test_bm_decode_all_single_flips_hamming15():
    spec = bch_generator(15, 1, 3)
    rng = random.Random(5)
    rows = spec.to_code().generator.row_bits()
    for _ in range(10):
        cw = 0
        for r in rows:
            if rng.random() < 0.5:
                cw ^= r
        for p in range(15):
            assert bm_decode(spec, cw ^ (1 << p)) == 1 << p


def test_bm_decode_all_double_flips_31_21_5():
    spec = bch_generator(31, 1, 5)
    assert spec.dimension == 21
    rng = random.Random(6)
    cw = 0
    for r in spec.to_code().generator.row_bits():
        if rng.random() < 0.5:
            cw ^= r
    for a, b in itertools.combinations(range(31), 2):
        assert bm_decode(spec, cw ^ (1 << a) ^ (1 << b)) == (1 << a) ^ (1 << b)


def test_bm_decode_beyond_radius_fails_or_miscorrects_to_codeword():
    spec = bch_generator(15, 1, 3)
    code = spec.to_code()
    rng = random.Random(9)
    for _ in range(200):
        err = sum(1 << j for j in rng.sample(range(15), 3))
        try:
            estimate = bm_decode(spec, err)
        except DecodingFailure:
            continue
        assert code.contains(BitVector(15, err ^ estimate))


def test_bch_decoder_adapter_returns_codewords():
    spec = bch_generator(31, 1, 5)
    dec = BchDecoder(spec)
    code = spec.to_code()
    rng = random.Random(10)
    for _ in range(50):
        cw = 0
        for r in code.generator.row_bits():
            if rng.random() < 0.5:
                cw ^= r
        noise = BitVector(31, sum(1 << j for j in rng.sample(range(31), 2)))
        out = dec.decode_word(cw ^ noise.bits)
        assert out == cw


def test_search_finds_table_hex_for_length_15():
    hits = search_self_orthogonal_bch(15)
    match = [h for h in hits if h.code_spec.generator == 0x9AF]
    assert len(match) == 1
    hit = match[0]
    assert (hit.quantum_n, hit.quantum_k, hit.designed_distance) == (15, 7, 3)
    assert hit.code_spec.dimension == 4


def test_search_length_31_rows():
    hits = search_self_orthogonal_bch(31)
    params = {(h.quantum_k, h.designed_distance) for h in hits}
    assert {(1, 7), (11, 5), (21, 3)} <= params
    # every hit really is self-orthogonal at the matrix level
    for h in hits:
        assert h.code_spec.to_code().is_self_orthogonal()
        assert h.quantum_k == 31 - 2 * h.code_spec.dimension


def test_search_length_127_covers_seven_table_rows():
    hits = search_self_orthogonal_bch(127)
    params = {(h.quantum_k, h.designed_distance) for h in hits}
    for want in [(113, 3), (99, 5), (85, 7), (71, 9), (57, 11), (43, 13), (29, 15)]:
        kq, d = want
        assert any(hk == kq and hd >= d for hk, hd in params), want


def test_match_polynomial_relabeling():
    hits = search_self_orthogonal_bch(31)
    m = match_polynomial_against_search(31, 0x32E8AB, hits)
    assert m is not None
    assert m.hit.quantum_k == 11 and m.hit.designed_distance >= 5
    if m.unit != 1:
        assert m.alternate_primitive_poly is not None
        # the alternate field reproduces the hex verbatim
        alt = Gf2mField(5, m.alternate_primitive_poly)
        zeros = zero_set_of_polynomial(31, 0x32E8AB, alt)
        alt_spec = spec_from_zero_set(31, zeros, alt)
        assert alt_spec.generator == 0x32E8AB


def _match_oracle(n, g, hits):
    """The match as one frozenset of zeros per hit and per unit."""
    fld = cyclic_field(n)
    zeros = set(zero_set_of_polynomial(n, g, fld))
    if len(zeros) != poly_deg(g):
        return None
    by_zeros = {frozenset(h.code_spec.zero_set): h for h in hits}
    for u in bch._length_table(n).coset_units:
        hit = by_zeros.get(frozenset(u * i % n for i in zeros))
        if hit is None:
            continue
        alt = minimal_polynomial(fld, pow(u, -1, n)) if n == fld.order and u != 1 else None
        return SearchMatch(hit=hit, unit=u, alternate_primitive_poly=alt)
    return None


def test_match_polynomial_equals_the_frozenset_oracle():
    searches = {}
    alternates = 0
    for n, _, _, g in TABLE1_ROWS:
        hits = searches.setdefault(n, search_self_orthogonal_bch(n))
        match = match_polynomial_against_search(n, g, hits)
        assert match is not None and match == _match_oracle(n, g, hits), hex(g)
        alternates += match.alternate_primitive_poly is not None
    assert alternates  # some row is reproduced only in another field
    # the even-weight code (zeros {0}) is not self-orthogonal, (x + 1)^2 has
    # a repeated zero, and a hit of another size matches nothing either
    for g in (0x3, 0x5, 0x13):
        assert match_polynomial_against_search(15, g, searches[15]) is None
        assert _match_oracle(15, g, searches[15]) is None


def test_poly_gcd():
    assert poly_gcd(0b1001, 0b110) == 0b11  # x^3 + 1 and x^2 + x share x + 1
    assert poly_gcd(0x13, 0b10) == 1
    assert poly_gcd(0, 0x13) == 0x13 and poly_gcd(0x13, 0) == 0x13
    assert poly_gcd(0, 0) == 0
    for g in (0x9AF, 0x1A8F):
        assert poly_gcd(poly_mul(g, 0b111), poly_mul(g, 0b1011)) == g


def test_multiplicative_order():
    # the field degree of a length is the multiplicative order of 2 mod n
    assert cyclic_field(7).m == 3
    assert cyclic_field(45).m == 12
    assert cyclic_field(55).m == 20
    assert cyclic_field(89).m == 11


# 2 has order 21 modulo 2^21 - 1, and order at least 60 modulo 10^18 + 3
@pytest.mark.parametrize("n", [2**21 - 1, 10**18 + 3])
def test_lengths_beyond_the_recorded_fields_are_refused_at_once(n):
    assert cyclic_field(55) is default_field(20)  # the largest degree on record
    assert cyclic_field(7) is default_field(3)
    for call in (
        cyclic_field,
        lambda n: spec_from_zero_set(n, (1,)),
        lambda n: bch_generator(n, 1, 3),
        lambda n: zero_set_of_polynomial(n, 0x3),
        search_self_orthogonal_bch,
        lambda n: match_polynomial_against_search(n, 0x3),
    ):
        start = time.perf_counter()
        with pytest.raises(InvalidInput, match="m > 20"):
            call(n)
        assert time.perf_counter() - start < 1


def test_bch_bound_invariant_under_scaling():
    spec = bch_generator(31, 1, 5)
    zs = list(spec.zero_set)
    assert bch_bound(zs, 31) >= 5
    scaled = [(3 * i) % 31 for i in zs]
    assert bch_bound(scaled, 31) == bch_bound(zs, 31)


def test_bm_decode_deep_radius_sampled_length_93():
    # dual of the [93,40] self-orthogonal code: designed distance 11, t = 5
    from qcss.bch import spec_from_zero_set, zero_set_of_polynomial

    n, g = 93, 0x3E3E4297282E6B
    zeros = zero_set_of_polynomial(n, g)
    spec = spec_from_zero_set(n, zeros)
    dual = spec.dual_spec()
    assert dual.delta >= 11
    code = dual.to_code()
    rng = random.Random(93)
    rows = code.generator.row_bits()
    for _ in range(150):
        cw = 0
        for r in rows:
            if rng.random() < 0.5:
                cw ^= r
        wt = rng.randrange(1, 6)
        noisy = cw
        positions = rng.sample(range(n), wt)
        for p in positions:
            noisy ^= 1 << p
        assert bm_decode(dual, noisy) == sum(1 << p for p in positions)


# -- slow oracles for the coset-unit search ----------------------------------


def _oracle_best_window(zero_set, n):
    """Every unit, runs found on sets: the smallest start among the longest
    runs of the first unit that reaches them."""
    zs = set(zero_set)
    if len(zs) >= n:
        return 1, 0, n
    best = (1, 0, 0)
    for u in units(n):
        scaled = {u * i % n for i in zs}
        for start in sorted(scaled):
            if (start - 1) % n in scaled:
                continue  # not the beginning of a run
            length = 0
            while (start + length) % n in scaled:
                length += 1
            if length > best[2]:
                best = (pow(u, -1, n), start, length)
    return best


def _oracle_generator(n, zeros, fld):
    s = fld.order // n
    g = 1
    for coset in {cyclotomic_coset(e, n) for e in zeros}:
        g = poly_mul(g, minimal_polynomial(fld, (s * coset[0]) % fld.order))
    return g


def _oracle_search(n):
    fld = cyclic_field(n)

    def spec(zeros):
        step, start, length = _oracle_best_window(zeros, n)
        return CyclicCodeSpec(
            n=n, m=fld.m, b=start, delta=length + 1, zero_set=zeros,
            generator=_oracle_generator(n, zeros, fld), step=step, field=fld,
        )

    seen = {}
    for b in range(n):
        closure = set()
        for delta in range(2, n + 1):
            closure.update(cyclotomic_coset(b + delta - 2, n))
            if len(closure) >= n:
                break
            dual_zeros = tuple(sorted(closure))
            code_zeros = tuple(sorted(i for i in range(n) if (n - i) % n not in closure))
            if not closure <= set(code_zeros) or code_zeros in seen:
                continue
            code, dual = spec(code_zeros), spec(dual_zeros)
            seen[code_zeros] = BchSearchHit(code, dual, n, n - 2 * code.dimension, dual.delta)
    return sorted(seen.values(), key=lambda h: (h.code_spec.dimension, h.code_spec.zero_set))


@pytest.mark.parametrize("n", [15, 21, 31, 45, 51, 55, 63, 73, 85, 89, 93, 105])
def test_search_equals_all_units_oracle(n):
    assert search_self_orthogonal_bch(n) == _oracle_search(n)


# sha256 of repr([per-hit tuple]) at the benchmark lengths, taken from the
# search before its batched windows and chained generators
SEARCH_DIGESTS = {
    63: "6c69e80f12234955a4a70140fe55dcec21f72292669403d17e9010678355e306",
    85: "f76ee0371d68b8059dff7d152dd1835f2c3048965e50c8b85acaecb567553ac3",
    93: "addd086d0870f8b8cab11afd8658a6828a47089ddbb9fcfce1709ee633d16ef7",
    127: "912a5bbc38afc7c54cf8b8bd25176654ab5e06ab2c0260f976e1a10f172ef43e",
    255: "548de1e1e98c55e556710cea800585cadd9ed8827a5f6ace6d2b6875e99d3b97",
}


@pytest.mark.parametrize("n", sorted(SEARCH_DIGESTS))
def test_search_digest_at_benchmark_lengths(n):
    hits = search_self_orthogonal_bch(n)
    rows = [
        (c.zero_set, c.generator, c.b, c.delta, c.step,
         d.zero_set, d.generator, d.b, d.delta, d.step, h.quantum_k, h.designed_distance)
        for h in hits for c, d in [(h.code_spec, h.dual_spec)]
    ]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == SEARCH_DIGESTS[n]
    if n in (127, 255):
        # the roots of each generator, however its product was formed
        for h in hits:
            for spec in (h.code_spec, h.dual_spec):
                assert zero_set_of_polynomial(n, spec.generator) == spec.zero_set
            # the dual's generator is the reciprocal of the code's check polynomial
            check = poly_reverse(h.dual_spec.generator)
            assert poly_mul(h.code_spec.generator, check) == 1 << n | 1


@pytest.mark.parametrize("n", [2, 10, 69])
def test_search_refuses_before_any_work(n, monkeypatch):
    # 69 has m = 22, for which no primitive polynomial is on record
    def no_work(*args):
        raise AssertionError("the search started")

    monkeypatch.setattr(bch, "_length_table", no_work)
    monkeypatch.setattr(bch, "best_windows", no_work)
    monkeypatch.setattr(bch, "minimal_polynomial", no_work)
    with pytest.raises(InvalidInput):
        search_self_orthogonal_bch(n)


def test_search_refuses_a_dual_generator_that_is_not_a_divisor(monkeypatch):
    # x^2 + 1 = (x + 1)^2 in place of the coset {1, 2, 4, 8}: x^15 + 1 has
    # no square factor, so the division that seeds the code generators of
    # b = 1 leaves a remainder
    real = bch._coset_minpoly

    def wrong(n, e, fld):
        return 0b101 if bch._length_table(n).coset_of[e % n][0] == 1 else real(n, e, fld)

    monkeypatch.setattr(bch, "_coset_minpoly", wrong)
    with pytest.raises(InternalConsistencyError, match=r"x\^15 \+ 1 over a check polynomial"):
        search_self_orthogonal_bch(15)


@pytest.mark.parametrize("n,count", [(63, 62), (85, 42), (93, 124), (127, 360), (255, 852)])
def test_search_hit_counts(n, count):
    hits = search_self_orthogonal_bch(n)
    assert len(hits) == count
    assert len({h.code_spec.zero_set for h in hits}) == count


def test_search_forms_dual_generators_only_up_to_the_last_new_closure(monkeypatch):
    # n = 127: 463 forward products, one per kept step up to each start's
    # last new closure, and 362 backward ones; walking every step that
    # changes a closure made 141 forward products more (966 in all)
    calls = []
    multiply = bch.poly_mul

    def counted(a, b):
        calls.append((a, b))
        return multiply(a, b)

    monkeypatch.setattr(bch, "poly_mul", counted)
    hits = search_self_orthogonal_bch(127)
    assert len(calls) == 825
    assert len(hits) == 360


def _closed_set_batch(n, rng, count):
    cosets = sorted({cyclotomic_coset(e, n) for e in range(n)})
    samples = [(), tuple(range(1, n)), tuple(range(n))]
    for _ in range(count):
        picked = [c for c in cosets if rng.random() < rng.random()]
        samples.append(tuple(sorted(i for c in picked for i in c)))
    rng.shuffle(samples)
    return samples


def _wrapping_sets(n):
    """The closures of -a..a: the run through 0 is among the longest."""
    for a in range(1, min(n // 2, 12)):
        yield tuple(sorted({e for j in range(-a, a + 1) for e in cyclotomic_coset(j % n, n)}))


@pytest.mark.parametrize("one_unit_per_chunk", [False, True])
@pytest.mark.parametrize("n", [21, 45, 51, 73, 85, 89, 93])
def test_best_window_matches_brute_force_on_closed_sets(n, one_unit_per_chunk, monkeypatch):
    if one_unit_per_chunk:
        monkeypatch.setattr(bch, "_WINDOW_CELLS", 1)
    for zs in _closed_set_batch(n, random.Random(n), 25):
        want = _oracle_best_window(zs, n)
        assert best_window(zs, n) == want
        assert best_window(zs[::-1], n) == want  # iteration order does not matter
        assert bch_bound(set(zs), n) == want[2] + 1
        step, start, length = want
        assert all(step * (start + j) % n in set(zs) for j in range(length))


@pytest.mark.parametrize("pairs", [None, 1, 3, "five_sets"])
@pytest.mark.parametrize("n", [7, 15, 21, 45, 51, 63, 73, 85, 89, 93, 127, 255])
def test_batched_windows_match_oracle(n, pairs, monkeypatch):
    """Chunks of the default size, of one (set, unit) pair, of 3 pairs (a
    set's units split across chunks for most n) and of 5 sets with all their
    units (the batch ends in a part chunk); random closed sets, the empty
    and the full set, and sets whose longest run wraps through 0."""
    samples = _closed_set_batch(n, random.Random(1000 + n), 40) + list(_wrapping_sets(n))
    if pairs == "five_sets":
        pairs = 5 * len(bch._length_table(n).coset_units) + 1
    if pairs is not None:
        monkeypatch.setattr(bch, "_WINDOW_CELLS", pairs * n)
    masks = np.zeros((len(samples), n), dtype=bool)
    for row, zs in zip(masks, samples):
        row[list(zs)] = True
    got = best_windows(masks, n)
    assert got.shape == (len(samples), 3) and got.dtype == np.int64
    want = [_oracle_best_window(zs, n) for zs in samples]
    assert [tuple(w) for w in got.tolist()] == want
    assert best_windows(masks[:0], n).shape == (0, 3)
    wraps = [start + length > n for _, start, length in want]
    assert any(wraps) and not all(wraps)


def test_batched_windows_refuse_a_batch_with_one_open_set():
    masks = np.zeros((3, 7), dtype=bool)
    masks[0, [1, 2, 4]] = True
    masks[2, [3]] = True  # misses 6 = 2 * 3
    with pytest.raises(InvalidInput):
        best_windows(masks, 7)


def test_window_refuses_sets_not_closed_under_doubling():
    with pytest.raises(InvalidInput):
        best_window([1], 7)
    with pytest.raises(InvalidInput):
        bch_bound([1, 2], 7)  # misses 4 = 2 * 2
    assert bch_bound([1, 2, 4], 7) == 3


# -- the field-call decoder as the oracle of the table-driven one -------------


def _oracle_bm_decode(spec, received):
    """bm_decode as it was before its tables: one field call per product,
    in list tables, and a set of error positions folded into the error
    word at the end."""
    fld = _list_field(spec.field.m, spec.field.poly)
    s = (fld.order // spec.n) * spec.step
    nsyn = spec.delta - 1
    syndromes = []
    r = received
    for j in range(nsyn):
        e = (spec.b + j) % spec.n
        acc = 0
        for p in range(spec.n):
            if r >> p & 1:
                acc ^= fld.alpha_pow(s * e * p)
        syndromes.append(acc)
    if not any(syndromes):
        # no window syndrome: the word is its own estimate, still checked
        _oracle_zero_set_check(spec, received)
        return 0
    lam, prev, lfsr_len, shift, prev_disc = [1], [1], 0, 1, 1
    for step in range(1, nsyn + 1):
        disc = syndromes[step - 1]
        for i in range(1, lfsr_len + 1):
            if i < len(lam) and lam[i]:
                disc ^= fld.mul(lam[i], syndromes[step - 1 - i])
        if disc == 0:
            shift += 1
            continue
        scale = fld.mul(disc, fld.inv(prev_disc))
        update = lam.copy()
        grow = len(prev) + shift - len(update)
        if grow > 0:
            update += [0] * grow
        for i, c in enumerate(prev):
            update[i + shift] ^= fld.mul(scale, c)
        if 2 * lfsr_len <= step - 1:
            prev, lfsr_len, prev_disc, shift = lam, step - lfsr_len, disc, 1
        else:
            shift += 1
        lam = update
    degree = len(lam) - 1
    while degree > 0 and lam[degree] == 0:
        degree -= 1
    t_max = (spec.delta - 1) // 2
    if lfsr_len > t_max or degree != lfsr_len:
        raise DecodingFailure(f"error weight exceeds the designed radius {t_max}")
    beta_exp = s % fld.order
    positions = set()
    for p in range(spec.n):
        x = fld.alpha_pow(-beta_exp * p % fld.order)
        acc, xp = 0, 1
        for c in lam[: lfsr_len + 1]:
            if c:
                acc ^= fld.mul(c, xp)
            xp = fld.mul(xp, x)
        if acc == 0:
            positions.add(p)
    if len(positions) != lfsr_len:
        raise DecodingFailure(f"locator of degree {lfsr_len} has {len(positions)} roots")
    error = sum(1 << p for p in positions)
    _oracle_zero_set_check(spec, received ^ error)
    return error


def _oracle_zero_set_check(spec, corrected):
    fld = _list_field(spec.field.m, spec.field.poly)
    s0 = fld.order // spec.n
    for i in spec.zero_set:
        acc = 0
        for p in range(spec.n):
            if corrected >> p & 1:
                acc ^= fld.alpha_pow(s0 * i * p)
        if acc:
            raise DecodingFailure("corrected word fails the zero-set check")


def _outcome(decode, spec, bits):
    try:
        return decode(spec, bits)
    except DecodingFailure as exc:
        return f"DecodingFailure: {exc}"


def _decoder_test_words(spec, rng, per_weight):
    """Codeword plus an error of each weight 0..radius+3, and uniform words."""
    rows = spec.to_code().generator.row_bits()
    words = []
    for weight in range((spec.delta - 1) // 2 + 4):
        for _ in range(per_weight):
            cw = 0
            for r in rows:
                if rng.random() < 0.5:
                    cw ^= r
            for p in rng.sample(range(spec.n), weight):
                cw ^= 1 << p
            words.append(cw)
    words += [rng.getrandbits(spec.n) for _ in range(per_weight)]
    return words


def _bch127_dual():
    from qcss.tables import TABLE1_ROWS

    g = next(g for n, kq, d, g in TABLE1_ROWS if (n, kq, d) == (127, 57, 11))
    return spec_from_zero_set(127, zero_set_of_polynomial(127, g)).dual_spec()


@pytest.mark.parametrize("make_spec, per_weight", [
    (lambda: bch_generator(15, 1, 3), 40),
    (lambda: bch_generator(15, 1, 7), 40),
    (lambda: bch_generator(31, 1, 5), 40),
    (lambda: bch_generator(31, 3, 7), 40),
    (lambda: spec_from_zero_set(93, zero_set_of_polynomial(93, 0x3E3E4297282E6B)).dual_spec(), 10),
    (_bch127_dual, 10),
], ids=["15-3", "15-7", "31-5", "31-b3-7", "93-dual", "127-dual"])
def test_bm_decode_matches_field_oracle(make_spec, per_weight):
    spec = make_spec()
    rng = random.Random(spec.n * 1000 + spec.delta)
    outcomes = {"positions": 0, "failure": 0}
    for bits in _decoder_test_words(spec, rng, per_weight):
        fast = _outcome(bm_decode, spec, bits)
        assert fast == _outcome(_oracle_bm_decode, spec, bits)
        outcomes["failure" if isinstance(fast, str) else "positions"] += 1
    # both kinds of outcome were compared; a Hamming code decodes every word
    assert outcomes["positions"] and (outcomes["failure"] or spec.delta == 3)


# the failure codes of a block decode, by the start of decode_word's message
_BM_FAILURES = {
    1: "DecodingFailure: error weight exceeds the designed radius",
    2: "DecodingFailure: locator of degree",
    3: "DecodingFailure: corrected word fails the zero-set check",
}


def _bm_block_outcomes(spec, words):
    """decode_block on all the words at once: each row's error pattern, or
    its failure code's message start; a failed row is the received word."""
    decoded, failure = BchDecoder(spec).decode_block(ints_as_bytes(words, (spec.n + 7) // 8))
    out = []
    for bits, word, code in zip(words, bytes_as_ints(decoded), failure.tolist()):
        assert not code or word == bits
        out.append(_BM_FAILURES[code] if code else bits ^ word)
    return out


def _same_outcome(block, oracle):
    return block == oracle or isinstance(oracle, str) and oracle.startswith(block)


@pytest.mark.parametrize("make_spec", [
    lambda: bch_generator(15, 1, 7),
    lambda: bch_generator(31, 3, 7),
    lambda: bch_generator(63, 1, 9),
    lambda: bch_generator(63, 5, 7),
    lambda: spec_from_zero_set(93, zero_set_of_polynomial(93, 0x3E3E4297282E6B)).dual_spec(),
    _bch127_dual,
], ids=["15-7", "31-b3-7", "63-9", "63-b5-7", "93-dual", "127-dual"])
def test_bm_block_matches_field_oracle(make_spec):
    # the 127 dual is the benchmark's non-narrow-sense window (b = 117,
    # step = 104); windows of b = 3 and 5 leave zeros beyond their closure,
    # so their words reach the zero-set check
    spec = make_spec()
    rng = random.Random(spec.n * 1000 + spec.delta + 1)
    words = _decoder_test_words(spec, rng, 20)
    want = [_outcome(_oracle_bm_decode, spec, bits) for bits in words]
    got = _bm_block_outcomes(spec, words)
    assert all(_same_outcome(g, w) for g, w in zip(got, want))
    # decode_word, the one-row call, rebuilds the oracle's messages exactly
    assert [_outcome(bm_decode, spec, bits) for bits in words[::7]] == want[::7]
    codes = {next((c for c, m in _BM_FAILURES.items() if m == g), 0) for g in got}
    assert {0, 2} <= codes and (3 in codes) == (spec.b in (3, 5))


def test_bm_block_of_no_rows_one_row_and_1024_rows():
    spec = bch_generator(31, 1, 5)
    dec = BchDecoder(spec)
    decoded, failure = dec.decode_block(np.zeros((0, 4), dtype=np.uint8))
    assert decoded.shape == (0, 4) and failure.shape == (0,)
    rng = random.Random(1024)
    words = _decoder_test_words(spec, rng, 150)[:1000]
    words += [rng.getrandbits(31) for _ in range(1024 - len(words))]
    want = [_outcome(_oracle_bm_decode, spec, bits) for bits in words]
    got = _bm_block_outcomes(spec, words)
    assert len(got) == 1024 and all(_same_outcome(g, w) for g, w in zip(got, want))
    assert _bm_block_outcomes(spec, words[:1]) == got[:1]
    for bad in (np.zeros((1, 3), dtype=np.uint8), np.full((1, 4), 0x80, dtype=np.uint8)):
        with pytest.raises(InvalidInput):
            dec.decode_block(bad)


def test_bm_checks_the_zero_set_of_a_word_without_window_syndromes():
    # the zero set {1, 2, 4, 5, 8, 10} is wider than the closure {1, 2, 4, 8}
    # of its window, so a word of the window's code need not be a codeword
    spec = spec_from_zero_set(15, (1, 2, 4, 5, 8, 10))
    window = [spec.step * (spec.b + j) for j in range(spec.delta - 1)]
    assert set(bch._closure(window, 15)) == {1, 2, 4, 8}
    # 0x13 = x^4 + x + 1 vanishes at beta, so on the whole window, not at beta^5
    message = "corrected word fails the zero-set check"
    for decode in (lambda w: bm_decode(spec, w), BchDecoder(spec).decode_word):
        with pytest.raises(DecodingFailure, match=message):
            decode(0x13)
    assert _outcome(_oracle_bm_decode, spec, 0x13) == f"DecodingFailure: {message}"
    # every word of the window's code: failure code 3 off the code, else itself
    window_code = spec_from_zero_set(15, (1, 2, 4, 8))
    words = [poly_mul(a, window_code.generator) for a in range(1 << window_code.dimension)]
    decoded, failure = BchDecoder(spec).decode_block(ints_as_bytes(words, 2))
    assert bytes_as_ints(decoded) == words
    assert failure.tolist() == [0 if poly_divides(spec.generator, w) else 3 for w in words]
    assert failure.tolist().count(0) == 1 << spec.dimension


def test_every_table1_dual_window_closes_to_its_zero_set():
    # so on these duals a word without window syndromes is a codeword, and
    # the zero-set check of such a word changes no Table-1 or pinned result
    for n, kq, d, g in TABLE1_ROWS:
        dual = spec_from_zero_set(n, zero_set_of_polynomial(n, g)).dual_spec()
        window = [dual.step * (dual.b + j) for j in range(dual.delta - 1)]
        assert set(bch._closure(window, n)) == set(dual.zero_set), (n, kq, d)


def test_bch127_dual_window_is_relabelled():
    spec = _bch127_dual()
    assert (spec.b, spec.step, spec.delta) == (117, 104, 11)


def test_bm_decode_tables_follow_the_field():
    # equal specs (the field is not compared) over two primitive polynomials
    alt = Gf2mField(5, 0x3B)
    spec_alt = bch_generator(31, 1, 5, alt)
    spec_default = dataclasses.replace(spec_alt, field=default_field(5))
    assert spec_default == spec_alt
    rng = random.Random(31)
    words = _decoder_test_words(spec_alt, rng, 20)
    for spec in (spec_default, spec_alt):
        for bits in words:
            assert _outcome(bm_decode, spec, bits) == _outcome(_oracle_bm_decode, spec, bits)
    for bits in words[:40]:  # codewords with up to one error, in spec_alt's own field
        assert not isinstance(_outcome(bm_decode, spec_alt, bits), str)


def _byte_values_oracle(position_values, n):
    """The per-byte tables bm_decode built for itself before the shared
    byte tables of `gf2.packed_table`."""
    byte_values = []
    for k in range(0, n, 8):
        column = position_values[k : k + 8]
        table = [0] * 256
        for v in range(1, 1 << len(column)):
            low = v & -v
            table[v] = table[v ^ low] ^ column[low.bit_length() - 1]
        byte_values.append(table)
    return byte_values


def _position_values_oracle(spec):
    """Entry p: the values of x^p at the decoder's points by field calls,
    one lane of 8, 16 or 32 bits a point: the syndromes, then one zero per
    cyclotomic coset of the zero set."""
    fld, n = spec.field, spec.n
    s0 = fld.order // n
    points = [s0 * spec.step * (spec.b + j) for j in range(spec.delta - 1)]
    points += [s0 * min(cyclotomic_coset(z, n)) for z in sorted(
        {min(cyclotomic_coset(z, n)) for z in spec.zero_set})]
    lane = 8 if fld.m <= 8 else 16 if fld.m <= 16 else 32
    return [sum(fld.alpha_pow(e * p) << (lane * f) for f, e in enumerate(points))
            for p in range(n)], lane * len(points)


@pytest.mark.parametrize("row", TABLE1_ROWS, ids=lambda row: f"n{row[0]}k{row[1]}d{row[2]}")
def test_decoder_byte_tables_match_their_former_build(row):
    # every Table-1 dual, the bch127 dual among them
    n, _, _, g = row
    spec = spec_from_zero_set(n, zero_set_of_polynomial(n, g)).dual_spec()
    tables = bch._decoder_tables(spec, spec.field.poly)
    position_values, width = _position_values_oracle(spec)
    want = [v for t in _byte_values_oracle(position_values, n) for v in t]
    words = -(-width // 64)
    assert tables.values.shape == ((n + 7) // 8, 256, words)
    assert bytes_as_ints(tables.values.reshape(-1, words)) == want
    log, exp = bch._log_exp(spec.field)
    assert np.array_equal(tables.log, log) and np.array_equal(tables.exp, exp)


@pytest.mark.parametrize("m", [2, 5, 8, 9, 16, 17])
def test_log_exp_products_with_the_zero_sentinel(m):
    fld = default_field(m)
    log, exp = bch._log_exp(fld)
    rng = random.Random(m)
    elements = [0, 1, fld.order] + [rng.randrange(1 << m) for _ in range(200)]
    a = np.array(elements * len(elements))
    b = np.repeat(np.array(elements), len(elements))
    got = exp.take(log[a] + log[b], mode="clip").tolist()
    assert got == [fld.mul(x, y) for x, y in zip(a.tolist(), b.tolist())]
    assert exp.dtype.itemsize * 8 == (8 if m <= 8 else 16 if m <= 16 else 32)


_DECODE_MEMORY = """
import resource
from qcss.bch import bm_decode, spec_from_zero_set, zero_set_of_polynomial
from qcss.tables import TABLE1_ROWS
n, _, _, g = next(r for r in TABLE1_ROWS if r[:3] == (55, 15, 4))
spec = spec_from_zero_set(n, zero_set_of_polynomial(n, g)).dual_spec()
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
error = bm_decode(spec, 1 << 3)
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(error == 1 << 3, (after - before) / 1024)
"""


_SPEC_MEMORY = """
import tracemalloc
from qcss import bch
from qcss.tables import TABLE1_ROWS
n, _, _, g = next(r for r in TABLE1_ROWS if r[:3] == (55, 15, 4))
tables = bch._log_exp.cache_info().currsize
tracemalloc.start()
bch.spec_from_zero_set(n, bch.zero_set_of_polynomial(n, g))
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
print(bch._log_exp.cache_info().currsize - tables, peak / 2**20)
"""


def test_gf2_20_spec_holds_no_field_table():
    # the [[55,15,4]] spec lives in GF(2^20); a field that tabulated its
    # 2^20 elements allocated about 9 MB here, before any decoder
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(bch.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", _SPEC_MEMORY], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    ).stdout.split()
    assert out[0] == "0", "the spec path built a log/exp table"
    assert float(out[1]) < 1, f"the spec path allocated {out[1]} MB"


def test_gf2_20_decoder_memory_stays_small():
    # the [[55,15,4]] dual decodes over GF(2^20); list copies of the field's
    # exp/log arrays once grew a fresh process by about 80 MB on one decode
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(bch.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", _DECODE_MEMORY], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    ).stdout.split()
    assert out[0] == "True"
    assert float(out[1]) < 25, f"ru_maxrss grew by {out[1]} MB"


# -- the list-built field and direct zero-set evaluation as oracles ------------


def _list_field_tables(m, poly):
    """exp/log as the Python lists the field held before its array tables."""
    order = (1 << m) - 1
    exp = [0] * (order + 1)
    log = [0] * (1 << m)
    x = 1
    for i in range(order):
        exp[i] = x
        log[x] = i
        x <<= 1
        if x >> m & 1:
            x ^= poly
    exp[order] = 1
    return exp, log


def _alpha_pow_by_squaring(e, poly):
    """x^e mod poly with no tables."""
    out, base = 1, 2
    while e:
        if e & 1:
            out = poly_mod(poly_mul(out, base), poly)
        base = poly_mod(poly_mul(base, base), poly)
        e >>= 1
    return out


class _ListField:
    """GF(2^m) on the list tables of ``_list_field_tables``: the oracles'
    arithmetic, which shares none with ``Gf2mField`` or ``bch._log_exp``."""

    def __init__(self, m, poly):
        self.m, self.poly, self.order = m, poly, (1 << m) - 1
        self.exp, self.logs = _list_field_tables(m, poly)

    def mul(self, a, b):
        return self.exp[(self.logs[a] + self.logs[b]) % self.order] if a and b else 0

    def inv(self, a):
        return self.exp[self.order - self.logs[a]]

    def alpha_pow(self, e):
        return self.exp[e % self.order]


@lru_cache(maxsize=None)
def _list_field(m, poly):
    return _ListField(m, poly)


@pytest.mark.parametrize("m", sorted(PRIMITIVE_POLYS))
def test_compact_field_matches_list_oracle(m):
    fld = Gf2mField(m)
    poly, order = fld.poly, fld.order
    assert vars(fld) == {"m": m, "poly": poly, "order": order}  # the field holds no table
    log, exp = bch._log_exp(fld)
    zero = 3 * order - 1
    assert log.dtype == np.int32 and len(log) == 1 << m and log[0] == zero
    assert len(exp) == 3 * order and exp[zero] == 0
    assert np.array_equal(exp[:zero], np.resize(exp[:order], zero))
    if m <= 12:
        want_exp, want_log = _list_field_tables(m, poly)
        assert exp[: order + 1].tolist() == want_exp and log[1:].tolist() == want_log[1:]
    rng = random.Random(m)
    elements = [1, 2, order] + [rng.randrange(1, 1 << m) for _ in range(300)]
    for a, b in zip(elements, reversed(elements)):
        assert fld.mul(a, b) == poly_mod(poly_mul(a, b), poly)
        assert fld.mul(a, 0) == fld.mul(0, b) == 0
        inv = fld.inv(a)
        assert poly_mod(poly_mul(a, inv), poly) == 1
        assert _alpha_pow_by_squaring(fld.log(a), poly) == a
    for e in [0, 1, order - 1, order, order + 5] + [rng.randrange(order) for _ in range(100)]:
        assert fld.alpha_pow(e) == _alpha_pow_by_squaring(e % order, poly)
        if e < order:
            assert fld.log(fld.alpha_pow(e)) == e


def test_log_exp_refuses_powers_that_miss_elements():
    # x^4 + x^3 + x^2 + x + 1 under a field built for x^4 + x + 1: x has
    # order 5, so the doubling reaches 5 of the 15 nonzero elements
    fld = Gf2mField(4)
    fld.poly = 0x1F
    with pytest.raises(InternalConsistencyError, match="miss elements of GF"):
        bch._log_exp(fld)


def _direct_zero_set(n, g, fld=None):
    """g evaluated at every residue by Horner's rule, one field
    multiplication per coefficient, in list tables up to m = 12 (those
    of GF(2^20) would hold about 80 MB)."""
    if fld is None:
        fld = cyclic_field(n)
    if fld.m <= 12:
        fld = _list_field(fld.m, fld.poly)
    s = fld.order // n

    def value(x):
        acc = 0
        for d in range(g.bit_length() - 1, -1, -1):
            acc = fld.mul(acc, x) ^ (g >> d & 1)
        return acc

    return tuple(i for i in range(n) if value(fld.alpha_pow(s * i)) == 0)


@pytest.mark.parametrize("row", TABLE1_ROWS, ids=lambda row: f"n{row[0]}k{row[1]}d{row[2]}")
def test_coset_zero_sets_match_direct_evaluation(row):
    n, _, _, g = row
    zeros = zero_set_of_polynomial(n, g)
    assert zeros == _direct_zero_set(n, g)
    dual = spec_from_zero_set(n, dual_zero_set(spec_from_zero_set(n, zeros)))
    assert zero_set_of_polynomial(n, dual.generator) == _direct_zero_set(n, dual.generator)
    assert zero_set_of_polynomial(n, dual.generator) == dual.zero_set
    # a polynomial with no zero among the n-th roots of unity, and x^n + 1
    assert zero_set_of_polynomial(n, 0b10) == _direct_zero_set(n, 0b10) == ()
    assert zero_set_of_polynomial(n, 1 << n | 1) == tuple(range(n))
    # the zero polynomial, and g with random bits at and above degree n
    assert zero_set_of_polynomial(n, 0) == _direct_zero_set(n, 0) == tuple(range(n))
    rng = random.Random(n)
    same = g ^ poly_mul(rng.getrandbits(2 * n), 1 << n | 1)
    assert zero_set_of_polynomial(n, same) == _direct_zero_set(n, same) == zeros
    high = g ^ rng.getrandbits(2 * n) << n
    assert zero_set_of_polynomial(n, high) == _direct_zero_set(n, high)
    # GF(32) by 0x3B against the default 0x25, each after the other
    alt = Gf2mField(5, 0x3B)
    for h in (0x25, 0x3B, 0x32E8AB):
        assert zero_set_of_polynomial(31, h) == _direct_zero_set(31, h)
        assert zero_set_of_polynomial(31, h, alt) == _direct_zero_set(31, h, alt)
        assert zero_set_of_polynomial(31, h) == _direct_zero_set(31, h)


def test_zero_set_refuses_bad_input():
    with pytest.raises(InvalidInput):
        zero_set_of_polynomial(15, -0x9AF)
    # 15 does not divide 2^5 - 1
    with pytest.raises(InvalidInput):
        zero_set_of_polynomial(15, 0x9AF, Gf2mField(5))


# -- shift-orbit spectra ---------------------------------------------------

# odd lengths whose field GF(2^m) has a primitive polynomial on record
ORBIT_LENGTHS = [
    n for n in [*range(7, 67, 2), 73] if any(pow(2, m, n) == 1 for m in PRIMITIVE_POLYS)
]


def _random_cyclic_specs(n, rng, count, max_dim=14):
    """Cyclic codes of dimension 1..max_dim: every coset starts as a zero
    and random cosets become nonzeros while the dimension allows."""
    cosets = sorted(set(bch._length_table(n).coset_of))
    specs = []
    for _ in range(count):
        rng.shuffle(cosets)
        nonzeros = []
        for c in cosets:
            if len(nonzeros) + len(c) <= max_dim and (not nonzeros or rng.random() < 0.7):
                nonzeros += c
        specs.append(spec_from_zero_set(n, [e for e in range(n) if e not in nonzeros]))
    return specs


def _scanned_words(monkeypatch):
    """Count the words every _weight_counts call of the orbit scan visits."""
    words = []
    real = bch._weight_counts

    def counting(rows, n, offsets=(0,)):
        words.append(len(offsets) << len(rows))
        return real(rows, n, offsets)

    monkeypatch.setattr(bch, "_weight_counts", counting)
    return words


def test_orbit_spectrum_equals_direct_scan_on_random_cyclic_codes(monkeypatch):
    rng = random.Random(2024)
    words = _scanned_words(monkeypatch)
    codes_seen = split = shared_gcd = 0
    for n in ORBIT_LENGTHS:
        for spec in _random_cyclic_specs(n, rng, 3):
            direct = spec.to_code().weight_enumerator()
            # with no direct scan above dimension 0, each code is split down
            # to its last qualifying coset
            for direct_dim in (16, 0):
                monkeypatch.setattr(bch, "_BLOCK_BITS", direct_dim)
                plan = orbit_scan(spec)
                words.clear()
                assert cyclic_weight_counts(spec) == direct, (n, spec.zero_set)
                assert sum(words) == plan.words
            levels = plan.levels[:-1]
            codes_seen += 1
            split += bool(levels)
            shared_gcd += any(lv.multiplicity < n for lv in levels)
    assert codes_seen >= 70 and split >= 55 and shared_gcd >= 30


def test_orbit_levels_take_cosets_by_decreasing_order(monkeypatch):
    monkeypatch.setattr(bch, "_BLOCK_BITS", 0)
    rng = random.Random(7)
    for n in ORBIT_LENGTHS:
        for spec in _random_cyclic_specs(n, rng, 2, max_dim=n):
            plan = orbit_scan(spec)
            dim = spec.dimension
            orders = []
            for lv in plan.levels[:-1]:
                # orbits of exactly o = n / gcd(n, j) > 1 cover the 2^m - 1 cosets
                m = dim - lv.dim
                assert lv.multiplicity > 1 and n % lv.multiplicity == 0
                assert lv.multiplicity * len(lv.offsets) == (1 << m) - 1
                assert all(spec.to_code().contains(BitVector(n, f)) for f in lv.offsets)
                orders.append(lv.multiplicity)
                dim = lv.dim
            assert orders == sorted(orders, reverse=True)
            base = plan.levels[-1]
            assert (base.dim, base.multiplicity, base.offsets) == (dim, 1, (0,))


# orbit-scan words of the Table-1 rows with k > 16: one representative per
# coset of the n = 127 rows, 11 for [[93,43,7]] and 23 for [[89,23,9]]
TABLE1_ORBIT_WORDS = {
    (63, 27, 7): 8_192,
    (89, 23, 9): 96_518_144,
    (93, 43, 7): 393_216,
    (93, 13, 11): 11_822_706_688,
    (127, 85, 7): 32_768,
    (127, 71, 9): 2_129_920,
    (127, 57, 11): 270_565_376,
    (127, 43, 13): 34_630_303_744,
    (127, 29, 15): 4_432_676_814_848,
}


def _table1_spec(row):
    return spec_from_zero_set(row[0], zero_set_of_polynomial(row[0], row[3]))


def test_orbit_scan_words_of_table1_rows():
    for row in TABLE1_ROWS:
        spec = _table1_spec(row)
        want = TABLE1_ORBIT_WORDS.get(row[:3], 1 << spec.dimension)
        assert orbit_scan(spec).words == want, row[:3]


def test_orbit_spectrum_equals_direct_scan_on_table1_rows(monkeypatch):
    words = _scanned_words(monkeypatch)
    for row in TABLE1_ROWS:
        spec = _table1_spec(row)
        if spec.dimension > 28:
            continue
        words.clear()
        assert cyclic_weight_counts(spec) == spec.to_code().weight_enumerator(), row[:3]
        assert sum(words) == orbit_scan(spec).words


def test_orbit_scan_refuses_before_scanning(monkeypatch):
    words = _scanned_words(monkeypatch)
    spec = _table1_spec(next(r for r in TABLE1_ROWS if r[:3] == (127, 43, 13)))
    with pytest.raises(ResourceLimit, match="34,630,303,744 words"):
        cyclic_weight_counts(spec)
    small = _table1_spec(next(r for r in TABLE1_ROWS if r[:3] == (127, 71, 9)))
    with pytest.raises(ResourceLimit):
        cyclic_weight_counts(small, budget=2_129_919)
    assert words == []
