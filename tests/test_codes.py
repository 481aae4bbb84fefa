import functools
import itertools
import math
import operator
import random
import tracemalloc

import numpy as np
import pytest

from qcss import codes, gf2, tables
from qcss.bch import (
    poly_deg,
    poly_divmod,
    poly_gcd,
    poly_mul,
    spec_from_zero_set,
    zero_set_of_polynomial,
)
from qcss.codes import (
    Distance,
    LinearCode,
    WeightEnumerator,
    dual_min_distance,
    extend_with_parity,
    macwilliams,
    random_linear_code,
    random_self_orthogonal_code,
    split_patterns,
)
from qcss.errors import InternalConsistencyError, InvalidInput, PreconditionError, ResourceLimit
from qcss.gf2 import BitMatrix, BitVector, rank

EXT_HAMMING_ROWS = ["11111111", "01010101", "00110011", "00001111"]
PLANE_ROWS = [
    "11100001",
    "10011001",
    "10000111",
    "01010101",
    "01001011",
    "00110011",
    "00101101",
]


def ext_hamming():
    return LinearCode(BitMatrix.from_strings(EXT_HAMMING_ROWS))

def repetition(n):
    return LinearCode(BitMatrix(n, [(1 << n) - 1]))

def first_order_rm(m):
    # all-ones row plus the m coordinate-mask rows over 2^m points
    n = 1 << m
    rows = [(1 << n) - 1]
    for i in range(m):
        rows.append(sum(1 << j for j in range(n) if j >> i & 1))
    return LinearCode(BitMatrix(n, rows))


def brute_force_enumerator(code):
    rows = code.generator.row_bits()
    counts = [0] * (code.n + 1)
    for mask in range(1 << len(rows)):
        acc = 0
        for i, r in enumerate(rows):
            if mask >> i & 1:
                acc ^= r
        counts[acc.bit_count()] += 1
    return WeightEnumerator(tuple(counts))


def test_dual_of_extended_hamming_is_itself():
    c = ext_hamming()
    assert c.dual().same_code(c)


def test_dual_of_repetition_is_even_weight_code():
    d = repetition(5).dual()
    assert (d.n, d.k) == (5, 4)
    assert all(r.weight() % 2 == 0 for r in d.generator)


def test_from_spanning_and_dual_row_reduce_once(monkeypatch):
    # the rref of the spanning rows is kept as it is, and the dual's kernel
    # is read off the stored rref, so each takes a single row reduction
    plain_rref, calls = gf2.rref, []

    def counted(m):
        calls.append(m)
        return plain_rref(m)

    monkeypatch.setattr(gf2, "rref", counted)
    monkeypatch.setattr(codes, "rref", counted)
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randrange(1, 20)
        rows = BitMatrix(n, [rng.getrandbits(n) for _ in range(rng.randrange(0, 9))])
        calls.clear()
        c = LinearCode.from_spanning(rows)
        assert len(calls) == 1
        calls.clear()
        d = c.dual()
        assert len(calls) == 1
        assert c.dual() is d and d.dual() is c
        assert d.generator == plain_rref(gf2.nullspace_basis(c.generator))[0]
        assert d.pivots == plain_rref(d.generator)[1]


def test_double_dual_is_same_code():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randrange(2, 14)
        c = random_linear_code(n, rng.randrange(1, min(n, 6) + 1), rng)
        assert c.dual().dual().same_code(c)


def test_self_orthogonality():
    assert first_order_rm(4).is_self_orthogonal()
    assert not repetition(3).is_self_orthogonal()
    plane = LinearCode.from_spanning(BitMatrix.from_strings(PLANE_ROWS))
    assert plane.is_self_orthogonal()


def test_self_orthogonal_iff_subcode_of_dual():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randrange(2, 14)
        c = random_linear_code(n, rng.randrange(1, min(n, 6) + 1), rng)
        assert c.is_self_orthogonal() == c.is_subcode_of(c.dual())


def test_is_subcode_reflexive_and_mismatch():
    c = ext_hamming()
    assert c.is_subcode_of(c)
    with pytest.raises(InvalidInput):
        c.is_subcode_of(repetition(5))


def test_min_distance_examples():
    plane = LinearCode.from_spanning(BitMatrix.from_strings(PLANE_ROWS))
    assert plane.min_distance() == 4
    assert repetition(9).min_distance() == 9
    full = LinearCode(BitMatrix.identity(5))
    assert full.min_distance() == 1


def test_min_distance_budget():
    c = random_linear_code(40, 21, random.Random(1))
    with pytest.raises(ResourceLimit):
        c.min_distance(budget=1 << 20)
    rm = first_order_rm(4)
    assert rm.min_distance() == 8
    with pytest.raises(ResourceLimit):  # a cached spectrum is refused too
        rm.min_distance(budget=4)


def test_min_distance_of_zero_dimensional_code():
    c = LinearCode(BitMatrix(4, []))
    with pytest.raises(InvalidInput, match="^zero-dimensional code has no minimum distance$"):
        c.min_distance()


def test_weight_enumerator_examples():
    assert repetition(3).weight_enumerator().counts == (1, 0, 0, 1)
    assert ext_hamming().weight_enumerator().counts == (1, 0, 0, 0, 14, 0, 0, 0, 1)
    rm = first_order_rm(4).weight_enumerator()
    assert rm.counts[0] == 1 and rm.counts[8] == 30 and rm.counts[16] == 1
    assert sum(rm.counts) == 32


def test_weight_enumerator_matches_brute_force():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randrange(2, 18)
        c = random_linear_code(n, rng.randrange(1, min(n, 9) + 1), rng)
        assert c.weight_enumerator().counts == brute_force_enumerator(c).counts


def test_self_orthogonal_codes_have_even_weights_only():
    rng = random.Random(9)
    for _ in range(30):
        n = rng.randrange(4, 16)
        c = random_self_orthogonal_code(n, rng.randrange(1, n // 2 + 1), rng)
        counts = c.weight_enumerator().counts
        assert all(counts[w] == 0 for w in range(1, c.n + 1, 2))


def test_macwilliams_examples():
    rep = repetition(3)
    assert macwilliams(rep.weight_enumerator(), 3, 1).counts == (1, 0, 3, 0)
    sd = ext_hamming().weight_enumerator()
    assert macwilliams(sd, 8, 4).counts == sd.counts
    dual_enum = macwilliams(first_order_rm(4).weight_enumerator(), 16, 5)
    assert dual_enum.counts[4] == 140
    assert dual_enum.total() == 1 << 11
    # cross-check against direct enumeration of the dual
    direct = first_order_rm(4).dual().weight_enumerator()
    assert direct.counts == dual_enum.counts


def test_macwilliams_transform_matches_dual_enumeration():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randrange(2, 15)
        k = rng.randrange(1, n + 1)
        c = random_linear_code(n, k, rng)
        lhs = macwilliams(c.weight_enumerator(), n, k)
        rhs = (
            c.dual().weight_enumerator()
            if c.k < c.n
            else WeightEnumerator(tuple([1] + [0] * n))
        )
        assert lhs.counts == rhs.counts


def closed_form_krawtchouk(n, w, j):
    return sum((-1) ** i * math.comb(j, i) * math.comb(n - j, w - i) for i in range(min(j, w) + 1))


def test_krawtchouk_rows_match_the_closed_form():
    for n in range(41):
        table = codes._krawtchouk_rows(n)
        assert len(table) == n + 1
        for j, row in enumerate(table):
            assert list(row) == [closed_form_krawtchouk(n, w, j) for w in range(n + 1)]
    rng = random.Random(127)
    table = codes._krawtchouk_rows(127)
    for _ in range(300):
        j, w = rng.randrange(128), rng.randrange(128)
        assert table[j][w] == closed_form_krawtchouk(127, w, j)


def test_macwilliams_rejects_inconsistent_input():
    bad = WeightEnumerator((1, 2, 0, 1))  # sums to 4 but is no [3,2] spectrum
    with pytest.raises(InternalConsistencyError):
        macwilliams(bad, 3, 2)


def test_split_trivial_bound_zero():
    c = ext_hamming()
    res = c.min_distance_split(0)
    assert res.upper > 0  # nothing of weight <= 0 found
    assert res.lower == 1


def test_split_finds_distance_of_extended_hamming():
    # oracle: exhaustive scan of all 16 codewords
    c = ext_hamming()
    rows = c.generator.row_bits()
    weights = []
    for mask in range(1, 16):
        acc = 0
        for i, r in enumerate(rows):
            if mask >> i & 1:
                acc ^= r
        weights.append(acc.bit_count())
    assert min(weights) == 4
    res = c.min_distance_split(4)
    assert res.exact == 4


def test_split_certificate_above_true_distance():
    c = ext_hamming()
    res = c.min_distance_split(3)
    assert res.upper > 3  # nothing of weight <= 3 found
    assert res.lower == 4
    assert res.upper == 4
    # the lightest rref row weighs 4, so it is the witness
    assert res.witness.bit_count() == 4 and c.contains(BitVector(8, res.witness))


def test_split_refuses_a_negative_bound():
    for c in (ext_hamming(), LinearCode(BitMatrix(4, [1, 2, 4, 8]))):
        for bound in (-1, -3):
            with pytest.raises(InvalidInput, match=f"the bound must be at least 0, got {bound}"):
                c.min_distance_split(bound)
        res = c.min_distance_split(0)
        assert res.lower == 1 and res.upper == c.min_distance()


def test_split_refuses_a_zero_dimensional_code():
    with pytest.raises(InvalidInput, match="zero-dimensional code has no minimum distance"):
        LinearCode.from_spanning(BitMatrix(4, [])).min_distance_split(4)


def test_split_of_the_full_code_finds_a_unit_row():
    c = LinearCode(BitMatrix(4, [1, 2, 4, 8]))
    res = c.min_distance_split(1)
    assert (res.exact, res.patterns_predicted, res.patterns_scanned, res.params) == (1, 0, 0, ())
    assert res.witness.bit_count() == 1


@pytest.mark.parametrize(
    "fields, match",
    [
        (dict(lower=5, upper=4), "lower bound 5 above upper 4"),
        (dict(lower=3, upper=4, witness=0b111), "witness of weight 3, upper bound 4"),
        (dict(lower=1, witness=0b1), "witness of weight 1, upper bound None"),
    ],
)
def test_distance_record_refuses_inconsistent_fields(fields, match):
    with pytest.raises(InternalConsistencyError, match=match):
        Distance("split", **fields)


def test_distance_record_is_exact_only_where_its_bounds_meet():
    assert Distance("split", 4, 4, witness=0b1111).exact == 4
    assert Distance("split", 4, 6).exact is None
    assert Distance("spectrum", 1, refusal="refused").exact is None


def test_split_agrees_with_exhaustive_on_random_codes():
    rng = random.Random(77)
    # short codes, then codes whose two halves span one 64-bit word or two
    for (lo, hi), k_max, count in (((2, 26), 20, 120), ((60, 137), 12, 40)):
        for _ in range(count):
            n = rng.randrange(lo, hi)
            c = random_linear_code(n, rng.randrange(1, min(n, k_max) + 1), rng)
            d = c.min_distance()
            for bound in (d - 1, d, d + 2):
                if bound < 0:
                    continue
                res = c.min_distance_split(bound)
                if bound >= d:
                    assert res.exact == d
                else:
                    assert res.upper > bound and res.lower == bound + 1
                assert res.patterns_predicted == res.patterns_scanned
                assert res.witness is None or c.contains(BitVector(n, res.witness))


@pytest.mark.parametrize("raises", [False, True])
def test_split_walk_restores_the_callers_buffer_size(raises, monkeypatch):
    """The walk runs with numpy's buffer at ``_SCAN_BUFFER`` elements, and
    the caller's size reads the same after it returns or raises."""
    c = random_linear_code(60, 24, random.Random(26))
    weights, seen = codes._weights, []

    def spy(block, nbits, out=None):
        seen.append(np.getbufsize())
        if raises and seen[-1] == codes._SCAN_BUFFER:
            raise RuntimeError("walk interrupted")
        return weights(block, nbits, out)

    monkeypatch.setattr(codes, "_weights", spy)
    for caller in (np.getbufsize(), 4096):
        with np.errstate():
            np.setbufsize(caller)
            if raises:
                with pytest.raises(RuntimeError, match="walk interrupted"):
                    c.min_distance_split(10)
            else:
                res = c.min_distance_split(10)
                assert res.patterns_scanned == res.patterns_predicted
            assert np.getbufsize() == caller
    assert codes._SCAN_BUFFER in seen


def nonpivot_rank(c):
    nonpivot = (1 << c.n) - 1 - sum(1 << p for p in c.pivots)
    return rank(BitMatrix(c.n, [r & nonpivot for r in c.rref_matrix.row_bits()]))


def test_split_prediction_equals_patterns_scanned():
    rng = random.Random(91)
    trivial = nontrivial = 0
    for _ in range(300):
        n = rng.randrange(4, 24)
        c = random_linear_code(n, rng.randrange(1, n), rng)
        rk = nonpivot_rank(c)
        bound = rng.randrange(1, 9)
        modulus = c.weight_modulus()
        max_w = bound // modulus * modulus
        res = c.min_distance_split(bound)
        assert res.patterns_predicted == res.patterns_scanned
        if bound >= modulus:  # otherwise the search returns before scanning
            h1 = max_w // 2
            assert split_patterns(c.k, rk, h1, max_w - 1 - h1) == res.patterns_scanned
            trivial += rk == c.k
            nontrivial += rk < c.k
    assert trivial > 50 and nontrivial > 50
    # a huge bound: the depths grow with it, the sums stop at the row counts
    c = random_linear_code(9, 6, rng)
    rk = nonpivot_rank(c)
    res = c.min_distance_split(10**12)
    assert res.params == codes._split_depths(c, 10**12) and min(res.params) > 10**11
    assert res.patterns_predicted == res.patterns_scanned == split_patterns(c.k, rk, c.k, rk)


# Codes with bound = d and weight modulus 1, so max_w = d, whose lightest
# words all split as (pivot weight, non-pivot weight) = (h1 + 1, h2) or
# (h1, h2 + 1) for h1 = d // 2, h2 = d - 1 - h1: each is found only because
# the two depths add up to max_w - 1, not max_w - 2.
TIGHT_SPLIT_CODES = [
    (14, [0x3083, 0x1D4A, 0x4EC, 0x4BA], 4, (3, 1)),
    (12, [0x7D5, 0x18B, 0x8FD], 5, (3, 2)),
    (13, [0x1F91, 0xF17, 0x1F5A], 4, (2, 2)),
]


@pytest.mark.parametrize("n, rows, d, split", TIGHT_SPLIT_CODES)
def test_split_depths_add_up_to_max_weight_less_one(n, rows, d, split):
    c = LinearCode(BitMatrix(n, rows))
    assert c.weight_modulus() == 1 and c.min_distance() == d
    pivot_mask = sum(1 << p for p in c.pivots)
    lightest = [
        w for w in (functools.reduce(operator.xor, s, 0) for r in range(1, len(rows) + 1)
                    for s in itertools.combinations(rows, r))
        if w.bit_count() == d
    ]
    parts = {((w & pivot_mask).bit_count(), (w & ~pivot_mask).bit_count()) for w in lightest}
    assert parts == {split}
    res = c.min_distance_split(d)
    assert res.exact == d
    h1 = d // 2
    assert res.patterns_scanned == split_patterns(len(rows), nonpivot_rank(c), h1, d - 1 - h1)


def random_cyclic_code(rng, n_max, k_max):
    """A cyclic [n, k] code, 3 <= n <= n_max and 0 < k <= k_max, held as
    the rows x^j g of a divisor g of x^n + 1: their rref has pivots
    0..k - 1, since any k consecutive coordinates of a cyclic code are an
    information set.  g is a random subset product of a split of x^n + 1
    into factors, each split by the gcd with a random polynomial."""
    while True:
        n = rng.randrange(3, n_max + 1)
        parts = [(1 << n) | 1]
        for _ in range(12):
            r = rng.getrandbits(n)
            split = [(poly_gcd(p, r), p) for p in parts]
            parts = [f for a, p in split for f in (a, poly_divmod(p, a)[0]) if f > 1]
        g = functools.reduce(poly_mul, [p for p in parts if rng.random() < 0.5], 1)
        k = n - poly_deg(g)
        if 0 < k <= k_max and k < n:
            return n, LinearCode(BitMatrix(n, [g << j for j in range(k)]))


def shift(word, n):
    """The cyclic shift of the first n coordinates of ``word``; the rest stay."""
    low = word & (1 << n) - 1
    return word ^ low | (low << 1 | low >> (n - 1)) & (1 << n) - 1


def test_shift_split_agrees_with_exhaustive_on_random_cyclic_codes():
    """Cyclic codes of length N <= 31, with and without a parity bit after
    the N shifted coordinates, at every bound up to d + 2: the shift rule's
    depths, which may add up to max_w - 2, still find the distance."""
    rng = random.Random(32)
    cases = shifted = 0
    for _ in range(160):
        big_n, c = random_cyclic_code(rng, 31, 18)
        if rng.random() < 0.5:
            c = extend_with_parity(c)
        d = c.min_distance()
        for bound in range(d + 3):
            res = c.min_distance_split(bound, cyclic=big_n)
            if bound >= d:
                assert res.exact == d
            else:
                assert res.upper > bound and res.lower == bound + 1
            assert res.patterns_scanned == res.patterns_predicted
            generic = codes._split_depths(c, bound)
            assert res.params == (codes._split_depths(c, bound, big_n) or ())
            cases += 1
            shifted += bool(res.params) and sum(res.params) < sum(generic)
    assert cases > 1000 and shifted > 300


def test_shift_depths_reach_a_shift_of_every_light_word():
    """The argument itself, word by word: every nonzero codeword of weight
    w <= max_w has a shift whose pivot weight a is at most h1 or whose
    non-pivot weight w - a is at most h2."""
    rng = random.Random(5)
    for _ in range(120):
        big_n, c = random_cyclic_code(rng, 31, 10)
        if rng.random() < 0.5:
            c = extend_with_parity(c)
        span = [0]
        for r in c.generator.row_bits():
            span += [w ^ r for w in span]
        pivot_mask = (1 << c.k) - 1
        modulus = c.weight_modulus()
        for bound in range(1, c.n + 1):
            depths = codes._split_depths(c, bound, big_n)
            if depths is None:
                continue
            h1, h2 = depths
            for word in span[1:]:
                w = word.bit_count()
                if w > bound // modulus * modulus:
                    continue
                for _ in range(big_n):
                    a = (word & pivot_mask).bit_count()
                    if a <= h1 or w - a <= h2:
                        break
                    word = shift(word, big_n)
                else:
                    raise AssertionError(f"no shift of a weight-{w} word within {depths}")


# Cyclic codes (N, g, parity bit or not) whose rref rows all weigh more than
# d, so that only the scan can find d: for (30, 0x3BF1) the shift rule's
# depths (1, 1) are needed, one less misses; for (30, 0xDE27) N / gcd(N, k)
# = 2 <= max_w, and depths adding up to max_w - 2 would miss.
TIGHT_SHIFT_CODES = [(30, 0x3BF1, False, 4, (1, 1)), (30, 0x3BF1, True, 4, (1, 1)),
                     (30, 0xDE27, False, 6, (3, 2)), (30, 0xDE27, True, 6, (3, 2))]


@pytest.mark.parametrize("big_n, g, parity, d, depths", TIGHT_SHIFT_CODES)
def test_shift_split_on_codes_that_need_its_exact_depths(big_n, g, parity, d, depths):
    c = LinearCode(BitMatrix(big_n, [g << j for j in range(big_n - poly_deg(g))]))
    if parity:
        c = extend_with_parity(c)
    assert c.min_distance() == d
    assert min(r.bit_count() for r in c.rref_matrix.row_bits()) > d
    res = c.min_distance_split(d, cyclic=big_n)
    assert res.exact == d and res.params == depths
    assert res.witness is None  # every rref row weighs more than d


def test_split_depths_fall_back_without_the_shift_premise():
    c = LinearCode(BitMatrix(15, [0b10011 << j for j in range(11)]))  # Hamming [15,11]
    assert c.weight_modulus() == 1
    # no shift: max_w - 1; N / gcd(15, 11) = 15 > max_w: max_w - 2, at least 0
    assert [codes._split_depths(c, b) for b in (1, 2, 3, 14)] == [(0, 0), (1, 0), (1, 1), (7, 6)]
    assert [codes._split_depths(c, b, 15) for b in (1, 2, 3, 14)] == [(0, 0), (0, 0), (1, 0), (6, 6)]
    # a cyclic [15,5] code: N / gcd(15, 5) = 3, so the shift rule holds below weight 3 only
    g = poly_mul(poly_mul(0b111, 0b10011), 0b11001)
    c5 = LinearCode(BitMatrix(15, [g << j for j in range(5)]))
    for b in range(1, 16):
        max_w = b // c5.weight_modulus() * c5.weight_modulus()
        shifted = codes._split_depths(c5, b, 15)
        assert shifted == ((0, 0) if 0 < max_w < 3 else codes._split_depths(c5, b))
    # k >= N: the rule needs k < N
    assert codes._split_depths(c, 3, 11) == codes._split_depths(c, 3, 10) == (1, 1)
    # the weight-2 word 1010|0 of the parity-extended [4,2] code x^2 + 1 has
    # pivot weight 1 at every shift: N / gcd(4, 2) = 2 = max_w, and depths
    # (0, 0) would never list it
    ext = extend_with_parity(LinearCode(BitMatrix(4, [0b101, 0b1010])))
    assert codes._split_depths(ext, 2, 4) == codes._split_depths(ext, 2) == (1, 0)


def test_shift_split_refuses_codes_outside_its_premise(monkeypatch):
    def no_scan(*args):
        raise AssertionError("the split search scanned")

    monkeypatch.setattr(codes, "_low_weight_min", no_scan)
    # pivots (1,), not (0,)
    with pytest.raises(PreconditionError, match="pivots are not 0..0 within the first 4"):
        LinearCode(BitMatrix(4, [0b0110])).min_distance_split(3, cyclic=4)
    # pivots 0..3 but only 3 shifted coordinates
    with pytest.raises(PreconditionError, match="pivots are not 0..3 within the first 3"):
        ext_hamming().min_distance_split(3, cyclic=3)
    # pivots 0..k - 1, not invariant: [I | R] with R random
    rng = random.Random(4)
    c = LinearCode(BitMatrix(20, [1 << i | rng.getrandbits(10) << 10 for i in range(10)]))
    assert c.pivots == tuple(range(10))
    with pytest.raises(PreconditionError, match="not invariant under the shift of its first 20"):
        c.min_distance_split(5, cyclic=20)
    # cyclic, so invariant under the shift of 15 coordinates, but not of 14
    hamming = LinearCode(BitMatrix(15, [0b10011 << j for j in range(11)]))
    with pytest.raises(PreconditionError, match="not invariant under the shift of its first 14"):
        hamming.min_distance_split(3, cyclic=14)
    for bad in (0, 16):
        with pytest.raises(InvalidInput, match=f"cyclic length {bad} outside 1..15"):
            hamming.min_distance_split(3, cyclic=bad)


def test_split_memory_does_not_grow_with_the_kernel():
    # two non-pivot columns leave a kernel of dimension >= 18: listing its
    # 2^18 words as Python ints would take about 12 MB
    c = random_linear_code(22, 20, random.Random(3))
    assert c.k - nonpivot_rank(c) >= 18
    tracemalloc.start()
    try:
        res = c.min_distance_split(3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.exact == c.min_distance()
    assert peak < 4 << 20


def brute_low_weight_min(rows, depth, free):
    # oracle: every support of 0..depth rows against every word of the span,
    # each weighing its size plus its popcount (the rows sit beside an
    # identity that the kernel never scans)
    span = [0]
    for f in free:
        span += [w ^ f for w in span]
    best, patterns = 1 << 62, 0
    for size in range(depth + 1):
        for support in itertools.combinations(rows, size):
            x = functools.reduce(operator.xor, support, 0)
            for f in span:
                if size or f:
                    best = min(best, size + (x ^ f).bit_count())
                    patterns += 1
    return best, patterns


# (cap, chunk bits): the defaults; tables of one level only, so that the
# walk is all Python; two to four table levels with a Python walk past them
# and several chunks per last row
KERNEL_LIMITS = [(codes._SPLIT_BLOCK_WORDS, 16), (8, 2), (64, 3), (300, 4)]


@pytest.mark.parametrize("block_words,block_bits", KERNEL_LIMITS)
def test_low_weight_kernel_matches_brute_force(monkeypatch, block_words, block_bits):
    # small limits force fewer rows per block, fewer prefix-table levels,
    # smaller chunks and Gray-stepped free words
    monkeypatch.setattr(codes, "_SPLIT_BLOCK_WORDS", block_words)
    monkeypatch.setattr(codes, "_BLOCK_BITS", block_bits)
    rng = random.Random(block_bits)
    for _ in range(150):
        words = rng.randrange(1, 5)
        nbits = rng.randrange(64 * words - 63, 64 * words + 1)
        rows = [rng.getrandbits(nbits) for _ in range(rng.randrange(0, 15))]
        f = rng.randrange(0, min(nbits, 3) + 1)
        free = random_linear_code(nbits, f, rng).generator.row_bits() if f else []
        depth = rng.randrange(1, 8)
        assert codes._low_weight_min(rows, nbits, depth, free) == brute_low_weight_min(
            rows, depth, free
        )
    # 18 rows at depth 6: under the default cap, suffixes of 3 rows against
    # prefix tables of levels 0..2, for prefixes ending at rows 0..14
    rows = [rng.getrandbits(90) for _ in range(18)]
    free = random_linear_code(90, 1, rng).generator.row_bits()
    assert codes._low_weight_min(rows, 90, 6, free) == brute_low_weight_min(rows, 6, free)


def test_colex_xor_tables_list_the_row_subsets_in_colex_order():
    rng = random.Random(9)
    rows = [rng.getrandbits(100) for _ in range(9)]
    arr = gf2.pack_rows(rows, 100)  # 2 words a row
    tables = codes._colex_xors(arr, 4, codes._SPLIT_BLOCK_WORDS)
    assert len(tables) == 5
    for s, table in enumerate(tables):
        # colex: by the largest row first, so the s-sets of the rows below i
        # come first
        sets = sorted(itertools.combinations(range(9), s), key=lambda c: c[::-1])
        xors = [functools.reduce(operator.xor, (rows[i] for i in c), 0) for c in sets]
        assert np.array_equal(table, gf2.pack_rows(xors, 100).T)
    # levels 0..4 take 2, 18, 72, 168 and 252 words: a cap keeps the levels
    # whose running total fits it, and level 0 always
    for cap, levels in [(1, 1), (19, 1), (20, 2), (91, 2), (92, 3), (259, 3), (260, 4),
                        (511, 4), (512, 5)]:
        assert len(codes._colex_xors(arr, 4, cap)) == levels
    assert len(codes._colex_xors(arr, 0, 1 << 20)) == 1


def test_deep_low_weight_search_keeps_its_tables_within_the_cap():
    # depth 12 on 28 rows: prefixes of up to 9 rows, whose prefix tables
    # would take 10.2 MB at every level; the 8 MB cap keeps levels 0..7
    # (4.3 MB), and the reused chunk buffers add about 1.1 MB
    rng = random.Random(12)
    rows = [rng.getrandbits(64) for _ in range(28)]
    tracemalloc.start()
    try:
        best, patterns = codes._low_weight_min(rows, 64, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert patterns == split_patterns(28, 28, 12, 0)
    assert peak < 7 << 20


@pytest.mark.parametrize("n", [63, 64, 65, 127, 128, 129, 256])
def test_word_major_scan_matches_naive_enumeration(n):
    rng = random.Random(n)
    for k in (1, 15, 16, 17, 20):
        rows = [rng.getrandbits(n) for _ in range(k)]
        rows[0] = (1 << n) - 1  # at n = 256 its weight overflows a uint8 sum
        naive, acc = [1] + [0] * n, 0
        for i in range(1, 1 << k):
            acc ^= rows[(i & -i).bit_length() - 1]
            naive[acc.bit_count()] += 1
        assert codes._weight_counts(rows, n).tolist() == naive


def test_split_refuses_search_predicted_above_budget():
    # the [89,56] dual of the [[89,23,9]] row: about 4.75e13 patterns at bound 15
    g = next(row[3] for row in tables.TABLE1_ROWS if row[:3] == (89, 23, 9))
    spec = spec_from_zero_set(89, zero_set_of_polynomial(89, g))
    dual = spec.to_code().dual()
    assert (dual.n, dual.k) == (89, 56)
    with pytest.raises(ResourceLimit, match="4.75e"):
        dual.min_distance_split(15)


def test_split_search_checks_its_scan_against_its_prediction(monkeypatch):
    c = ext_hamming()
    assert c.min_distance_split(4).patterns_scanned == 14
    low_weight_min = codes._low_weight_min

    def under_reports(*args):
        best, patterns = low_weight_min(*args)
        return best, patterns - 1

    monkeypatch.setattr(codes, "_low_weight_min", under_reports)
    with pytest.raises(InternalConsistencyError, match="scanned 12 patterns, predicted 14"):
        c.min_distance_split(4)


def test_weight_modulus_detection():
    assert ext_hamming().weight_modulus() == 4
    assert repetition(3).weight_modulus() == 1
    assert repetition(6).weight_modulus() == 2


def test_extend_with_parity():
    c = extend_with_parity(repetition(3))
    assert (c.n, c.k) == (4, 1)
    assert c.generator.row(0).to_string() == "1111"


def _brute_dual_distance(code):
    """Lightest nonzero word orthogonal to every generator row, over all 2^n words."""
    words = np.arange(1, 1 << code.n, dtype=np.uint64)
    in_dual = np.ones(len(words), dtype=bool)
    for r in code.generator.row_bits():
        in_dual &= np.bitwise_count(words & np.uint64(r)) % 2 == 0
    return int(np.bitwise_count(words[in_dual]).min())


def test_dual_min_distance_on_both_sides():
    # every k runs the dual's own spectrum (n - k <= k) or the code's
    # spectrum and the transform (n - k > k), whichever is smaller; below
    # that spectrum's size the record is refused, before and after a scan
    rng = random.Random(14)
    for n in range(2, 15):
        for k in range(1, n):
            c = random_linear_code(n, k, rng)
            side = min(k, n - k)
            refused = dual_min_distance(c, budget=(1 << side) - 1)
            assert refused.exact is None and "exceed the budget" in refused.refusal, (n, k)
            d = dual_min_distance(c, budget=1 << side)
            assert d.exact == _brute_dual_distance(c) and d.refusal is None, (n, k)
            assert d.patterns_predicted == d.patterns_scanned == 1 << side, (n, k)
            assert dual_min_distance(c, budget=(1 << side) - 1).exact is None, (n, k)
    assert dual_min_distance(first_order_rm(4)).exact == 4
    zero = dual_min_distance(LinearCode(BitMatrix(3, [1, 2, 4])))  # zero-dimensional dual
    assert zero.exact is None and zero.route == "spectrum"
    # the two refusals say which one they are
    over = dual_min_distance(first_order_rm(4), budget=1)
    assert zero.refusal == "the dual is zero-dimensional"
    assert over.refusal == "2^5 codewords exceed the budget of 1; use min_distance_split for distance bounds"


def test_code_text_roundtrip():
    c = ext_hamming()
    again = LinearCode.from_text(c.to_text())
    assert again.same_code(c)
