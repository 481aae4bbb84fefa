import hashlib
import random
import tracemalloc

import pytest

from qcss import constructions
from qcss.codes import Distance, LinearCode, random_self_orthogonal_code
from qcss.constructions import (
    OuterCode,
    augment,
    concatenate,
    construction_x,
    construction_x3,
    construction_x4,
    construction_y1,
    construction_y4,
    dual_min_distance,
    extend_parity_dual,
    nebe,
    plotkin,
    product,
    shorten,
    triple_sum,
)
from qcss.bch import bch_generator, default_field
from qcss.errors import InvalidInput, PreconditionError, ResourceLimit
from qcss.gf2 import BitMatrix, BitVector
from qcss.named import extended_hamming_8, golay_24, simplex_dual_7_3, steane_component
from qcss.reedmuller import rm_generator


def rand_so(n, k, rng):
    return random_self_orthogonal_code(n, k, rng)


def rand_so_subcode(code, k, rng, tries=400):
    """Random self-orthogonal k-dimensional subcode of `code`."""
    gens = code.generator.row_bits()
    for _ in range(tries):
        rows = []
        inner = 0
        while len(rows) < k and inner < 200:
            inner += 1
            w = 0
            for g in gens:
                if rng.random() < 0.5:
                    w ^= g
            if not w or w.bit_count() & 1:
                continue
            if any((w & r).bit_count() & 1 for r in rows):
                continue
            m = BitMatrix(code.n, rows + [w])
            from qcss.gf2 import rref

            if rref(m)[0].rows == len(rows) + 1:
                rows.append(w)
        if len(rows) == k:
            return LinearCode(BitMatrix(code.n, rows))
    raise AssertionError(f"could not sample a self-orthogonal subcode of dimension {k}")


def rand_plotkin_pair(rng):
    n = rng.choice([6, 8, 10, 12])
    k1 = rng.randrange(1, n // 2)
    c1 = rand_so(n, k1, rng)
    dual = c1.dual()
    k2 = rng.randrange(1, min(k1, dual.k) + 1)
    c2 = rand_so_subcode(dual, k2, rng)
    # both constraints: c2 self-orthogonal and inside dual(c1)
    return c1, c2


def rand_chain(rng, n=None):
    n = n or rng.choice([8, 10, 12, 14])
    k2 = rng.randrange(2, n // 2 + 1)
    c2 = rand_so(n, k2, rng)
    k1 = rng.randrange(1, k2)
    c1 = rand_so_subcode(c2, k1, rng)
    return c1, c2


# -- worked examples ----------------------------------------------------------


def test_steane_chain():
    ext = extended_hamming_8()
    assert (ext.n, ext.k) == (8, 4)
    assert ext.is_self_orthogonal() and ext.dual().same_code(ext)
    rep = shorten(ext, 0)
    assert not rep.verify()
    code = rep.code
    assert (code.n, code.k) == (7, 3)
    assert code.min_distance() == 4
    dual = code.dual()
    assert (dual.n, dual.k, dual.min_distance()) == (7, 4, 3)


def test_shorten_all_coordinates_give_steane_parameters():
    ext = extended_hamming_8()
    for i in range(8):
        rep = shorten(ext, i)
        assert (rep.code.n, rep.code.k) == (7, 3)
        assert rep.code.dual().min_distance() == 3


def test_shorten_twice_stays_self_orthogonal():
    rep = shorten(extended_hamming_8(), 3)
    rep2 = shorten(rep.code, 0)
    assert (rep2.code.n, rep2.code.k) == (6, 2)
    assert rep2.code.is_self_orthogonal()


def test_shorten_zero_column_warns():
    # [6,1] code supported away from coordinate 0
    code = LinearCode(BitMatrix(6, [0b111100]))
    rep = shorten(code, 0)
    assert rep.warning is not None
    assert rep.predicted_k == 1 and rep.code.k == 1


def test_shorten_out_of_range():
    with pytest.raises(InvalidInput):
        shorten(extended_hamming_8(), 8)


def test_augment_recovers_first_order_rm():
    rm = rm_generator(4, 1).code
    rows = rm.generator.row_bits()[1:]  # drop the all-ones row
    partial = LinearCode(BitMatrix(16, rows))
    rep = augment(partial)
    assert not rep.verify()
    assert rep.code.same_code(rm)


def test_augment_preconditions():
    with pytest.raises(PreconditionError):
        augment(LinearCode(BitMatrix(4, [0b1111])))  # contains all-ones
    with pytest.raises(PreconditionError):
        augment(simplex_dual_7_3())  # odd length


def test_plotkin_builds_rm41():
    rep = plotkin(rm_generator(3, 1).code, rm_generator(3, 0).code)
    assert not rep.verify()
    assert rep.code.same_code(rm_generator(4, 1).code)
    # theorem: dual distance = min(2*d2, d1) = min(4, 4) = 4, and the dual is
    # the [16,11,4] code
    assert rep.predicted_dual_distance == 4
    assert rep.code.dual().min_distance() == 4


def test_verify_reports_an_unchecked_dual_distance_claim():
    rep = plotkin(simplex_dual_7_3(), simplex_dual_7_3())
    assert rep.predicted_dual_distance is not None
    problems = rep.verify(budget=1)
    assert problems == ["dual distance claim not checked within the budget of 1"]
    assert not rep.verify()
    # a spectrum measured since does not answer beyond the budget
    assert rep.verify(budget=1) == problems


def test_plotkin_zero_dimensional_inputs():
    z = LinearCode(BitMatrix(4, []))
    rep = plotkin(z, z)
    assert rep.code.n == 8 and rep.code.k == 0


def test_triple_sum_of_rm_codes():
    rep = triple_sum(rm_generator(3, 1).code, rm_generator(3, 0).code)
    assert (rep.code.n, rep.code.k) == (24, 9)
    assert rep.code.is_self_orthogonal()
    assert rep.predicted_dual_distance is None


def test_triple_sum_zero_dimensional_first_argument():
    z = LinearCode(BitMatrix(8, []))
    c2 = rm_generator(3, 0).code
    rep = triple_sum(z, c2)
    assert rep.code.k == c2.k
    word = rep.code.generator.row(0)
    third = c2.generator.row(0).bits
    assert word.bits == third | third << 8 | third << 16


def test_nebe_trivial_outer():
    c = extended_hamming_8()
    e = LinearCode(BitMatrix(1, [1]))
    rep = nebe(c, c, e)
    assert rep.code.same_code(c)
    assert not rep.verify()


def test_nebe_dimension_with_full_span_outer():
    c = extended_hamming_8()
    d = simplex_dual_7_3()
    with pytest.raises(PreconditionError):
        nebe(c, LinearCode(BitMatrix(8, [0b11])), d)  # k mismatch
    e = LinearCode(BitMatrix(3, [0b001]))  # [3,1] with trivial hull
    rep = nebe(c, c, e)
    assert rep.code.n == 24
    assert rep.code.k == 12 and rep.warning is None
    assert rep.code.is_self_orthogonal()


def test_nebe_degenerate_hull_reports_warning():
    c = extended_hamming_8()
    e = LinearCode(BitMatrix(2, [0b11]))  # self-dual [2,1]
    rep = nebe(c, c, e)
    assert rep.warning is not None
    assert rep.code.k == 4  # collapses to C (x) E


def test_product_examples():
    c = extended_hamming_8()
    rep = product(c, LinearCode(BitMatrix(3, [0b111])))
    assert (rep.code.n, rep.code.k) == (24, 4)
    assert rep.code.is_self_orthogonal()
    trivial = product(c, LinearCode(BitMatrix(1, [1])))
    assert trivial.code.same_code(c)
    with pytest.raises(PreconditionError):
        product(LinearCode(BitMatrix(3, [0b111])), LinearCode(BitMatrix(3, [0b001])))


def test_product_dual_distance_law_exhaustive():
    c = extended_hamming_8()
    rep = product(c, LinearCode(BitMatrix(4, [0b1111])))
    # min(d(dual C1), d(dual C2)) = min(4, 2)
    assert rep.predicted_dual_distance == 2
    assert rep.code.dual().min_distance() == 2


def test_concatenate_repetition_outer():
    inner = extended_hamming_8()
    outer = OuterCode.repetition(default_field(4), 3)
    rep = concatenate(inner, outer)
    assert not rep.verify()
    assert (rep.code.n, rep.code.k) == (24, 4)
    # the inner dual distance 4 only bounds the result from above: with a
    # repetition outer code every codeword is (w|w|w), so (e|e|0) of weight 2
    # lies in the dual
    assert rep.predicted_dual_distance == 4
    assert rep.dual_distance_relation == "<="
    assert dual_min_distance(rep.code).exact == 2
    two = BitVector(24, sum(1 << j for j in [0, 8]))
    assert all((two & row).weight() % 2 == 0 for row in rep.code.generator)


def test_concatenate_identity_outer_is_inner():
    inner = extended_hamming_8()
    rep = concatenate(inner, OuterCode.identity(default_field(4), 1))
    assert rep.code.same_code(inner)


def test_construction_x_47_27_4():
    c1 = bch_generator(31, 1, 3).to_code().dual()  # [31,5]
    c2 = bch_generator(31, 1, 5).to_code().dual()  # [31,10]
    assert (c1.n, c1.k, c2.k) == (31, 5, 10)
    assert c1.is_self_orthogonal() and c2.is_self_orthogonal()
    assert c1.is_subcode_of(c2)
    c3 = rm_generator(4, 1).code
    rep = construction_x(c1, c2, c3)
    assert (rep.code.n, rep.code.k) == (47, 10)
    assert rep.code.is_self_orthogonal()
    assert rep.predicted_dual_distance == 4
    assert dual_min_distance(rep.code).exact == 4
    n, k, d = rep.quantum_parameters()
    assert (n, k, d) == (47, 27, 4)


def test_construction_x_degenerate_chain():
    c = simplex_dual_7_3()
    z = LinearCode(BitMatrix(5, []))
    rep = construction_x(c, c, z)
    assert (rep.code.n, rep.code.k) == (12, 3)
    for row in rep.code.generator:
        assert row.bits >> 7 == 0  # tail is all zero


def test_construction_x_dimension_mismatch():
    c1, c2 = simplex_dual_7_3(), simplex_dual_7_3()
    with pytest.raises(PreconditionError):
        construction_x(c1, c2, LinearCode(BitMatrix(4, [0b1111])))


def test_construction_x3_rm_chain():
    z = LinearCode(BitMatrix(16, []))
    c2 = rm_generator(4, 0).code
    c3 = rm_generator(4, 1).code
    c4 = LinearCode(BitMatrix(2, [0b11]))
    c5 = extended_hamming_8()
    rep = construction_x3(z, c2, c3, c4, c5)
    assert (rep.code.n, rep.code.k) == (16 + 2 + 8, 5)
    assert rep.code.is_self_orthogonal()


def test_construction_x3_collapsed_chain():
    c = simplex_dual_7_3()
    z3 = LinearCode(BitMatrix(3, []))
    z5 = LinearCode(BitMatrix(5, []))
    rep = construction_x3(c, c, c, z3, z5)
    assert rep.code.k == c.k
    assert rep.code.n == 7 + 3 + 5


def test_construction_x4_direct_sum_case():
    c2 = simplex_dual_7_3()
    c3 = extended_hamming_8()
    rep = construction_x4(c2, c2, c3, c3)
    assert (rep.code.n, rep.code.k) == (15, 7)
    assert rep.code.is_self_orthogonal()
    # k2 = k1 means no coset rows: plain direct sum
    for row in rep.code.generator.row_bits():
        left = row & 0x7F
        right = row >> 7
        assert (left == 0) or (right == 0)


def _rm(m, r):
    return rm_generator(m, r).code


# X, X3 and X4 instances whose prediction 4 exceeds a mixed-word floor of 3
# that a mixed dual word reaches
UPPER_BOUND_CASES = {
    "x": lambda: construction_x(_rm(4, 0), _rm(4, 1), _rm(3, 1)),
    "x3": lambda: construction_x3(
        _rm(5, 0), _rm(5, 1), _rm(5, 2), _rm(4, 1), plotkin(_rm(4, 1), _rm(4, 1)).code
    ),
    "x4": lambda: construction_x4(
        _rm(4, 0), _rm(4, 1), LinearCode(BitMatrix(8, [])), _rm(3, 1)
    ),
}


@pytest.mark.parametrize("name", UPPER_BOUND_CASES)
def test_x_family_upper_bound_branch(name):
    rep = UPPER_BOUND_CASES[name]()
    assert rep.dual_distance_relation == "<="
    assert rep.warning.startswith("mixed dual words may weigh as little as 3;")
    # floor 3 <= measured 3 < predicted 4
    assert dual_min_distance(rep.code).exact == 3 < rep.predicted_dual_distance == 4
    assert not rep.verify()


def test_x4_at_its_floor_is_exact():
    # floor d1 + d3 = 2 + 2 equals min(d2, d4) = 4: still an equality
    rep = construction_x4(_rm(4, 0), _rm(4, 1), _rm(4, 0), _rm(4, 1))
    assert (rep.predicted_dual_distance, rep.dual_distance_relation) == (4, "==")
    assert rep.warning is None
    assert dual_min_distance(rep.code).exact == 4


def test_x_family_unknown_floor_is_an_upper_bound(monkeypatch):
    # a floor term beyond the budget leaves the floor unknown
    c1 = _rm(4, 0)
    measure = constructions.dual_min_distance
    monkeypatch.setattr(
        constructions, "dual_min_distance",
        lambda c, b: Distance("spectrum", 1, refusal="refused") if c is c1 else measure(c, b),
    )
    rep = construction_x4(c1, _rm(4, 1), _rm(4, 0), _rm(4, 1))
    assert (rep.predicted_dual_distance, rep.dual_distance_relation) == (4, "<=")
    assert rep.warning.startswith("mixed dual words may weigh an unknown weight;")


def test_quantum_parameters_return_only_exact_distances():
    ext = extended_hamming_8()
    reports = [UPPER_BOUND_CASES["x"](), UPPER_BOUND_CASES["x3"]()]
    reports.append(concatenate(ext, OuterCode.repetition(default_field(4), 3)))
    got = [rep.quantum_parameters() for rep in reports]
    assert got == [(24, 14, 3), (80, 48, 3), (24, 16, 2)]
    # an exact prediction is returned as it is
    exact = construction_x4(_rm(4, 0), _rm(4, 1), _rm(4, 0), _rm(4, 1))
    assert exact.quantum_parameters() == (32, 20, 4)
    # beyond the budget the distance is unknown, not the upper bound, and
    # stays unknown after the [24, 5] code's 2^5 words were scanned
    rep = UPPER_BOUND_CASES["x"]()
    assert rep.quantum_parameters(budget=4) == (24, 14, None)
    assert dual_min_distance(rep.code).exact == 3
    with pytest.raises(ResourceLimit):
        rep.code.weight_enumerator(budget=4)
    assert rep.quantum_parameters(budget=4) == (24, 14, None)


def test_construction_y1_golay_gives_16_5_8():
    golay = golay_24()
    assert (golay.n, golay.k) == (24, 12)
    assert golay.min_distance() == 8
    assert golay.dual().same_code(golay)
    rep = construction_y1(golay)
    assert not rep.verify()
    code = rep.code
    assert (code.n, code.k) == (16, 5)
    assert code.min_distance() == 8
    assert code.dual().min_distance() == 4
    n, k, d = rep.quantum_parameters()
    assert (n, k, d) == (16, 6, 4)


def test_construction_y1_weight_one_dual_word_matches_shorten():
    # dual contains weight-1 words when the code has identically zero columns;
    # removing one is then a plain shortening that keeps the dimension
    code = LinearCode(BitMatrix(6, [0b011110]))
    assert code.is_self_orthogonal()
    rep = construction_y1(code)
    assert (rep.code.n, rep.code.k) == (5, 1)
    assert rep.predicted_k == 1  # k - d' + 1 with d' = 1
    assert rep.code.same_code(shorten(code, 0).code)


def test_construction_y4_on_golay():
    rep = construction_y4(golay_24())
    assert not rep.verify()
    # two octads overlapping in four points: union weight 12
    assert rep.code.n == 12 and rep.code.k == 2
    assert rep.code.is_self_orthogonal()


def test_construction_y4_min_or_weight_oracle():
    rng = random.Random(55)
    for _ in range(10):
        c = rand_so(rng.choice([6, 8, 10]), 2, rng)
        dual_words = []
        dual = c.dual()
        for mask in range(1, 1 << dual.k):
            acc = 0
            for i, g in enumerate(dual.generator.row_bits()):
                if mask >> i & 1:
                    acc ^= g
            dual_words.append(acc)
        best = min(
            (u | v).bit_count()
            for i, u in enumerate(dual_words)
            for v in dual_words[i + 1 :]
            if u != v
        )
        rep = construction_y4(c)
        assert rep.code.n == c.n - best


def test_construction_y4_refuses_before_it_enumerates():
    # [22, 2] with two disjoint weight-2 rows: a dual of 2^20 words
    code = LinearCode(BitMatrix(22, [0b11, 0b1100]))
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimit):
            construction_y4(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"traced peak {peak} bytes"


def test_extend_parity_dual_builds_8_4_4():
    rep = extend_parity_dual(simplex_dual_7_3())
    assert not rep.verify()
    assert rep.code.same_code(extended_hamming_8())
    assert rep.code.min_distance() == 4


def test_extend_parity_dual_matches_dual_extend_dual():
    from qcss.codes import extend_with_parity

    for spec_args in [(7, 1, 3), (15, 1, 3), (15, 1, 5)]:
        base = bch_generator(*spec_args).to_code().dual()
        if not base.is_self_orthogonal():
            continue
        rep = extend_parity_dual(base)
        other = extend_with_parity(base.dual()).dual()
        assert rep.code.same_code(other)


def test_extend_parity_dual_even_length_rejected():
    with pytest.raises(PreconditionError):
        extend_parity_dual(extended_hamming_8())


def test_extend_then_shorten_roundtrip():
    base = simplex_dual_7_3()
    ext = extend_parity_dual(base).code
    back = shorten(ext, 7).code
    assert back.same_code(base)


# -- randomized theorem checks -------------------------------------------------


def test_random_augment_instances():
    rng = random.Random(101)
    done = 0
    while done < 100:
        n = rng.choice([6, 8, 10, 12])
        c = rand_so(n, rng.randrange(1, n // 2), rng)
        if c.contains(BitVector.ones(n)):
            continue
        rep = augment(c)
        assert not rep.verify()
        done += 1


def test_random_shorten_instances():
    rng = random.Random(102)
    for _ in range(100):
        n = rng.choice([6, 8, 10, 12])
        c = rand_so(n, rng.randrange(1, n // 2 + 1), rng)
        rep = shorten(c, rng.randrange(n))
        assert rep.code.is_self_orthogonal()
        assert rep.code.k == rep.predicted_k


def test_random_plotkin_instances():
    rng = random.Random(103)
    for _ in range(100):
        c1, c2 = rand_plotkin_pair(rng)
        rep = plotkin(c1, c2)
        assert not rep.verify(), rep
        assert rep.predicted_dual_distance is not None  # law checked exactly


def test_random_triple_sum_instances():
    rng = random.Random(104)
    for _ in range(100):
        c1, c2 = rand_plotkin_pair(rng)
        rep = triple_sum(c1, c2)
        assert not rep.verify()


def test_random_nebe_instances():
    rng = random.Random(105)
    done = 0
    while done < 100:
        n = rng.choice([4, 6, 8])
        k = rng.randrange(1, n // 2 + 1)
        c = rand_so(n, k, rng)
        d = rand_so(n, k, rng)
        m = rng.choice([1, 2, 3, 4])
        ke = rng.randrange(1, m + 1)
        from qcss.codes import random_linear_code

        e = random_linear_code(m, ke, rng)
        rep = nebe(c, d, e)
        assert rep.code.is_self_orthogonal()
        assert not rep.verify()
        done += 1


def test_random_product_instances():
    rng = random.Random(106)
    from qcss.codes import random_linear_code

    for _ in range(100):
        n1 = rng.choice([4, 6, 8])
        c1 = rand_so(n1, rng.randrange(1, n1 // 2 + 1), rng)
        n2 = rng.choice([2, 3, 4])
        c2 = random_linear_code(n2, rng.randrange(1, n2 + 1), rng)
        rep = product(c1, c2)
        assert not rep.verify()


def test_random_concatenate_instances():
    rng = random.Random(107)
    built = []
    for _ in range(100):
        k1 = rng.choice([2, 3])
        n1 = rng.choice([6, 8, 10])
        if k1 > n1 // 2:
            continue
        inner = rand_so(n1, k1, rng)
        fld = default_field(k1)
        k2 = rng.randrange(1, 4)
        n2 = rng.randrange(k2, k2 + 3)
        # systematic random outer generator: guaranteed full rank
        rows = []
        for i in range(k2):
            row = [1 if j == i else 0 for j in range(k2)]
            row += [rng.randrange(1 << k1) for _ in range(n2 - k2)]
            rows.append(tuple(row))
        outer = OuterCode(field=fld, n=n2, rows=tuple(rows))
        rep = concatenate(inner, outer)
        assert not rep.verify()
        built.append(rep.code.generator.row_bits())
    assert _digest(built) == CONSTRUCTION_DIGESTS["concat"]


# sha256 of repr(generator rows) of every random instance of these
# constructions: they pin the random samplers, the coset leaders that the
# X family glues on and the symbol-to-bits map of concatenation
CONSTRUCTION_DIGESTS = {
    "x": "2cb4ed24353ed95d56a563cbad8c051759657b66a01c638798c93fde75eb4f69",
    "x3": "02a546fd53aa79e871ce40d8dc43ecbdd0f4816a620cb129e9f6e4d250323e55",
    "x4": "1c9cf16be3a80ff0c4bce8255c80412db7c83fa6de887c35197f0e928e9c18cb",
    "concat": "6c806d6a9533e742cff402ce7922fbac18d247530f60c9a613142eb7c398930f",
}


def _digest(rows) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def test_random_construction_x_instances():
    rng = random.Random(108)
    done = 0
    built = []
    while done < 100:
        c1, c2 = rand_chain(rng)
        delta = c2.k - c1.k
        if delta == 0:
            continue
        n3 = rng.choice([4, 6, 8, 10, 12])
        if delta > n3 // 2:
            continue
        c3 = rand_so(n3, delta, rng)
        rep = construction_x(c1, c2, c3)
        assert not rep.verify(), rep
        built.append(rep.code.generator.row_bits())
        done += 1
    assert _digest(built) == CONSTRUCTION_DIGESTS["x"]


def test_random_construction_x3_instances():
    rng = random.Random(109)
    done = 0
    built = []
    while done < 100:
        n = rng.choice([10, 12, 14])
        k3 = rng.randrange(3, n // 2 + 1)
        c3 = rand_so(n, k3, rng)
        k2 = rng.randrange(2, k3)
        c2 = rand_so_subcode(c3, k2, rng)
        k1 = rng.randrange(1, k2)
        c1 = rand_so_subcode(c2, k1, rng)
        d42, d53 = k2 - k1, k3 - k2
        n4 = rng.choice([4, 6, 8, 10])
        n5 = rng.choice([4, 6, 8, 10])
        if d42 > n4 // 2 or d53 > n5 // 2:
            continue
        c4 = rand_so(n4, d42, rng)
        c5 = rand_so(n5, d53, rng)
        rep = construction_x3(c1, c2, c3, c4, c5)
        assert not rep.verify(), rep
        built.append(rep.code.generator.row_bits())
        done += 1
    assert _digest(built) == CONSTRUCTION_DIGESTS["x3"]


def test_random_construction_x4_instances():
    rng = random.Random(110)
    done = 0
    built = []
    while done < 100:
        c1, c2 = rand_chain(rng)
        delta = c2.k - c1.k
        if delta == 0:
            continue
        n3 = rng.choice([10, 12, 14])
        k4 = rng.randrange(delta, n3 // 2 + 1) if delta <= n3 // 2 else None
        if k4 is None:
            continue
        c4 = rand_so(n3, k4, rng)
        if k4 - delta == 0:
            z = LinearCode(BitMatrix(n3, []))
            c3 = z
        else:
            c3 = rand_so_subcode(c4, k4 - delta, rng)
        rep = construction_x4(c1, c2, c3, c4)
        assert not rep.verify(), rep
        built.append(rep.code.generator.row_bits())
        done += 1
    assert _digest(built) == CONSTRUCTION_DIGESTS["x4"]


def test_random_y1_instances():
    rng = random.Random(111)
    for _ in range(100):
        n = rng.choice([8, 10, 12])
        c = rand_so(n, rng.randrange(2, n // 2 + 1), rng)
        rep = construction_y1(c)
        assert not rep.verify(), rep


def test_random_y4_instances():
    rng = random.Random(112)
    for _ in range(50):
        n = rng.choice([8, 10])
        c = rand_so(n, rng.randrange(2, n // 2 + 1), rng)
        rep = construction_y4(c)
        assert rep.code.is_self_orthogonal()
        assert rep.code.n == rep.predicted_n
        assert rep.code.k == rep.predicted_k, rep


def _python_dual_words(code):
    """The dual's 2^k words by doubling, as the Python enumeration that Y1
    and Y4 ran before they read the span kernel."""
    words = [0]
    for g in code.dual().generator.row_bits():
        words += [w ^ g for w in words]
    return words


def _python_y1_support(code):
    best_w, best_support = code.n + 1, None
    for w in _python_dual_words(code):
        if not w or w.bit_count() > best_w:
            continue
        support = BitVector(code.n, w).support()
        if w.bit_count() < best_w or support < best_support:
            best_w, best_support = w.bit_count(), support
    return best_support


def _python_y4_support(code):
    nonzero = [w for w in _python_dual_words(code) if w]
    best_w, best_support = code.n + 1, None
    for i, u in enumerate(nonzero):
        for v in nonzero[i + 1 :]:
            both = u | v
            if both.bit_count() > best_w:
                continue
            support = BitVector(code.n, both).support()
            if both.bit_count() < best_w or support < best_support:
                best_w, best_support = both.bit_count(), support
    return best_support


def _chosen_support(monkeypatch, build, code):
    """The support that ``build`` shortens ``code`` on."""
    seen = []
    real = constructions._remove_support
    with monkeypatch.context() as patch:
        patch.setattr(constructions, "_remove_support", lambda c, s: seen.append(s) or real(c, s))
        build(code)
    assert len(seen) == 1
    return seen[0]


@pytest.mark.parametrize(
    "build, oracle, lengths, least_k",
    [
        (construction_y1, _python_y1_support, (8, 10, 12, 14, 16), 1),
        (construction_y4, _python_y4_support, (6, 8, 10), 2),
    ],
    ids=["y1", "y4"],
)
def test_y_supports_match_the_python_enumeration(monkeypatch, build, oracle, lengths, least_k):
    """Both pick the lightest support and, of several, the lexicographically
    least, as the Python enumeration did: on 200 random self-orthogonal
    codes, many with ties, and on the Golay code."""
    rng = random.Random(2020)
    codes = [golay_24()]
    while len(codes) < 201:
        n = rng.choice(lengths)
        codes.append(rand_so(n, rng.randrange(least_k, n // 2 + 1), rng))
    for code in codes:
        assert _chosen_support(monkeypatch, build, code) == oracle(code)


def test_random_extend_parity_dual_instances():
    rng = random.Random(113)
    for _ in range(100):
        n = rng.choice([5, 7, 9, 11])
        c = rand_so(n, rng.randrange(1, n // 2 + 1), rng)
        rep = extend_parity_dual(c)
        assert not rep.verify()
        assert rep.code.contains(BitVector.ones(n + 1))
