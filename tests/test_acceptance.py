"""Acceptance suite: one test per shipping criterion, each printing a verdict
line.  Run with `pytest tests/test_acceptance.py -v -s`."""
import itertools
import math
import random
import time

from qcss.bch import BchDecoder, bch_generator, search_self_orthogonal_bch
from qcss.channel import ChannelSpec, component_weight_bound, monte_carlo
from qcss.codes import LinearCode, macwilliams, random_linear_code
from qcss.constructions import (
    construction_x,
    construction_y1,
    dual_min_distance,
    plotkin,
    product,
    shorten,
)
from qcss.css import (
    PauliError,
    css_from_projective_geometry,
    css_from_reed_muller,
    css_from_self_orthogonal_cyclic,
    css_with_lookup,
    LookupDecoder,
)
from qcss.errors import DecodingFailure
from qcss.gf2 import BitVector, bytes_as_ints, ints_as_bytes
from qcss.named import extended_hamming_8, golay_24, steane_component
from qcss.projgeom import ProjGeometry, RudolphDecoder, build_so_code, enumerate_spaces
from qcss.reedmuller import ReedDecoder, rm_generator
from qcss.tables import (
    TABLE2_ROWS,
    rm_scan,
    RM_EXPECTED,
    verify_table1,
    verify_table2,
)

RANDOM_TRIALS_PER_WEIGHT = 10_000


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  ({detail})" if detail else ""))
    assert ok, name


def test_criterion_1_table1_reproduction():
    t0 = time.time()
    reports = verify_table1()
    elapsed = time.time() - t0
    for rep in reports:
        print("   ", rep.line())
    exact_rows = [r for r in reports if r.checks.get("exact_dual_distance_at_least_d")]
    ok = all(r.passed for r in reports) and len(reports) == 26
    _verdict(
        "criterion 1: all 26 cyclic-code rows reproduced",
        ok and elapsed < 600,
        f"{len(exact_rows)} rows with exact dual distance, {elapsed:.0f}s",
    )


def test_criterion_2_table2_reproduction():
    t0 = time.time()
    reports = verify_table2()
    elapsed = time.time() - t0
    for rep in reports:
        print("   ", rep.line())
    ok = all(r.passed for r in reports) and len(reports) == 12
    big = next(r for r in reports if "PG(6,2) 3-sp." in r.label)
    ok &= big.values.get("split_witness") == 16
    ok &= big.values.get("split_patterns") == 16_607_264
    ok &= big.values.get("split_depths") == (5, 5)
    # every other row fits the default budget of 2^29 spectrum words
    ok &= all("d" in r.values and "d_perp" in r.values and "split_patterns" not in r.values
              for r in reports if r is not big)
    _verdict(
        "criterion 2: all 12 projective-geometry rows reproduced",
        ok and elapsed < 1800,
        f"split scanned {big.values.get('split_patterns'):,} patterns, {elapsed:.0f}s",
    )


def test_criterion_3_rm_scan():
    hits = rm_scan()
    found = {(h.n, h.quantum_k, h.distance) for h in hits}
    _verdict(
        "criterion 3: reed-muller scan yields exactly the six printed codes",
        found == set(RM_EXPECTED) and len(hits) == 6,
        ", ".join(f"[[{a},{b},{c}]]" for a, b, c in sorted(found)),
    )


def test_criterion_4_worked_examples():
    # shortened [8,4,4] gives the [[7,1,3]] code
    ext = extended_hamming_8()
    st = shorten(ext, 0).code
    css = css_with_lookup(st, st, distance=3)
    ok = css.parameters() == (7, 1, 3) and st.min_distance() == 4

    # Y1 of the [24,12,8] code gives [16,5,8] and the [[16,6,4]] code
    golay = golay_24()
    y1 = construction_y1(golay)
    ok &= (y1.code.n, y1.code.k) == (16, 5)
    ok &= y1.code.min_distance() == 8
    ok &= dual_min_distance(y1.code).exact == 4
    ok &= y1.quantum_parameters() == (16, 6, 4)

    # construction X on the nested dual cyclic [31,5] < [31,10] with the
    # [16,5,8] tail gives the [[47,27,4]] code
    c1 = bch_generator(31, 1, 3).to_code().dual()
    c2 = bch_generator(31, 1, 5).to_code().dual()
    c3 = rm_generator(4, 1).code
    x = construction_x(c1, c2, c3)
    ok &= (x.code.n, x.code.k) == (47, 10)
    ok &= dual_min_distance(x.code).exact == 4
    ok &= x.quantum_parameters() == (47, 27, 4)
    _verdict("criterion 4: worked examples match exactly", ok)


def _random_codeword(code: LinearCode, rng) -> int:
    cw = 0
    for row in code.generator.row_bits():
        if rng.random() < 0.5:
            cw ^= row
    return cw


def _classical_decoder_pairs():
    steane = steane_component()
    fano = enumerate_spaces(ProjGeometry(2, 2), 1)
    pg28 = enumerate_spaces(ProjGeometry(2, 8), 1)
    return [
        ("lookup / [7,4,3]", LookupDecoder(steane), steane.dual(), 1),
        ("bm / [15,11,3]", BchDecoder(bch_generator(15, 1, 3)), bch_generator(15, 1, 3).to_code(), 1),
        ("bm / [31,21,5]", BchDecoder(bch_generator(31, 1, 5)), bch_generator(31, 1, 5).to_code(), 2),
        ("bm / [31,16,7]", BchDecoder(bch_generator(31, 1, 7)), bch_generator(31, 1, 7).to_code(), 3),
        ("reed / [16,11,4]", ReedDecoder(rm_generator(4, 2)), rm_generator(4, 2).code, 1),
        ("reed / [16,5,8]", ReedDecoder(rm_generator(4, 1)), rm_generator(4, 1).code, 3),
        ("rudolph / [8,4,4]", RudolphDecoder(fano, build_so_code(fano), radius=1), build_so_code(fano).dual(), 1),
        ("rudolph / [74,46,10]", RudolphDecoder(pg28, build_so_code(pg28), radius=4), build_so_code(pg28).dual(), 4),
    ]


def test_criterion_5_decoder_guarantees():
    rng = random.Random(2024)
    all_ok = True
    for name, decoder, code, radius in _classical_decoder_pairs():
        n = code.n
        codewords, received = [], []
        # exhaustive up to weight min(2, radius)
        for wt in range(1, min(2, radius) + 1):
            for support in itertools.combinations(range(n), wt):
                cw = _random_codeword(code, rng)
                codewords.append(cw)
                received.append(cw ^ sum(1 << p for p in support))
        # sampled patterns at every weight up to the radius
        for wt in range(1, radius + 1):
            for _ in range(RANDOM_TRIALS_PER_WEIGHT):
                cw = _random_codeword(code, rng)
                codewords.append(cw)
                received.append(cw ^ sum(1 << p for p in rng.sample(range(n), wt)))
        # all the words as one block; decode_word is its one-row call
        decoded, failure = decoder.decode_block(ints_as_bytes(received, (n + 7) // 8))
        checked = len(received)
        ok = decoder.radius == radius  # the radius the decoder states
        ok &= not failure.any() and bytes_as_ints(decoded) == codewords
        ok &= decoder.decode_word(received[-1]) == codewords[-1]
        print(f"    {name}: {checked} decodes within radius {radius}: {'ok' if ok else 'FAIL'}")
        all_ok &= ok
    _verdict("criterion 5a: classical decoders perfect within radius", all_ok)

    # end-to-end CSS: every single-qubit pauli on four codes
    hits15 = search_self_orthogonal_bch(15)
    spec15 = next(h.code_spec for h in hits15 if h.code_spec.generator == 0x9AF)
    css_codes = [
        ("[[7,1,3]]", css_with_lookup(steane_component(), steane_component(), distance=3)),
        ("[[15,7,3]]", css_from_self_orthogonal_cyclic(spec15, distance=3)),
        ("[[16,6,4]]", css_from_reed_muller(4, 1)),
        ("[[32,20,4]]", css_from_reed_muller(5, 1)),
    ]
    all_ok = True
    for label, css in css_codes:
        ok = True
        for qubit in range(css.n):
            for kind in "XYZ":
                err = PauliError.single(css.n, qubit, kind)
                est = css.decode(css.syndrome(err))
                ok &= not css.residual_is_logical(err, est)
        print(f"    {label}: all {3 * css.n} single-qubit errors corrected: {'ok' if ok else 'FAIL'}")
        all_ok &= ok
    _verdict("criterion 5b: CSS codes correct all single-qubit errors", all_ok)


def _sample_so(n, k, rng):
    from qcss.codes import random_self_orthogonal_code

    return random_self_orthogonal_code(n, k, rng)


def _sample_so_subcode(code, k, rng, tries=400):
    from qcss.gf2 import BitMatrix, rref

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
            if rref(BitMatrix(code.n, rows + [w]))[0].rows == len(rows) + 1:
                rows.append(w)
        if len(rows) == k:
            return LinearCode(BitMatrix(code.n, rows))
    raise AssertionError("could not sample a self-orthogonal subcode")


def _sample_plotkin_pair(rng):
    n = rng.choice([6, 8, 10, 12])
    k1 = rng.randrange(1, n // 2)
    c1 = _sample_so(n, k1, rng)
    dual = c1.dual()
    k2 = rng.randrange(1, min(k1, dual.k) + 1)
    return c1, _sample_so_subcode(dual, k2, rng)


def _sample_chain(rng):
    n = rng.choice([8, 10, 12, 14])
    k2 = rng.randrange(2, n // 2 + 1)
    c2 = _sample_so(n, k2, rng)
    k1 = rng.randrange(1, k2)
    return _sample_so_subcode(c2, k1, rng), c2


def test_criterion_6_construction_laws():
    rng = random.Random(606)

    exact_plotkin = exact_product = exact_x = 0
    mismatches = 0

    while exact_plotkin < 100:
        c1, c2 = _sample_plotkin_pair(rng)
        rep = plotkin(c1, c2)
        problems = rep.verify()
        if problems:
            mismatches += 1
            print("    plotkin violation:", problems)
        if rep.predicted_dual_distance is not None:
            exact_plotkin += 1

    while exact_product < 100:
        n1 = rng.choice([4, 6])
        c1 = _sample_so(n1, rng.randrange(1, n1 // 2 + 1), rng)
        n2 = rng.choice([2, 3])
        c2 = random_linear_code(n2, rng.randrange(1, n2 + 1), rng)
        rep = product(c1, c2)
        problems = rep.verify()
        if problems:
            mismatches += 1
            print("    product violation:", problems)
        if rep.predicted_dual_distance is not None:
            exact_product += 1

    while exact_x < 100:
        c1, c2 = _sample_chain(rng)
        delta = c2.k - c1.k
        if delta == 0:
            continue
        n3 = rng.choice([4, 6, 8, 10])
        if delta > n3 // 2:
            continue
        c3 = _sample_so(n3, delta, rng)
        rep = construction_x(c1, c2, c3)
        problems = rep.verify()
        if problems:
            mismatches += 1
            print("    construction-x violation:", problems)
        if rep.dual_distance_relation == "==" and rep.predicted_dual_distance is not None:
            exact_x += 1

    _verdict(
        "criterion 6: dual-distance laws hold with zero mismatches",
        mismatches == 0,
        f"plotkin {exact_plotkin}, product {exact_product}, x {exact_x} exact instances",
    )


def test_criterion_7_macwilliams_consistency():
    rng = random.Random(707)
    mismatches = 0
    for _ in range(500):
        n = rng.randrange(2, 21)
        k = rng.randrange(1, n)
        code = random_linear_code(n, k, rng)
        via_transform = macwilliams(code.weight_enumerator(), n, k)
        direct = code.dual().weight_enumerator()
        if via_transform.counts != direct.counts:
            mismatches += 1
    _verdict(
        "criterion 7: transform equals the dual spectrum on 500 random codes",
        mismatches == 0,
    )


def test_criterion_8_monte_carlo_sanity():
    css = css_from_reed_muller(4, 1)  # [[16,6,4]]
    p = 0.01
    channel = ChannelSpec.depolarizing(p)
    trials = 100_000
    t0 = time.time()
    single = monte_carlo(css, channel, trials=trials, seed=20260810, workers=1)
    multi = monte_carlo(css, channel, trials=trials, seed=20260810, workers=4)
    elapsed = time.time() - t0
    identical = single == multi

    p_component = 2 * p / 3
    union_bound = 2 * component_weight_bound(16, p_component, 1)
    sigma = math.sqrt(union_bound * (1 - union_bound) / trials)
    within = single.logical_rate <= union_bound + 3 * sigma
    _verdict(
        "criterion 8: monte carlo reproducible and under the union bound",
        identical and within,
        f"rate {single.logical_rate:.2e} <= bound {union_bound:.2e} + 3s, {elapsed:.0f}s",
    )
