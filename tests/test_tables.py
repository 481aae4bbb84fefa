import os
import subprocess
import sys
import time

import pytest

import qcss
from qcss import tables
from qcss.bch import (
    cyclic_weight_counts,
    orbit_scan,
    poly_deg,
    search_self_orthogonal_bch,
    spec_from_zero_set,
    zero_set_of_polynomial,
)
from qcss.codes import LinearCode, WeightEnumerator, appended_parity_counts, macwilliams
from qcss.constructions import extend_parity_dual
from qcss.errors import PreconditionError
from qcss.gf2 import BitMatrix, bytes_as_ints
from qcss.projgeom import ProjGeometry, build_so_code, enumerate_spaces, singer_order
from qcss.tables import (
    RM_EXPECTED,
    TABLE1_ROWS,
    TABLE2_ROWS,
    TABLE1_BUDGET,
    format_reports,
    reports_to_json,
    rm_scan,
    rm_scan_matches_expected,
    singer_generator,
    singer_rows,
    verify_extended_table1,
    verify_table1,
    verify_table1_row,
    verify_table2,
)


def test_table_shapes():
    assert len(TABLE1_ROWS) == 26
    assert len(TABLE2_ROWS) == 12
    for n, kq, d, g in TABLE1_ROWS:
        assert (n - kq) % 2 == 0
        assert g.bit_length() - 1 == n - (n - kq) // 2  # degree audit


def test_short_table1_rows_pass():
    searches = {}
    for row in TABLE1_ROWS:
        if row[0] > 31:
            continue
        rep = verify_table1_row(row, budget=1 << 16, searches=searches)
        assert rep.passed, rep.line()


def test_corrupted_polynomial_flagged():
    n, kq, d, g = TABLE1_ROWS[0]
    rep = verify_table1_row((n, kq, d, g ^ 1), budget=1 << 16)
    assert not rep.passed
    bad = {k for k, v in rep.checks.items() if v is False}
    assert bad & {"divides_xn_plus_1", "zero_set_complete", "self_orthogonal",
                  "degree_matches_dimension", "search_reproduces_row"}


def test_row_with_wrong_distance_flagged():
    n, kq, d, g = TABLE1_ROWS[0]
    rep = verify_table1_row((n, kq, d + 2, g), budget=1 << 16)
    assert not rep.passed
    assert rep.checks["designed_distance_at_least_d"] is False


def _table1_row(key):
    return next(row for row in TABLE1_ROWS if row[:3] == key)


def test_rows_beyond_the_default_budget_stay_bound_certified():
    searches = {n: search_self_orthogonal_bch(n) for n in (89, 93, 127)}
    predicted = {
        (89, 23, 9): "96,518,144",
        (93, 13, 11): "11,822,706,688",
        (127, 57, 11): "270,565,376",
        (127, 43, 13): "34,630,303,744",
        (127, 29, 15): "4,432,676,814,848",
    }
    t0 = time.perf_counter()
    reports = {key: verify_table1_row(_table1_row(key), searches=searches) for key in predicted}
    assert time.perf_counter() - t0 < 1
    for key, rep in reports.items():
        assert rep.checks["exact_dual_distance_at_least_d"] is None
        assert "exact_dual_distance" not in rep.values
        assert any(predicted[key] + " words" in note for note in rep.notes), rep.notes
        assert rep.passed
    # 2^29 words still leave three rows to the BCH bound
    for key in ((93, 13, 11), (127, 43, 13), (127, 29, 15)):
        rep = verify_table1_row(_table1_row(key), budget=1 << 29, searches=searches)
        assert rep.checks["exact_dual_distance_at_least_d"] is None


def test_orbit_scan_certifies_two_more_rows_at_2_29_words(monkeypatch):
    """Both scans run once: the extended rows read Table 1's certificates."""
    rows = tuple(_table1_row(key) for key in ((89, 23, 9), (127, 57, 11)))
    monkeypatch.setattr(tables, "TABLE1_ROWS", rows)
    scans = []
    monkeypatch.setattr(
        tables, "cyclic_weight_counts", lambda *a: scans.append(a) or cyclic_weight_counts(*a)
    )
    reports = verify_table1(budget=1 << 29)
    for rep in reports:
        assert rep.passed, rep.line()
        assert rep.checks["exact_dual_distance_at_least_d"] is True
        assert rep.values["exact_dual_distance"] == 11
    for rep in verify_extended_table1(reports):
        assert rep.passed, rep.line()
        assert rep.values["dual_distance"] == 12
    assert len(scans) == 2


def test_rm_scan_expected_set():
    hits = rm_scan()
    assert {(h.n, h.quantum_k, h.distance) for h in hits} == set(RM_EXPECTED)
    assert rm_scan_matches_expected()
    assert len(hits) == 6


def test_extended_family_self_orthogonal():
    reports = verify_extended_table1(verify_table1(budget=1 << 18))
    assert all(r.checks["dimensions"] for r in reports)
    assert all(r.checks["self_orthogonal"] for r in reports)
    checked = [r for r in reports if r.checks["dual_distance_at_least_d"] is not None]
    assert checked  # at least the small rows get their parity-extended distance
    assert all(r.passed for r in reports)


def extended_weight_counts(enum: WeightEnumerator) -> WeightEnumerator:
    """Oracle: the spectrum of ``extend_parity_dual`` of C from C's, since
    c|0 weighs wt(c) and its complement n + 1 - wt(c), so A'_w = A_w + A_{n+1-w}."""
    a = enum.counts + (0,)
    return WeightEnumerator(tuple(x + y for x, y in zip(a, reversed(a))))


def test_extended_spectrum_equals_the_direct_scan():
    checked = 0
    for n, kq, d, g in TABLE1_ROWS:
        spec = spec_from_zero_set(n, zero_set_of_polynomial(n, g))
        if spec.dimension + 1 > 16:
            continue
        direct = extend_parity_dual(spec.to_code()).code.weight_enumerator()
        assert extended_weight_counts(cyclic_weight_counts(spec)) == direct, (n, kq, d)
        # the extended dual is the parity extension of the row's dual
        dual = appended_parity_counts(macwilliams(cyclic_weight_counts(spec), n, spec.dimension))
        assert dual == macwilliams(direct, n + 1, spec.dimension + 1), (n, kq, d)
        checked += 1
    assert checked == 14


def test_parity_rule_on_the_dual_equals_the_extended_oracle():
    """Every row whose orbit spectrum fits the default budget: the whole
    spectrum of the extended dual, not only its least weight."""
    checked = 0
    for n, kq, d, g in TABLE1_ROWS:
        spec = spec_from_zero_set(n, zero_set_of_polynomial(n, g))
        if orbit_scan(spec).words > TABLE1_BUDGET:
            continue
        enum, k = cyclic_weight_counts(spec), spec.dimension
        oracle = macwilliams(extended_weight_counts(enum), n + 1, k + 1)
        assert appended_parity_counts(macwilliams(enum, n, k)) == oracle, (n, kq, d)
        checked += 1
    assert checked == 21


def test_extended_family_shares_table1_budget():
    reports = {r.label: r for r in verify_extended_table1(verify_table1())}
    exact = {label: r.values["dual_distance"] for label, r in reports.items()
             if r.checks["dual_distance_at_least_d"]}
    assert len(exact) == 21
    assert exact["extended [[93,43,7]] -> n=94"] == 8
    assert exact["extended [[127,71,9]] -> n=128"] == 10
    skipped = reports["extended [[127,57,11]] -> n=128"]
    assert skipped.checks["dual_distance_at_least_d"] is None
    assert "270,565,376 words" in skipped.notes[0]


# A self-orthogonal [35,15] cyclic code of designed dual distance 5 whose
# dual's least weight is 6: every tabulated row's dual distance is odd
EVEN_DUAL_ROW = (35, 5, 5, 0x191B4F)


def test_extended_family_reads_table1_and_runs_no_scan(monkeypatch):
    """The extended dual distance from Table 1's certificate, rounded up to
    even, against the former route: the parity extension of the row's dual
    spectrum, for every row Table 1 certifies at its default budget and for
    a row whose dual distance is already even."""
    rows = (*TABLE1_ROWS, EVEN_DUAL_ROW)
    monkeypatch.setattr(tables, "TABLE1_ROWS", rows)
    table1 = verify_table1()

    def refuse(*args):
        raise AssertionError("the extended family ran an orbit scan")

    monkeypatch.setattr(tables, "orbit_scan", refuse)
    monkeypatch.setattr(tables, "cyclic_weight_counts", refuse)
    reports = verify_extended_table1(table1)
    monkeypatch.undo()
    checked = 0
    for (n, kq, d, g), row, rep in zip(rows, table1, reports, strict=True):
        assert rep.passed, rep.line()
        assert rep.values["spectrum_words"] == row.values["spectrum_words"]
        if "exact_dual_distance" not in row.values:
            assert rep.checks["dual_distance_at_least_d"] is None
            assert "dual_distance" not in rep.values
            continue
        spec = spec_from_zero_set(n, zero_set_of_polynomial(n, g))
        enum = cyclic_weight_counts(spec)
        oracle = appended_parity_counts(macwilliams(enum, n, spec.dimension)).min_distance()
        assert rep.values["dual_distance"] == oracle, (n, kq, d)
        checked += 1
    assert checked == 22
    assert table1[-1].values["exact_dual_distance"] == reports[-1].values["dual_distance"] == 6


def test_extended_family_refuses_a_row_whose_hex_is_not_a_generator(monkeypatch):
    # x * g for the first row: the same zero set, but not a generator of the code
    row = (15, 7, 3, 0x135E)
    assert TABLE1_ROWS[0] == (15, 7, 3, 0x9AF)
    assert verify_table1_row(row).checks["divides_xn_plus_1"] is False
    monkeypatch.setattr(tables, "TABLE1_ROWS", (row,))
    [rep] = verify_extended_table1(verify_table1())
    assert rep.label == "extended [[15,7,3]] -> n=16"
    assert rep.checks["generator"] is False
    assert not rep.passed
    # the true generator passes the same check
    monkeypatch.setattr(tables, "TABLE1_ROWS", TABLE1_ROWS[:1])
    [rep] = verify_extended_table1(verify_table1())
    assert rep.checks["generator"] is True and rep.passed


# x^4 + x + 1 generates the [15,11] Hamming code, which is not self-orthogonal
NOT_SELF_ORTHOGONAL_ROW = (15, 7, 3, 0x13)


def test_extended_family_fails_a_row_that_is_not_self_orthogonal(monkeypatch):
    assert verify_table1_row(NOT_SELF_ORTHOGONAL_ROW).checks["self_orthogonal"] is False
    monkeypatch.setattr(tables, "TABLE1_ROWS", (NOT_SELF_ORTHOGONAL_ROW,))
    [rep] = verify_extended_table1(verify_table1())
    assert not rep.passed
    # the keys in the order of a passing row's
    assert list(rep.checks.items()) == [
        ("generator", True),
        ("dimensions", None),
        ("self_orthogonal", False),
        ("dual_distance_at_least_d", None),
    ]
    assert rep.values == {} and rep.notes == []


def _table2_row(prefix):
    return [row for row in TABLE2_ROWS if row[0].startswith(prefix)]


def test_table2_split_route_runs_under_the_callers_budget():
    # 2^16 words exceed 2^10, so the self-dual [32,16,8] row goes to the
    # split search at bound 7, which fits
    rep = verify_table2(budget=1 << 10, rows=_table2_row("PG(4,2) 2-sp."))[0]
    assert rep.passed and rep.checks["distance"] and rep.checks["dual_distance"]
    assert rep.values["split_patterns"] == 32
    assert rep.values["split_witness"] == 8
    assert rep.values["split_depths"] == (1, 1)
    # the [128,64,16] row's split search predicts 1.66e7 patterns: refused
    t0 = time.perf_counter()
    rep = verify_table2(budget=1 << 20, rows=_table2_row("PG(6,2) 3-sp."))[0]
    assert time.perf_counter() - t0 < 2
    assert rep.checks["distance"] is None and rep.checks["dual_distance"] is None
    assert rep.checks["self_dual"] is True
    assert "split_patterns" not in rep.values
    assert any("1.66e+07 patterns" in note for note in rep.notes), rep.notes
    # a code that is not self-dual has no split route
    rep = verify_table2(budget=1 << 4, rows=_table2_row("PG(3,2) 2-sp."))[0]
    assert rep.checks["distance"] is None and rep.checks["dual_distance"] is None
    assert "not self-dual" in rep.notes[0]


@pytest.mark.parametrize(
    "prefix, generic, shifted",
    [("PG(4,2) 2-sp.", 152, 32), ("PG(6,2) 3-sp.", 91_581_632, 16_607_264)],
)
def test_table2_split_route_agrees_with_the_lexicographic_search(prefix, generic, shifted):
    """The Singer-order code under the shift rule against the emitted,
    lexicographic code under the generic one: the same verdict and witness
    from fewer patterns; the lexicographic code refuses the shift rule."""
    row = _table2_row(prefix)[0]
    geom, cfg, code = _table2_code(row)
    d = row[6]
    lex = code.min_distance_split(d - 1)
    cyclic = LinearCode(BitMatrix(code.n, singer_rows(code, singer_order(geom))))
    assert cyclic.pivots == tuple(range(code.k))
    split = cyclic.min_distance_split(d - 1, cyclic=cfg.v)
    assert (lex.patterns_scanned, split.patterns_scanned) == (generic, shifted)
    assert (lex.found, lex.value, lex.witness_weight) == (False, d, d)
    assert (split.found, split.value, split.witness_weight) == (False, d, d)
    assert sum(lex.depths) == sum(split.depths) + 1
    with pytest.raises(PreconditionError):
        code.min_distance_split(d - 1, cyclic=cfg.v)


def test_table2_split_route_skips_a_code_that_is_not_cyclic(monkeypatch):
    """Two Singer points swapped: the split search's own check refuses the
    shift, and the row notes it and fails on ``cyclic_in_singer_order``."""

    def swapped(geom):
        order = list(singer_order(geom))
        order[0], order[1] = order[1], order[0]
        return tuple(order)

    monkeypatch.setattr(tables, "singer_order", swapped)
    rep = verify_table2(budget=1 << 10, rows=_table2_row("PG(4,2) 2-sp."))[0]
    assert rep.checks["cyclic_in_singer_order"] is False and not rep.passed
    assert rep.checks["distance"] is None and "split_patterns" not in rep.values
    assert rep.notes == [
        "the code is not invariant under the shift of its first 31 coordinates; distances skipped"
    ]


def test_verify_table2_small_rows():
    from qcss.tables import TABLE2_ROWS

    small = [row for row in TABLE2_ROWS if row[5] <= 17]  # dimension fits 2^18
    reports = verify_table2(budget=1 << 18, rows=small)
    assert len(reports) == 8
    for rep in reports:
        assert rep.passed, rep.line()
        assert not rep.notes, rep.notes  # each tabulated t matches a capped bound
    bounds = [(rep.values["one_step_bound"], rep.values["two_pass_bound"]) for rep in reports]
    assert bounds == [(1, 2), (1, 1), (2, 3), (1, 1), (1, 1), (1, 1), (2, 3), (2, 2)]


def test_report_formatting_and_json():
    reps = [verify_table1_row(TABLE1_ROWS[0], budget=1 << 16)]
    text = format_reports("demo", reps)
    assert "pass" in text and "[[15,7,3]]" in text
    payload = reports_to_json({"demo": reps})
    assert '"passed": true' in payload


_ROW_MEMORY = """
import resource
from qcss.tables import TABLE1_ROWS, verify_table1_row
row = next(r for r in TABLE1_ROWS if r[:3] == (55, 15, 4))
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
rep = verify_table1_row(row)
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(rep.passed, (after - before) / 1024)
"""


def test_gf2_20_row_memory_stays_small():
    # [[55,15,4]] is the one row over GF(2^20); its field tables once grew the
    # peak resident memory of a fresh process by about 81 MB
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qcss.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", _ROW_MEMORY], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    ).stdout.split()
    assert out[0] == "True"
    assert float(out[1]) < 25, f"ru_maxrss grew by {out[1]} MB"


def test_verify_table2_of_no_rows_verifies_none():
    assert verify_table2(rows=[]) == []


def _table2_code(row):
    _, gk, q, l = row[:4]
    geom = ProjGeometry(gk, q)
    cfg = enumerate_spaces(geom, l)
    return geom, cfg, build_so_code(cfg)


def test_table2_orbit_spectrum_equals_the_direct_scan():
    rows = [row for row in TABLE2_ROWS if row[5] <= 22]
    assert len(rows) == 9
    for row in rows:
        geom, cfg, code = _table2_code(row)
        g = singer_generator(singer_rows(code, singer_order(geom)), cfg.v)
        assert cfg.v - poly_deg(g) == code.k, row[0]
        spec = spec_from_zero_set(cfg.v, zero_set_of_polynomial(cfg.v, g))
        assert spec.generator == g
        enum = appended_parity_counts(cyclic_weight_counts(spec))
        assert enum == code.weight_enumerator(), row[0]


def test_appended_parity_rule_on_every_odd_k_prime_row():
    assert appended_parity_counts(WeightEnumerator((1, 3, 3, 1))) == WeightEnumerator((1, 0, 6, 0, 1))
    for row in TABLE2_ROWS:
        _, cfg, code = _table2_code(row)
        assert cfg.k_prime % 2 == 1 and code.n == cfg.v + 1, row[0]
        # each basis row's appended bit is the parity of its points, so
        # every codeword's is
        for word in code.generator.row_bits():
            assert word >> cfg.v == (word & ((1 << cfg.v) - 1)).bit_count() % 2, row[0]


def test_build_so_code_equals_the_ones_column_oracle():
    """``build_so_code`` extends the rref of the incidence rows by parity;
    the oracle appends a 1 to every incidence row and reduces those."""
    for row in TABLE2_ROWS:
        _, cfg, code = _table2_code(row)
        ones = [r | 1 << cfg.v for r in bytes_as_ints(cfg.incidence)]
        oracle = LinearCode.from_spanning(BitMatrix(cfg.v + 1, ones))
        assert code.generator == oracle.generator, row[0]
        assert code.pivots == oracle.pivots, row[0]


@pytest.mark.parametrize("prefix", ["PG(2,2) 1-sp.", "PG(5,2) 3-sp.", "PG(2,4) 1-sp."])
def test_table2_row_fails_when_two_singer_points_are_swapped(prefix, monkeypatch):
    def swapped(geom):
        order = list(singer_order(geom))
        order[0], order[1] = order[1], order[0]
        return tuple(order)

    row = _table2_row(prefix)
    assert verify_table2(rows=row)[0].checks["cyclic_in_singer_order"] is True
    monkeypatch.setattr(tables, "singer_order", swapped)
    rep = verify_table2(rows=row)[0]
    assert rep.checks["cyclic_in_singer_order"] is False
    assert not rep.passed and "cyclic_in_singer_order" in rep.line()
    assert "spectrum_words" not in rep.values


def test_table2_at_2_23_orbit_words_skips_only_the_split_row():
    reports = verify_table2(budget=1 << 23)
    assert all(rep.passed for rep in reports)
    skipped = [rep.label for rep in reports if None in rep.checks.values()]
    assert skipped == ["PG(6,2) 3-sp. [[128,0,16]]"]
    words = {rep.label.split(" [[")[0]: rep.values["spectrum_words"] for rep in reports}
    assert words["PG(6,2) 4-sp."] == 4_259_840
    assert words["PG(2,8) 1-sp. [tabulated as PG(3,8)]"] == 3_678_208
    assert all(rep.checks["cyclic_in_singer_order"] is True for rep in reports)
    # a row skipped at a smaller budget names the predicted words
    rep = verify_table2(budget=1 << 20, rows=_table2_row("PG(6,2) 4-sp."))[0]
    assert rep.checks["distance"] is None
    assert rep.notes == [
        "the orbit scan would visit 4,259,840 words, beyond the budget of 1,048,576; "
        "no split route, not self-dual"
    ]


def test_table1_rows_record_their_predicted_spectrum_words():
    searches = {}
    for row in TABLE1_ROWS:
        rep = verify_table1_row(row, budget=1 << 10, searches=searches)
        n, _, _, g = row
        spec = spec_from_zero_set(n, zero_set_of_polynomial(n, g))
        assert rep.values["spectrum_words"] == orbit_scan(spec).words, row[:3]
