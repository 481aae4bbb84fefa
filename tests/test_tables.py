import os
import subprocess
import sys
import time

import qcss
from qcss.bch import search_self_orthogonal_bch
from qcss.tables import (
    RM_EXPECTED,
    TABLE1_ROWS,
    TABLE2_ROWS,
    format_reports,
    reports_to_json,
    rm_scan,
    rm_scan_matches_expected,
    verify_extended_table1,
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


def test_orbit_scan_certifies_two_more_rows_at_2_29_words():
    searches = {}
    for key in ((89, 23, 9), (127, 57, 11)):
        rep = verify_table1_row(_table1_row(key), budget=1 << 29, searches=searches)
        assert rep.passed, rep.line()
        assert rep.checks["exact_dual_distance_at_least_d"] is True
        assert rep.values["exact_dual_distance"] == 11


def test_rm_scan_expected_set():
    hits = rm_scan()
    assert {(h.n, h.quantum_k, h.distance) for h in hits} == set(RM_EXPECTED)
    assert rm_scan_matches_expected()
    assert len(hits) == 6


def test_extended_family_self_orthogonal():
    reports = verify_extended_table1(budget=1 << 18)
    assert all(r.checks["dimensions"] for r in reports)
    assert all(r.checks["self_orthogonal"] for r in reports)
    checked = [r for r in reports if r.checks["dual_distance_at_least_d"] is not None]
    assert checked  # at least the small rows get their parity-extended distance
    assert all(r.passed for r in reports)


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
