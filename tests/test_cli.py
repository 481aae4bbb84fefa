import hashlib
import json
import random
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcss import bch, cli, codes, constructions, reedmuller, tables
from qcss.cli import _load_outer, _parse_budget, load_css, main
from qcss.codes import Distance, LinearCode, random_self_orthogonal_code
from qcss.css import LookupDecoder
from qcss.gf2 import BitMatrix
from qcss.named import extended_hamming_8


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_rm_quantum(capsys):
    code, out = run(capsys, "rm", "--m", "4", "--r", "1")
    assert code == 0
    assert "[[16,6,4]]" in out


def test_rm_code_roundtrip(tmp_path, capsys):
    code, out = run(capsys, "rm", "--m", "3", "--r", "1", "--emit", "code")
    assert code == 0
    assert out.splitlines()[0] == "4 8"


def test_pg_quantum(capsys):
    code, out = run(capsys, "pg", "--k", "3", "--q", "2", "--l", "2")
    assert code == 0
    assert "[[16,6,4]]" in out


def test_bch_search_contains_table_row(capsys):
    code, out = run(capsys, "bch-search", "--n", "15")
    assert code == 0
    assert "0x9AF" in out


def test_construct_shorten(tmp_path, capsys):
    src = tmp_path / "ext.code"
    src.write_text(extended_hamming_8().to_text())
    out_path = tmp_path / "steane.code"
    code, out = run(
        capsys, "construct", "shorten", "--in", str(src), "--out", str(out_path),
        "--coordinate", "0",
    )
    assert code == 0
    assert "[7,3]" in out
    assert out_path.read_text().splitlines()[0] == "3 7"


def test_construct_plotkin(tmp_path, capsys):
    from qcss.reedmuller import rm_generator

    a = tmp_path / "a.code"
    b = tmp_path / "b.code"
    a.write_text(rm_generator(3, 1).code.to_text())
    b.write_text(rm_generator(3, 0).code.to_text())
    out_path = tmp_path / "out.code"
    code, out = run(
        capsys, "construct", "plotkin", "--in", str(a), "--in", str(b),
        "--out", str(out_path),
    )
    assert code == 0
    assert "[16,5]" in out


def test_construct_arity_error(tmp_path, capsys):
    src = tmp_path / "ext.code"
    src.write_text(extended_hamming_8().to_text())
    code = main(["construct", "plotkin", "--in", str(src), "--out", str(tmp_path / "x")])
    assert code == 1
    assert capsys.readouterr().err == "error: plotkin needs 2 input code(s), got 1\n"
    assert not (tmp_path / "x").exists()


def test_rm_of_an_order_that_is_not_self_orthogonal(capsys):
    code = main(["rm", "--m", "3", "--r", "2"])
    captured = capsys.readouterr()
    assert code == 1 and not captured.out
    assert captured.err == "error: RM(3,2) is not self-orthogonal\n"


def test_min_distance_and_spectrum(tmp_path, capsys):
    src = tmp_path / "ext.code"
    src.write_text(extended_hamming_8().to_text())
    code, out = run(capsys, "min-distance", "--code", str(src))
    assert code == 0 and "minimum distance 4" in out
    code, out = run(capsys, "min-distance", "--code", str(src), "--split", "--bound", "3")
    assert code == 0 and "no codeword of weight <= 3" in out
    assert out.splitlines()[-1] == "predicted patterns 0, scanned 0"
    # depths 2 and 1: C(4,1) + C(4,2) pivot supports, 4 non-pivot ones
    code, out = run(capsys, "min-distance", "--code", str(src), "--split", "--bound", "4")
    assert code == 0
    assert out.splitlines() == ["minimum distance 4", "predicted patterns 14, scanned 14"]
    csv = tmp_path / "spec.csv"
    code, _ = run(capsys, "spectrum", "--code", str(src), "--out", str(csv))
    assert code == 0
    assert "4,14" in csv.read_text()


@pytest.mark.parametrize("bound", ["-1", "-3"])
def test_split_refuses_a_negative_bound_as_an_error_line(bound, tmp_path, capsys):
    src = tmp_path / "full.code"
    src.write_text("4 4\n1000\n0100\n0010\n0001\n")
    code = main(["min-distance", "--code", str(src), "--split", f"--bound={bound}"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: the bound must be at least 0, got {bound}\n"
    assert run(capsys, "min-distance", "--code", str(src), "--split", "--bound", "0") == (
        0, "no codeword of weight <= 0; lightest seen: 1\npredicted patterns 0, scanned 0\n"
    )


def test_split_with_a_huge_bound_returns_at_once(tmp_path, capsys):
    # bound 6 gives depths (3, 2), past both row counts of this [4,2] code;
    # a bound of 10^12 scans the same supports and its prediction stops at
    # the row counts too (bound 4 gives depths (2, 1), 5 patterns)
    src = tmp_path / "c42.code"
    src.write_text("2 4\n1100\n0011\n")
    lines = ["minimum distance 2", "predicted patterns 6, scanned 6"]
    assert run(capsys, "min-distance", "--code", str(src), "--split", "--bound", "6") == (
        0, "\n".join(lines) + "\n"
    )
    start = time.perf_counter()
    code, out = run(capsys, "min-distance", "--code", str(src), "--split", "--bound", str(10**12))
    assert time.perf_counter() - start < 1
    assert code == 0 and out.splitlines() == lines


def test_split_of_a_zero_dimensional_code_is_the_plain_error_line(tmp_path, capsys):
    src = tmp_path / "zero.code"
    src.write_text("0 4\n")
    for split in ([], ["--split"]):
        code = main(["min-distance", "--code", str(src), *split])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: zero-dimensional code has no minimum distance\n"


def test_split_prints_its_predicted_and_scanned_patterns_apart(tmp_path, capsys, monkeypatch):
    src = tmp_path / "ext.code"
    src.write_text(extended_hamming_8().to_text())
    monkeypatch.setattr(LinearCode, "min_distance_split",
                        lambda self, bound, budget: Distance("split", 4, 4, 14, 13))
    code, out = run(capsys, "min-distance", "--code", str(src), "--split", "--bound", "4")
    assert code == 0
    assert out.splitlines() == ["minimum distance 4", "predicted patterns 14, scanned 13"]


def test_simulate_refuses_trials_above_the_budget_flag(tmp_path, capsys, monkeypatch):
    css_path = tmp_path / "rm.css"
    assert run(capsys, "css-build", "--decoder", "reed", "--decoder-args", "4", "1",
               "--out", str(css_path))[0] == 0

    def no_run(*args, **kwargs):
        raise AssertionError("the simulation ran")

    monkeypatch.setattr(cli, "monte_carlo", no_run)
    t0 = time.perf_counter()
    for trials, budget, flag in (("100000000000000000", 1 << 29, []),
                                 ("1025", 1024, ["--budget", "2^10"])):
        code = main(["simulate", "--css", str(css_path), "--p", "0.01", "--trials", trials, *flag])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: the simulation would run {trials} trials, beyond the budget of {budget}\n"
        )
    assert time.perf_counter() - t0 < 1
    monkeypatch.undo()
    code, out = run(capsys, "simulate", "--css", str(css_path), "--p", "0.01",
                    "--trials", "1024", "--budget", "2^10", "--seed", "5")
    assert code == 0 and out.startswith("trials=1024 ")


def test_split_search_refuses_above_the_budget_flag(tmp_path, capsys, monkeypatch):
    code, out = run(capsys, "pg", "--k", "6", "--q", "2", "--l", "3", "--emit", "code")
    assert code == 0
    src = tmp_path / "pg63.code"
    src.write_text(out)

    def no_scan(*args):
        raise AssertionError("the split search scanned")

    monkeypatch.setattr(codes, "_low_weight_min", no_scan)
    t0 = time.perf_counter()
    code = main(["min-distance", "--code", str(src), "--split", "--bound", "15",
                 "--budget", "2^20"])
    assert time.perf_counter() - t0 < 1
    assert code == 1
    assert capsys.readouterr().err == (
        "error: the split search would scan 9.16e+07 patterns, beyond the budget of 1048576\n"
    )


def test_pg_prints_the_dual_distance_within_2_24_words(capsys, monkeypatch):
    # through the Singer-order orbit spectrum, as verify-tables reads it
    code, out = run(capsys, "pg", "--k", "4", "--q", "2", "--l", "3")
    assert code == 0 and out == "[[32,20,4]]\n"
    code, out = run(capsys, "pg", "--k", "2", "--q", "8", "--l", "1")  # 3,678,208 words
    assert code == 0 and out == "[[74,18,10]]\n"
    code, out = run(capsys, "pg", "--k", "6", "--q", "2", "--l", "4")  # 4,259,840 words
    assert code == 0 and out == "[[128,70,8]]\n"
    # beyond 2^24 orbit words: the split search, 16,607,264 patterns
    code, out = run(capsys, "pg", "--k", "6", "--q", "2", "--l", "3")
    assert code == 0 and out == "[[128,0,16]]\n"
    # a budget that refuses the split search as well leaves the distance open
    monkeypatch.setattr(cli, "PREDICT_BUDGET", 1 << 23)
    code, out = run(capsys, "pg", "--k", "6", "--q", "2", "--l", "3")
    assert code == 0 and out == "[[128,0,?]]\n"


@pytest.mark.parametrize("row", tables.TABLE2_ROWS, ids=[row[0] for row in tables.TABLE2_ROWS])
def test_pg_prints_every_table2_row(capsys, row):
    """``qcss pg`` and ``verify-tables`` take one distance step, so the
    printed row is the tabulated one, the split-search row included."""
    _, k, q, l, n, _, _, d_perp, kq, _ = row
    code, out = run(capsys, "pg", "--k", str(k), "--q", str(q), "--l", str(l))
    assert code == 0 and out == f"[[{n},{kq},{d_perp}]]\n"


def test_css_build_and_simulate(tmp_path, capsys):
    css_path = tmp_path / "rm.css"
    code, out = run(
        capsys, "css-build", "--decoder", "reed", "--decoder-args", "4", "1",
        "--out", str(css_path),
    )
    assert code == 0 and "[[16,6,4]]" in out
    css = load_css(str(css_path))
    assert css.parameters() == (16, 6, 4)
    code, out = run(
        capsys, "simulate", "--css", str(css_path), "--p", "0.01",
        "--trials", "500", "--seed", "5",
    )
    assert code == 0 and "trials=500" in out
    fields = dict(item.split("=") for item in out.split())
    assert int(fields["x_failures"]) + int(fields["z_failures"]) == int(fields["decode_failures"])


def test_css_build_bch_of_a_generator(tmp_path, capsys):
    css_path = tmp_path / "bch.css"
    code, out = run(
        capsys, "css-build", "--decoder", "bch", "--decoder-args", "15", "0x9AF",
        "--out", str(css_path),
    )
    assert code == 0 and "[[15,7,3]]" in out
    assert load_css(str(css_path)).parameters() == (15, 7, 3)


def test_css_build_lookup_roundtrip(tmp_path, capsys):
    from qcss.named import steane_component

    src = tmp_path / "steane.code"
    src.write_text(steane_component().to_text())
    css_path = tmp_path / "steane.css"
    code, out = run(
        capsys, "css-build", "--decoder", "lookup", "--c1", str(src),
        "--out", str(css_path),
    )
    assert code == 0
    css = load_css(str(css_path))
    assert css.parameters()[:2] == (7, 1)


def test_error_reporting(tmp_path, capsys):
    bad = tmp_path / "bad.code"
    bad.write_text("not a matrix\n")
    code = main(["min-distance", "--code", str(bad)])
    assert code == 1


def _css_without_g1(tmp):
    path = tmp / "bad.css"
    path.write_text("n: 7\nquantum-k: 1\ndecoder: lookup\n")
    return ["simulate", "--css", str(path), "--p", "0.01", "--trials", "10"]


def _bch_with_one_argument(tmp):
    return ["css-build", "--decoder", "bch", "--decoder-args", "15", "--out", str(tmp / "x.css")]


def _bch_of_length_one(tmp):
    return ["css-build", "--decoder", "bch", "--decoder-args", "1", "0x1",
            "--out", str(tmp / "x.css")]


def _bch_of(ghex):
    # 0x135E = x * 0x9AF does not divide x^15 + 1, and neither does 0
    def argv(tmp):
        return ["css-build", "--decoder", "bch", "--decoder-args", "15", ghex,
                "--out", str(tmp / "x.css")]
    return argv


def _bch_negative_in_css_file(tmp):
    path = tmp / "neg.css"
    path.write_text("decoder: bch 15 -0x9AF\n")
    return ["simulate", "--css", str(path), "--p", "0.01", "--trials", "10"]


def _missing_input(tmp):
    return ["min-distance", "--code", str(tmp / "absent.code")]


def _concat_with_outer(text):
    def argv(tmp):
        inner = tmp / "inner.code"
        inner.write_text(extended_hamming_8().to_text())
        outer = tmp / "outer.txt"
        outer.write_text(text)
        return ["construct", "concat", "--in", str(inner), "--outer", str(outer),
                "--out", str(tmp / "out.code")]
    return argv


def _pg_too_large(tmp):
    # 4^14 vectors; the 4.0e14 lines would take far longer than the test
    return ["pg", "--k", "13", "--q", "4", "--l", "1", "--emit", "config"]


def _pg_huge_prime(tmp):
    # q = 2^31 - 1 is prime; trial division to q itself would run for minutes
    return ["pg", "--k", "2", "--q", "2147483647", "--l", "1"]


def _simulate_negative_seed(tmp):
    path = tmp / "rm.css"
    path.write_text("decoder: reed 4 1\n")
    return ["simulate", "--css", str(path), "--p", "0.01", "--trials", "10", "--seed", "-1"]


@pytest.mark.parametrize("make_argv", [
    _css_without_g1,
    _bch_with_one_argument,
    _bch_of_length_one,
    _bch_of("0x135E"),
    _bch_of("0x0"),
    _bch_negative_in_css_file,
    _missing_input,
    _concat_with_outer("3 1\n1 1 zz\n"),
    _concat_with_outer("3\n1 1 1\n"),
    _pg_too_large,
    _pg_huge_prime,
    _simulate_negative_seed,
], ids=["css-no-g1", "bch-one-arg", "bch-length-one", "bch-not-generator", "bch-zero",
        "bch-negative", "missing-file", "outer-non-hex",
        "outer-short-header", "pg-too-large", "pg-huge-prime", "negative-seed"])
def test_malformed_input_is_an_error_line(tmp_path, capsys, make_argv):
    code = main(make_argv(tmp_path))
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "Traceback" not in err


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32), st.booleans())
def test_lookup_css_file_roundtrip(seed, separate_c2):
    rng = random.Random(seed)
    n = rng.randrange(4, 16)
    c1 = random_self_orthogonal_code(n, rng.randrange(1, n // 4 + 2), rng)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "c1.code").write_text(c1.to_text())
        argv = ["css-build", "--decoder", "lookup", "--c1", str(tmp / "c1.code")]
        c2 = c1
        if separate_c2:  # any subcode of the self-orthogonal c1 lies in its dual
            c2 = LinearCode(BitMatrix(n, c1.generator.row_bits()[: rng.randrange(1, c1.k + 1)]))
            (tmp / "c2.code").write_text(c2.to_text())
            argv += ["--c2", str(tmp / "c2.code")]
        assert main(argv + ["--out", str(tmp / "c.css")]) == 0
        css = load_css(str(tmp / "c.css"))
    assert css.c1.same_code(c1) and css.c2.same_code(c2)
    assert css.parameters()[:2] == (n, n - c1.k - c2.k)


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 4).flatmap(lambda m: st.tuples(
    st.just(m),
    st.integers(1, 6).flatmap(lambda n: st.lists(
        st.lists(st.integers(0, (1 << m) - 1), min_size=n, max_size=n), max_size=5,
    )),
)))
def test_outer_code_file_roundtrip(case):
    m, rows = case
    n = len(rows[0]) if rows else 3
    text = f"{n} {len(rows)}\n" + "".join(" ".join(f"{s:x}" for s in row) + "\n" for row in rows)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "outer.txt"
        path.write_text(text)
        outer = _load_outer(str(path), m)
    assert (outer.n, outer.rows, outer.field.m) == (n, tuple(map(tuple, rows)), m)


def test_lookup_file_with_one_code_builds_one_table(tmp_path, monkeypatch):
    # the [[47,27,4]] construction-X code, written with G1 == G2
    c1 = bch.bch_generator(31, 1, 3).to_code().dual()
    c2 = bch.bch_generator(31, 1, 5).to_code().dual()
    code = constructions.construction_x(c1, c2, reedmuller.rm_generator(4, 1).code).code
    matrix = code.generator.to_text().rstrip("\n")
    path = tmp_path / "lookup47.css"
    path.write_text(f"n: 47\nquantum-k: 27\ndecoder: lookup\nG1\n{matrix}\nG2\n{matrix}\n")
    built = []
    real = LookupDecoder
    monkeypatch.setattr(
        "qcss.css.LookupDecoder", lambda parity, *args: built.append(parity) or real(parity, *args)
    )
    css = load_css(str(path))
    assert len(built) == 1
    assert css.decoder1 is css.decoder2
    assert css.parameters()[:2] == (47, 27)


def test_verify_tables_budget_reaches_both_tables(monkeypatch, capsys):
    """Without --budget each table keeps its own default; with it both get it."""
    from qcss import tables

    calls, returned = [], []

    def fake(name):
        def verify(*args, **kw):
            calls.append((name, args, kw))
            returned.append([tables.RowReport(label=name)])
            return returned[-1]
        return verify

    for name in ("verify_table1", "verify_table2"):
        monkeypatch.setattr(tables, name, fake(name))
    for table in ("1", "2"):
        assert main(["verify-tables", "--table", table]) == 0
        assert main(["verify-tables", "--table", table, "--budget", "2^29"]) == 0
    assert calls == [
        ("verify_table1", (), {}),
        ("verify_table1", (), {"budget": 1 << 29}),
        ("verify_table2", (), {}),
        ("verify_table2", (), {"budget": 1 << 29}),
    ]
    # the parity-extended family reads the Table-1 reports of the same run
    monkeypatch.setattr(tables, "verify_extended_table1", fake("verify_extended_table1"))
    calls.clear()
    returned.clear()
    assert main(["verify-tables", "--budget", "2^20"]) == 0
    assert calls == [
        ("verify_table1", (), {"budget": 1 << 20}),
        ("verify_table2", (), {"budget": 1 << 20}),
        ("verify_extended_table1", (returned[0],), {}),
    ]
    assert calls[2][1][0] is returned[0]


# sha256 of the whole `verify-tables --json` report, with every row's
# "seconds" deleted, as json.dumps(report, indent=2) writes it
REPORT_DIGESTS = {
    "default": "b1326aa4da3ded8b763a3398f1a824ccf2bd14f382f42eec592628d0611388c7",
    "2^23": "ddda7d6e492b0e2841c7ea4a37a088c044b991263e6f766b2f8f763ad5cd1ae7",
}


@pytest.mark.parametrize("budget", list(REPORT_DIGESTS))
def test_verify_tables_json_report_is_pinned(budget, tmp_path, capsys):
    path = tmp_path / "tables.json"
    flags = [] if budget == "default" else ["--budget", budget]
    assert main(["verify-tables", *flags, "--json", str(path)]) == 0
    report = json.loads(path.read_text())
    for rows in report.values():
        for row in rows:
            del row["seconds"]
    digest = hashlib.sha256(json.dumps(report, indent=2).encode()).hexdigest()
    assert digest == REPORT_DIGESTS[budget]


def test_verify_tables_prints_an_extended_row_that_is_not_self_orthogonal(monkeypatch, capsys):
    from qcss import tables

    # x^4 + x + 1 generates the [15,11] Hamming code, which is not self-orthogonal
    monkeypatch.setattr(tables, "TABLE1_ROWS", ((15, 7, 3, 0x13),))
    monkeypatch.setattr(tables, "verify_table2", lambda **kw: [])
    code = main(["verify-tables"])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    lines = captured.out.splitlines()
    at = lines.index("table 1 parity-extended family")
    assert lines[at + 1].startswith("  FAIL  extended [[15,7,3]] -> n=16 ")
    assert "failed: self_orthogonal skipped: dimensions,dual_distance_at_least_d" in lines[at + 1]
    assert lines[at + 2] == "  0/1 rows pass"


@pytest.mark.parametrize(
    "budget", ["-3", "2^100000000000000000000", "2^1025", "2^-1", "2^x", "1.5", ""]
)
def test_budget_refuses_anything_but_a_count_or_a_power_of_two(budget, monkeypatch, capsys):
    from qcss import tables

    calls = []
    for name in ("verify_table1", "verify_table2", "verify_extended_table1"):
        monkeypatch.setattr(tables, name, lambda *args, **kw: calls.append((args, kw)) or [])
    for argv in (["verify-tables", "--table", "1"], ["spectrum", "--code", "missing.code"]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--budget", budget])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "Traceback" not in err
        assert "non-negative integer or 2^e" in err
    assert calls == []


def test_budget_parses_counts_and_powers_of_two():
    assert _parse_budget("0") == 0
    assert _parse_budget("1234") == 1234
    assert _parse_budget("2^0") == 1
    assert _parse_budget("2^29") == 1 << 29
    assert _parse_budget("2^1024") == 1 << 1024


def _css_file(tmp, argv):
    path = tmp / "made.css"
    assert main(["css-build", *argv, "--out", str(path)]) == 0
    return path


def _reed_file(tmp):
    return _css_file(tmp, ["--decoder", "reed", "--decoder-args", "4", "1"])


def _steane_file(tmp):
    from qcss.named import steane_component

    src = tmp / "steane.code"
    src.write_text(steane_component().to_text())
    return _css_file(tmp, ["--decoder", "lookup", "--c1", str(src)])


def _with_block(path, label, code):
    """The file with the matrix block after `label` replaced by `code`'s."""
    lines = path.read_text().splitlines()
    i = lines.index(label)
    end = i + 2 + int(lines[i + 1].split()[0])
    lines[i + 1 : end] = code.generator.to_text().splitlines()
    path.write_text("\n".join(lines) + "\n")
    return path


def _replaced(make, old, new):
    def tamper(tmp):
        path = make(tmp)
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new))
        return path
    return tamper


def _reed_with_other_g1(tmp):
    return _with_block(_reed_file(tmp), "G1", reedmuller.rm_generator(4, 0).code)


def _reed_without_g2(tmp):
    path = _reed_file(tmp)
    text = path.read_text()
    path.write_text(text[: text.index("G2\n")])
    return path


@pytest.mark.parametrize("tamper", [
    _replaced(_reed_file, "n: 16\n", "n: 99\n"),
    _replaced(_reed_file, "quantum-k: 6\n", "quantum-k: 7\n"),
    _reed_with_other_g1,
    _reed_without_g2,
    _replaced(_steane_file, "n: 7\n", "n: 9\n"),
    _replaced(_steane_file, "quantum-k: 1\n", "quantum-k: 3\n"),
], ids=["reed-n", "reed-quantum-k", "reed-other-g1", "reed-g1-without-g2", "lookup-n",
        "lookup-quantum-k"])
def test_css_file_that_describes_another_code_is_an_error_line(tmp_path, capsys, tamper):
    path = tamper(tmp_path)
    capsys.readouterr()
    code = main(["simulate", "--css", str(path), "--p", "0.01", "--trials", "10"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith(f"error: {path}: ") and "Traceback" not in captured.err


def test_css_file_may_give_another_basis_of_its_codes(tmp_path):
    path = _reed_file(tmp_path)
    rows = reedmuller.rm_generator(4, 1).code.generator.row_bits()
    other = LinearCode(BitMatrix(16, [rows[0] ^ rows[1], *rows[1:]][::-1]))
    _with_block(_with_block(path, "G1", other), "G2", other)
    assert load_css(str(path)).parameters() == (16, 6, 4)
    assert load_css(str(_steane_file(tmp_path))).parameters()[:2] == (7, 1)


def _writes(tmp, monkeypatch):
    """One command per CLI write, each with the output under a missing directory."""
    from qcss import tables

    src = tmp / "ext.code"
    src.write_text(extended_hamming_8().to_text())
    css = _reed_file(tmp)
    monkeypatch.setattr(tables, "verify_table1", lambda **kw: [])
    bad = str(tmp / "absent" / "out")
    return {
        "construct": ["construct", "shorten", "--in", str(src), "--out", bad],
        "css-build": ["css-build", "--decoder", "reed", "--decoder-args", "4", "1", "--out", bad],
        "simulate": ["simulate", "--css", str(css), "--p", "0.01", "--trials", "10", "--csv", bad],
        "spectrum": ["spectrum", "--code", str(src), "--out", bad],
        "verify-tables": ["verify-tables", "--table", "1", "--json", bad],
    }


@pytest.mark.parametrize("command", ["construct", "css-build", "simulate", "spectrum",
                                     "verify-tables"])
def test_write_to_a_missing_directory_is_an_error_line(tmp_path, capsys, monkeypatch, command):
    argv = _writes(tmp_path, monkeypatch)[command]
    capsys.readouterr()
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: cannot write {tmp_path / 'absent' / 'out'}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["bch-search", "--n", "1000000000000000003"],
        ["css-build", "--decoder", "bch", "--decoder-args", "1000000000000000003", "0x3"],
        ["rm", "--m", "40", "--r", "1"],
        ["css-build", "--decoder", "reed", "--decoder-args", "40", "1"],
    ],
    ids=["bch-search", "css-build-bch", "rm", "css-build-reed"],
)
def test_infeasible_requests_are_refused_at_once(argv, tmp_path, capsys):
    if argv[0] == "css-build":
        argv = [*argv, "--out", str(tmp_path / "x.css")]
    start = time.perf_counter()
    assert main(argv) == 1
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert not captured.out and not (tmp_path / "x.css").exists()
