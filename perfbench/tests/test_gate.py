"""The correctness gate passes on true outputs and fails on planted wrong ones."""
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads
from meter import Meter
from qcss import channel, constructions, tables
from workloads import Outcome


class FlipOneBit:
    """A classical decoder that returns its inner decoder's answer with one
    bit flipped."""

    def __init__(self, inner):
        self.inner = inner
        self.radius = inner.radius

    def decode_word(self, bits):
        return self.inner.decode_word(bits) ^ 1


@pytest.fixture(scope="module")
def sim(tmp_path_factory):
    wl = workloads.Simulate(tmp_path_factory.mktemp("work"))
    return wl, wl.setup(5)


def test_simulate_gate_passes_on_the_real_decoders(sim):
    wl, state = sim
    outcome = Outcome()
    wl.gate(state, wl.run(state, Meter(), 0, plan=1), outcome)
    assert outcome.failed == 0, outcome.problems
    assert outcome.attempted > sum(e.chunk for e in workloads.ENTRIES)


def test_simulate_gate_fails_on_a_decoder_that_flips_one_bit(sim):
    wl, state = sim
    rm16 = state.codes["rm16"]
    good = rm16.decoder1
    rm16.decoder1 = FlipOneBit(good)
    try:
        rng = random.Random(1)
        verdicts = [workloads.within_radius_check(rm16, 1, rng)[0] for _ in range(20)]
        outcome = Outcome()
        wl.gate(state, wl.run(state, Meter(), 0, plan=1), outcome)
    finally:
        rm16.decoder1 = good
    assert not all(verdicts)
    assert outcome.failed > 0
    assert any("rm16" in p for p in outcome.problems)


def test_simulate_gate_fails_when_failures_exceed_the_union_bound(sim):
    wl, state = sim
    result = wl.run(state, Meter(), 0, plan=1)
    e = workloads.ENTRIES[0]
    dt, reps, trivial = result[e.name][0]
    all_failed = channel.TrialReport(
        trials=reps[0].trials, successes=0, decode_failures=reps[0].trials, logical_errors=0,
        seed=reps[0].seed, channel=reps[0].channel,
    )
    result[e.name][0] = (dt, [all_failed] * len(reps), trivial)
    outcome = Outcome()
    wl.gate(state, result, outcome)
    assert outcome.failed == 1
    assert "failure+logical share" in outcome.problems[0]


def test_binomial_tail_matches_direct_sums():
    from math import comb

    for trials, k, p in ((20, 3, 0.05), (50, 0, 0.1), (30, 30, 0.5), (2400, 5, 4.8e-4)):
        below = sum(comb(trials, j) * p**j * (1 - p) ** (trials - j) for j in range(k))
        assert workloads.binomial_tail(trials, k, p) == pytest.approx(1 - below, rel=1e-9)
    # a correct decoder at the bound passes; one failing 4x as often does not
    assert workloads.binomial_tail(2400, 5, 4.8e-4) > workloads.FALSE_ALARM
    assert workloads.binomial_tail(2400, 20, 4.8e-4) < workloads.FALSE_ALARM


def _table2_row(label):
    return next(r for r in tables.TABLE2_ROWS if r[0] == label)


def test_certify_gate_fails_on_a_wrong_expected_distance():
    row = _table2_row("PG(2,2) 1-sp.")
    good = workloads.Row(2, row)
    assert workloads.row_verdict(good, tables.verify_table2(rows=[row])[0])[0]
    wrong = row[:6] + (row[6] + 2,) + row[7:]  # tabulated d off by two
    bad = workloads.Row(2, wrong)
    assert not workloads.row_verdict(bad, tables.verify_table2(rows=[wrong])[0])[0]


def test_certify_gate_fails_on_a_wrong_table1_distance():
    n, kq, d, g = tables.TABLE1_ROWS[0]
    row = (n, kq, d + 2, g)
    rep = tables.verify_table1_row(row)
    assert not workloads.row_verdict(workloads.Row(1, row), rep)[0]


def test_certify_gate_rejects_a_skipped_check():
    row = next(r for r in tables.TABLE1_ROWS if r[:3] == (89, 23, 9))
    rep = tables.verify_table1_row(row)
    assert rep.passed  # a skipped check does not fail the row ...
    assert not workloads.row_verdict(workloads.Row(1, row), rep)[0]  # ... but fails the gate


@pytest.fixture(scope="module")
def con():
    wl = workloads.Construct()
    return wl, wl.setup(3)


def test_construct_stream_covers_every_kind_and_passes(con):
    wl, state = con
    assert {op.kind for op in state.pool} == set(workloads.STREAM_KINDS)
    for op in state.pool[: 2 * len(workloads.STREAM_KINDS)]:
        assert workloads.run_op(op) == [], op


def test_construct_gate_fails_on_a_wrong_theorem_prediction(con, monkeypatch):
    _, state = con
    real = constructions.plotkin

    def plotkin_off_by_one(c1, c2):
        rep = real(c1, c2)
        return constructions.ConstructionReport(
            code=rep.code,
            predicted_n=rep.predicted_n,
            predicted_k=rep.predicted_k + 1,
            predicted_dual_distance=rep.predicted_dual_distance,
        )

    monkeypatch.setattr(constructions, "plotkin", plotkin_off_by_one)
    op = next(op for op in state.pool if op.kind == "plotkin")
    assert workloads.run_op(op)


def test_construct_gate_fails_when_the_search_misses_a_table_row(con):
    wl, state = con
    result = {"hits": {63: []}, "ops": 0, "failures": []}
    outcome = Outcome()
    wl.gate(state, result, outcome)
    assert outcome.failed == 1 + sum(1 for r in tables.TABLE1_ROWS if r[0] == 63)


def test_run_exits_nonzero_without_a_package(tmp_path):
    bench = Path(__file__).resolve().parents[1]
    shutil.copytree(bench, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "simulate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
