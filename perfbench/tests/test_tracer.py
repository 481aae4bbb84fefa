"""Span bookkeeping: self time, wrapping, and restoring the qcss layers."""
import json
from pathlib import Path

import numpy as np
import pytest

import layers
import workloads
from qcss import channel, codes, gf2, tables
from qcss.css import css_from_reed_muller
from qcss.errors import DecodingFailure
from tracer import Tracer, instrument, self_times


def test_self_time_subtracts_children():
    t = Tracer()
    root = t.record("root", 0.0, 10.0)
    a = t.record("a", 1.0, 4.0, root)
    t.record("a1", 2.0, 3.0, a)
    t.record("b", 5.0, 6.5, root)
    spans, _, selfs = t.summary()
    assert selfs.tolist() == pytest.approx([10.0 - 3.0 - 1.5, 3.0 - 1.0, 1.0, 1.5])
    assert spans["root"] == (1, 10.0, pytest.approx(5.5))


def test_self_time_counts_overlapping_children_once_and_clips_them():
    # children recorded out of order, overlapping each other and the
    # parent's end: covered time is the union [1, 5] + [7, 8]
    start = [0.0, 3.0, 1.0, 7.0]
    end = [8.0, 5.0, 4.0, 9.0]
    parent = [-1, 0, 0, 0]
    assert self_times(start, end, parent).tolist() == pytest.approx([8.0 - 4.0 - 1.0, 2.0, 3.0, 2.0])


def test_self_times_partition_the_root():
    rng = np.random.default_rng(7)
    t = Tracer()
    root = t.record("root", 0.0, 100.0)
    clock = 0.0
    for _ in range(50):
        s = clock + rng.random()
        e = s + rng.random()
        child = t.record("c", s, e, root)
        t.record("g", s + (e - s) / 4, e - (e - s) / 4, child)
        clock = e
    _, _, selfs = t.summary()
    assert selfs.sum() == pytest.approx(100.0)
    assert (selfs >= 0).all()


def test_wrap_records_nesting_and_failures():
    t = Tracer()

    def inner(x):
        if x < 0:
            raise DecodingFailure("beyond the radius")
        return x

    traced_inner = t.wrap(inner, "inner", fails=(DecodingFailure,))
    outer = t.wrap(lambda x: traced_inner(x) + 1, "outer")
    t.new_trace()
    assert outer(1) == 2
    with pytest.raises(DecodingFailure):
        outer(-1)
    a = t.arrays()
    assert [t.names[i] for i in a["name_id"]] == ["outer", "inner", "outer", "inner"]
    assert a["parent"].tolist() == [-1, 0, -1, 2]
    assert set(a["trace"].tolist()) == {1}
    assert t.counters["inner.failures"] == 1
    assert (a["end"] >= a["start"]).all()


def test_instrument_reaches_names_imported_across_modules_and_restores():
    original = gf2.rref
    t = Tracer()
    inst = instrument(t)
    try:
        assert codes.rref is not original and codes.rref is gf2.rref
        code = codes.LinearCode(gf2.BitMatrix(4, [0b0011, 0b1100]))
        code.weight_enumerator()
        code.weight_enumerator()  # cached: a span but not a scan
    finally:
        inst.restore()
    assert gf2.rref is original and codes.rref is original
    assert codes.LinearCode.weight_enumerator.__name__ == "weight_enumerator"
    m = layers.layer_metrics(t)
    assert m["gf2.rref.calls"] >= 1
    assert m["codes.scan.calls"] == 1 and m["codes.scan.words"] == 4


def test_traced_trials_share_one_trace_id_each():
    code = css_from_reed_muller(4, 1)
    t = Tracer()
    inst = instrument(t)
    try:
        channel.monte_carlo(code, channel.ChannelSpec.depolarizing(0.05), 20, seed=3, workers=1)
    finally:
        inst.restore()
    a = t.arrays()
    names = [t.names[i] for i in a["name_id"]]
    samples = [i for i, n in enumerate(names) if n == "channel.sample"]
    assert len(samples) == 20
    assert len({a["trace"][i] for i in samples}) == 20
    # every span after a sample, up to the next one, belongs to that trial
    for s, nxt in zip(samples, samples[1:] + [len(names)]):
        assert set(a["trace"][s:nxt].tolist()) == {a["trace"][s]}


def test_benchmark_json_declares_exactly_the_reported_metrics():
    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER
    import run

    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_certify_row_names_are_unique():
    names = [r.name for r in workloads.certify_rows()]
    assert len(names) == len(set(names)) == len(tables.TABLE1_ROWS) - 5 + len(tables.TABLE2_ROWS) - 2
