"""Per-layer metrics of a traced run.

Every workload reports every name in `PER_LAYER`; a layer that a workload
never calls reports 0.  Times and counts come from the traced pass, except
these, which come from untraced runs: the `tables.*` times, the per-entry
trial rates, decode-failure and logical shares, and `channel.w2_speedup`.
"""
from __future__ import annotations

from workloads import ENTRIES, certify_rows

PER_LAYER: list[tuple[str, str]] = [
    ("gf2.rref.calls", "count"),
    ("gf2.rref.self_s", "s"),
    ("gf2.nullspace_basis.calls", "count"),
    ("gf2.nullspace_basis.self_s", "s"),
    ("gf2.in_rowspace.us_per_call", "us"),
    ("codes.scan.calls", "count"),
    ("codes.scan.words", "count"),
    ("codes.scan.self_s", "s"),
    ("codes.scan.w1.mwords_per_s", "Mword/s"),
    ("codes.scan.w2.mwords_per_s", "Mword/s"),
    ("codes.scan.us_per_small_call", "us"),
    ("codes.split.patterns", "count"),
    ("codes.split.self_s", "s"),
    ("codes.split.mpatterns_per_s", "Mpattern/s"),
    ("codes.macwilliams.calls", "count"),
    ("codes.macwilliams.self_s", "s"),
    ("bch.search.calls", "count"),
    ("bch.search.self_s", "s"),
    ("bch.search.hits", "count"),
    ("bch.bm_decode.us_per_call", "us"),
    ("bch.bm_decode.failures", "count"),
    ("reedmuller.decode.us_per_call", "us"),
    ("reedmuller.decode.failures", "count"),
    ("projgeom.enumerate.self_s", "s"),
    ("projgeom.rudolph.us_per_call", "us"),
    ("projgeom.rudolph.failures", "count"),
    ("css.syndrome.us_per_call", "us"),
    ("css.decode.self_us_per_call", "us"),
    ("css.residual.us_per_call", "us"),
    ("css.lookup.us_per_call", "us"),
    ("css.lookup.build_s", "s"),
    ("channel.sample.us_per_call", "us"),
    ("channel.trial.self_us", "us"),
    ("channel.w2_speedup", "ratio"),
]
for _e in ENTRIES:
    PER_LAYER += [
        (f"channel.{_e.name}.trials", "count"),
        (f"channel.{_e.name}.trials_per_s", "1/s"),
        (f"channel.{_e.name}.trivial_share", "share"),
        (f"channel.{_e.name}.decode_failure_share", "share"),
        (f"channel.{_e.name}.logical_share", "share"),
        (f"channel.{_e.name}.trace_overhead_share", "share"),
    ]
PER_LAYER += [
    ("constructions.build.self_s", "s"),
    ("constructions.verify.self_s", "s"),
    ("tables.table1_s", "s"),
    ("tables.table2_s", "s"),
]
PER_LAYER += [(f"tables.row_s.{r.name}", "s") for r in certify_rows()]
PER_LAYER += [("trace.overhead_share", "share")]


def _per_call_us(calls: int, seconds: float) -> float:
    return 1e6 * seconds / calls if calls else 0.0


def _rate(count: float, seconds: float) -> float:
    return count / seconds / 1e6 if seconds else 0.0


def layer_metrics(tracer) -> dict[str, float]:
    """Metrics read from the spans and counters of one traced pass."""
    c = tracer.counters
    spans, a, selfs = tracer.summary()

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return spans.get(name, (0, 0.0, 0.0))[2]

    # real scans only: a cached enumerator is a span but not a scan
    scan = {"w1": [0, 0.0], "w2": [0, 0.0]}
    small_calls, small_s, scan_self = 0, 0.0, 0.0
    for idx, k, n in tracer.scans:
        width = "w1" if n <= 64 else "w2"
        scan[width][0] += 1 << k
        scan[width][1] += selfs[idx]
        scan_self += selfs[idx]
        if k <= 12:
            small_calls += 1
            small_s += a["end"][idx] - a["start"][idx]

    return {
        "gf2.rref.calls": calls("gf2.rref"),
        "gf2.rref.self_s": own("gf2.rref"),
        "gf2.nullspace_basis.calls": calls("gf2.nullspace_basis"),
        "gf2.nullspace_basis.self_s": own("gf2.nullspace_basis"),
        "gf2.in_rowspace.us_per_call": _per_call_us(calls("gf2.in_rowspace"), total("gf2.in_rowspace")),
        "codes.scan.calls": len(tracer.scans),
        "codes.scan.words": scan["w1"][0] + scan["w2"][0],
        "codes.scan.self_s": scan_self,
        "codes.scan.w1.mwords_per_s": _rate(*scan["w1"]),
        "codes.scan.w2.mwords_per_s": _rate(*scan["w2"]),
        "codes.scan.us_per_small_call": _per_call_us(small_calls, small_s),
        "codes.split.patterns": c["codes.split.patterns"],
        "codes.split.self_s": own("codes.split"),
        "codes.split.mpatterns_per_s": _rate(c["codes.split.patterns"], own("codes.split")),
        "codes.macwilliams.calls": calls("codes.macwilliams"),
        "codes.macwilliams.self_s": own("codes.macwilliams"),
        "bch.search.calls": calls("bch.search"),
        "bch.search.self_s": own("bch.search"),
        "bch.search.hits": c["bch.search.hits"],
        "bch.bm_decode.us_per_call": _per_call_us(calls("bch.bm_decode"), total("bch.bm_decode")),
        "bch.bm_decode.failures": c["bch.bm_decode.failures"],
        "reedmuller.decode.us_per_call": _per_call_us(
            calls("reedmuller.decode"), total("reedmuller.decode")
        ),
        "reedmuller.decode.failures": c["reedmuller.decode.failures"],
        "projgeom.enumerate.self_s": own("projgeom.enumerate"),
        "projgeom.rudolph.us_per_call": _per_call_us(
            calls("projgeom.rudolph"), total("projgeom.rudolph")
        ),
        "projgeom.rudolph.failures": c["projgeom.rudolph.failures"],
        "css.syndrome.us_per_call": _per_call_us(calls("css.syndrome"), total("css.syndrome")),
        "css.decode.self_us_per_call": _per_call_us(calls("css.decode"), own("css.decode")),
        "css.residual.us_per_call": _per_call_us(calls("css.residual"), total("css.residual")),
        "css.lookup.us_per_call": _per_call_us(calls("css.lookup"), total("css.lookup")),
        "css.lookup.build_s": total("css.lookup.build"),
        "channel.sample.us_per_call": _per_call_us(calls("channel.sample"), total("channel.sample")),
        "channel.trial.self_us": _per_call_us(calls("channel.sample"), own("channel.monte_carlo")),
        "constructions.build.self_s": own("constructions.build"),
        "constructions.verify.self_s": own("constructions.verify"),
    }
