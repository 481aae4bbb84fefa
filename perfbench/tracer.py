"""In-memory spans around the public functions of each qcss layer.

A span has a name, a start, an end, a parent span and a trace id.  Spans are
appended to flat arrays while the traced pass runs and summarised (or saved)
only at the end, so recording costs one append per field.  Self time is a
span's duration minus the part of it that its child spans cover.
"""
from __future__ import annotations

import importlib
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.trace = array("q")
        self.trace_id = 0
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.scans: list[tuple[int, int, int]] = []
        self._stack: list[int] = []

    def new_trace(self) -> None:
        self.trace_id += 1

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def record(self, name: str, start: float, end: float, parent: int = -1, trace: int = 0) -> int:
        """Append a finished span; used by tests to build synthetic trees."""
        idx = len(self.start)
        self.name_id.append(self.intern(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.trace.append(trace)
        return idx

    def wrap(self, fn, name: str, before=None, after=None, fails: tuple = ()):
        """`fn` recording one span per call.

        `before(args)` runs ahead of the span and `after(args, result)` after
        it, outside the measured interval; exceptions in `fails` are counted
        under `<name>.failures` and re-raised.
        """
        nid = self.intern(name)
        stack = self._stack
        starts, ends, parents, traces, names = (
            self.start, self.end, self.parent, self.trace, self.name_id
        )
        counters = self.counters
        fail_key = name + ".failures"
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            traces.append(self.trace_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except fails:
                counters[fail_key] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if after is not None:
                after(args, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- summaries ---------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "trace": np.frombuffer(self.trace, dtype=np.int64).copy(),
        }

    def summary(self):
        """(name -> (calls, total s, self s), the span arrays, self times)."""
        a = self.arrays()
        selfs = self_times(a["start"], a["end"], a["parent"])
        k = len(self.names)
        calls = np.bincount(a["name_id"], minlength=k)
        total = np.bincount(a["name_id"], weights=a["end"] - a["start"], minlength=k)
        own = np.bincount(a["name_id"], weights=selfs, minlength=k)
        spans = {
            name: (int(calls[i]), float(total[i]), float(own[i]))
            for i, name in enumerate(self.names)
        }
        return spans, a, selfs

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the union of its children's intervals,
    with every child interval clipped to its parent's."""
    start, end, parent = (np.asarray(a).tolist() for a in (start, end, parent))
    n = len(start)
    covered = [0.0] * n
    reach: dict[int, float] = {}
    # children must be visited in start order within each parent; spans
    # recorded by one thread already are, synthetic trees may not be
    order = range(n)
    if any(start[i] > start[i + 1] for i in range(n - 1)):
        order = sorted(range(n), key=start.__getitem__)
    for i in order:
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], start[p], reach.get(p, start[p]))
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return np.asarray(end) - np.asarray(start) - np.asarray(covered)


# -- instrumentation of the qcss layers ---------------------------------------

QCSS_MODULES = (
    "qcss", "qcss.gf2", "qcss.codes", "qcss.bch", "qcss.reedmuller", "qcss.projgeom",
    "qcss.css", "qcss.channel", "qcss.constructions", "qcss.tables", "qcss.cli",
)

CONSTRUCTIONS = (
    "plotkin", "product", "triple_sum", "nebe", "shorten", "augment",
    "construction_x", "construction_y1",
)


class Instrumentation:
    """Replaces layer-boundary functions with span-recording wrappers.

    Module functions are replaced in every qcss module that imported them by
    name, so calls between layers are seen as well as calls from the
    benchmark.  `restore()` puts the originals back.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []
        self.mods = {m: importlib.import_module(m) for m in QCSS_MODULES}

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def function(self, module: str, attr: str, name: str, **hooks) -> None:
        original = getattr(self.mods[module], attr)
        traced = self.tracer.wrap(original, name, **hooks)
        for mod in self.mods.values():
            if mod.__dict__.get(attr) is original:
                self._set(mod, attr, traced)

    def method(self, module: str, cls: str, attr: str, name: str, **hooks) -> None:
        owner = getattr(self.mods[module], cls)
        self._set(owner, attr, self.tracer.wrap(owner.__dict__[attr], name, **hooks))

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def instrument(tracer: Tracer) -> Instrumentation:
    """Wrap the public function at every layer boundary the benchmark reads."""
    from qcss.errors import DecodingFailure

    inst = Instrumentation(tracer)
    c = tracer.counters

    inst.function("qcss.gf2", "rref", "gf2.rref")
    inst.function("qcss.gf2", "nullspace_basis", "gf2.nullspace_basis")
    inst.function("qcss.gf2", "in_rowspace", "gf2.in_rowspace")

    # A cached enumerator comes back without a scan.  Real scans are listed
    # as (span index, k, n) so that their rates can be split by row width.
    codes_cls = inst.mods["qcss.codes"].LinearCode
    traced_scan = tracer.wrap(codes_cls.__dict__["weight_enumerator"], "codes.scan")

    def weight_enumerator(self, *args, **kwargs):
        scanned = self._enumerator is None
        idx = len(tracer.start)
        out = traced_scan(self, *args, **kwargs)
        if scanned:
            tracer.scans.append((idx, self.k, self.n))
        return out

    inst._set(codes_cls, "weight_enumerator", weight_enumerator)

    def split_after(args, out):
        c["codes.split.patterns"] += out.patterns_scanned

    inst.method("qcss.codes", "LinearCode", "min_distance_split", "codes.split", after=split_after)
    inst.function("qcss.codes", "macwilliams", "codes.macwilliams")

    def search_after(args, out):
        c["bch.search.hits"] += len(out)

    inst.function("qcss.bch", "search_self_orthogonal_bch", "bch.search", after=search_after)
    inst.function("qcss.bch", "bm_decode", "bch.bm_decode", fails=(DecodingFailure,))
    inst.method("qcss.bch", "BchDecoder", "decode_word", "bch.decode_word")
    inst.method("qcss.reedmuller", "ReedDecoder", "decode_word", "reedmuller.decode",
                fails=(DecodingFailure,))
    inst.function("qcss.projgeom", "enumerate_spaces", "projgeom.enumerate")
    inst.method("qcss.projgeom", "RudolphDecoder", "decode_word", "projgeom.rudolph",
                fails=(DecodingFailure,))

    inst.method("qcss.css", "CssCode", "syndrome", "css.syndrome")

    def decode_before(args):
        if args[1].is_zero():
            c["css.decode.trivial"] += 1

    inst.method("qcss.css", "CssCode", "decode", "css.decode", before=decode_before)
    inst.method("qcss.css", "CssCode", "residual_is_logical", "css.residual")
    inst.method("qcss.css", "LookupDecoder", "decode_word", "css.lookup",
                fails=(DecodingFailure,))
    inst.method("qcss.css", "LookupDecoder", "__init__", "css.lookup.build")

    # each sampled error starts the trace of one trial
    inst.function("qcss.channel", "sample_error", "channel.sample",
                  before=lambda args: tracer.new_trace())
    inst.function("qcss.channel", "monte_carlo", "channel.monte_carlo")

    for fn in CONSTRUCTIONS:
        inst.function("qcss.constructions", fn, "constructions.build")
    inst.method("qcss.constructions", "ConstructionReport", "verify", "constructions.verify")

    inst.function("qcss.tables", "verify_table1_row", "tables.row")
    inst.function("qcss.tables", "verify_table2", "tables.row")
    inst.function("qcss.cli", "load_css", "cli.load_css")
    return inst

