"""The benchmark's three workloads and their correctness gates.

Every workload is a closed loop with one caller: each operation starts when
the previous one returns.  A workload has a `setup(seed)` that generates its
inputs, a `run(state, meter, seconds, plan)` that times them through a
`meter.Meter`, and a `gate(state, result, outcome)` that checks every
output.  `plan` replays the exact operation list of an earlier run, so a
traced pass repeats the untraced one.

Kept out on purpose, so that later certification work does not read as a
slowdown:
- the five Table-1 rows certified only by the BCH bound ([[89,23,9]],
  [[93,13,11]], [[127,57,11]], [[127,43,13]], [[127,29,15]]): today their
  exact dual distance is skipped, and certifying them is planned work;
- `min-distance --split` on high-rate codes: the [89,56] dual runs for more
  than 600 s before the split search gives up;
- the Table-2 rows PG(6,2) 4-space (a 2^29 scan, 17 s) and PG(2,8) (a 2^28
  scan, 8 s), for run time only.  The [[127,71,9]] row keeps a 2^28
  two-word scan in the set.
"""
from __future__ import annotations

import math
import random
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from meter import REPEATS, clock
from qcss import bch, channel, cli, codes, constructions, css, reedmuller, tables
from qcss.codes import random_linear_code, random_self_orthogonal_code
from qcss.errors import QcssError
from qcss.gf2 import BitMatrix, BitVector, rref


@dataclass
class Outcome:
    """Operations attempted and failed, with a line per failure."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str, ops: int = 1) -> None:
        self.attempted += ops
        if not ok:
            self.failed += ops
            self.problems.append(what)


def median(values) -> float:
    return float(statistics.median(values))


def more(done: int, plan: int | None, minimum: int, t_end: float) -> bool:
    """Whether a measuring loop goes on: exactly `plan` repeats when one is
    given, else at least `minimum` and until the deadline."""
    if plan is not None:
        return done < plan
    return done < minimum or clock() < t_end


# -- certify ------------------------------------------------------------------
#
# Re-derives the reference rows through `tables`.  Nearly all of its time is
# spent in `codes`: the one-word spectrum scan (n <= 64), the two-word scan
# with a 2^28-word row, and the pivot/non-pivot split search that certifies
# the [128,64,16] row.  The rows are fixed reference data; the seed fixes
# the order of the small rows.

BOUND_ONLY_T1 = frozenset({(89, 23, 9), (93, 13, 11), (127, 57, 11), (127, 43, 13), (127, 29, 15)})
SLOW_T2 = frozenset({"PG(6,2) 4-sp.", "PG(2,8) 1-sp. [tabulated as PG(3,8)]"})
# the two-word scans of 2^28 and 2^25 words (they also pay the n = 127 and
# n = 93 searches); numpy scans this large are bound by memory traffic
KERNEL_T1 = frozenset({(127, 71, 9), (93, 43, 7)})
SPLIT_T2 = "PG(6,2) 3-sp."  # certified by the split search
SPLIT_WITNESS = 16
# the small rows take 1 to 200 ms, so the fastest of more repeats is needed
# to steady them; all of them together take about 0.8 s a repeat
SMALL_ROW_REPEATS = 7


@dataclass(frozen=True)
class Row:
    table: int
    row: tuple

    @property
    def name(self) -> str:
        if self.table == 1:
            n, kq, d, _ = self.row
            return f"t1_{n}_{kq}_{d}"
        _, gk, q, l = self.row[:4]
        return f"t2_pg{gk}_{q}_{l}"

    @property
    def kernel(self) -> bool:
        return (self.table == 1 and self.row[:3] in KERNEL_T1) or (
            self.table == 2 and self.row[0] == SPLIT_T2
        )


def certify_rows() -> list[Row]:
    rows = [Row(1, r) for r in tables.TABLE1_ROWS if r[:3] not in BOUND_ONLY_T1]
    rows += [Row(2, r) for r in tables.TABLE2_ROWS if r[0] not in SLOW_T2]
    return rows


class Certify:
    name = "certify"

    def setup(self, seed: int):
        rows = certify_rows()
        small = [r for r in rows if not r.kernel]
        random.Random(seed).shuffle(small)
        # the kernel rows go first so that the n = 127 and n = 93 searches
        # always land in them, whatever the order of the small rows
        return [r for r in rows if r.kernel] + small

    def run(self, rows, meter, seconds: float, plan: int | None = None, tracer=None):
        """Whole passes over the rows, at least one, until `seconds` pass
        (or exactly `plan` passes).  A small row is repeated on the same
        search cache; a kernel row (1 s to 30 s) runs once."""
        out = []
        t_end = clock() + seconds
        while more(len(out), plan, 1, t_end):
            searches: dict = {}
            done = []
            for r in rows:
                def verify(r=r, before=dict(searches)):
                    if tracer:
                        tracer.new_trace()
                    searches.clear()
                    searches.update(before)
                    if r.table == 1:
                        return tables.verify_table1_row(r.row, searches=searches)
                    return tables.verify_table2(rows=[r.row])[0]

                dt, reps = meter.time(verify, 1 if r.kernel else SMALL_ROW_REPEATS)
                done.append((r, dt, reps))
            out.append(done)
        return out

    def gate(self, state, result, outcome: Outcome) -> None:
        for done in result:
            for r, _, reps in done:
                for rep in reps:
                    outcome.check(*row_verdict(r, rep))

    def plan(self, result):
        return len(result)

    def end_to_end(self, result) -> dict[str, float]:
        kernel = [sum(dt for r, dt, _ in done if r.kernel) for done in result]
        rates = []
        for done in result:
            small = [dt for r, dt, _ in done if not r.kernel]
            rates.append(len(small) / sum(small))
        return {"kernel_s": median(kernel), "small_ops_per_s": median(rates)}

    def traced_parts(self, state, plain, traced) -> dict[str, float]:
        return {}

    def parts(self, result) -> dict[str, float]:
        out = {}
        for table in (1, 2):
            out[f"tables.table{table}_s"] = median(
                [sum(dt for r, dt, _ in done if r.table == table) for done in result]
            )
        for r, _, _ in result[0]:
            out[f"tables.row_s.{r.name}"] = median(
                [dt for done in result for rr, dt, _ in done if rr == r]
            )
        return out


def row_verdict(r: Row, rep) -> tuple[bool, str]:
    """Every check ran and passed; Table 2 distances equal the tabulated
    d and d_perp; the split row has a witness of weight 16."""
    if isinstance(rep, Exception):
        return False, f"{r.name}: raised {rep!r}"
    bad = [k for k, v in rep.checks.items() if v is not True]
    ok = not bad
    if r.table == 1:
        ok &= rep.checks.get("exact_dual_distance_at_least_d") is True
    else:
        ok &= rep.checks.get("distance") is True and rep.checks.get("dual_distance") is True
        if r.row[0] == SPLIT_T2:
            ok &= rep.values.get("split_witness") == SPLIT_WITNESS
    return ok, f"{r.name}: checks not passed: {bad or 'split witness'}"


# -- simulate -----------------------------------------------------------------
#
# `channel.monte_carlo` with workers=1 on five entries.  Small codes are
# dominated by per-trial overhead (about 85% of rm16 trials have a zero
# syndrome); large codes by the classical decoder.  A batching gain shows
# on the "small" entries and a decoder gain on the "kernel" entries, and
# each should leave the other group unchanged.  The codes are fixed; the
# seed generates every error.


@dataclass(frozen=True)
class Entry:
    name: str
    group: str  # "small": per-trial overhead; "kernel": decoder bound
    p: float
    chunk: int  # trials per monte_carlo call, about 0.1 s each
    distance: int


ENTRIES = (
    Entry("rm16", "small", 0.01, 2000, 4),
    Entry("lookup47", "small", 0.01, 1500, 4),
    Entry("pg74", "kernel", 0.01, 400, 10),
    Entry("bch127", "kernel", 0.01, 150, 11),
    Entry("bch127-hi", "kernel", 0.03, 100, 11),
)

MIN_ROUNDS = 5
RADIUS_CHECKS = 40
WORKER_SLICE = 200


def write_css_47(path: Path) -> None:
    """The [[47,27,4]] construction-X example as a lookup-decoded .css file."""
    c1 = bch.bch_generator(31, 1, 3).to_code().dual()
    c2 = bch.bch_generator(31, 1, 5).to_code().dual()
    c3 = reedmuller.rm_generator(4, 1).code
    code = constructions.construction_x(c1, c2, c3).code
    matrix = code.generator.to_text().rstrip("\n")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        f"n: {code.n}\nquantum-k: {code.n - 2 * code.k}\ndecoder: lookup\n"
        f"G1\n{matrix}\nG2\n{matrix}\n"
    )


def build_codes(work_dir: Path) -> dict[str, css.CssCode]:
    g127 = next(g for n, kq, d, g in tables.TABLE1_ROWS if (n, kq, d) == (127, 57, 11))
    spec = bch.spec_from_zero_set(127, bch.zero_set_of_polynomial(127, g127))
    bch127 = css.css_from_self_orthogonal_cyclic(spec, distance=11)
    path = work_dir / "lookup47.css"
    write_css_47(path)
    return {
        "rm16": css.css_from_reed_muller(4, 1),
        "lookup47": cli.load_css(str(path)),
        "pg74": css.css_from_projective_geometry(2, 8, 1, distance=10),
        "bch127": bch127,
        "bch127-hi": bch127,
    }


# what a derived stream is for: the measured chunks, the workers=1 versus
# workers=2 slices of the gate, the workers=2 speed-up
CHUNK, SLICE, SPEEDUP = range(3)


def chunk_seed(seed: int, purpose: int, entry: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, purpose, entry, index]).generate_state(1)[0])


@dataclass
class SimState:
    seed: int
    codes: dict[str, css.CssCode]


class Simulate:
    name = "simulate"

    def __init__(self, work_dir: Path):
        self.work_dir = work_dir

    def setup(self, seed: int) -> SimState:
        return SimState(seed, build_codes(self.work_dir))

    def run(self, state: SimState, meter, seconds: float, plan: int | None = None, tracer=None):
        """Rounds of one chunk per entry; returns per entry the records
        (scaled seconds, the report or exception of each repeat,
        zero-syndrome decodes the tracer saw over the repeats)."""
        out: dict[str, list] = {e.name: [] for e in ENTRIES}
        t_end = clock() + seconds
        r = 0
        while more(r, plan, MIN_ROUNDS, t_end):
            for i, e in enumerate(ENTRIES):
                ch = channel.ChannelSpec.depolarizing(e.p)
                seed = chunk_seed(state.seed, CHUNK, i, r)
                before = tracer.counters["css.decode.trivial"] if tracer else 0
                dt, reps = meter.time(lambda: channel.monte_carlo(
                    state.codes[e.name], ch, e.chunk, seed, workers=1
                ))
                trivial = tracer.counters["css.decode.trivial"] - before if tracer else 0
                out[e.name].append((dt, reps, trivial))
            r += 1
        return out

    def plan(self, result):
        return len(result[ENTRIES[0].name])

    def gate(self, state: SimState, result, outcome: Outcome) -> None:
        rng = random.Random(state.seed)
        for i, e in enumerate(ENTRIES):
            code = state.codes[e.name]
            totals = np.zeros(3, dtype=np.int64)
            for _, reps, _ in result[e.name]:
                rep = reps[0]
                if isinstance(rep, Exception):
                    outcome.check(False, f"{e.name}: monte_carlo raised {rep!r}", e.chunk)
                    continue
                counts = (rep.successes, rep.decode_failures, rep.logical_errors)
                outcome.check(sum(counts) == rep.trials == e.chunk,
                              f"{e.name}: trial counts do not add up", e.chunk)
                outcome.check(all(x == rep for x in reps[1:]),
                              f"{e.name}: a repeated chunk gave another report",
                              e.chunk * (len(reps) - 1))
                totals += counts
            trials = int(totals.sum())
            if trials:
                bad = int(totals[1] + totals[2])
                bound = union_bound(code.n, e.p, radius(code, e))
                outcome.check(binomial_tail(trials, bad, bound) >= FALSE_ALARM,
                              f"{e.name}: failure+logical share {bad / trials:.4g} is"
                              f" above the bound {bound:.4g} beyond sampling noise")
            for _ in range(RADIUS_CHECKS):
                outcome.check(*within_radius_check(code, radius(code, e), rng))
            ch = channel.ChannelSpec.depolarizing(e.p)
            s = chunk_seed(state.seed, SLICE, i, 0)
            try:
                same = channel.monte_carlo(code, ch, WORKER_SLICE, s, workers=1) == \
                    channel.monte_carlo(code, ch, WORKER_SLICE, s, workers=2)
            except QcssError:
                same = False
            outcome.check(same, f"{e.name}: workers=1 and workers=2 disagree")

    def end_to_end(self, result) -> dict[str, float]:
        """Totals over the whole run: the mean time of one round of the
        kernel entries, and trials per second on the small entries.  Sums
        average out how much work each seeded chunk happens to need, which
        a median over chunks does not."""
        def seconds(group):
            return sum(dt for e in ENTRIES if e.group == group for dt, _, _ in result[e.name])

        small_trials = sum(e.chunk * len(result[e.name]) for e in ENTRIES if e.group == "small")
        return {
            "kernel_s": seconds("kernel") / self.plan(result),
            "small_ops_per_s": small_trials / seconds("small"),
        }

    def parts(self, result) -> dict[str, float]:
        out = {}
        for e in ENTRIES:
            recs = [(dt, reps[0]) for dt, reps, _ in result[e.name]
                    if not isinstance(reps[0], Exception)]
            trials = sum(rep.trials for _, rep in recs)
            out[f"channel.{e.name}.trials"] = trials
            out[f"channel.{e.name}.trials_per_s"] = trials / sum(dt for dt, _ in recs)
            out[f"channel.{e.name}.decode_failure_share"] = (
                sum(rep.decode_failures for _, rep in recs) / trials
            )
            out[f"channel.{e.name}.logical_share"] = (
                sum(rep.logical_errors for _, rep in recs) / trials
            )
        return out

    def traced_parts(self, state: SimState, plain, traced) -> dict[str, float]:
        """Zero-syndrome share seen by the tracer, the tracing overhead of
        each entry (its traced stages' time over the untraced time), and the
        untraced workers=2 speed-up."""
        out = {"channel.w2_speedup": w2_speedup(state)}
        for e in ENTRIES:
            decodes = e.chunk * REPEATS * len(traced[e.name])
            out[f"channel.{e.name}.trivial_share"] = sum(t for _, _, t in traced[e.name]) / decodes
            out[f"channel.{e.name}.trace_overhead_share"] = (
                sum(dt for dt, _, _ in traced[e.name]) / sum(dt for dt, _, _ in plain[e.name]) - 1
            )
        return out


def w2_speedup(state: SimState, trials: int = 12000, repeats: int = 3) -> float:
    """rm16 trials/s with workers=2 over workers=1, untraced, alternating."""
    code = state.codes["rm16"]
    ch = channel.ChannelSpec.depolarizing(0.01)
    rates: dict[int, list[float]] = {1: [], 2: []}
    for r in range(repeats):
        for workers in (1, 2):
            t0 = clock()
            channel.monte_carlo(code, ch, trials, chunk_seed(state.seed, SPEEDUP, 0, r), workers=workers)
            rates[workers].append(trials / (clock() - t0))
    return median(rates[2]) / median(rates[1])


def radius(code: css.CssCode, e: Entry) -> int:
    """Guaranteed radius: the decoder's own, capped by the code distance."""
    return min(code.decoder1.radius, code.decoder2.radius, (e.distance - 1) // 2)


# A decoder that corrects every error within its radius t fails or errs
# only when a component's weight exceeds t, so the share of such trials is
# at most 2 * component_weight_bound(n, 2p/3, t).  For pg74 and bch127 the
# share sits right at that bound with a handful of events per run, where a
# 3-sigma normal margin is exceeded in a few runs in a hundred; the gate
# instead fails a count that a rate at the bound reaches less than once in
# 1e6.
FALSE_ALARM = 1e-6


def union_bound(n: int, p: float, t: int) -> float:
    return 2 * channel.component_weight_bound(n, 2 * p / 3, t)


def binomial_tail(trials: int, k: int, p: float) -> float:
    """P(X >= k) for X ~ Binomial(trials, p), summed from k upward."""
    if k <= 0:
        return 1.0
    if p <= 0:
        return 0.0
    log_p, log_q = math.log(p), math.log1p(-p)
    total = 0.0
    for j in range(k, trials + 1):
        term = math.exp(
            math.lgamma(trials + 1) - math.lgamma(j + 1) - math.lgamma(trials - j + 1)
            + j * log_p + (trials - j) * log_q
        )
        total += term
        if j > trials * p and term < total * 1e-17:
            break
    return min(total, 1.0)


def within_radius_check(code: css.CssCode, t: int, rng: random.Random) -> tuple[bool, str]:
    """A Pauli with at most t x-flips and t z-flips decodes to a stabilizer."""
    n = code.n
    x = sum(1 << q for q in rng.sample(range(n), rng.randint(0, t)))
    z = sum(1 << q for q in rng.sample(range(n), rng.randint(0, t)))
    err = css.PauliError(n, x, z)
    try:
        ok = not code.residual_is_logical(err, code.decode(code.syndrome(err)))
    except QcssError as exc:
        return False, f"[[{n}]] error {err} within radius {t}: {exc!r}"
    return ok, f"[[{n}]] error {err} within radius {t} decodes to a logical"


# -- construct ----------------------------------------------------------------
#
# Two parts.  The BCH self-orthogonal search over five lengths is bound by
# `bch` field arithmetic.  The report stream is many tiny calls into
# `constructions`, `gf2` elimination and small `codes` scans, each checked
# against its theorem oracle, so per-call overhead dominates: a kernel that
# is faster on big scans but dearer to set up shows here as a regression.
# The seed generates every input code.

SEARCH_LENGTHS = (63, 85, 93, 127, 255)
STREAM_KINDS = (
    "plotkin", "product", "triple_sum", "nebe", "shorten", "augment",
    "construction_x", "construction_y1", "macwilliams",
)
POOL_PER_KIND = 40
CHUNK_ROUNDS = 5  # a chunk is this many operations of each kind
MIN_CHUNKS = 20


@dataclass(frozen=True)
class Op:
    """One generated input: codes as (n, generator rows) plus plain args."""

    kind: str
    codes: tuple[tuple[int, tuple[int, ...]], ...]
    args: tuple = ()


def _rows(code: codes.LinearCode) -> tuple[int, tuple[int, ...]]:
    return code.n, tuple(code.generator.row_bits())


def _self_orthogonal_subcode(code: codes.LinearCode, k: int, rng) -> codes.LinearCode:
    """A random self-orthogonal k-dimensional subcode of `code`."""
    gens = code.generator.row_bits()
    while True:
        rows: list[int] = []
        for _ in range(200):
            if len(rows) == k:
                return codes.LinearCode(BitMatrix(code.n, rows))
            w = 0
            for g in gens:
                if rng.random() < 0.5:
                    w ^= g
            if not w or w.bit_count() & 1 or any((w & r).bit_count() & 1 for r in rows):
                continue
            if len(rref(BitMatrix(code.n, rows + [w]))[1]) == len(rows) + 1:
                rows.append(w)


def _mutually_orthogonal_pair(rng):
    n = rng.choice([6, 8, 10, 12])
    c1 = random_self_orthogonal_code(n, rng.randrange(1, n // 2), rng)
    dual = c1.dual()
    c2 = _self_orthogonal_subcode(dual, rng.randrange(1, min(c1.k, dual.k) + 1), rng)
    return c1, c2


def make_op(kind: str, rng: random.Random) -> Op:
    if kind in ("plotkin", "triple_sum"):
        return Op(kind, tuple(_rows(c) for c in _mutually_orthogonal_pair(rng)))
    if kind == "product":
        n1, n2 = rng.choice([4, 6, 8]), rng.choice([2, 3, 4])
        c1 = random_self_orthogonal_code(n1, rng.randrange(1, n1 // 2 + 1), rng)
        c2 = random_linear_code(n2, rng.randrange(1, n2 + 1), rng)
        return Op(kind, (_rows(c1), _rows(c2)))
    if kind == "nebe":
        n = rng.choice([4, 6, 8])
        k = rng.randrange(1, n // 2 + 1)
        m = rng.choice([1, 2, 3, 4])
        e = random_linear_code(m, rng.randrange(1, m + 1), rng)
        c, d = (random_self_orthogonal_code(n, k, rng) for _ in range(2))
        return Op(kind, (_rows(c), _rows(d), _rows(e)))
    if kind == "shorten":
        n = rng.choice([6, 8, 10, 12])
        c = random_self_orthogonal_code(n, rng.randrange(1, n // 2 + 1), rng)
        return Op(kind, (_rows(c),), (rng.randrange(n),))
    if kind == "augment":
        while True:
            n = rng.choice([6, 8, 10, 12])
            c = random_self_orthogonal_code(n, rng.randrange(1, n // 2), rng)
            if not c.contains(BitVector.ones(n)):
                return Op(kind, (_rows(c),))
    if kind == "construction_x":
        n = rng.choice([8, 10, 12, 14])
        c2 = random_self_orthogonal_code(n, rng.randrange(2, n // 2 + 1), rng)
        c1 = _self_orthogonal_subcode(c2, rng.randrange(1, c2.k), rng)
        k3 = c2.k - c1.k
        c3 = random_self_orthogonal_code(2 * k3 + rng.choice([2, 4]), k3, rng)
        return Op(kind, (_rows(c1), _rows(c2), _rows(c3)))
    if kind == "construction_y1":
        n = rng.choice([8, 10, 12])
        c = random_self_orthogonal_code(n, rng.randrange(1, n // 2 + 1), rng)
        return Op(kind, (_rows(c),))
    if kind == "macwilliams":
        n = rng.randrange(6, 21)
        c = random_linear_code(n, rng.randrange(n // 3, 2 * n // 3 + 1), rng)
        return Op(kind, (_rows(c),))
    raise ValueError(kind)


def run_op(op: Op) -> list[str]:
    """Build fresh codes, run the operation, and return its oracle's problems."""
    cs = [codes.LinearCode(BitMatrix(n, list(rows))) for n, rows in op.codes]
    if op.kind == "macwilliams":
        c = cs[0]
        via = codes.macwilliams(c.weight_enumerator(), c.n, c.k)
        direct = c.dual().weight_enumerator()
        return [] if via == direct else [f"MacWilliams {via} != direct {direct}"]
    return getattr(constructions, op.kind)(*cs, *op.args).verify()


@dataclass
class ConState:
    seed: int
    pool: list[Op]


class Construct:
    name = "construct"

    def setup(self, seed: int) -> ConState:
        rng = random.Random(seed)
        pool = [make_op(kind, rng) for _ in range(POOL_PER_KIND) for kind in STREAM_KINDS]
        return ConState(seed, pool)

    def run(self, state: ConState, meter, seconds: float, plan: int | None = None, tracer=None):
        """The search once, then chunks of the report stream until `seconds`
        have passed since the start (or exactly `plan` chunks)."""
        t_start = clock()
        hits, search_s = {}, 0.0
        for n in SEARCH_LENGTHS:
            dt, (hits[n],) = meter.time(lambda: bch.search_self_orthogonal_bch(n), 1)
            search_s += dt
        per_chunk = CHUNK_ROUNDS * len(STREAM_KINDS)
        times, failures, done = [], [], 0
        t_end = t_start + seconds
        i = 0
        while more(len(times), plan, MIN_CHUNKS, t_end):
            ops = [state.pool[(i + j) % len(state.pool)] for j in range(per_chunk)]
            i += per_chunk

            def chunk():
                bad = []
                for op in ops:
                    if tracer:
                        tracer.new_trace()
                    try:
                        problems = run_op(op)
                    except QcssError as exc:
                        problems = [repr(exc)]
                    if problems:
                        bad.append((op, problems))
                return bad

            dt, reps = meter.time(chunk)
            times.append(dt)
            done += per_chunk * len(reps)
            failures += [f for rep in reps for f in rep]
        return {"search_s": search_s, "hits": hits, "chunk_s": times, "ops": done,
                "failures": failures}

    def plan(self, result):
        return len(result["chunk_s"])

    def gate(self, state, result, outcome: Outcome) -> None:
        outcome.check(True, "", result["ops"] - len(result["failures"]))
        for op, problems in result["failures"]:
            outcome.check(False, f"{op.kind} {op.codes}: {problems}")
        for n, hits in result["hits"].items():
            if isinstance(hits, Exception):
                outcome.check(False, f"search at n={n} raised {hits!r}")
                continue
            outcome.check(bool(hits), f"search at n={n} found nothing")
            for rn, kq, d, g in tables.TABLE1_ROWS:
                if rn != n:
                    continue
                m = bch.match_polynomial_against_search(n, g, hits)
                outcome.check(
                    m is not None and m.hit.quantum_k == kq and m.hit.designed_distance >= d,
                    f"search at n={n} misses the [[{n},{kq},{d}]] generator 0x{g:X}",
                )

    def end_to_end(self, result) -> dict[str, float]:
        return {
            "kernel_s": result["search_s"],
            "small_ops_per_s": result["ops"] / REPEATS / sum(result["chunk_s"]),
        }

    def parts(self, result) -> dict[str, float]:
        return {}

    def traced_parts(self, state, plain, traced) -> dict[str, float]:
        return {}
