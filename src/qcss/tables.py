"""Verification harness for the bundled reference tables of cyclic-code and
projective-geometry CSS constructions.

Each row is re-derived from scratch and audited; a report carries one named
check per claim so that a single failing row pinpoints what broke.  Checks
that the caller's budget rules out, in the words or patterns each route
predicts, are recorded as skipped with a note, not passed.  Every
distance is a ``codes.Distance`` record, and a report's distance values
are read off it.  The extended family reads Table 1's reports.  A geometry
code's distances, for ``verify_table2`` and ``qcss pg`` alike, come from
one step, ``singer_distances``, which alone picks the orbit spectrum or
split search.
"""
from __future__ import annotations

import json
import time
from collections.abc import Sequence
from dataclasses import dataclass, field

from .bch import (
    CyclicCodeSpec,
    bch_bound,
    cyclic_weight_counts,
    dual_zero_set,
    is_self_orthogonal_cyclic,
    match_polynomial_against_search,
    orbit_scan,
    poly_deg,
    poly_divides,
    poly_gcd,
    search_self_orthogonal_bch,
    spec_from_zero_set,
    zero_set_of_polynomial,
)
from .codes import DEFAULT_BUDGET, Distance, LinearCode, appended_parity_counts, macwilliams
from .constructions import extend_parity_dual
from .errors import PreconditionError, ResourceLimit
from .gf2 import BitMatrix, bools_as_bytes, bytes_as_bools, bytes_as_ints, ints_as_bytes
from .projgeom import ProjGeometry, build_so_code, enumerate_spaces, singer_order
from .reedmuller import rm_generator

# (n, quantum dimension, distance, generator polynomial of the
# self-orthogonal code, hex)
TABLE1_ROWS: tuple[tuple[int, int, int, int], ...] = (
    (15, 7, 3, 0x9AF),
    (21, 9, 3, 0xA4CB),
    (21, 3, 5, 0x1A8F),
    (31, 1, 7, 0x147BF),
    (31, 11, 5, 0x32E8AB),
    (31, 21, 3, 0x6A45F67),
    (45, 13, 5, 0x3A23AD59),
    (51, 35, 3, 0xE326E7B34B1),
    (55, 15, 4, 0xDDD946DFD),
    (63, 51, 3, 0x3F566ED27179461),
    (63, 39, 5, 0xA35C93F631679),
    (63, 27, 7, 0x3320C9F34AF3),
    (85, 69, 3, 0x35ABEA2C24A198F4BB4D),
    (85, 53, 5, 0x3FECD96C8FA9F07243),
    (89, 23, 9, 0x1764DDCBD3B8989),
    (93, 73, 3, 0xEC77E31E49181E3F23EFB),
    (93, 63, 5, 0x703365A734791C2C4EAF),
    (93, 43, 7, 0x1A97E0808F8470F23D),
    (93, 13, 11, 0x3E3E4297282E6B),
    (127, 113, 3, 0x1BE0B087462729A5EBB8F32455B3FB5),
    (127, 99, 5, 0x3190488E5B884A8F2CBF766953B65),
    (127, 85, 7, 0x7B58F033D746D85D06A9F911B4B),
    (127, 71, 9, 0xE2053619F3BBDFFAD8BB92E3F),
    (127, 57, 11, 0x1363666EFD9347B31283796F),
    (127, 43, 13, 0x2612A3178A1AD1832FE6A5),
    (127, 29, 15, 0x73DFA983C0D3A089566B),
)

# (label, geometry dimension, field order, space rank,
#  n, k, d, d_perp, quantum_k, tabulated decoding radius t).  The last row is
# commonly tabulated as PG(3,8), but its 73 + 1 coordinates match the point
# count of the plane over GF(8); PG(3,8) would have 585 points.
TABLE2_ROWS: tuple[tuple[str, int, int, int, int, int, int, int, int, int], ...] = (
    ("PG(2,2) 1-sp.", 2, 2, 1, 8, 4, 4, 4, 0, 1),
    ("PG(3,2) 2-sp.", 3, 2, 2, 16, 5, 8, 4, 6, 1),
    ("PG(4,2) 2-sp.", 4, 2, 2, 32, 16, 8, 8, 0, 3),
    ("PG(4,2) 3-sp.", 4, 2, 3, 32, 6, 16, 4, 20, 1),
    ("PG(5,2) 3-sp.", 5, 2, 3, 64, 22, 16, 8, 20, 2),
    ("PG(5,2) 4-sp.", 5, 2, 4, 64, 7, 32, 4, 50, 1),
    ("PG(6,2) 3-sp.", 6, 2, 3, 128, 64, 16, 16, 0, 5),
    ("PG(6,2) 4-sp.", 6, 2, 4, 128, 29, 32, 8, 70, 2),
    ("PG(6,2) 5-sp.", 6, 2, 5, 128, 8, 64, 4, 112, 1),
    ("PG(2,4) 1-sp.", 2, 4, 1, 22, 10, 6, 6, 2, 2),
    ("PG(3,4) 2-sp.", 3, 4, 2, 86, 17, 22, 6, 52, 2),
    ("PG(2,8) 1-sp. [tabulated as PG(3,8)]", 2, 8, 1, 74, 28, 10, 10, 18, 4),
)

RM_EXPECTED: frozenset[tuple[int, int, int]] = frozenset(
    {(16, 6, 4), (32, 20, 4), (64, 50, 4), (64, 20, 8), (128, 112, 4), (128, 70, 8)}
)


@dataclass
class RowReport:
    label: str
    checks: dict[str, bool | None] = field(default_factory=dict)
    values: dict[str, object] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return all(v is not False for v in self.checks.values())

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        bad = [k for k, v in self.checks.items() if v is False]
        skipped = [k for k, v in self.checks.items() if v is None]
        extra = ""
        if bad:
            extra += " failed: " + ",".join(bad)
        if skipped:
            extra += " skipped: " + ",".join(skipped)
        return f"{status:4}  {self.label:34}{extra}  ({self.seconds:.1f}s)"


# Default budget of a Table-1 row's exact dual distance, in the words
# ``cyclic_weight_counts`` predicts.  It covers the 21 rows with k <= 28 (the
# largest scan, [[127,71,9]], visits 2,129,920 words), as perfbench's certify
# gate tests.  2^29 also covers [[89,23,9]] (96,518,144 words) and
# [[127,57,11]] (270,565,376 words), in about 2 s more.
TABLE1_BUDGET = 1 << 26


def _orbit_distances(
    spec: CyclicCodeSpec, budget: int, parity: bool = False
) -> tuple[Distance, Distance]:
    """The "orbit" records (d, d_perp) of a cyclic code, with a parity
    coordinate appended when ``parity``, from ``cyclic_weight_counts`` under
    ``budget``; both refused with its text when the planned words exceed it."""
    plan = orbit_scan(spec)
    try:
        enum = cyclic_weight_counts(spec, budget, plan)
    except ResourceLimit as exc:
        return (Distance("orbit", 1, patterns_predicted=plan.words, refusal=str(exc)),) * 2
    if parity:
        enum = appended_parity_counts(enum)
    d, d_perp = enum.min_distance(), macwilliams(enum, enum.n, spec.dimension).min_distance()
    return tuple(Distance("orbit", w, w, plan.words, plan.words) for w in (d, d_perp))


def verify_table1(budget: int = TABLE1_BUDGET) -> list[RowReport]:
    searches: dict[int, list] = {}
    return [verify_table1_row(row, budget, searches) for row in TABLE1_ROWS]


def verify_table1_row(
    row: tuple[int, int, int, int],
    budget: int = TABLE1_BUDGET,
    searches: dict[int, list] | None = None,
) -> RowReport:
    n, kq, d, g = row
    if searches is None:
        searches = {}
    t0 = time.perf_counter()
    rep = RowReport(label=f"[[{n},{kq},{d}]] 0x{g:X}")
    k = (n - kq) // 2
    rep.values["dimension"] = k
    rep.checks["divides_xn_plus_1"] = poly_divides(g, (1 << n) | 1)
    rep.checks["degree_matches_dimension"] = poly_deg(g) == n - k
    zeros = zero_set_of_polynomial(n, g)
    rep.checks["zero_set_complete"] = len(zeros) == poly_deg(g)
    spec = spec_from_zero_set(n, zeros)
    rep.checks["self_orthogonal"] = is_self_orthogonal_cyclic(spec)
    designed = bch_bound(dual_zero_set(spec), n)
    rep.values["designed_distance"] = designed
    rep.checks["designed_distance_at_least_d"] = designed >= d

    if n not in searches:
        searches[n] = search_self_orthogonal_bch(n)
    match = match_polynomial_against_search(n, g, searches[n])
    ok = (
        match is not None
        and match.hit.quantum_k == kq
        and match.hit.designed_distance >= d
    )
    rep.checks["search_reproduces_row"] = ok
    if match is not None:
        rep.values["search_unit"] = match.unit
        if match.unit == 1:
            rep.notes.append("hex reproduced verbatim by the default field")
        elif match.alternate_primitive_poly is not None:
            rep.notes.append(
                f"hex reproduced with primitive polynomial 0x{match.alternate_primitive_poly:X}"
            )
        else:
            rep.notes.append(f"matches the search after root relabeling by {match.unit}")

    if rep.checks["self_orthogonal"]:
        _, dual = _orbit_distances(spec, budget)
        rep.values["spectrum_words"] = dual.patterns_predicted
        if (exact := dual.exact) is None:
            rep.checks["exact_dual_distance_at_least_d"] = None
            rep.notes.append(f"{dual.refusal}; bound-certified only")
        else:
            rep.values["exact_dual_distance"] = exact
            rep.checks["exact_dual_distance_at_least_d"] = exact >= d
            if exact > d:
                rep.notes.append(
                    f"true dual distance is {exact}; the tabulated {d} is the designed value"
                )
    rep.seconds = time.perf_counter() - t0
    return rep


def verify_extended_table1(table1: Sequence[RowReport]) -> list[RowReport]:
    """The additional codes obtained by adding a parity bit to every row,
    each read against its report in ``table1`` from ``verify_table1``.

    The extended code of a self-orthogonal row C of odd length n is
    E = C|0 + 1 (``extend_parity_dual``).  A word x|b is orthogonal to C|0
    exactly when x is in C-perp, and to the all-ones word exactly when
    b = wt(x) mod 2, so E-perp is C-perp with each word's parity bit
    appended: its distance is d + d mod 2 for C-perp's d, skipped where
    Table 1 skipped d.  A row that is not self-orthogonal has no extended
    code: it fails ``self_orthogonal`` and leaves the other checks unrun."""
    reports = []
    for (n, kq, d, g), row in zip(TABLE1_ROWS, table1, strict=True):
        t0 = time.perf_counter()
        rep = RowReport(label=f"extended [[{n},{kq},{d}]] -> n={n + 1}")
        spec = spec_from_zero_set(n, zero_set_of_polynomial(n, g))
        code = spec.to_code()
        ext = extend_parity_dual(code).code if code.is_self_orthogonal() else None
        rep.checks["generator"] = spec.generator == g
        rep.checks["dimensions"] = None if ext is None else (ext.n, ext.k) == (n + 1, code.k + 1)
        rep.checks["self_orthogonal"] = ext is not None and ext.is_self_orthogonal()
        rep.checks["dual_distance_at_least_d"] = None
        if ext is not None:
            words = rep.values["spectrum_words"] = row.values["spectrum_words"]
            if (dual := row.values.get("exact_dual_distance")) is None:
                rep.notes.append(f"the row's orbit scan ({words:,} words) is beyond "
                                 "Table 1's budget; extended dual distance skipped")
            else:
                rep.values["dual_distance"] = even = dual + dual % 2
                rep.checks["dual_distance_at_least_d"] = even >= d
        rep.seconds = time.perf_counter() - t0
        reports.append(rep)
    return reports


def singer_rows(code: LinearCode, order: Sequence[int]) -> list[int]:
    """The code's generator rows with column i the point ``order[i]`` for
    i < v = len(order); any coordinate past the points, the parity bit of
    ``build_so_code``, keeps its place after them."""
    bits = bytes_as_bools(ints_as_bytes(code.generator.row_bits(), (code.n + 7) // 8), code.n)
    return bytes_as_ints(bools_as_bytes(bits[:, [*order, *range(len(order), code.n)]]))


def singer_generator(rows: Sequence[int], v: int) -> int:
    """g = gcd(x^v + 1, rows) of ``singer_rows`` on their v point
    coordinates.  g generates the least cyclic code that holds the rows, of
    dimension v - deg g, so the rows span a cyclic code in that order
    exactly when v - deg g is their rank.  Dropping the parity bit keeps
    the rank."""
    points = (1 << v) - 1
    g = (1 << v) | 1
    for row in rows:
        g = poly_gcd(row & points, g)
    return g


def singer_distances(
    rep: RowReport, code: LinearCode, geom: ProjGeometry, budget: int
) -> tuple[Distance, Distance]:
    """The records (d, d_perp) of a code spanned by incidence rows of
    ``geom`` (``build_so_code``, or the plain span).

    The code's rows are put in ``singer_order`` once, where the code must
    be cyclic: v - deg g = k for g = ``singer_generator`` (check
    ``cyclic_in_singer_order`` of ``rep``); the emitted code and the
    decoders keep the lexicographic point order.  Both records come from
    ``_orbit_distances`` of that cyclic code and the parity coordinate under
    ``budget`` (its words are ``spectrum_words`` of ``rep``).  When that is
    refused, a self-dual code goes to the split search on the same rows,
    with the shift of its v point coordinates (``cyclic`` = v), at bound
    w - 1 for the lightest rref row weight w, so that finding no lighter
    word certifies d = d_perp = w, and its one record stands for both."""
    v = len(geom.points)
    rows = singer_rows(code, singer_order(geom))
    g = singer_generator(rows, v)
    rep.checks["cyclic_in_singer_order"] = v - poly_deg(g) == code.k
    refusal = "the code is not cyclic in the Singer order"
    if rep.checks["cyclic_in_singer_order"]:
        spec = spec_from_zero_set(v, zero_set_of_polynomial(v, g))
        d, d_perp = _orbit_distances(spec, budget, parity=code.n > v)
        rep.values["spectrum_words"] = d.patterns_predicted
        if d.refusal is None:
            return d, d_perp
        refusal = d.refusal
    if code.n != 2 * code.k or not code.is_self_orthogonal():
        return (Distance("orbit", 1, refusal=f"{refusal}; no split route, not self-dual"),) * 2
    shifted = LinearCode(BitMatrix(code.n, rows))
    bound = min(row.bit_count() for row in shifted.rref_matrix.row_bits()) - 1
    try:
        split = shifted.min_distance_split(bound, budget, cyclic=v)
    except (ResourceLimit, PreconditionError) as exc:
        return (Distance("split", 1, refusal=f"{exc}; distances skipped"),) * 2
    return split, split


def verify_table2(budget: int = DEFAULT_BUDGET, rows=None) -> list[RowReport]:
    """Both distances of each row come from ``singer_distances`` under
    ``budget``; a row it refuses skips both checks with its note."""
    reports = []
    rows = TABLE2_ROWS if rows is None else rows
    for label, gk, q, l, n, k, d, d_perp, kq, t_printed in rows:
        t0 = time.perf_counter()
        rep = RowReport(label=f"{label} [[{n},{kq},{d_perp}]]")
        geom = ProjGeometry(gk, q)
        cfg = enumerate_spaces(geom, l)  # raises if counts or invariants break
        rep.values["configuration"] = (cfg.b, cfg.v, cfg.r, cfg.k_prime, cfg.lam)
        code = build_so_code(cfg)
        rep.checks["length"] = code.n == n
        rep.checks["dimension"] = code.k == k
        rep.checks["self_orthogonal"] = code.is_self_orthogonal()
        rep.checks["quantum_dimension"] = n - 2 * k == kq
        dist, dual = singer_distances(rep, code, geom, budget)
        if dist.refusal is not None:
            rep.notes.append(dist.refusal)
        elif dist.route == "split":
            rep.values["split_patterns"] = dist.patterns_scanned
            rep.values["split_witness"] = dist.upper
            rep.values["split_depths"] = dist.params
            rep.notes.append(
                f"distance certified by split search: no codeword below {dist.lower}, "
                f"witness row weight {dist.upper}"
            )
        else:
            rep.values["d"], rep.values["d_perp"] = dist.exact, dual.exact
        rep.checks["distance"] = None if dist.exact is None else dist.exact == d
        rep.checks["dual_distance"] = None if dual.exact is None else dual.exact == d_perp

        if kq == 0:
            rep.checks["self_dual"] = code.n == 2 * code.k and code.dual().same_code(code)

        cap = (d_perp - 1) // 2
        rep.values["one_step_bound"] = cfg.one_step_bound
        rep.values["two_pass_bound"] = cfg.two_pass_bound
        rep.values["distance_cap"] = cap
        candidates = {
            min(cfg.one_step_bound, cap),
            min(cfg.two_pass_bound, cap),
        }
        rep.values["t_printed"] = t_printed
        if t_printed not in candidates:
            rep.notes.append(
                f"tabulated t={t_printed} matches neither bound capped by the distance: {sorted(candidates)}"
            )
        rep.seconds = time.perf_counter() - t0
        reports.append(rep)
    return reports


@dataclass(frozen=True)
class RmScanHit:
    m: int
    r: int
    n: int
    quantum_k: int
    distance: int


def rm_scan() -> list[RmScanHit]:
    """Self-orthogonal Reed-Muller codes in 4 to 7 variables giving
    nontrivial quantum codes.

    Nontrivial means positive quantum dimension and dual distance above 2
    (order-0 codes only detect, and self-dual orders encode nothing).
    """
    hits = []
    for m in range(4, 8):
        for r in range(0, m):
            rm = rm_generator(m, r)
            if not rm.code.is_self_orthogonal():
                continue
            n = rm.n
            kq = n - 2 * rm.k
            d = rm.dual_distance()
            if kq <= 0 or d <= 2:
                continue
            hits.append(RmScanHit(m=m, r=r, n=n, quantum_k=kq, distance=d))
    return hits


def rm_scan_matches_expected() -> bool:
    return {(h.n, h.quantum_k, h.distance) for h in rm_scan()} == set(RM_EXPECTED)


def format_reports(title: str, reports: list[RowReport]) -> str:
    lines = [title]
    for rep in reports:
        lines.append("  " + rep.line())
        for note in rep.notes:
            lines.append(f"        note: {note}")
    good = sum(1 for r in reports if r.passed)
    lines.append(f"  {good}/{len(reports)} rows pass")
    return "\n".join(lines)


def reports_to_json(sections: dict[str, list[RowReport]]) -> str:
    payload = {}
    for name, reports in sections.items():
        payload[name] = [
            {
                "label": r.label,
                "passed": r.passed,
                "checks": r.checks,
                "values": r.values,
                "notes": r.notes,
                "seconds": round(r.seconds, 3),
            }
            for r in reports
        ]
    # a value that JSON cannot hold is written as its repr
    return json.dumps(payload, indent=2, default=repr)
