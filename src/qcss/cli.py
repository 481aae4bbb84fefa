"""Command-line interface.

Codes travel as text matrices ('rows cols' header, one 0/1 string per row);
CSS codes as a key:value header followed by labeled matrix blocks.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import tables
from .bch import (
    default_field,
    search_self_orthogonal_bch,
    spec_from_zero_set,
    zero_set_of_polynomial,
)
from .channel import ChannelSpec, monte_carlo
from .codes import DEFAULT_BUDGET, LinearCode
from .constructions import (
    PREDICT_BUDGET,
    OuterCode,
    augment,
    concatenate,
    construction_x,
    construction_x3,
    construction_x4,
    construction_y1,
    construction_y4,
    extend_parity_dual,
    nebe,
    plotkin,
    product,
    shorten,
    triple_sum,
)
from .css import (
    CssCode,
    css_from_projective_geometry,
    css_from_reed_muller,
    css_from_self_orthogonal_cyclic,
    css_with_lookup,
)
from .errors import InvalidInput, PreconditionError, QcssError, ResourceLimit
from .gf2 import BitMatrix, bytes_as_ints
from .projgeom import ProjGeometry, build_so_code, enumerate_spaces
from .reedmuller import rm_generator


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInput(f"cannot read {path}: {exc}") from exc


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise InvalidInput(f"cannot write {path}: {exc}") from exc


def _int(text: str, base: int = 10) -> int:
    try:
        return int(text, base)
    except ValueError:
        raise InvalidInput(f"not a base-{base} integer: {text!r}") from None


def _load_code(path: str) -> LinearCode:
    return LinearCode.from_text(_read(path))


def _save_code(code: LinearCode, path: str) -> None:
    _write(path, code.to_text())


def _concat(args, inner: LinearCode):
    if not args.outer:
        raise InvalidInput("concat needs --outer FILE")
    return concatenate(inner, _load_outer(args.outer, inner.k))


# construction name -> (number of --in codes, builder(args, *codes))
_CONSTRUCTIONS = {
    "augment": (1, lambda args, c: augment(c)),
    "shorten": (1, lambda args, c: shorten(c, args.coordinate)),
    "plotkin": (2, lambda args, c1, c2: plotkin(c1, c2)),
    "triple": (2, lambda args, c1, c2: triple_sum(c1, c2)),
    "nebe": (3, lambda args, c, d, e: nebe(c, d, e)),
    "product": (2, lambda args, c1, c2: product(c1, c2)),
    "concat": (1, _concat),
    "x": (3, lambda args, *cs: construction_x(*cs)),
    "x3": (5, lambda args, *cs: construction_x3(*cs)),
    "x4": (4, lambda args, *cs: construction_x4(*cs)),
    "y1": (1, lambda args, c: construction_y1(c)),
    "y4": (1, lambda args, c: construction_y4(c)),
    "extend-dual": (1, lambda args, c: extend_parity_dual(c)),
}


def _cmd_construct(args) -> int:
    codes = [_load_code(p) for p in args.inputs]
    arity, build = _CONSTRUCTIONS[args.name]
    if len(codes) != arity:
        raise InvalidInput(f"{args.name} needs {arity} input code(s), got {len(codes)}")
    report = build(args, *codes)
    _save_code(report.code, args.out)
    rel = report.dual_distance_relation
    print(f"[{report.code.n},{report.code.k}] written to {args.out}")
    if report.predicted_dual_distance is not None:
        print(f"dual distance {rel} {report.predicted_dual_distance}")
    if report.warning:
        print(f"warning: {report.warning}")
    return 0


def _load_outer(path: str, k1: int) -> OuterCode:
    """Outer-code format: 'n k' header, then k lines of n hex symbols."""
    lines = [ln.split() for ln in _read(path).splitlines() if ln.strip()]
    if not lines or len(lines[0]) != 2:
        raise InvalidInput(f"{path}: the outer-code header must be 'n k'")
    n, k = (_int(t) for t in lines[0])
    if len(lines) - 1 != k:
        raise InvalidInput(f"{path}: expected {k} outer rows, found {len(lines) - 1}")
    rows = tuple(tuple(_int(sym, 16) for sym in ln) for ln in lines[1:])
    return OuterCode(field=default_field(k1), n=n, rows=rows)


def _cmd_bch_search(args) -> int:
    hits = search_self_orthogonal_bch(args.n)
    if args.json:
        import json

        payload = [
            {
                "n": h.quantum_n,
                "quantum_k": h.quantum_k,
                "designed_distance": h.designed_distance,
                "generator": hex(h.code_spec.generator),
                "dimension": h.code_spec.dimension,
            }
            for h in hits
        ]
        print(json.dumps(payload, indent=2))
    else:
        for h in hits:
            print(
                f"[[{h.quantum_n},{h.quantum_k},{h.designed_distance}]] "
                f"dim={h.code_spec.dimension} g=0x{h.code_spec.generator:X}"
            )
    return 0


def _cmd_rm(args) -> int:
    rm = rm_generator(args.m, args.r)
    if args.emit == "code":
        sys.stdout.write(rm.code.to_text())
    else:
        if not rm.code.is_self_orthogonal():
            raise PreconditionError(f"RM({args.m},{args.r}) is not self-orthogonal")
        n = rm.n
        print(f"[[{n},{n - 2 * rm.k},{rm.dual_distance()}]]")
    return 0


def _cmd_pg(args) -> int:
    geom = ProjGeometry(args.k, args.q)
    cfg = enumerate_spaces(geom, args.l)
    if args.emit == "config":
        sys.stdout.write(BitMatrix(cfg.v, bytes_as_ints(cfg.incidence)).to_text())
        return 0
    code = build_so_code(cfg)
    if args.emit == "code":
        sys.stdout.write(code.to_text())
        return 0
    # "?" when both routes exceed a side computation's budget
    _, dual, _, _ = tables.singer_distances(code, geom, PREDICT_BUDGET)
    print(f"[[{code.n},{code.n - 2 * code.k},{'?' if dual.exact is None else dual.exact}]]")
    return 0


def _bch_css(n: str, ghex: str) -> CssCode:
    n_int, g = _int(n), _int(ghex, 16)
    spec = spec_from_zero_set(n_int, zero_set_of_polynomial(n_int, g))
    if spec.generator != g:
        # the generator of g's zero set is g only when g divides x^n + 1
        raise InvalidInput(f"0x{g:X} is not the generator of a cyclic code of length {n_int}")
    return css_from_self_orthogonal_cyclic(spec)


# decoder name -> (argument count, builder from the argument strings)
_DECODERS = {
    "reed": (2, lambda m, r: css_from_reed_muller(_int(m), _int(r))),
    "rudolph": (3, lambda k, q, l: css_from_projective_geometry(_int(k), _int(q), _int(l))),
    "bch": (2, _bch_css),
}


def _css_from_spec(spec: list[str]) -> CssCode:
    """CSS code of a decoder spec: 'reed m r', 'rudolph k q l' or 'bch n ghex'."""
    if not spec or spec[0] not in _DECODERS:
        raise InvalidInput(f"unknown decoder spec {' '.join(spec)!r}")
    arity, build = _DECODERS[spec[0]]
    if len(spec) - 1 != arity:
        raise InvalidInput(
            f"the {spec[0]} decoder takes {arity} arguments, got {len(spec) - 1}"
        )
    return build(*spec[1:])


def _cmd_css_build(args) -> int:
    if args.decoder == "lookup":
        if not args.c1:
            raise InvalidInput("the lookup decoder needs --c1 FILE")
        c1 = _load_code(args.c1)
        css = css_with_lookup(c1, _load_code(args.c2) if args.c2 else c1)
        spec = ["lookup"]
    else:
        spec = [args.decoder, *args.decoder_args]
        css = _css_from_spec(spec)
    blocks = [f"n: {css.n}", f"quantum-k: {css.quantum_k}", f"decoder: {' '.join(spec)}"]
    blocks.append("G1")
    blocks.append(css.c1.generator.to_text().rstrip("\n"))
    blocks.append("G2")
    blocks.append(css.c2.generator.to_text().rstrip("\n"))
    _write(args.out, "\n".join(blocks) + "\n")
    print(f"[[{css.n},{css.quantum_k},{css.distance or '?'}]] written to {args.out}")
    return 0


def load_css(path: str) -> CssCode:
    """Rebuild a CSS code (with its decoder) from a .css file.

    A file names a decoder spec, or ``lookup`` with G1 and G2 matrix
    blocks.  Its ``n:`` and ``quantum-k:`` headers, and a spec file's
    G1 and G2 blocks, must describe the code that is rebuilt.
    """
    lines = _read(path).splitlines()
    header = {k.strip(): v.strip() for k, v in (ln.split(":", 1) for ln in lines if ":" in ln)}
    spec = header.get("decoder", "lookup").split()
    if "G1" in lines and "G2" in lines:
        i, j = lines.index("G1"), lines.index("G2")
        codes = (LinearCode(BitMatrix.from_text("\n".join(lines[i + 1 : j]))),
                 LinearCode(BitMatrix.from_text("\n".join(lines[j + 1 :]))))
    elif spec == ["lookup"] or "G1" in lines or "G2" in lines:
        raise InvalidInput(f"{path}: needs both a G1 and a G2 matrix block")
    else:
        codes = None
    css = css_with_lookup(*codes) if spec == ["lookup"] else _css_from_spec(spec)
    if codes and not (css.c1.same_code(codes[0]) and css.c2.same_code(codes[1])):
        raise InvalidInput(f"{path}: the G1 and G2 blocks are not the codes of {' '.join(spec)}")
    for key, value in (("n", css.n), ("quantum-k", css.quantum_k)):
        if key in header and _int(header[key]) != value:
            raise InvalidInput(f"{path}: header {key}: {header[key]}, but the code has {value}")
    return css


def _cmd_simulate(args) -> int:
    if args.trials > args.budget:
        raise ResourceLimit(
            f"the simulation would run {args.trials} trials, beyond the budget of {args.budget}"
        )
    css = load_css(args.css)
    channel = ChannelSpec.depolarizing(args.p)
    report = monte_carlo(css, channel, trials=args.trials, seed=args.seed)
    print(
        f"trials={report.trials} successes={report.successes} "
        f"decode_failures={report.decode_failures} x_failures={report.x_failures} "
        f"z_failures={report.z_failures} logical_errors={report.logical_errors} "
        f"logical_rate={report.logical_rate:.3e}"
    )
    if args.csv:
        _write(args.csv, report.to_csv())
    return 0


def _cmd_min_distance(args) -> int:
    code = _load_code(args.code)
    if args.split:
        res = code.min_distance_split(args.bound, args.budget)
        if res.upper <= args.bound:
            print(f"minimum distance {res.upper}")
        else:
            print(f"no codeword of weight <= {args.bound}; lightest seen: {res.upper}")
        # the search raises unless it scanned exactly the patterns it planned
        print(f"predicted patterns {res.patterns_predicted}, scanned {res.patterns_scanned}")
        return 0
    print(f"minimum distance {code.min_distance(budget=args.budget)}")
    return 0


def _cmd_spectrum(args) -> int:
    code = _load_code(args.code)
    enum = code.weight_enumerator(budget=args.budget)
    text = enum.to_csv()
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify_tables(args) -> int:
    sections: dict[str, list[tables.RowReport]] = {}
    ok = True
    # without --budget each table keeps its own default
    budget = {} if args.budget is None else {"budget": args.budget}
    # the parity-extended family (table None) runs only with both tables, on Table 1's reports
    for table, key, title, verify in (
        (1, "table1", "table 1 (cyclic codes)", tables.verify_table1),
        (2, "table2", "table 2 (projective geometries)", tables.verify_table2),
        (None, "table1_extended", "table 1 parity-extended family", tables.verify_extended_table1),
    ):
        if args.table in (None, table):
            reps = sections[key] = verify(**budget) if table else verify(sections["table1"])
            print(tables.format_reports(title, reps))
            ok &= all(r.passed for r in reps)
    if args.table is None:
        match = tables.rm_scan_matches_expected()
        hits = tables.rm_scan()
        print("reed-muller scan:", ", ".join(f"[[{h.n},{h.quantum_k},{h.distance}]]" for h in hits))
        print("  matches expected set:", "yes" if match else "NO")
        ok &= match
    if args.json:
        _write(args.json, tables.reports_to_json(sections))
    return 0 if ok else 1


def _parse_budget(text: str) -> int:
    """A word budget: a non-negative integer, or 2^e with 0 <= e <= 1024."""
    power = text.startswith("2^")
    digits = text[2:] if power else text
    if not (digits.isascii() and digits.isdigit()) or power and int(digits) > 1024:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer or 2^e with 0 <= e <= 1024, got {text!r}"
        )
    return 1 << int(digits) if power else int(digits)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="qcss")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="combine codes")
    p.add_argument("name", choices=list(_CONSTRUCTIONS))
    p.add_argument("--in", dest="inputs", action="append", default=[], metavar="FILE")
    p.add_argument("--out", required=True)
    p.add_argument("--coordinate", type=int, default=0, help="for shorten")
    p.add_argument("--outer", help="outer code file for concat")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("bch-search", help="self-orthogonal cyclic codes of a length")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_bch_search)

    p = sub.add_parser("rm", help="reed-muller code or its quantum parameters")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--emit", choices=["code", "quantum"], default="quantum")
    p.set_defaults(func=_cmd_rm)

    p = sub.add_parser("pg", help="projective geometry configuration or code")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--emit", choices=["config", "code", "quantum"], default="quantum")
    p.set_defaults(func=_cmd_pg)

    p = sub.add_parser("css-build", help="assemble a CSS code file")
    p.add_argument("--c1", help="generator matrix file (lookup decoder)")
    p.add_argument("--c2")
    p.add_argument("--decoder", choices=["lookup", "bch", "reed", "rudolph"], required=True)
    p.add_argument("--decoder-args", nargs="*", default=[],
                   help="bch: n ghex; reed: m r; rudolph: k q l")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_css_build)

    p = sub.add_parser("simulate", help="depolarizing-channel monte carlo")
    p.add_argument("--css", required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--csv")
    p.add_argument("--budget", type=_parse_budget, default=DEFAULT_BUDGET, help="most trials run")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("min-distance", help="exact or split-certified distance")
    p.add_argument("--code", required=True)
    p.add_argument("--split", action="store_true")
    p.add_argument("--bound", type=int, default=15)
    p.add_argument("--budget", type=_parse_budget, default=DEFAULT_BUDGET)
    p.set_defaults(func=_cmd_min_distance)

    p = sub.add_parser("spectrum", help="weight enumerator as CSV")
    p.add_argument("--code", required=True)
    p.add_argument("--out")
    p.add_argument("--budget", type=_parse_budget, default=DEFAULT_BUDGET)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("verify-tables", help="re-derive the bundled reference tables")
    p.add_argument("--table", type=int, choices=[1, 2])
    p.add_argument("--budget", type=_parse_budget)
    p.add_argument("--json", help="also write a JSON report")
    p.set_defaults(func=_cmd_verify_tables)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except QcssError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
