"""Command-line interface.

Subcommands:

* ``omega``      emit a refined dimension table (computed or closed form)
* ``integral``   evaluate the graded integral of an element
* ``relations``  dump relation-ideal slices in the element grammar
* ``sl2``        run operator checks (relations/adjoint/descent/closure)
* ``genfun``     generating-series identities and expansions
* ``verify``     run the named verification suites

Exit codes: 0 all checks passed, 1 a verification failed (including a check
that ran no cases, or two routes that disagree), 2 usage or parse error.  Any
other error is a crash and propagates.  Output is deterministic for identical
arguments.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import genfun as gf
from .algebra import ElementParseError, bidegree_cone, check_genus, format_element, parse_element
from .integral import graded_integral
from .operators import check_adjointness, check_closure, check_descent, check_sl2_relations
from .relations import (
    OmegaTable,
    VerificationError,
    default_max_coh,
    ideal_slice,
    omega_from_ideal,
    omega_from_pairing,
)
from .suites import SUITES, run_suites

USAGE_ERROR = 2
CHECK_FAILED = 1


def _fraction(text: str) -> Fraction:
    try:
        value = Fraction(text)
        str(value)  # a value past the interpreter's limit on integer digits cannot be printed
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a printable rational: {text!r}") from exc
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rank2chern",
        description="Exact computations in the rank-two descendent algebra "
        "of moduli of bundles on a curve.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # only omega and genfun have a CSV renderer
    def common(p, d_flag=True, max_coh=True, norm=True, formats=("json", "text")):
        p.add_argument("--genus", type=int, default=None, help="curve genus, 2..8 (default 2)")
        if d_flag:
            p.add_argument("--d", type=int, default=0, help="destabilizing degree bound")
        if max_coh:
            p.add_argument("--max-coh", type=int, default=None, dest="max_coh")
        if norm:
            p.add_argument(
                "--normalization",
                type=_fraction,
                default=None,
                help="nonzero rational normalization B of the base integral (default 1)",
            )
        if formats:
            p.add_argument("--format", choices=formats, default="text")

    p_omega = sub.add_parser("omega", help="emit a refined dimension table")
    common(p_omega, formats=("json", "csv", "text"))
    p_omega.add_argument(
        "--route",
        choices=("ideal", "pairing", "closed"),
        default="ideal",
        help="computed via relation slices, pairing ranks (d=0), or the closed form",
    )

    p_int = sub.add_parser("integral", help="graded integral of an element")
    common(p_int, d_flag=False, max_coh=False, formats=())
    p_int.add_argument("element", help="element in the text grammar, e.g. 'gamma'")

    p_rel = sub.add_parser("relations", help="dump relation-ideal slices")
    common(p_rel, norm=False)

    p_sl2 = sub.add_parser("sl2", help="operator checks")
    common(p_sl2)
    p_sl2.add_argument(
        "--check",
        choices=("relations", "adjoint", "descent", "closure"),
        default="relations",
    )

    p_gen = sub.add_parser("genfun", help="generating-series identities")
    common(p_gen, max_coh=False, norm=False, formats=("json", "csv", "text"))
    p_gen.add_argument(
        "--formula", choices=("stack", "n21", "intermediate", "rank3"), default="n21"
    )
    p_gen.add_argument("--rank", type=int, default=None, help="rank for the stack formula (default 2)")
    p_gen.add_argument(
        "--check",
        choices=("symmetry", "tminus1", "unimodal", "zagier", "all"),
        default=None,
    )
    p_gen.add_argument("--expand", type=int, default=None, metavar="MAXDEG")

    p_ver = sub.add_parser("verify", help="run verification suites")
    common(p_ver)
    p_ver.add_argument("--suite", choices=SUITES, default="all")

    return parser


# The option that selects a path through each subcommand.
_MODE = {"omega": "route", "sl2": "check", "verify": "suite", "genfun": "formula"}

# Options each path ignores; it refuses any value but the default (0 for --d).  The
# pairing paths take a nonzero --normalization, which scales the pairing but no rank.
_IGNORED = {
    ("omega", "ideal"): ("normalization",),
    ("omega", "pairing"): ("d", "max_coh"),
    ("omega", "closed"): ("normalization",),
    ("sl2", "relations"): ("normalization",),
    ("sl2", "adjoint"): ("d", "max_coh"),
    ("sl2", "descent"): ("max_coh", "normalization"),
    ("sl2", "closure"): ("d", "max_coh", "normalization"),
    ("verify", "main"): ("d", "max_coh"),
    ("verify", "intermediate"): ("normalization",),
    ("verify", "pairing"): ("d", "max_coh"),
    ("verify", "closure"): ("d", "max_coh", "normalization"),
    ("verify", "genfun"): ("genus", "d", "max_coh", "normalization"),
    ("genfun", "stack"): ("d",),
    ("genfun", "n21"): ("d", "rank"),
    ("genfun", "intermediate"): ("rank",),
    ("genfun", "rank3"): ("d", "rank"),
}


def _usage_error(args):
    """Why the parsed arguments are invalid, or None."""
    genus = 2 if args.genus is None else args.genus
    try:
        check_genus(genus)
    except ValueError as exc:
        return str(exc)
    for name in ("d", "max_coh", "expand"):
        value = getattr(args, name, None)
        if value is not None and value < 0:
            return f"--{name.replace('_', '-')} must be >= 0, got {value}"
    if getattr(args, "normalization", None) == 0:
        return "normalization B must be nonzero"
    if args.command == "genfun":
        if args.rank is not None and args.rank < 2:
            return "rank must be >= 2"
        if args.check is None and args.expand is None:
            return "genfun needs --check or --expand"
    mode = getattr(args, _MODE.get(args.command, ""), None)
    path = args.command + (f" --{_MODE[args.command]} {mode}" if mode else "")
    for name in _IGNORED.get((args.command, mode), ()):
        if getattr(args, name) != (0 if name == "d" else None):
            return f"--{name.replace('_', '-')} does not apply to {path}"
    # only the d = 0 adjointness check of the sl2 suite reads B
    if path == "verify --suite sl2" and args.d and args.normalization is not None:
        return f"--normalization does not apply to {path} with --d {args.d}"
    if args.command == "genfun" and args.check is not None:
        # only the names are read here; every formula has at least one
        applies = gf.identities(args.formula, genus, d=args.d)
        where = f"{path} --d {args.d}" if args.d else path
        if args.check not in (*applies, "all"):
            return f"--check {args.check} does not apply to {where}"
    return None


def _emit_table(table: OmegaTable, fmt: str, out) -> None:
    if fmt == "json":
        out.write(table.to_json() + "\n")
    elif fmt == "csv":
        out.write(table.to_csv())
    else:
        out.write(f"# genus={table.g} d={table.d} maxCoh={table.max_coh}\n")
        for (coh, chern), n in table.nonzero():
            out.write(f"coh={coh} chern={chern} dim={n}\n")


def _cmd_omega(args, out) -> int:
    g = args.genus
    d = args.d
    max_coh = args.max_coh if args.max_coh is not None else default_max_coh(g, d)
    if args.route == "pairing":
        table = omega_from_pairing(g)
    elif args.route == "closed":
        expansion = gf.omega_closed_form(g, d).series_coefficients(max_coh)
        table = OmegaTable.from_expansion(g, d, max_coh, expansion)
    else:
        table = omega_from_ideal(g, d, max_coh)
    _emit_table(table, args.format, out)
    return 0


def _emit_report(rep: dict, head: str, out) -> None:
    """The text of a report: the ``head`` template filled from its fields
    and its status, then one line per failure witness."""
    out.write(head.format(status="pass" if rep["pass"] else "FAIL", **rep) + "\n")
    for f in rep["failures"]:
        out.write(f"  failure at {f['where']}: expected {f['expected']}, got {f['got']}\n")


def _cmd_integral(args, out) -> int:
    value = graded_integral(parse_element(args.element, args.genus), args.normalization)
    try:
        text = str(value)
    except ValueError:  # past the interpreter's limit on integer digits
        sys.stderr.write("error: the integral is too long to print\n")
        return USAGE_ERROR
    out.write(f"{text}\n")
    return 0


def _cmd_relations(args, out) -> int:
    g = args.genus
    d = args.d
    max_coh = args.max_coh if args.max_coh is not None else default_max_coh(g, d)
    slices = []
    for bd in bidegree_cone(max_coh):
        elements = ideal_slice(g, d, bd)
        if elements:
            slices.append((tuple(bd), [format_element(x) for x in elements]))
    if args.format == "json":
        data = {
            "genus": g,
            "d": d,
            "maxCoh": max_coh,
            "slices": [
                {"coh": bd[0], "chern": bd[1], "relations": rows} for bd, rows in slices
            ],
        }
        out.write(json.dumps(data, indent=2, sort_keys=True) + "\n")
    else:
        for bd, rows in slices:
            out.write(f"# coh={bd[0]} chern={bd[1]}\n")
            for row in rows:
                out.write(row + "\n")
    return 0


def _cmd_sl2(args, out) -> int:
    g = args.genus
    if args.check == "relations":
        report = check_sl2_relations(g, args.d, args.max_coh)
    elif args.check == "adjoint":
        report = check_adjointness(g, args.normalization)
    elif args.check == "descent":
        report = check_descent(g, args.d)
    else:
        report = check_closure(g)
    if args.format == "json":
        out.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    else:
        _emit_report(report, "{check}: genus={genus} d={d} cases={cases} {status}", out)
    return 0 if report["pass"] else CHECK_FAILED


def _cmd_genfun(args, out) -> int:
    g = args.genus
    rows = []
    ok = True
    if args.check is not None:
        checks = gf.identities(args.formula, g, args.rank, args.d)
        for name in checks if args.check == "all" else [args.check]:
            result = checks[name]()
            ok = ok and result
            rows.append({"check": name, "formula": args.formula, "genus": g,
                         "d": args.d, "pass": result})
    if args.expand is not None:
        form, _ = gf.closed_form(args.formula, g, args.rank, args.d)
        series = form.series_coefficients(args.expand)
        expansion = [
            {"qExp": i, "tExp": j, "coeff": str(v)} for (i, j), v in sorted(series.terms.items())
        ]
    else:
        expansion = None

    if args.format == "json":
        payload = {}
        if rows:
            payload["checks"] = rows
        if expansion is not None:
            payload["expansion"] = expansion
        out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    elif args.format == "csv":
        if rows:
            out.write("check,formula,genus,d,pass\n")
            for r in rows:
                out.write(f"{r['check']},{r['formula']},{r['genus']},{r['d']},{r['pass']}\n")
        if expansion is not None:
            out.write("qExp,tExp,coeff\n")
            for r in expansion:
                out.write(f"{r['qExp']},{r['tExp']},{r['coeff']}\n")
    else:
        for r in rows:
            out.write(f"{r['check']} ({r['formula']}, genus {r['genus']}): "
                      f"{'pass' if r['pass'] else 'FAIL'}\n")
        if expansion is not None:
            for r in expansion:
                out.write(f"q^{r['qExp']} t^{r['tExp']}: {r['coeff']}\n")
    return 0 if ok else CHECK_FAILED


def _cmd_verify(args, out) -> int:
    reports = run_suites(args.suite, args.genus, args.d, args.max_coh, args.normalization)
    if args.format == "json":
        out.write(json.dumps(reports, indent=2, sort_keys=True) + "\n")
    else:
        for rep in reports:
            _emit_report(rep, "{status}: suite={suite} genus={genus} d={d} cases={cases}", out)
    return 0 if all(r["pass"] for r in reports) else CHECK_FAILED


_COMMANDS = {
    "omega": _cmd_omega,
    "integral": _cmd_integral,
    "relations": _cmd_relations,
    "sl2": _cmd_sl2,
    "genfun": _cmd_genfun,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    error = _usage_error(args)
    if error is not None:
        sys.stderr.write(f"error: {error}\n")
        return USAGE_ERROR
    if args.genus is None:
        args.genus = 2
    if getattr(args, "rank", 0) is None:
        args.rank = 2
    if getattr(args, "normalization", 0) is None:
        args.normalization = Fraction(1)
    try:
        return _COMMANDS[args.command](args, sys.stdout)
    except ElementParseError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR
    except VerificationError as exc:
        sys.stderr.write(f"verification failed: {exc}\n")
        return CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
