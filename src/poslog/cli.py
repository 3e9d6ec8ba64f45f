"""Command-line entry point.

Exit codes: 0 success, 1 verification or cross-check failure (with the
counterexample printed), 2 enumeration budget refusal, 3 malformed input.
All structured output is JSON with sorted keys, so a fixed input yields
byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import io as pio
from .algebra import prime_filter_poset, up_algebra
from .errors import (BudgetExceeded, DEFAULT_MAX_ENUM, DEFAULT_MAX_GENERATORS,
                     InputError)
from .functors import parse_functor
from .posetify import closed_form, cross_check, posetify_generic
from .positivize import SYNTAXES, parse_syntax, positivize
from .semantics import interpret_boolean, interpret_positive, parse_formula
from .verify import SUITES, run_suite


def _emit(data) -> None:
    print(pio.json_text(data))


def _poset_report(p) -> dict:
    names, covers = pio.render_poset(p)
    return {"size": len(p), "elements": names, "covers": covers}


def _write_dot(text: str, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def cmd_posetify(args) -> int:
    t = parse_functor(args.functor, args.max_enum)
    poset = pio.load_poset(pio.read_json(args.poset))
    report = {"functor": t.name, "poset": pio.poset_to_dict(poset),
              "method": args.method}
    if args.method == "both":
        result = cross_check(t, poset, args.max_enum)
        report["closed"] = _poset_report(result.closed.result)
        # equal posets print the same: render the closed form's once
        report["generic"] = report["closed"] \
            if result.generic.result == result.closed.result \
            else _poset_report(result.generic.result)
        report["agree"] = result.ok
        report["detail"] = result.detail
        chosen = result.closed
        if not result.ok:
            _emit(report)
            return 1
    else:
        if args.method == "generic":
            chosen = posetify_generic(t, poset, args.max_enum)
        else:
            chosen = closed_form(t, poset, args.max_enum)
        report["result"] = _poset_report(chosen.result)
    if args.dot:
        _write_dot(pio.poset_dot(chosen.result, title=f"{t.name} lifting"),
                   args.dot)
    _emit(report)
    return 0


def cmd_positivize(args) -> int:
    lattice = pio.as_lattice(pio.load_lattice(pio.read_json(args.lattice)))
    l = parse_syntax(args.syntax, args.max_enum, args.max_generators)
    p = positivize(l, lattice, args.max_enum)
    report = {
        "syntax": args.syntax,
        "input_spectrum": pio.poset_to_dict(lattice.spectrum),
        "result_size": len(p.members),
        "result_spectrum": _poset_report(p.result.spectrum),
    }
    if args.check_closed_form:
        want = l.closed_form(lattice)
        from .algebra import lattice_isomorphic
        agree = lattice_isomorphic(p.result, want) is not None
        report["closed_form_size"] = want.size(args.max_enum)
        report["agree"] = agree
        if not agree:
            _emit(report)
            return 1
    if args.dot:
        _write_dot(pio.lattice_dot(p.result, title=f"{args.syntax} lifting",
                                   max_enum=args.max_enum), args.dot)
    _emit(report)
    return 0


def cmd_dualize(args) -> int:
    if bool(args.lattice) == bool(args.poset):
        raise InputError("dualize needs exactly one of --lattice or --poset")
    if args.poset:
        poset = pio.load_poset(pio.read_json(args.poset))
        lat = up_algebra(poset)
        elems = lat.carrier(args.max_enum)
        _emit({"poset": _poset_report(poset),
               "upset_lattice": {
                   "size": len(elems),
                   "elements": [pio.format_label(poset.labels(e)) for e in elems]}})
        return 0
    obj = pio.load_lattice(pio.read_json(args.lattice))
    lat = pio.as_lattice(obj)
    spectrum = lat.spectrum
    computed = prime_filter_poset(lat, args.max_enum)
    _emit({"lattice_size": len(lat.carrier(args.max_enum)),
           "spectrum": _poset_report(spectrum),
           "prime_filters": _poset_report(
               computed.relabel(map(spectrum.labels, computed.elements)))})
    return 0


def cmd_interpret(args) -> int:
    coalg = pio.load_coalgebra(pio.read_json(args.coalgebra))
    valuation = pio.load_valuation(pio.read_json(args.valuation))
    formula = parse_formula(args.formula)
    discrete_carrier = not coalg.carrier.covers()
    report = {"formula": str(formula), "mode": args.mode}
    out = {}
    if args.mode == "boolean" or (args.mode == "both" and discrete_carrier):
        if not discrete_carrier:
            raise InputError("boolean interpretation needs a discrete carrier")
        out["boolean"] = sorted(map(pio.format_label,
                                    interpret_boolean(coalg, valuation, formula,
                                                      args.max_enum)))
    if args.mode in ("positive", "both"):
        direct = interpret_positive(coalg, valuation, formula, "direct",
                                    args.max_enum)
        out["positive"] = sorted(map(pio.format_label, direct))
        if args.mode == "both":
            ref = interpret_positive(coalg, valuation, formula, "delta",
                                     args.max_enum)
            out["reference"] = sorted(map(pio.format_label, ref))
            report["routes_agree"] = (direct == ref)
            if "boolean" in out:
                report["boolean_agrees"] = (out["boolean"] == out["positive"])
    report["satisfying"] = out
    _emit(report)
    if args.mode == "both" and not report.get("routes_agree", True):
        return 1
    return 0


def cmd_verify(args) -> int:
    if args.suite != "all" and args.suite not in SUITES:
        raise InputError(
            f"unknown suite {args.suite!r}; pick from "
            f"{', '.join(list(SUITES) + ['all'])}")
    outcomes = run_suite(args.suite, args.max_enum)
    failed = 0
    for o in outcomes:
        status = "PASS" if o.ok else "FAIL"
        print(f"{status} {o.suite}/{o.name}: {o.detail}")
        failed += 0 if o.ok else 1
    print(f"{len(outcomes) - failed}/{len(outcomes)} checks passed")
    return 1 if failed else 0


def cmd_export_dot(args) -> int:
    data = pio.read_json(args.input)
    if isinstance(data, dict) and "type" in data:
        lat = pio.as_lattice(pio.load_lattice(data))
        dot = pio.lattice_dot(lat, max_enum=args.max_enum)
    else:
        dot = pio.poset_dot(pio.load_poset(data))
    if args.out:
        _write_dot(dot, args.out)
    else:
        sys.stdout.write(dot)
    return 0


def _budget(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, not {value}")
    return value


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every
    later one: parsing leaves it unchanged and returns a fresh namespace,
    and argparse looks up ``sys.stdout`` and ``sys.stderr`` only when it
    prints."""
    parser = argparse.ArgumentParser(
        prog="poslog",
        description="order liftings, negation-free syntax liftings, and "
                    "exhaustive verification for finite modal logics")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--max-enum", type=_budget, default=DEFAULT_MAX_ENUM,
                       help="largest enumeration allowed before refusal")
        p.add_argument("--max-generators", type=_budget,
                       default=DEFAULT_MAX_GENERATORS,
                       help="largest free-algebra generator set allowed")

    p = sub.add_parser("posetify", help="lift a set functor to a poset")
    p.add_argument("--functor", required=True,
                   help="pow | nb | mnb | bag:<d> | poly:sigma=name:arity:coeffsize,...")
    p.add_argument("--poset", required=True, help="poset JSON file")
    p.add_argument("--method", choices=("generic", "closed", "both"),
                   default="both")
    p.add_argument("--dot", help="write the lifted poset as Graphviz DOT")
    common(p)
    p.set_defaults(fn=cmd_posetify)

    p = sub.add_parser("positivize", help="lift a boolean syntax functor to a lattice")
    p.add_argument("--syntax", required=True, choices=SYNTAXES)
    p.add_argument("--lattice", required=True, help="lattice JSON file")
    p.add_argument("--check-closed-form", action="store_true")
    p.add_argument("--dot", help="write the lifted lattice as Graphviz DOT")
    common(p)
    p.set_defaults(fn=cmd_positivize)

    p = sub.add_parser("dualize", help="swap between posets and their upset lattices")
    p.add_argument("--lattice", help="lattice JSON file")
    p.add_argument("--poset", help="poset JSON file")
    common(p)
    p.set_defaults(fn=cmd_dualize)

    p = sub.add_parser("interpret", help="evaluate a modal formula on a coalgebra")
    p.add_argument("--coalgebra", required=True, help="coalgebra JSON file")
    p.add_argument("--valuation", required=True, help="valuation JSON file")
    p.add_argument("--formula", required=True, help="s-expression formula")
    p.add_argument("--mode", choices=("boolean", "positive", "both"),
                   default="both")
    common(p)
    p.set_defaults(fn=cmd_interpret)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", default="all",
                   help="order | algebra | posetify | positivize | semantics | all")
    common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("export-dot", help="render a poset or lattice as Graphviz DOT")
    p.add_argument("--input", required=True, help="poset or lattice JSON file")
    p.add_argument("--out", help="output file (default stdout)")
    common(p)
    p.set_defaults(fn=cmd_export_dot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage; 2 is reserved for budget refusals
        return 0 if exc.code == 0 else 3
    try:
        return args.fn(args)
    except BudgetExceeded as exc:
        print(f"budget refused: {exc}; raise it with {exc.flag}", file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"malformed input: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
