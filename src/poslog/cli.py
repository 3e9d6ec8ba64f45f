"""Command-line entry point.

Exit codes: 0 success, 1 verification or cross-check failure (with the
counterexample printed), 2 enumeration budget refusal, 3 malformed input
or bad usage.
All structured output is JSON with sorted keys, so a fixed input yields
byte-identical output.  A reader that closes standard output early, as
``head`` does, ends the output but not the verb, which exits with the code
it would have had.
"""

from __future__ import annotations

import os
import re
import sys
from types import SimpleNamespace

from . import io as pio
from .algebra import lattice_isomorphic, prime_filter_poset, up_algebra
from .errors import (BudgetExceeded, DEFAULT_MAX_ENUM, DEFAULT_MAX_GENERATORS,
                     InputError, budget)
from .functors import parse_functor
from .posetify import closed_form, cross_check, posetify_generic
from .positivize import SYNTAXES, parse_syntax, positivize
from .semantics import (count_delta_pow, interpret_boolean, interpret_positive,
                        parse_formula)
from .verify import SUITES, run_suite


def _out(text: str, end: str = "\n") -> None:
    """Write ``text`` to standard output.  If the reader has gone away,
    the rest of the output goes to the null device: the verb runs on to
    its exit code, and the flush at exit has nowhere to fail."""
    try:
        print(text, end=end)
    except BrokenPipeError:
        _drop_stdout()


def _drop_stdout() -> None:
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def _emit(data) -> None:
    _out(pio.json_text(data))


def _poset_report(p) -> dict:
    names, covers = pio.render_poset(p)
    return {"size": len(p), "elements": names, "covers": covers}


def _write_dot(text: str, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def cmd_posetify(args) -> int:
    t = parse_functor(args.functor)
    poset = pio.load_poset(pio.read_json(args.poset))
    report = {"functor": t.name, "poset": pio.poset_to_dict(poset),
              "method": args.method}
    if args.method == "both":
        result = cross_check(t, poset)
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
            chosen = posetify_generic(t, poset)
        else:
            chosen = closed_form(t, poset)
        report["result"] = _poset_report(chosen.result)
    if args.dot:
        _write_dot(pio.poset_dot(chosen.result, title=f"{t.name} lifting"),
                   args.dot)
    _emit(report)
    return 0


def cmd_positivize(args) -> int:
    lattice = pio.as_lattice(pio.load_lattice(pio.read_json(args.lattice)))
    l = parse_syntax(args.syntax)
    p = positivize(l, lattice)
    report = {
        "syntax": args.syntax,
        "input_spectrum": pio.poset_to_dict(lattice.spectrum),
        "result_size": len(p.members),
        "result_spectrum": _poset_report(p.result.spectrum),
    }
    if args.check_closed_form:
        want = l.closed_form(lattice)
        agree = lattice_isomorphic(p.result, want) is not None
        report["closed_form_size"] = want.size()
        report["agree"] = agree
        if not agree:
            _emit(report)
            return 1
    if args.dot:
        _write_dot(pio.lattice_dot(p.result, title=f"{args.syntax} lifting"), args.dot)
    _emit(report)
    return 0


def cmd_dualize(args) -> int:
    if bool(args.lattice) == bool(args.poset):
        raise InputError("dualize needs exactly one of --lattice or --poset")
    if args.poset:
        poset = pio.load_poset(pio.read_json(args.poset))
        lat = up_algebra(poset)
        elems = lat.carrier()
        _emit({"poset": _poset_report(poset),
               "upset_lattice": {
                   "size": len(elems),
                   "elements": [pio.format_label(poset.labels(e)) for e in elems]}})
        return 0
    obj = pio.load_lattice(pio.read_json(args.lattice))
    lat = pio.as_lattice(obj)
    spectrum = lat.spectrum
    computed = prime_filter_poset(lat)
    _emit({"lattice_size": len(lat.carrier()),
           "spectrum": _poset_report(spectrum),
           "prime_filters": _poset_report(
               computed.relabel(map(spectrum.labels, computed.elements)))})
    return 0


def _state_names(x, mask: int) -> list:
    return sorted(map(pio.format_label, x.labels(mask)))


def cmd_interpret(args) -> int:
    coalg = pio.load_coalgebra(pio.read_json(args.coalgebra))
    x = coalg.carrier
    valuation = {}
    for name, states in pio.load_valuation(pio.read_json(args.valuation)).items():
        try:
            valuation[name] = x.mask(states)
        except ValueError:  # a bit outside the carrier, which the interpreters refuse
            valuation[name] = 1 << len(x)
    formula = parse_formula(args.formula)
    discrete_carrier = not x.covers()
    if args.mode == "boolean" and not discrete_carrier:
        raise InputError("boolean interpretation needs a discrete carrier")
    report = {"formula": str(formula), "mode": args.mode}
    out = {}
    if args.mode != "boolean":
        # linear in the model, this route meets the input errors of every route
        direct = interpret_positive(coalg, valuation, formula, "direct")
        out["positive"] = _state_names(x, direct)
    if args.mode == "both":
        # the boolean route is counted, and the reference route counts its
        # own before it builds, so a refusal comes before either has run
        if discrete_carrier:
            count_delta_pow(len(x))
        ref = interpret_positive(coalg, valuation, formula, "delta")
        out["reference"] = _state_names(x, ref)
        report["routes_agree"] = (direct == ref)
    if args.mode != "positive" and discrete_carrier:
        out["boolean"] = _state_names(x, interpret_boolean(coalg, valuation, formula))
        if args.mode == "both":
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
    outcomes = run_suite(args.suite)
    failed = 0
    for o in outcomes:
        status = "PASS" if o.ok else "FAIL"
        _out(f"{status} {o.suite}/{o.name}: {o.detail}")
        failed += 0 if o.ok else 1
    _out(f"{len(outcomes) - failed}/{len(outcomes)} checks passed")
    return 1 if failed else 0


def cmd_export_dot(args) -> int:
    data = pio.read_json(args.input)
    if isinstance(data, dict) and "type" in data:
        lat = pio.as_lattice(pio.load_lattice(data))
        dot = pio.lattice_dot(lat)
    else:
        dot = pio.poset_dot(pio.load_poset(data))
    if args.out:
        _write_dot(dot, args.out)
    else:
        _out(dot, end="")
    return 0


def _budget(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"invalid int value: {text!r}") from None
    if value <= 0:
        raise ValueError(f"must be positive, not {value}")
    return value


class UsageError(Exception):
    """Bad usage: the verb (None before it) and the message."""


def _choice(verb, name: str, value: str, choices) -> str:
    if choices is not None and value not in choices:
        raise UsageError(verb, f"argument {name}: invalid choice: {value!r} "
                               f"(choose from {', '.join(map(repr, choices))})")
    return value


# verb -> (handler, help, flags).  A flag is (name, default, kind, help):
# the default is REQUIRED for a flag that must be given and False for a
# switch, which takes no value; the kind is a tuple of choices, a function
# that converts the value or raises ValueError, or None for the text.  The
# value is stored under the name without its leading "--", "-" as "_".
REQUIRED, HELP = object(), ("-h", "--help")
COMMON = (("--max-enum", DEFAULT_MAX_ENUM, _budget,
           "largest enumeration allowed before refusal"),
          ("--max-generators", DEFAULT_MAX_GENERATORS, _budget,
           "largest free-algebra generator set allowed"))
VERBS = {
    "posetify": (cmd_posetify, "lift a set functor to a poset", (
        ("--functor", REQUIRED, None,
         "pow | nb | mnb | bag:<d> | poly:sigma=name:arity:coeffsize,..."),
        ("--poset", REQUIRED, None, "poset JSON file"),
        ("--method", "both", ("generic", "closed", "both"), None),
        ("--dot", None, None, "write the lifted poset as Graphviz DOT"), *COMMON)),
    "positivize": (cmd_positivize, "lift a boolean syntax functor to a lattice", (
        ("--syntax", REQUIRED, SYNTAXES, None),
        ("--lattice", REQUIRED, None, "lattice JSON file"),
        ("--check-closed-form", False, None, None),
        ("--dot", None, None, "write the lifted lattice as Graphviz DOT"), *COMMON)),
    "dualize": (cmd_dualize, "swap between posets and their upset lattices", (
        ("--lattice", None, None, "lattice JSON file"),
        ("--poset", None, None, "poset JSON file"), *COMMON)),
    "interpret": (cmd_interpret, "evaluate a modal formula on a coalgebra", (
        ("--coalgebra", REQUIRED, None, "coalgebra JSON file"),
        ("--valuation", REQUIRED, None, "valuation JSON file"),
        ("--formula", REQUIRED, None, "s-expression formula"),
        ("--mode", "both", ("boolean", "positive", "both"), None), *COMMON)),
    "verify": (cmd_verify, "run a named verification suite", (
        ("--suite", "all", None, "order | algebra | posetify | positivize | semantics | all"),
        *COMMON)),
    "export-dot": (cmd_export_dot, "render a poset or lattice as Graphviz DOT", (
        ("--input", REQUIRED, None, "poset or lattice JSON file"),
        ("--out", None, None, "output file (default stdout)"), *COMMON)),
}


def _usage(verb=None, full=False) -> str:
    """The usage line of ``verb``, or of the top level; with ``full``, the
    help text, with a row for each verb or for each flag of ``verb``."""
    flags = VERBS[verb][2] if verb else ()
    spans = [name if default is False else f"{name} {{{','.join(kind)}}}"
             if isinstance(kind, tuple) else f"{name} {name[2:].replace('-', '_').upper()}"
             for name, default, kind, _ in flags]
    line = " ".join([f"usage: poslog {verb} [-h]" if verb else
                     f"usage: poslog [-h] {{{','.join(VERBS)}}} ...",
                     *(s if f[1] is REQUIRED else f"[{s}]" for s, f in zip(spans, flags))])
    if not full:
        return line
    rows = [] if verb else [(v, text) for v, (_, text, _) in VERBS.items()] + [("", "")]
    rows += [("-h, --help", "show this help message and exit"),
             *zip(spans, (f[3] for f in flags))]
    about = [] if verb else ["order liftings, negation-free syntax liftings, and exhaustive "
                             "verification for finite modal logics", ""]
    return "\n".join([line, "", *about, *(
        f"  {left:<22}{text or ''}".rstrip() if len(left) < 22 else
        f"  {left}\n{'':24}{text}" if text else f"  {left}" for left, text in rows)])


def _read(token: str, names, verb):
    """How argparse reads ``token`` among the option ``names``: None for a
    value, else ``(name, the value after "=" or None)``, the name None for
    an unknown option."""
    if token[:1] != "-" or token == "-":
        return None
    head, eq, value = token.partition("=")
    value = value if eq else None
    if head in names:
        found = [head]
    elif token[1] == "-":  # a unique prefix of a long option
        found = [name for name in names if name.startswith(head)]
    else:  # letters run on to -h: more h repeat it, anything else is its value
        found, value = ["-h"] if token.startswith("-h") else [], token[2:]
    if len(found) > 1:
        raise UsageError(verb, f"ambiguous option: {token} could match {', '.join(found)}")
    if not found:  # argparse reads a negative number, or a token with a space, as a value
        return None if re.match(r"-\d+$|-\d*\.\d+$", token) or " " in token else (None, None)
    if found == ["-h"] and value:
        value = value.lstrip("h") or None
    return found[0], value


def parse_args(argv: list) -> SimpleNamespace | str:
    """Read ``argv`` through VERBS as argparse would (see README "CLI"):
    the flags of the verb as a namespace, with its handler as ``fn``, or
    the help text that ``-h`` asks for.  Bad usage raises UsageError."""
    reads, verb, flags, values, extras, i = [], None, {}, {}, [], 0
    while i < len(argv):
        if verb is None:  # up to the verb, a token at a time; "--" is one, unless last
            reads.append((None, None) if argv[i:] == ["--"] else None if argv[i] == "--"
                         else _read(argv[i], HELP, None))
        (name, value), i = reads[i] or (None, None), i + 1
        if verb is None and reads[i - 1] is None:
            verb, rest = _choice(None, "command", argv[i - 1], VERBS), argv[i:]
            flags = {f[0]: f for f in VERBS[verb][2]}
            values = {n: f[1] for n, f in flags.items() if f[1] is not REQUIRED}
            cut = rest.index("--") if "--" in rest else len(rest)  # values after it
            reads += [_read(token, HELP + tuple(flags), verb) for token in rest[:cut]
                      ] + [(None, None)] + [None] * len(rest[cut + 1:])
        elif name is None:
            extras.append(argv[i - 1])
        elif name in HELP or flags[name][1] is False:  # a flag that takes no value
            if value is not None:
                raise UsageError(verb, f"argument {'-h/--help' if name in HELP else name}: "
                                       f"ignored explicit argument {value!r}")
            if name in HELP:
                return _usage(verb, full=True)
            values[name] = True
        elif value is None and reads[i] is not None:
            raise UsageError(verb, f"argument {name}: expected one argument")
        else:
            value, i = (argv[i], i + 1) if value is None else (value, i)
            kind = flags[name][2]
            if not callable(kind):
                values[name] = _choice(verb, name, value, kind)
                continue
            try:
                values[name] = kind(value)
            except ValueError as exc:
                raise UsageError(verb, f"argument {name}: {exc}") from None
    if verb is None:
        raise UsageError(None, "the following arguments are required: command")
    if missing := [n for n in flags if n not in values]:
        raise UsageError(verb, f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise UsageError(None, f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(fn=VERBS[verb][0],
                           **{n[2:].replace("-", "_"): v for n, v in values.items()})


def main(argv=None) -> int:
    try:
        return _run(sys.argv[1:] if argv is None else list(argv))
    finally:
        try:  # what is still buffered meets a closed pipe here, not at exit
            sys.stdout.flush()
        except BrokenPipeError:
            _drop_stdout()


def _run(argv: list) -> int:
    try:
        args = parse_args(argv)
    except UsageError as exc:
        verb, message = exc.args
        print(f"{_usage(verb)}\nposlog{' ' + verb if verb else ''}: error: {message}",
              file=sys.stderr)
        return 3
    if isinstance(args, str):
        _out(args)
        return 0
    try:
        with budget(args.max_enum, args.max_generators):
            return args.fn(args)
    except BudgetExceeded as exc:
        print(f"budget refused: {exc}; raise it with {exc.flag}", file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"malformed input: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
