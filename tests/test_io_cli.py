"""JSON formats, DOT export, and the command-line interface."""

import contextlib
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import event, given, settings, strategies as st

from poslog.errors import InputError
from poslog.io import (format_label, json_text, lattice_dot, load_coalgebra,
                       load_lattice, load_poset, load_valuation, poset_dot,
                       poset_to_dict)
from poslog.algebra import up_algebra
from poslog.cli import VERBS, main
from poslog.functors import parse_functor
from poslog.order import FinPoset
from poslog.posetify import cross_check
from poslog.positivize import SYNTAXES
from poslog import semantics
from poslog.semantics import MAX_FORMULA_DEPTH
from poslog.verify import SUITES, small_posets


def run_cli(*args, **kw):
    return subprocess.run([sys.executable, "-m", "poslog.cli", *args],
                          capture_output=True, text=True, **kw)


def run_main(*argv):
    """``(exit code, stdout, stderr)`` of ``main`` called in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(argv))
    return rc, out.getvalue(), err.getvalue()


class TestJson:
    def test_poset_completion_on_load(self):
        p = load_poset({"elements": ["a", "b", "c"],
                        "leq": [["a", "b"], ["b", "c"]]})
        assert p.leq("a", "c")

    def test_poset_round_trip(self):
        p = load_poset({"elements": ["a", "b"], "leq": [["a", "b"]]})
        assert load_poset(poset_to_dict(p)).leq("a", "b")

    @pytest.mark.parametrize("bad", [
        {},
        {"elements": "ab"},
        {"elements": ["a"], "leq": [["a"]]},
        {"elements": ["a"], "leq": [["a", "z"]]},
        {"elements": ["a", "b"], "leq": [["a", "b"], ["b", "a"]]},
        {"elements": ["a", "a"]},
        {"elements": [[1], [2]]},
    ])
    def test_malformed_posets(self, bad):
        with pytest.raises(InputError):
            load_poset(bad)

    def test_lattice_kinds(self):
        dl = load_lattice({"type": "dl",
                           "spectrum": {"elements": ["p"], "leq": []}})
        assert len(dl.carrier()) == 2
        ba = load_lattice({"type": "ba", "atoms": ["x", "y"]})
        assert ba.size() == 4
        with pytest.raises(InputError):
            load_lattice({"type": "frame"})
        with pytest.raises(InputError):
            load_lattice({"type": "ba", "atoms": [["x"], "y"]})

    def test_coalgebra_and_valuation(self):
        c = load_coalgebra({"carrier": ["x", "y"],
                            "structure": {"x": ["y", "y"], "y": [], "w": ["zz"]}})
        assert c.succ == (0b10, 0)  # successor masks; keys off the carrier are ignored
        v = load_valuation({"p": ["x"]})
        assert v == {"p": frozenset(["x"])}
        with pytest.raises(InputError, match="^successors of 'x' leave the carrier$"):
            load_coalgebra({"carrier": ["x"], "structure": {"x": ["zz"]}})
        with pytest.raises(InputError, match="^structure map undefined at 'y'$"):
            load_coalgebra({"carrier": ["x", "y"], "structure": {"x": []}})
        with pytest.raises(InputError):
            load_coalgebra({"carrier": [["x"]], "structure": {}})
        with pytest.raises(InputError):
            load_valuation({"p": [["x"]]})
        for bad in ("y", 3, {"y": "y"}, [["y"]]):
            with pytest.raises(InputError):
                load_coalgebra({"carrier": ["x", "y"],
                                "structure": {"x": bad, "y": []}})


# strings rich in what JSON escapes: quotes, backslashes, control
# characters, and characters outside ASCII on and off the BMP
JSON_STRINGS = st.text() | st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f é€\u2028😀'))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | JSON_STRINGS,
    lambda kids: st.lists(kids) | st.dictionaries(JSON_STRINGS, kids),
    max_leaves=40)


@settings(database=None, deadline=None)
@given(JSON_VALUES)
def test_json_text_is_the_text_of_json_dumps(value):
    assert json_text(value) == json.dumps(value, indent=2, sort_keys=True)


def test_json_text_writes_a_shared_value_as_json_dumps_does():
    shared = {"covers": [["a", "b"]], "elements": ["a", "b"], "size": 2}
    value = {"closed": shared, "generic": shared, "nested": {"x": shared},
             "list": [shared, shared, (1, "é")], "empty": [{}, [], ()]}
    assert json_text(value) == json.dumps(value, indent=2, sort_keys=True)


class TestDot:
    def test_format_label_nested(self):
        assert format_label(frozenset(["b", "a"])) == "{a,b}"
        assert format_label(("x", frozenset())) == "(x,{})"

    def test_hasse_only_covers(self):
        p = FinPoset.chain(("a", "b", "c"))
        dot = poset_dot(p)
        assert dot.count("->") == 2  # transitive edge a->c omitted

    def test_lattice_dot_deterministic(self):
        lat = up_algebra(FinPoset.chain(("p", "q")))
        assert lattice_dot(lat) == lattice_dot(lat)

    @pytest.mark.parametrize("p", small_posets(3), ids=lambda p: str(p.upmask))
    def test_lattice_dot_matches_the_pairwise_route(self, p):
        """The covers read off the spectrum against every pair of upsets
        compared by inclusion."""
        lat = up_algebra(p)
        elems = tuple(map(p.labels, lat.carrier()))
        order = FinPoset(elems, tuple(sum(1 << j for j, f in enumerate(elems) if e <= f)
                                      for e in elems))
        assert lattice_dot(lat, "t") == poset_dot(order, "t")

    def test_export_dot_on_fourteen_atoms(self, tmp_path):
        """Each of the 2^14 subsets is covered by one more subset per atom
        it misses: 14 * 2^13 edges."""
        lattice = tmp_path / "ba14.json"
        lattice.write_text(json.dumps({"type": "ba", "atoms": list("abcdefghijklmn")}))
        rc, out, _ = run_main("export-dot", "--input", str(lattice))
        assert rc == 0
        labels = dict(re.findall(r'^  (n\d+) \[label="\{(.*)\}"\];$', out, re.M))
        edges = re.findall(r"^  (n\d+) -> (n\d+);$", out, re.M)
        assert len(labels) == 2 ** 14 and len(edges) == 114_688
        for a, b in edges:
            below, above = set(labels[a].split(",")) - {""}, set(labels[b].split(","))
            assert below < above and len(above - below) == 1


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    (d / "chain2.json").write_text(json.dumps(
        {"elements": ["p", "q"], "leq": [["p", "q"]]}))
    (d / "chain4.json").write_text(json.dumps(
        {"elements": ["a", "b", "c", "d"],
         "leq": [["a", "b"], ["b", "c"], ["c", "d"]]}))
    (d / "antichain4.json").write_text(json.dumps(
        {"elements": ["a", "b", "c", "d"]}))
    (d / "threechain.json").write_text(json.dumps(
        {"type": "dl", "spectrum": {"elements": ["p", "q"],
                                    "leq": [["p", "q"]]}}))
    (d / "coalg.json").write_text(json.dumps(
        {"carrier": {"elements": ["x", "y"], "leq": [["x", "y"]]},
         "structure": {"x": ["y"], "y": ["y"]}}))
    (d / "kripke.json").write_text(json.dumps(
        {"carrier": ["x", "y"], "structure": {"x": ["y"], "y": []}}))
    (d / "val.json").write_text(json.dumps({"p": ["y"]}))
    (d / "bad.json").write_text("{nope")
    return d


class TestCli:
    def test_posetify_both_methods(self, files):
        r = run_cli("posetify", "--functor", "pow",
                    "--poset", str(files / "chain2.json"), "--method", "both")
        assert r.returncode == 0
        report = json.loads(r.stdout)
        assert report["agree"] and report["closed"]["size"] == 4

    def test_posetify_both_prints_each_route_when_they_differ(self, tmp_path):
        """On the 3-chain the generic route names a class of subsets by
        its least member, {a,c}, and the closed form by its convex set,
        {a,b,c}: the two renderings differ and both are printed.  The
        multiset lifting needs no quotient, so there the routes agree."""
        poset = tmp_path / "chain3.json"
        poset.write_text(json.dumps({"elements": ["a", "b", "c"],
                                     "leq": [["a", "b"], ["b", "c"]]}))
        x = load_poset(json.loads(poset.read_text()))
        for functor, same in (("pow", False), ("bag:2", True)):
            rc, out, _ = run_main("posetify", "--functor", functor,
                                  "--poset", str(poset), "--method", "both")
            report = json.loads(out)
            assert rc == 0 and report["agree"]
            routes = cross_check(parse_functor(functor), x)
            for key, route in (("generic", routes.generic), ("closed", routes.closed)):
                names = [format_label(e) for e in route.result.elements]
                covers = [[format_label(a), format_label(b)]
                          for a, b in route.result.covers()]
                assert report[key] == {"size": len(names), "elements": names,
                                       "covers": covers}
            assert (report["generic"] == report["closed"]) == same

    def test_posetify_both_builds_the_generic_labels_only_to_print_them(
            self, tmp_path, monkeypatch):
        """Where the two routes' orders are equal they print the same, and
        the generic route's labels are not built.  nb's closed form decodes
        over the components: on the two-chain its order and its labels
        differ from the generic route's, and both are printed."""
        import poslog.cli as cli
        vee, pair, chain2 = (tmp_path / f"{name}.json" for name in ("vee", "pair", "chain2"))
        vee.write_text(json.dumps({"elements": ["a", "b", "c"],
                                   "leq": [["a", "b"], ["a", "c"]]}))
        pair.write_text(json.dumps({"elements": ["a", "b"]}))
        chain2.write_text(json.dumps({"elements": ["a", "b"], "leq": [["a", "b"]]}))
        routes = []
        monkeypatch.setattr(cli, "cross_check",
                            lambda t, x: routes.append(cross_check(t, x)) or routes[-1])
        for functor, poset, same in (("bag:2", vee, True), ("poly:sigma=f:2:1", vee, True),
                                     ("nb", pair, True), ("nb", chain2, False)):
            rc, out, _ = run_main("posetify", "--functor", functor,
                                  "--poset", str(poset), "--method", "both")
            report = json.loads(out)
            assert rc == 0 and report["agree"]
            assert (report["generic"] == report["closed"]) == same
            assert (routes[-1].generic._result is None) == same

    def test_posetify_deterministic_output(self, files):
        args = ("posetify", "--functor", "mnb",
                "--poset", str(files / "chain2.json"), "--method", "both")
        assert run_cli(*args).stdout == run_cli(*args).stdout

    def test_posetify_budget_exit_two(self, files):
        r = run_cli("posetify", "--functor", "nb",
                    "--poset", str(files / "chain4.json"),
                    "--method", "generic")
        assert r.returncode == 2
        assert "budget" in r.stderr
        r = run_cli("posetify", "--functor", "nb",
                    "--poset", str(files / "antichain4.json"), "--method", "both")
        assert r.returncode == 2
        assert "budget" in r.stderr
        # 65,536 families fit the budget, a relation of 65,536 rows of them does not
        r = run_cli("posetify", "--functor", "nb",
                    "--poset", str(files / "antichain4.json"), "--method", "generic")
        assert r.returncode == 2
        assert "budget refused: nb lifted relation" in r.stderr
        # the same square check on a small budget: 16 subsets fit, 16 rows of 16 do not
        r = run_cli("posetify", "--functor", "pow", "--max-enum", "100",
                    "--poset", str(files / "antichain4.json"), "--method", "generic")
        assert r.returncode == 2
        assert "budget refused: pow lifted relation" in r.stderr

    def test_poly_coefficients_refused_before_their_labels_are_built(self, files):
        argv = ["posetify", "--functor", "poly:sigma=f:1:1000000", "--max-enum", "100",
                "--poset", str(files / "chain2.json")]
        err = io.StringIO()
        tracemalloc.start()
        try:
            with contextlib.redirect_stderr(err):
                rc = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 2 and "budget" in err.getvalue()
        assert peak < 5 * 2 ** 20

    @pytest.mark.parametrize("n, argv, stage", [
        # 2^63 subsets: a range too long for len()
        (63, ("posetify", "--functor", "pow", "--method", "closed", "--poset"),
         "convex powerset"),
        # the boolean route's semantic component: 2^70 rows of 2^70 bits
        (70, ("interpret", "--mode", "both", "--formula", "(dia p)", "--coalgebra"),
         "semantic component construction"),
        # 10^20 argument tuples: the same for a polynomial's range of codes
        (10, ("posetify", "--functor", "poly:sigma=f:20:1", "--method", "closed",
              "--poset"), "polynomial order lifting"),
        # 36,361,101 multisets, refused before any is built
        (600, ("posetify", "--functor", "bag:3", "--method", "closed", "--poset"),
         "multiset order lifting"),
    ], ids=["pow-63", "interpret-70", "poly-arity-20", "bag3-600"])
    def test_a_closed_form_over_the_budget_is_refused_without_a_traceback(
            self, tmp_path, n, argv, stage):
        """The closed forms count their carrier from the functor's size
        estimate before they build or measure it."""
        labels = [f"e{i}" for i in range(n)]
        path, extra = tmp_path / "poset.json", ()
        path.write_text(json.dumps({"elements": labels}))
        if argv[0] == "interpret":
            path, valuation = tmp_path / "coalgebra.json", tmp_path / "valuation.json"
            path.write_text(json.dumps({"carrier": labels,
                                        "structure": {a: [a] for a in labels}}))
            valuation.write_text(json.dumps({"p": labels[:1]}))
            extra = ("--valuation", str(valuation))
        r = run_cli(*argv, str(path), *extra)
        assert (r.returncode, r.stdout) == (2, "")
        assert "Traceback" not in r.stderr
        assert r.stderr.startswith(f"budget refused: {stage} would enumerate ")

    @pytest.mark.parametrize("unbuffered", ["1", ""])
    @pytest.mark.parametrize("argv", [
        ("posetify", "--functor", "pow", "--poset", "chain4.json"),
        ("verify", "--suite", "order")], ids=["posetify", "verify"])
    def test_a_reader_that_closes_early_leaves_the_exit_code(self, files, argv, unbuffered):
        """The read end of standard output is closed before the verb
        writes, as ``head`` closes it after its lines.  Unbuffered, the
        first write meets the closed pipe; buffered, the flush does.  The
        verb still runs to its own exit code, with nothing on stderr."""
        argv = [str(files / a) if a.endswith(".json") else a for a in argv]
        env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
        proc = subprocess.Popen([sys.executable, "-m", "poslog.cli", *argv], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(), err) == (0, b"")

    def test_start_up_generates_methods_only_for_the_functor_bundles(self):
        """Every verb starts a fresh interpreter, so importing ``poslog.cli``
        defines its value and record types without generated methods.  The
        two exceptions are ``SetFunctor`` and ``BAFunctor``, which stay
        dataclasses because the benchmark's tracer rebuilds them with
        ``dataclasses.replace`` to wrap their fields."""
        code = ("import dataclasses, json, sys, poslog.cli\n"
                "print(json.dumps(sorted(f'{m}.{k}' for m, mod in list(sys.modules.items())\n"
                "    if m.split('.')[0] == 'poslog' for k, v in vars(mod).items()\n"
                "    if isinstance(v, type) and v.__module__ == m and\n"
                "    dataclasses.is_dataclass(v))))")
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert (r.returncode, r.stderr) == (0, "")
        assert json.loads(r.stdout) == ["poslog.functors.SetFunctor",
                                        "poslog.positivize.BAFunctor"]

    @pytest.mark.parametrize("n", [70, 1000])
    def test_positive_mode_answers_at_the_size_of_the_model(self, tmp_path, n):
        """The positive route checks the coalgebra on state masks and needs
        no lifted carrier, so a discrete coalgebra of any size is answered."""
        labels = [f"e{i}" for i in range(n)]
        coalg, valuation = tmp_path / "coalgebra.json", tmp_path / "valuation.json"
        coalg.write_text(json.dumps({"carrier": labels,
                                     "structure": {a: [a] for a in labels}}))
        valuation.write_text(json.dumps({"p": labels[:1]}))
        r = run_cli("interpret", "--mode", "positive", "--formula", "(dia (box p))",
                    "--coalgebra", str(coalg), "--valuation", str(valuation))
        assert (r.returncode, r.stderr) == (0, "")
        assert json.loads(r.stdout)["satisfying"] == {"positive": ["e0"]}

    # The smallest antichain that each functor and method refuses, found by
    # counting up from one element: 2^n subsets squared pass 2^20 at 11,
    # neighbourhood families squared at 4 (the closed form collapses the
    # discrete components first, so it answers 4 and refuses 5), up-closed
    # families squared at 5, C(n+3, 3) multisets squared at 17 and
    # n^2 + 2 polynomial terms squared at 32.  Each row: the functor, the
    # size for the closed form, the size for generic and both, and the
    # closed form's stage.
    @pytest.mark.parametrize("method", ["closed", "generic", "both"])
    @pytest.mark.parametrize("functor, closed_n, generic_n, closed_stage", [
        ("pow", 11, 11, "convex powerset"),
        ("nb", 5, 4, "neighbourhood families on components"),
        ("mnb", 5, 5, "up-closed family comparison"),
        ("bag:3", 17, 17, "multiset order lifting"),
        ("poly:sigma=f:2:1,c:0:2", 32, 32, "polynomial order lifting"),
    ], ids=["pow", "nb", "mnb", "bag3", "poly"])
    def test_the_smallest_antichain_over_the_budget_is_refused_small(
            self, tmp_path, functor, closed_n, generic_n, closed_stage, method):
        """Exit 2 naming the stage, with under 1 MB allocated on the way."""
        if method == "closed":
            n, stage = closed_n, closed_stage
        else:
            kind = "lifted relation" if method == "generic" else "cross-check comparison"
            n, stage = generic_n, f"{functor} {kind}"
        poset = tmp_path / "antichain.json"
        poset.write_text(json.dumps({"elements": [f"e{i}" for i in range(n)]}))
        self._assert_refused_small(("posetify", "--functor", functor, "--method", method,
                                    "--poset", str(poset)), stage)

    def test_interpret_both_on_eleven_states_is_refused_small(self, tmp_path):
        labels = [f"e{i}" for i in range(11)]
        coalg, valuation = tmp_path / "coalgebra.json", tmp_path / "valuation.json"
        coalg.write_text(json.dumps({"carrier": labels,
                                     "structure": {a: [a] for a in labels}}))
        valuation.write_text(json.dumps({"p": labels[:1]}))
        self._assert_refused_small(("interpret", "--mode", "both", "--formula", "(dia p)",
                                    "--coalgebra", str(coalg),
                                    "--valuation", str(valuation)),
                                   "semantic component construction")

    def test_interpret_both_counts_every_route_before_running_one(self, tmp_path,
                                                                  monkeypatch):
        """On ten discrete states the boolean route fits the budget and the
        reference route does not: the refusal comes before the boolean
        route builds its semantic component, and an unbound variable is
        still reported before the refusal."""
        labels = [f"e{i}" for i in range(10)]
        coalg, valuation = tmp_path / "coalgebra.json", tmp_path / "valuation.json"
        coalg.write_text(json.dumps({"carrier": labels,
                                     "structure": {a: [a] for a in labels}}))
        valuation.write_text(json.dumps({"p": labels[:1]}))
        built = []
        monkeypatch.setattr(semantics, "delta_pow", lambda *args: built.append(args))
        argv = ("interpret", "--mode", "both", "--coalgebra", str(coalg),
                "--valuation", str(valuation), "--formula")
        assert run_main(*argv, "(dia (box p))") == (
            2, "", f"budget refused: boolean algebra carrier would enumerate "
                   f"{2 ** 2 ** 10} items (budget {2 ** 20}); raise it with --max-enum\n")
        assert run_main(*argv, "(dia (box q))") == (
            3, "", "malformed input: unbound variable 'q'\n")
        assert built == []

    # (carrier, structure, valuation, formula, {mode: the error it prints})
    CHAIN_XY = {"elements": ["x", "y"], "leq": [["x", "y"]]}
    GOOD = {"x": ["y"], "y": ["y"]}
    INPUT_ERRORS = [
        (["x", "y"], {"x": ["y"]}, {"p": ["y"]}, "(dia p)",
         dict.fromkeys(("boolean", "positive", "both"), "structure map undefined at 'y'")),
        (["x", "y"], {"x": ["z"], "y": []}, {"p": ["y"]}, "(dia p)",
         dict.fromkeys(("boolean", "positive", "both"), "successors of 'x' leave the carrier")),
        (["x", "y"], GOOD, {"p": ["z"]}, "(dia p)",
         dict.fromkeys(("boolean", "positive", "both"), "valuation of 'p' leaves the carrier")),
        (CHAIN_XY, GOOD, {"p": ["z"]}, "(dia p)",
         dict.fromkeys(("positive", "both"), "valuation of 'p' leaves the carrier")),
        (CHAIN_XY, GOOD, {"p": ["x"]}, "(dia p)",
         dict.fromkeys(("positive", "both"), "valuation of 'p' is not an upset")),
        # a negated formula is refused before the valuation is looked at ...
        (["x", "y"], GOOD, {"p": ["z"]}, "(not p)",
         {"boolean": "valuation of 'p' leaves the carrier",
          "positive": "positive interpretation needs a negation-free formula",
          "both": "positive interpretation needs a negation-free formula"}),
        # ... and each variable is checked in turn
        (CHAIN_XY, GOOD, {"p": ["x"], "q": ["z"]}, "(dia p)",
         dict.fromkeys(("positive", "both"), "valuation of 'p' is not an upset")),
        (CHAIN_XY, GOOD, {"q": ["z"], "p": ["x"]}, "(dia p)",
         dict.fromkeys(("positive", "both"), "valuation of 'q' leaves the carrier")),
        # a state that is not a string has its JSON text as its structure key
        ([1, "1"], {"1": [1]}, {"p": [1]}, "(dia p)",
         dict.fromkeys(("boolean", "positive", "both"),
                       "states 1 and '1' share the structure key '1'")),
    ]

    @pytest.mark.parametrize("carrier, structure, valuation, formula, errors", INPUT_ERRORS,
                             ids=["structure-undefined", "successors-leave",
                                  "valuation-leaves", "valuation-leaves-a-poset",
                                  "not-an-upset", "negation-first", "upset-first",
                                  "leaves-first", "states-share-a-key"])
    def test_interpret_input_errors_and_their_precedence(self, tmp_path, carrier, structure,
                                                         valuation, formula, errors):
        """Labels become masks in ``io`` and ``cli``; each malformed input
        keeps its message, and the first of several is reported."""
        coalg, val = tmp_path / "coalgebra.json", tmp_path / "valuation.json"
        coalg.write_text(json.dumps({"carrier": carrier, "structure": structure}))
        val.write_text(json.dumps(valuation))
        for mode, error in errors.items():
            assert run_main("interpret", "--coalgebra", str(coalg), "--valuation", str(val),
                            "--formula", formula, "--mode", mode) == \
                (3, "", f"malformed input: {error}\n")

    @pytest.mark.parametrize("mode", ["boolean", "positive", "both"])
    def test_interpret_numeric_state_labels(self, tmp_path, mode):
        """The structure of a state that is a number is read at its JSON
        text, the only key a JSON object can hold for it."""
        coalg, val = tmp_path / "coalgebra.json", tmp_path / "valuation.json"
        coalg.write_text(json.dumps({"carrier": [1, 2], "structure": {"1": [1], "2": [2]}}))
        val.write_text(json.dumps({"p": [2]}))
        rc, out, err = run_main("interpret", "--coalgebra", str(coalg), "--valuation",
                                str(val), "--formula", "(dia p)", "--mode", mode)
        routes = {"boolean": ["boolean"], "positive": ["positive"],
                  "both": ["boolean", "positive", "reference"]}[mode]
        assert (rc, err) == (0, "")
        assert json.loads(out)["satisfying"] == dict.fromkeys(routes, ["2"])

    def test_json_constant_labels_print_as_their_json_text(self, tmp_path):
        poset = tmp_path / "poset.json"
        poset.write_text('{"elements": [true, false, null], "leq": [[false, true]]}')
        rc, out, err = run_main("posetify", "--functor", "bag:2", "--method", "closed",
                                "--poset", str(poset))
        report = json.loads(out)
        assert (rc, err) == (0, "")
        assert report["poset"] == {"elements": ["true", "false", "null"],
                                   "leq": [["false", "true"]]}
        assert ["((false,1))", "((true,1))"] in report["result"]["covers"]
        assert not re.search("True|False|None", out)
        coalg, val = tmp_path / "coalgebra.json", tmp_path / "valuation.json"
        coalg.write_text('{"carrier": [true, false, null], '
                         '"structure": {"true": [false], "false": [], "null": [null]}}')
        val.write_text('{"p": [false, null]}')
        rc, out, err = run_main("interpret", "--coalgebra", str(coalg), "--valuation",
                                str(val), "--formula", "(dia p)", "--mode", "both")
        assert (rc, err) == (0, "")
        assert json.loads(out)["satisfying"] == dict.fromkeys(
            ["boolean", "positive", "reference"], ["null", "true"])

    @pytest.mark.parametrize("elements", ["[true, 1]", "[1, 1.0]", "[false, 0]"])
    def test_labels_equal_as_values_are_one_label(self, tmp_path, elements):
        poset = tmp_path / "poset.json"
        poset.write_text(f'{{"elements": {elements}}}')
        assert run_main("posetify", "--functor", "pow", "--poset", str(poset)) == \
            (3, "", "malformed input: poset labels must be unique\n")

    # the stage at which interpret --mode both refuses n states, None if it answers
    REFUSAL_STAGES = {
        "antichain": [None] * 4 + ["boolean algebra carrier"] * 6
                     + ["semantic component construction"] * 2,
        "chain": [None] * 4 + ["inserter sweep"] + ["pow on an atom set"] * 5
                 + ["convex powerset"] * 2}

    @pytest.mark.parametrize("shape", REFUSAL_STAGES)
    def test_interpret_both_refuses_before_building_the_convex_powerset(
            self, tmp_path, monkeypatch, shape):
        """The reference route counts the convex powerset first and builds
        it last, so a carrier that the lifted algebra refuses never builds
        it; every refusal keeps its stage."""
        built = []
        real = semantics.posetify_powerset
        monkeypatch.setattr(semantics, "posetify_powerset",
                            lambda x: built.append(len(x)) or real(x))
        coalg, val = tmp_path / "coalgebra.json", tmp_path / "valuation.json"
        for n, stage in enumerate(self.REFUSAL_STAGES[shape], 1):
            labels = [f"e{i}" for i in range(n)]
            carrier = labels if shape == "antichain" else {
                "elements": labels, "leq": [list(pair) for pair in zip(labels, labels[1:])]}
            coalg.write_text(json.dumps({"carrier": carrier,
                                         "structure": {a: [a] for a in labels}}))
            val.write_text(json.dumps({"p": labels[-1:]}))
            rc, out, err = run_main("interpret", "--mode", "both", "--formula",
                                    "(dia (box p))", "--coalgebra", str(coalg),
                                    "--valuation", str(val))
            if stage is None:
                assert (rc, err) == (0, "") and json.loads(out)["routes_agree"]
            else:
                assert (rc, out) == (2, "")
                assert err.startswith(f"budget refused: {stage} would enumerate "), n
        assert all(n <= 4 for n in built)

    @staticmethod
    def _assert_refused_small(argv, stage):
        tracemalloc.start()
        try:
            rc, out, err = run_main(*argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (rc, out) == (2, "")
        assert err.startswith(f"budget refused: {stage} would enumerate ")
        assert peak < 2 ** 20

    def test_the_multiset_order_is_refused_before_its_carrier_is_built(self, tmp_path):
        """bag:3 on a 600-element antichain has 36,361,101 multisets; the
        square of that count is refused before one of them is built."""
        poset = tmp_path / "antichain600.json"
        poset.write_text(json.dumps({"elements": [f"e{i}" for i in range(600)]}))
        tracemalloc.start()
        try:
            rc, out, err = run_main("posetify", "--functor", "bag:3", "--method", "closed",
                                    "--poset", str(poset))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (rc, out) == (2, "")
        assert err == (f"budget refused: multiset order lifting would enumerate "
                       f"{36_361_101 ** 2} items (budget {2 ** 20}); "
                       "raise it with --max-enum\n")
        assert peak < 2 ** 20

    def test_repeated_polynomial_symbol_exit_three(self, files):
        rc, out, err = run_main("posetify", "--functor", "poly:sigma=f:1:1,f:1:1",
                                "--poset", str(files / "chain2.json"))
        assert rc == 3 and not out
        assert err == "malformed input: symbol 'f' appears twice in the signature\n"

    @pytest.mark.parametrize("structure", [
        {"x": ["y"], "y": []},                   # not monotone
        {"x": ["x", "z"], "y": ["x", "z"], "z": ["x", "z"]}])  # not convex
    @pytest.mark.parametrize("mode", ["positive", "both"])
    def test_coalgebra_outside_the_positive_semantics_exit_three(self, files, tmp_path,
                                                                 structure, mode):
        carrier = {"elements": ["x", "y", "z"], "leq": [["x", "y"], ["y", "z"]]}
        coalg = tmp_path / "coalg.json"
        coalg.write_text(json.dumps({"carrier": carrier,
                                     "structure": {"z": [], **structure}}))
        rc, out, err = run_main("interpret", "--coalgebra", str(coalg), "--valuation",
                                str(files / "val.json"), "--formula", "(dia p)",
                                "--mode", mode)
        assert rc == 3 and not out and err.startswith("malformed input: ")

    def test_semantic_mnb_on_a_boolean_lattice_builds_no_member(self, tmp_path):
        """The lifting at the 3-antichain spectrum is the whole algebra on
        the 20 up-closed families: 2^20 members, counted, not built."""
        lattice = tmp_path / "antichain3.json"
        lattice.write_text(json.dumps({"type": "dl",
                                       "spectrum": {"elements": ["a", "b", "c"]}}))
        reports = []
        for extra in ([], ["--check-closed-form"]):
            tracemalloc.start()
            try:
                rc, out, _ = run_main("positivize", "--syntax", "semantic:mnb",
                                      "--lattice", str(lattice), *extra)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert rc == 0 and peak < 100 * 2 ** 20
            reports.append(json.loads(out))
        plain, checked = reports
        assert plain["result_size"] == 2 ** 20 and plain["result_spectrum"]["size"] == 20
        assert checked.pop("agree") is True and checked.pop("closed_form_size") == 2 ** 20
        assert checked == plain

    @pytest.mark.parametrize("argv, lattice, refused", [
        # the ambient algebra has 2^14 atoms, so 2^16384 elements: 4,933 digits
        (("positivize", "--syntax", "semantic:pow", "--lattice"),
         {"type": "ba", "atoms": [f"u{i}" for i in range(14)]},
         "boolean algebra carrier would enumerate 2^16384 items"),
        (("dualize", "--lattice"),
         {"type": "ba", "atoms": [f"u{i}" for i in range(14_285)]},
         "distributive lattice carrier would enumerate 2^14285 items"),
    ], ids=["positivize", "dualize"])
    def test_a_size_too_wide_to_print_is_refused_as_a_power_of_two(
            self, tmp_path, argv, lattice, refused):
        path = tmp_path / "lattice.json"
        path.write_text(json.dumps(lattice))
        rc, out, err = run_main(*argv, str(path))
        assert (rc, out) == (2, "")
        assert err == (f"budget refused: {refused} (budget {2 ** 20}); "
                       "raise it with --max-enum\n")

    def test_semantic_nb_refused_at_the_ordered_double_before_the_ambient_is_built(
            self, tmp_path):
        """On the spectrum a<c, b<c, b<d the ambient algebra has the 65,536
        neighbourhood families of the 4 spectrum elements as atoms, which
        fits the budget; the ordered double on the 7 comparable pairs does
        not, and it is refused before any family label is built."""
        lattice = tmp_path / "connected4.json"
        lattice.write_text(json.dumps({"type": "dl", "spectrum": {
            "elements": ["a", "b", "c", "d"],
            "leq": [["a", "c"], ["b", "c"], ["b", "d"]]}}))
        tracemalloc.start()
        try:
            rc, out, err = run_main("positivize", "--syntax", "semantic:nb",
                                    "--lattice", str(lattice))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (rc, out) == (2, "")
        assert err == ("budget refused: nb on an atom set would enumerate "
                       f"{2 ** 128} items (budget {2 ** 20}); raise it with --max-enum\n")
        assert peak < 2 ** 20

    def test_semantic_nb_on_a_boolean_spectrum_refused_before_the_ambient_is_built(
            self, tmp_path):
        """On the 4-antichain spectrum the ordered double collapses, so the
        lifting is the whole ambient algebra on the 65,536 neighbourhood
        families: 2^65536 elements, refused before any family label or
        comparison hom is built."""
        lattice = tmp_path / "antichain4.json"
        lattice.write_text(json.dumps({"type": "dl", "spectrum": {
            "elements": ["a", "b", "c", "d"]}}))
        tracemalloc.start()
        try:
            rc, out, err = run_main("positivize", "--syntax", "semantic:nb",
                                    "--lattice", str(lattice))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (rc, out) == (2, "")
        assert err == ("budget refused: boolean algebra carrier would enumerate "
                       f"2^65536 items (budget {2 ** 20}); raise it with --max-enum\n")
        assert peak < 2 ** 20

    def test_semantic_nb_on_a_non_boolean_spectrum_refused_at_the_inserter(self, tmp_path):
        """On the spectrum a<b, c the ambient algebra (the 256 families of
        the 3 spectrum elements as atoms) and the ordered double (4
        comparable pairs) both fit the budget; the sweep over the 2^256
        candidate members does not, and says so."""
        lattice = tmp_path / "vee3.json"
        lattice.write_text(json.dumps({"type": "dl", "spectrum": {
            "elements": ["a", "b", "c"], "leq": [["a", "b"]]}}))
        rc, out, err = run_main("positivize", "--syntax", "semantic:nb",
                                "--lattice", str(lattice))
        assert (rc, out) == (2, "")
        assert err == (f"budget refused: inserter sweep would enumerate {2 ** 256} "
                       f"items (budget {2 ** 20}); raise it with --max-enum\n")

    def test_posetify_dot_export(self, files, tmp_path):
        out = tmp_path / "out.dot"
        r = run_cli("posetify", "--functor", "pow",
                    "--poset", str(files / "chain2.json"),
                    "--method", "closed", "--dot", str(out))
        assert r.returncode == 0
        assert out.read_text().startswith("digraph")

    def test_positivize_with_closed_form(self, files):
        r = run_cli("positivize", "--syntax", "dunn",
                    "--lattice", str(files / "threechain.json"),
                    "--check-closed-form")
        assert r.returncode == 0
        report = json.loads(r.stdout)
        assert report["agree"] and report["result_size"] == 8

    @pytest.mark.parametrize("syntax", ["semantic:mnb", "semantic:nb"])
    def test_positivize_semantic_closed_form(self, files, syntax):
        rc, out, _ = run_main("positivize", "--syntax", syntax,
                              "--lattice", str(files / "threechain.json"),
                              "--check-closed-form")
        assert rc == 0
        report = json.loads(out)
        assert report["agree"] is True
        assert report["closed_form_size"] == report["result_size"]

    @pytest.mark.parametrize("argv", [
        ("posetify", "--functor", "pow", "--poset", "p.json"),
        ("positivize", "--syntax", "free", "--lattice", "l.json"),
        ("dualize", "--poset", "p.json"),
        ("interpret", "--coalgebra", "c.json", "--valuation", "v.json",
         "--formula", "p"),
        ("verify", "--suite", "order"),
        ("export-dot", "--input", "p.json")])
    @pytest.mark.parametrize("value", ["0", "-5", "-1"])
    def test_budget_below_one_exit_three(self, argv, value):
        rc, out, err = run_main(*argv, "--max-enum", value)
        assert rc == 3 and out == ""
        assert "argument --max-enum: must be positive" in err

    def test_a_refusal_names_the_flag_that_raises_its_cap(self, files):
        rc, out, err = run_main("posetify", "--functor", "pow", "--max-enum", "3",
                                "--poset", str(files / "chain2.json"))
        assert (rc, out) == (2, "")
        assert err == ("budget refused: pow cross-check comparison would enumerate "
                       "16 items (budget 3); raise it with --max-enum\n")
        rc, out, err = run_main("positivize", "--syntax", "free", "--max-enum", "15",
                                "--lattice", str(files / "threechain.json"))
        assert (rc, out) == (2, "")
        assert err == ("budget refused: free boolean algebra would enumerate 16 items "
                       "(budget 15); raise it with --max-enum\n")

    def test_main_builds_its_parser_once_and_answers_alike_every_call(self, files):
        """``main`` may be called many times in one process: a second round
        of the same calls (every verb, an unknown flag, a budget of zero and
        ``--help``) answers exactly as the first did."""
        chain2 = str(files / "chain2.json")
        calls = [
            ("posetify", "--functor", "pow", "--poset", chain2),
            ("positivize", "--syntax", "dunn", "--lattice", str(files / "threechain.json")),
            ("dualize", "--poset", chain2),
            ("interpret", "--coalgebra", str(files / "kripke.json"),
             "--valuation", str(files / "val.json"), "--formula", "(dia p)"),
            ("verify", "--suite", "order"),
            ("posetify", "--functor", "pow", "--poset", chain2, "--frob"),
            ("posetify", "--functor", "pow", "--poset", chain2, "--max-enum", "0"),
            ("--help",),
        ]
        first, second = ([run_main(*argv) for argv in calls] for _ in range(2))
        assert second == first
        assert [rc for rc, _, _ in first] == [0, 0, 0, 0, 0, 3, 3, 0]
        (_, _, unknown), (_, _, zero), (_, usage, _) = first[5:]
        assert "unrecognized arguments: --frob" in unknown
        assert "argument --max-enum: must be positive" in zero
        assert usage.startswith("usage: poslog")

    def test_positivize_free(self, files):
        r = run_cli("positivize", "--syntax", "free",
                    "--lattice", str(files / "threechain.json"),
                    "--check-closed-form")
        assert r.returncode == 0
        assert json.loads(r.stdout)["result_size"] == 16

    def test_dualize_both_ways(self, files):
        r = run_cli("dualize", "--lattice", str(files / "threechain.json"))
        assert r.returncode == 0
        report = json.loads(r.stdout)
        assert report["lattice_size"] == 3
        assert report["prime_filters"]["size"] == 2
        r2 = run_cli("dualize", "--poset", str(files / "chain2.json"))
        assert json.loads(r2.stdout)["upset_lattice"]["size"] == 3

    def test_interpret_boolean_and_positive(self, files):
        r = run_cli("interpret", "--coalgebra", str(files / "kripke.json"),
                    "--valuation", str(files / "val.json"),
                    "--formula", "(dia p)", "--mode", "both")
        assert r.returncode == 0
        report = json.loads(r.stdout)
        assert report["satisfying"]["boolean"] == ["x"]
        assert report["routes_agree"]

        r2 = run_cli("interpret", "--coalgebra", str(files / "coalg.json"),
                     "--valuation", str(files / "val.json"),
                     "--formula", "(and p (dia p))", "--mode", "both")
        assert json.loads(r2.stdout)["satisfying"]["positive"] == ["y"]

    @pytest.mark.parametrize("mode", ["boolean", "positive", "both"])
    @pytest.mark.parametrize("wrap", [
        lambda f: f"(box {f})",
        lambda f: f"(and p {f})",
        lambda f: f"(or {f} p)",
    ], ids=["box", "and-right", "or-left"])
    def test_formula_depth_limit(self, files, mode, wrap):
        def nested(depth):
            text = "p"
            for _ in range(depth):
                text = wrap(text)
            return text

        argv = ["interpret", "--coalgebra", str(files / "kripke.json"),
                "--valuation", str(files / "val.json"), "--mode", mode, "--formula"]
        rc, out, _ = run_main(*argv, nested(MAX_FORMULA_DEPTH))
        assert rc == 0 and json.loads(out)["satisfying"]
        rc, out, err = run_main(*argv, nested(MAX_FORMULA_DEPTH + 1))
        assert rc == 3 and out == ""
        assert f"deeper than {MAX_FORMULA_DEPTH} levels" in err

    def test_nary_formula_depth_counts_the_folded_connective(self, files):
        argv = ["interpret", "--coalgebra", str(files / "kripke.json"),
                "--valuation", str(files / "val.json"), "--formula"]
        # (and p p ... p) with k arguments folds to depth k - 1
        rc, _, _ = run_main(*argv, "(and" + " p" * (MAX_FORMULA_DEPTH + 1) + ")")
        assert rc == 0
        rc, _, err = run_main(*argv, "(and" + " p" * (MAX_FORMULA_DEPTH + 2) + ")")
        assert rc == 3 and "deeper than" in err

    def test_successor_list_given_as_a_string_exit_three(self, tmp_path):
        coalgebra = tmp_path / "coalgebra.json"
        coalgebra.write_text(json.dumps(
            {"carrier": ["x", "y", "z", "yz"],
             "structure": {"x": "yz", "y": [], "z": [], "yz": []}}))
        valuation = tmp_path / "valuation.json"
        valuation.write_text(json.dumps({"p": ["y"]}))
        rc, out, err = run_main("interpret", "--coalgebra", str(coalgebra),
                                "--valuation", str(valuation), "--formula", "(dia p)")
        assert rc == 3 and out == ""
        assert "successors of 'x' must be a list" in err

    def test_interpret_malformed_formula_exit_three(self, files):
        r = run_cli("interpret", "--coalgebra", str(files / "kripke.json"),
                    "--valuation", str(files / "val.json"),
                    "--formula", "(frob p)")
        assert r.returncode == 3

    def test_malformed_json_exit_three(self, files):
        r = run_cli("posetify", "--functor", "pow",
                    "--poset", str(files / "bad.json"))
        assert r.returncode == 3

    @pytest.mark.parametrize("content", [b"[" * 200_000, b"1" * 5_000, b"\xff\xfe{"],
                             ids=["nested-too-deep", "integer-too-long", "not-utf-8"])
    @pytest.mark.parametrize("argv", [
        ("posetify", "--functor", "pow", "--poset", "{bad}"),
        ("positivize", "--syntax", "dunn", "--lattice", "{bad}"),
        ("dualize", "--poset", "{bad}"),
        ("dualize", "--lattice", "{bad}"),
        ("interpret", "--coalgebra", "{bad}", "--valuation", "{val}", "--formula", "p"),
        ("interpret", "--coalgebra", "{kripke}", "--valuation", "{bad}", "--formula", "p"),
        ("export-dot", "--input", "{bad}"),
    ], ids=lambda argv: "-".join(a for a in argv[:3] if a != "{bad}"))
    def test_json_that_cannot_be_decoded_exits_three(self, files, tmp_path, content, argv):
        """Nesting past the recursion limit, an integer past Python's digit
        limit and bytes that are not text are malformed input, not a
        traceback."""
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        names = {"bad": bad, "val": files / "val.json", "kripke": files / "kripke.json"}
        rc, out, err = run_main(*(a.format(**names) for a in argv))
        assert (rc, out) == (3, "")
        assert err.startswith(f"malformed input: {bad} is not valid JSON: ")

    def test_unknown_verb_exit_three(self):
        assert run_cli("frobnicate").returncode == 3

    def test_export_dot(self, files):
        r = run_cli("export-dot", "--input", str(files / "chain2.json"))
        assert r.returncode == 0 and r.stdout.startswith("digraph")
        r2 = run_cli("export-dot", "--input", str(files / "threechain.json"))
        assert r2.returncode == 0 and "->" in r2.stdout

    def test_verify_unknown_suite(self):
        assert run_cli("verify", "--suite", "nope").returncode == 3

    def test_verify_reports_a_crashing_check_as_its_fail_line(self, monkeypatch):
        def crashes():
            raise KeyError("missing")

        (name, _), *rest = SUITES["order"]
        monkeypatch.setitem(SUITES, "order", ((name, crashes), *rest))
        rc, out, err = run_main("verify", "--suite", "order")
        lines = out.splitlines()
        assert (rc, err) == (1, "")
        assert lines[0] == f"FAIL order/{name}: KeyError: 'missing'"
        assert all(line.startswith("PASS order/") for line in lines[1:-1])
        assert lines[-1] == f"{len(rest)}/{len(rest) + 1} checks passed"


# ------------------------------------------------------------ CLI grammar

# argv -> (exit code, stdout key, stderr key), recorded with the argparse
# parser the CLI had before its grammar table.  An argv is split as a
# shell would and ``{name}`` stands for a fixture file.  The stdout key of
# a help text is its usage head with the flags and choice sets it names,
# since only its layout may change; of other output, a digest.  The
# stderr key is the ``error:`` line of a usage error, else all of stderr.
CLI_GRAMMAR = [
    ('posetify --functor pow --poset {chain2} --method generic --dot {out} --max-enum 100', 0,
     'e077e65544f611bb', ''),
    ('posetify --functor pow --poset {chain2} --method closed', 0,
     'fd4e03893599eeaa', ''),
    ('posetify --functor bag:2 --poset {chain2} --method both', 0,
     '3c579ad33751ff75', ''),
    ('positivize --syntax dunn --lattice {threechain} --check-closed-form --dot {out} '
     '--max-enum 1000', 0,
     '6e2a2d888770f746', ''),
    ('positivize --syntax free --lattice {threechain}', 0,
     '1516bf8995e53e21', ''),
    ('dualize --lattice {threechain} --max-enum 100', 0,
     '7edf9228e62a1140', ''),
    ('dualize --poset {chain2}', 0,
     '580cda6593c8a166', ''),
    ("interpret --coalgebra {kripke} --valuation {val} --formula '(dia p)' --mode boolean "
     '--max-enum 100', 0,
     '9025d9316dc0be6c', ''),
    ("interpret --coalgebra {coalg} --valuation {val} --formula '(and p (dia p))' --mode "
     'positive', 0,
     '17da029c60056641', ''),
    ("interpret --coalgebra {coalg} --valuation {val} --formula '(dia p)'", 0,
     'e94b5760e8588388', ''),
    ('verify --suite nope --max-enum 5', 3,
     '',
     "malformed input: unknown suite 'nope'; pick from order, algebra, posetify, "
     'positivize, semantics, all'),
    ('export-dot --input {chain2} --out {out} --max-enum 100', 0,
     '', ''),
    ('export-dot --input {threechain}', 0,
     '3ce244b132dcd02e', ''),
    ('posetify --functor=pow --poset={chain2} --method=closed', 0,
     'fd4e03893599eeaa', ''),
    ('posetify --func pow --pos {chain2} --meth closed --max-e 5 --max=100', 0,
     'fd4e03893599eeaa', ''),
    ('positivize --syntax=dunn --lat {threechain} --check', 0,
     '6e2a2d888770f746', ''),
    ('posetify --functor pow --poset {chain2} --method generic --method closed', 0,
     'fd4e03893599eeaa', ''),
    ('posetify --functor nope --poset {chain2} --functor pow', 0,
     'a4ddfeb07f797e5d', ''),
    ('posetify --m x', 3,
     '',
     'poslog posetify: error: ambiguous option: --m could match --method, --max-enum'),
    ('posetify --m=5', 3,
     '',
     'poslog posetify: error: ambiguous option: --m=5 could match --method, --max-enum'),
    ('posetify --=x', 3,
     '',
     'poslog posetify: error: ambiguous option: --=x could match --help, --functor, '
     '--poset, --method, --dot, --max-enum'),
    ('posetify --method fast --m', 3,
     '',
     'poslog posetify: error: ambiguous option: --m could match --method, --max-enum'),
    ('verify --suite x y --max', 3,
     '',
     'poslog verify: error: argument --max-enum: expected one argument'),
    ('posetify --functor', 3,
     '', 'poslog posetify: error: argument --functor: expected one argument'),
    ('posetify --functor pow --poset', 3,
     '', 'poslog posetify: error: argument --poset: expected one argument'),
    ('posetify --functor --poset {chain2}', 3,
     '', 'poslog posetify: error: argument --functor: expected one argument'),
    ('posetify --functor -- pow --poset {chain2}', 3,
     '', 'poslog posetify: error: argument --functor: expected one argument'),
    ('posetify --functor -x --poset {chain2}', 3,
     '', 'poslog posetify: error: argument --functor: expected one argument'),
    ('posetify --functor=-x --poset {chain2}', 3,
     '', "malformed input: unknown functor '-x'"),
    ('posetify --functor pow --poset -x', 3,
     '', 'poslog posetify: error: argument --poset: expected one argument'),
    ('dualize --lattice -1', 3,
     '', "malformed input: cannot read -1: [Errno 2] No such file or directory: '-1'"),
    ("dualize --poset '-x y'", 3,
     '', "malformed input: cannot read -x y: [Errno 2] No such file or directory: '-x y'"),
    ('dualize --poset -', 3,
     '', "malformed input: cannot read -: [Errno 2] No such file or directory: '-'"),
    ('verify --suite -1.5', 3,
     '',
     "malformed input: unknown suite '-1.5'; pick from order, algebra, posetify, "
     'positivize, semantics, all'),
    ('posetify --functor pow --poset {chain2} --max-enum -1', 3,
     '', 'poslog posetify: error: argument --max-enum: must be positive, not -1'),
    ('posetify --functor pow --poset {chain2} --max-enum 0', 3,
     '', 'poslog posetify: error: argument --max-enum: must be positive, not 0'),
    ('posetify --functor pow --poset {chain2} --max-enum x', 3,
     '', "poslog posetify: error: argument --max-enum: invalid int value: 'x'"),
    ('posetify --functor pow --poset {chain2} --max-enum=', 3,
     '', "poslog posetify: error: argument --max-enum: invalid int value: ''"),
    ('posetify --functor pow --poset {chain2} --max-enum 0x10', 3,
     '', "poslog posetify: error: argument --max-enum: invalid int value: '0x10'"),
    ('verify --suite nope --max-enum +7', 3,
     '',
     "malformed input: unknown suite 'nope'; pick from order, algebra, posetify, "
     'positivize, semantics, all'),
    ('posetify --functor pow --poset {chain2} --frob', 3,
     '', 'poslog: error: unrecognized arguments: --frob'),
    ('posetify --functor pow --poset {chain2} --frob value', 3,
     '', 'poslog: error: unrecognized arguments: --frob value'),
    ('posetify --functor pow --poset {chain2} stray', 3,
     '', 'poslog: error: unrecognized arguments: stray'),
    ('posetify --functor pow --poset {chain2} -- --method generic', 3,
     '', 'poslog: error: unrecognized arguments: -- --method generic'),
    ('posetify --functor pow --poset {chain2} ---method generic', 3,
     '', 'poslog: error: unrecognized arguments: ---method generic'),
    ('--frob posetify --functor pow --poset {chain2} -1', 3,
     '', 'poslog: error: unrecognized arguments: --frob -1'),
    ('posetify --frob', 3,
     '', 'poslog posetify: error: the following arguments are required: --functor, --poset'),
    ('posetify --poset {chain2}', 3,
     '', 'poslog posetify: error: the following arguments are required: --functor'),
    ('positivize', 3,
     '',
     'poslog positivize: error: the following arguments are required: --syntax, --lattice'),
    ('interpret --coalgebra {kripke} --formula p', 3,
     '', 'poslog interpret: error: the following arguments are required: --valuation'),
    ('posetify --functor pow --poset {chain2} --method fast', 3,
     '',
     "poslog posetify: error: argument --method: invalid choice: 'fast' (choose from "
     "'generic', 'closed', 'both')"),
    ('positivize --syntax frob --lattice {threechain}', 3,
     '',
     "poslog positivize: error: argument --syntax: invalid choice: 'frob' (choose from "
     "'dunn', 'free', 'semantic:pow', 'semantic:mnb', 'semantic:nb')"),
    ('interpret --coalgebra {kripke} --valuation {val} --formula p --mode sideways', 3,
     '',
     "poslog interpret: error: argument --mode: invalid choice: 'sideways' (choose from "
     "'boolean', 'positive', 'both')"),
    ('positivize --syntax dunn --lattice {threechain} --check-closed-form=x', 3,
     '',
     "poslog positivize: error: argument --check-closed-form: ignored explicit argument 'x'"),
    ('positivize --syntax dunn --lattice {threechain} --check-closed-form=', 3,
     '',
     "poslog positivize: error: argument --check-closed-form: ignored explicit argument ''"),
    ('-h', 0,
     'usage: poslog --help {posetify,positivize,dualize,interpret,verify,export-dot}', ''),
    ('--help', 0,
     'usage: poslog --help {posetify,positivize,dualize,interpret,verify,export-dot}', ''),
    ('--he', 0,
     'usage: poslog --help {posetify,positivize,dualize,interpret,verify,export-dot}', ''),
    ('-hhh', 0,
     'usage: poslog --help {posetify,positivize,dualize,interpret,verify,export-dot}', ''),
    ('-hx', 3,
     '', "poslog: error: argument -h/--help: ignored explicit argument 'x'"),
    ('-h=', 3,
     '', "poslog: error: argument -h/--help: ignored explicit argument ''"),
    ('--help=x', 3,
     '', "poslog: error: argument -h/--help: ignored explicit argument 'x'"),
    ('--frob -h', 0,
     'usage: poslog --help {posetify,positivize,dualize,interpret,verify,export-dot}', ''),
    ('-h posetify', 0,
     'usage: poslog --help {posetify,positivize,dualize,interpret,verify,export-dot}', ''),
    ('posetify -h', 0,
     'usage: poslog posetify --dot --functor --help --max-enum --method '
     '--poset {generic,closed,both}',
     ''),
    ('posetify --help', 0,
     'usage: poslog posetify --dot --functor --help --max-enum --method '
     '--poset {generic,closed,both}',
     ''),
    ('positivize -h', 0,
     'usage: poslog positivize --check-closed-form --dot --help --lattice --max-enum '
     '--syntax {dunn,free,semantic:pow,semantic:mnb,semantic:nb}',
     ''),
    ('positivize --help', 0,
     'usage: poslog positivize --check-closed-form --dot --help --lattice --max-enum '
     '--syntax {dunn,free,semantic:pow,semantic:mnb,semantic:nb}',
     ''),
    ('dualize -h', 0,
     'usage: poslog dualize --help --lattice --max-enum --poset', ''),
    ('dualize --help', 0,
     'usage: poslog dualize --help --lattice --max-enum --poset', ''),
    ('interpret -h', 0,
     'usage: poslog interpret --coalgebra --formula --help --max-enum '
     '--mode --valuation {boolean,positive,both}',
     ''),
    ('interpret --help', 0,
     'usage: poslog interpret --coalgebra --formula --help --max-enum '
     '--mode --valuation {boolean,positive,both}',
     ''),
    ('verify -h', 0,
     'usage: poslog verify --help --max-enum --suite', ''),
    ('verify --help', 0,
     'usage: poslog verify --help --max-enum --suite', ''),
    ('export-dot -h', 0,
     'usage: poslog export-dot --help --input --max-enum --out', ''),
    ('export-dot --help', 0,
     'usage: poslog export-dot --help --input --max-enum --out', ''),
    ('posetify --h', 0,
     'usage: poslog posetify --dot --functor --help --max-enum --method '
     '--poset {generic,closed,both}',
     ''),
    ('posetify -hh', 0,
     'usage: poslog posetify --dot --functor --help --max-enum --method '
     '--poset {generic,closed,both}',
     ''),
    ('posetify -hx', 3,
     '', "poslog posetify: error: argument -h/--help: ignored explicit argument 'x'"),
    ('posetify -h=x', 3,
     '', "poslog posetify: error: argument -h/--help: ignored explicit argument 'x'"),
    ('posetify --help=', 3,
     '', "poslog posetify: error: argument -h/--help: ignored explicit argument ''"),
    ('posetify --frob -h', 0,
     'usage: poslog posetify --dot --functor --help --max-enum --method '
     '--poset {generic,closed,both}',
     ''),
    ('posetify --method fast -h', 3,
     '',
     "poslog posetify: error: argument --method: invalid choice: 'fast' (choose from "
     "'generic', 'closed', 'both')"),
    ('posetify -h --method fast', 0,
     'usage: poslog posetify --dot --functor --help --max-enum --method '
     '--poset {generic,closed,both}',
     ''),
    ('posetify --functor pow --poset {chain2} --method=fast --help', 3,
     '',
     "poslog posetify: error: argument --method: invalid choice: 'fast' (choose from "
     "'generic', 'closed', 'both')"),
    ('', 3,
     '', 'poslog: error: the following arguments are required: command'),
    ('frob', 3,
     '',
     "poslog: error: argument command: invalid choice: 'frob' (choose from 'posetify', "
     "'positivize', 'dualize', 'interpret', 'verify', 'export-dot')"),
    ('pos', 3,
     '',
     "poslog: error: argument command: invalid choice: 'pos' (choose from 'posetify', "
     "'positivize', 'dualize', 'interpret', 'verify', 'export-dot')"),
    ('-- posetify', 3,
     '',
     "poslog: error: argument command: invalid choice: '--' (choose from 'posetify', "
     "'positivize', 'dualize', 'interpret', 'verify', 'export-dot')"),
    ('-1', 3,
     '',
     "poslog: error: argument command: invalid choice: '-1' (choose from 'posetify', "
     "'positivize', 'dualize', 'interpret', 'verify', 'export-dot')"),
    ('--frob', 3,
     '', 'poslog: error: the following arguments are required: command'),
]


def stdout_key(out: str) -> str:
    if out.startswith("usage: "):
        head = re.match(r"usage: poslog( [a-z-]+)?", out)[0]
        return " ".join([head, *sorted(set(re.findall(r"--[\w-]+", out))),
                         *sorted(set(re.findall(r"\{[^}]*\}", out)))])
    return out and hashlib.sha256(out.encode()).hexdigest()[:16]


def stderr_key(err: str) -> str:
    return next((line for line in err.splitlines() if ": error: " in line), err.strip())


@pytest.mark.parametrize("argv, rc, out_key, err_key", CLI_GRAMMAR)
def test_cli_grammar(files, argv, rc, out_key, err_key):
    names = {name: str(files / f"{name}.json")
             for name in ("chain2", "threechain", "coalg", "kripke", "val")}
    got_rc, out, err = run_main(*(a.format(out=files / "out.dot", **names)
                                  for a in shlex.split(argv)))
    assert (got_rc, stdout_key(out), stderr_key(err)) == (rc, out_key, err_key)
    if ": error: " in err_key:
        assert err.startswith("usage: poslog") and err.count("\n") >= 2


# ---------------------------------------------------------------- CLI fuzz

STATES = ("x", "y", "z")
JUNK = st.one_of(st.text(max_size=3), st.integers(-2, 3), st.booleans(), st.none(),
                 st.lists(st.sampled_from(STATES + ("w", 1)), max_size=3),
                 st.lists(st.lists(st.sampled_from(STATES), max_size=2), max_size=2),
                 st.dictionaries(st.sampled_from(STATES), st.sampled_from(STATES),
                                 max_size=2))


def rarely(draw) -> bool:
    """True one draw in eight (hypothesis favours small integers, so the
    true case is not drawn as zero)."""
    return draw(st.sampled_from((False,) * 7 + (True,)))


def maybe_junk(draw, valid):
    """A draw from ``valid``, or now and then from ``JUNK``."""
    return draw(JUNK) if rarely(draw) else draw(valid)


@st.composite
def coalgebras(draw):
    """Coalgebra JSON over up to three states: a set or a poset carrier and
    a successor list for each state, any part of it possibly malformed."""
    states = list(STATES[:draw(st.integers(1, 3))])
    subsets = st.lists(st.sampled_from(states), unique=True)
    pairs = st.lists(st.lists(st.sampled_from(states), min_size=2, max_size=2), max_size=2)
    carrier = maybe_junk(draw, st.one_of(
        st.just(states), st.builds(lambda leq: {"elements": states, "leq": leq}, pairs)))
    structure = {x: maybe_junk(draw, subsets) for x in states}
    if rarely(draw):
        del structure[draw(st.sampled_from(states))]
    if rarely(draw):
        structure["w"] = draw(subsets)
    return maybe_junk(draw, st.just({"carrier": carrier, "structure": structure}))


@st.composite
def valuations(draw):
    """Valuation JSON for ``p`` and ``q``, possibly malformed or naming a
    state outside every carrier."""
    subsets = st.lists(st.sampled_from(STATES), unique=True)
    out = {"p": maybe_junk(draw, subsets), "q": maybe_junk(draw, subsets)}
    if rarely(draw):
        out["p"] = ["w"]
    return maybe_junk(draw, st.just(out))


FORMULA_TOKENS = ["(", ")", "and", "or", "not", "box", "dia", "p", "q", "top", "bot", "frob"]
WELL_FORMED = st.recursive(
    st.sampled_from(["p", "q", "top", "bot"]),
    lambda sub: st.one_of(
        st.builds("({} {})".format, st.sampled_from(["not", "box", "dia"]), sub),
        st.builds(lambda op, args: f"({op} {' '.join(args)})",
                  st.sampled_from(["and", "or"]), st.lists(sub, min_size=2, max_size=3))),
    max_leaves=6)


@st.composite
def deep_formulas(draw):
    """A repeated pattern of connectives around ``p``, nested to about the
    limit or far past it: hypothesis raises the recursion limit while it
    runs a test, so only a formula thousands of frames deep would overflow
    an unchecked parser here."""
    depth = draw(st.one_of(st.integers(MAX_FORMULA_DEPTH - 1, MAX_FORMULA_DEPTH + 2),
                           st.integers(10 * MAX_FORMULA_DEPTH, 20 * MAX_FORMULA_DEPTH)))
    pattern = draw(st.lists(st.sampled_from(["(box ", "(dia ", "(not ", "(and p ", "(or q "]),
                            min_size=1, max_size=4))
    return "".join((pattern * depth)[:depth]) + "p" + ")" * depth


FORMULAS = st.one_of(WELL_FORMED, deep_formulas(),
                     st.lists(st.sampled_from(FORMULA_TOKENS), max_size=10).map(" ".join))


@settings(database=None, deadline=None, max_examples=150)
@given(coalgebra=coalgebras(), valuation=valuations(), formula=FORMULAS,
       mode=st.sampled_from(["boolean", "positive", "both"]))
def test_interpret_fuzz_exits_with_a_contract_code(files, coalgebra, valuation,
                                                   formula, mode):
    """Whatever the JSON and the formula, ``main`` returns a contract code:
    no exception escapes, and malformed input never exits 1."""
    rc, _, _ = run_main("interpret", "--coalgebra", json_file(files, coalgebra),
                        "--valuation", json_file(files, valuation),
                        "--formula", formula, "--mode", mode)
    assert rc in (0, 2, 3)


def json_file(directory, data) -> str:
    """A file holding ``data`` as JSON, named by its content, so that no
    file is ever rewritten (truncating a file can be slow)."""
    text = json.dumps(data)
    path = directory / f"fuzz-{hashlib.sha256(text.encode()).hexdigest()[:16]}.json"
    if not path.exists():
        path.write_text(text)
    return str(path)


@st.composite
def posets_json(draw):
    """Poset JSON over up to three labels, any part of it possibly
    malformed."""
    labels = draw(st.lists(st.sampled_from(STATES + (1,)), unique=True, max_size=3))
    named = st.sampled_from(labels if labels and not rarely(draw) else STATES)
    pairs = st.lists(st.lists(named, min_size=2, max_size=2), max_size=3)
    return maybe_junk(draw, st.just({"elements": labels, "leq": maybe_junk(draw, pairs)}))


@st.composite
def lattices_json(draw):
    """Lattice JSON: a distributive lattice by its spectrum, a Boolean
    algebra by its atoms, or junk."""
    return maybe_junk(draw, st.one_of(
        st.builds(lambda s: {"type": "dl", "spectrum": s}, posets_json()),
        st.builds(lambda a: {"type": "ba", "atoms": a},
                  st.lists(st.sampled_from(STATES), max_size=2) | JUNK),
        st.builds(lambda k: {"type": k}, st.sampled_from(["dl", "ba", "frob"]))))


BUDGETS = st.lists(st.tuples(st.just("--max-enum"),
                             st.sampled_from(["2", "40", "5000"] * 3 + ["-1", "0", "x"])),
                   max_size=1)


@st.composite
def verb_requests(draw, directory):
    """An argument list for posetify, positivize, dualize or export-dot."""
    verb = draw(st.sampled_from(["posetify", "positivize", "dualize", "export-dot"]))
    if verb == "posetify":
        argv = ["--functor", draw(st.sampled_from(
                    ["pow", "nb", "mnb", "bag", "bag:2", "bag:x", "poly:sigma=f:1:1",
                     "poly:sigma=f:2:1,c:0:2", "poly:sigma=f:1:1,f:1:1", "poly:f",
                     "frob"])),
                "--poset", json_file(directory, draw(posets_json())),
                "--method", draw(st.sampled_from(["generic", "closed", "both", "frob"]))]
    elif verb == "positivize":
        argv = ["--syntax", draw(st.sampled_from(SYNTAXES + ("semantic:bag:2", "frob"))),
                "--lattice", json_file(directory, draw(lattices_json()))]
        argv += ["--check-closed-form"] if draw(st.booleans()) else []
    elif verb == "dualize":
        argv = []
        if draw(st.booleans()):
            argv += ["--poset", json_file(directory, draw(posets_json()))]
        if draw(st.booleans()):
            argv += ["--lattice", json_file(directory, draw(lattices_json()))]
    else:
        argv = ["--input", json_file(directory, draw(st.one_of(posets_json(),
                                                               lattices_json())))]
    return [verb, *argv, *(a for flag in draw(BUDGETS) for a in flag)]


@settings(database=None, deadline=None, max_examples=200)
@given(data=st.data())
def test_other_verbs_fuzz_exit_with_a_contract_code(files, data):
    """Whatever the JSON and the flags, the four verbs return a contract
    code, print no traceback, and exit 1 only when two routes disagree."""
    argv = data.draw(verb_requests(files))
    rc, out, err = run_main(*argv)
    event(f"{argv[0]} exit {rc}")
    assert rc in (0, 1, 2, 3) and "Traceback" not in err
    if rc == 1:
        assert json.loads(out)["agree"] is False


FLAGS = sorted({flag[0] for _, _, flags in VERBS.values() for flag in flags})
VALUES = st.sampled_from(["pow", "nb", "bag:2", "dunn", "free", "semantic:nb", "both",
                          "generic", "boolean", "order", "0", "7", "-1", "-2.5", "-x",
                          "- x", "-", "--", "", "(dia p)", "p", "{poset}", "{lattice}"]) \
    | st.text(max_size=3)
ARGV_TOKENS = st.one_of(
    st.sampled_from([*VERBS, "frob", "-h", "--help", "-hx", "-hh", "--"]),
    st.sampled_from(FLAGS),
    st.builds(lambda flag, k: flag[:k], st.sampled_from(FLAGS), st.integers(2, 8)),
    st.builds("{}={}".format, st.sampled_from(FLAGS + ["--help", "--x", "--m"]), VALUES),
    VALUES)


@settings(database=None, deadline=None, max_examples=300)
@given(argv=st.lists(ARGV_TOKENS, max_size=8))
def test_parser_fuzz_exits_with_a_contract_code(files, argv):
    """Whatever the soup of verbs, flags, prefixes, ``--x=y`` forms, ``-h``
    and dash-leading values, ``main`` returns a contract code with no
    traceback, and prints nothing to stdout on bad usage.  A ``verify``
    request ends on an unknown suite, which wins as the last value, so no
    suite runs."""
    inputs = {"{poset}": (files / "fuzz-poset.json", (files / "chain2.json").read_text()),
              "{lattice}": (files / "fuzz-lattice.json",
                            (files / "threechain.json").read_text())}
    for path, text in inputs.values():  # --dot or --out may have written over them
        if not path.exists() or path.read_text() != text:
            path.write_text(text)
    for name, (path, _) in inputs.items():
        argv = [token.replace(name, str(path)) for token in argv]
    if "verify" in argv:
        argv += ["--suite", "nope"]
    rc, out, err = run_main(*argv)
    event(f"exit {rc}")
    assert rc in (0, 1, 2, 3) and "Traceback" not in err
    assert rc != 3 or out == ""
