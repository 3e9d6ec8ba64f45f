"""Syntax liftings to distributive lattices and their closed forms."""

import contextlib
import dataclasses
import importlib
import io
import json
import tracemalloc

import pytest

from poslog.algebra import (BAHom, FinBoolAlg, LatticeHom, ba_inserter, boolean_as_lattice,
                            free_ba, lattice_from_elements, lattice_identity,
                            lattice_isomorphic, up_algebra)
from poslog.cli import main
from poslog.errors import DEFAULT_MAX_ENUM, BudgetExceeded, InputError, budget
from poslog.functors import mnb_functor, nb_functor, parse_functor, pow_functor
from poslog.io import load_poset
from poslog.order import FinPoset, MonotoneMap
from poslog.positivize import (SYNTAXES, _edge_preorder_lattice, closed_form_dunn,
                               closed_form_fu, free_l, parse_syntax, positivize,
                               positivize_mor, semantic_l)
from poslog.verify import DUALITY_CASES, check_duality_rule, iso_representatives


def chain(*labels):
    return FinPoset.chain(labels)


def three_chain():
    return up_algebra(chain("p", "q"))


def two_lattice():
    return up_algebra(FinPoset.discrete(("s",)))


class TestSemanticFunctor:
    def test_on_objects_is_powerset_of_functor(self):
        l = semantic_l(pow_functor())
        b = FinBoolAlg(atoms=("x", "y"))
        lb = l.on_obj(b)
        assert len(lb.atoms) == 4  # subsets of a 2-set

    def test_functor_laws_on_sample_homs(self):
        from poslog.algebra import BAHom
        for l in (semantic_l(pow_functor()), free_l()):
            b = FinBoolAlg(atoms=("x", "y"))
            c = FinBoolAlg(atoms=("z",))
            ident = l.on_mor(BAHom(b, b, tuple(range(len(b.atoms)))))
            for e in l.on_obj(b).carrier():
                assert ident.apply(e) == e
            f = BAHom(b, c, (0,))  # the dual atom map by index: z -> x
            g = BAHom(c, b, (0, 0))  # x, y -> z
            # g after f: the duals compose the other way round
            lhs = l.on_mor(BAHom(f.source, g.target, tuple(f.dual[s] for s in g.dual)))
            rhs_f, rhs_g = l.on_mor(f), l.on_mor(g)
            for e in l.on_obj(b).carrier():
                assert lhs.apply(e) == rhs_g.apply(rhs_f.apply(e))


    def test_each_atom_set_is_decoded_once_per_call(self):
        """One lifting meets the ambient atom set (2 spectrum elements) and
        that of the ordered double (3 comparable pairs), each decoded
        once."""
        t = mnb_functor()
        seen = []

        def decode(atoms, decode=t.decode):
            seen.append(len(atoms))
            return decode(atoms)

        positivize(semantic_l(dataclasses.replace(t, decode=decode)), three_chain())
        assert seen == [2, 3]


class TestPositivize:
    def test_boolean_input_collapses_to_whole_algebra(self):
        l = semantic_l(pow_functor())
        b = FinBoolAlg(atoms=("x", "y"))
        p = positivize(l, boolean_as_lattice(b))
        assert len(p.members) == l.on_obj(b).size()

    def test_boolean_members_are_a_lazy_identity(self):
        l = semantic_l(pow_functor())
        b = FinBoolAlg(atoms=("x", "y"))
        p = positivize(l, boolean_as_lattice(b))
        ambient = l.on_obj(b).carrier()
        assert p.members == ambient and p.members is p.embed
        assert all(p.embed[m] == m for m in ambient)
        outside = len(ambient)  # a mask with a bit beyond the ambient atoms
        assert outside not in p.members
        with pytest.raises(IndexError):
            p.embed[outside]

    def test_dunn_three_chain_is_eight(self):
        p = positivize(semantic_l(pow_functor()), three_chain())
        assert len(p.members) == 8
        want = closed_form_dunn(three_chain())
        assert lattice_isomorphic(p.result, want) is not None

    def test_free_three_chain_is_sixteen(self):
        p = positivize(free_l(), three_chain())
        assert len(p.members) == 16
        assert lattice_isomorphic(p.result, closed_form_fu(three_chain())) is not None

    def test_free_builds_each_free_algebra_once(self, monkeypatch):
        """The lifting meets the free algebras over the 4 elements of the
        ambient algebra and over the 8 of the ordered double's; each is
        built once, and the modal image of every element builds none."""
        made = []
        monkeypatch.setattr(importlib.import_module("poslog.positivize"), "free_ba",
                            lambda gens: made.append(len(gens)) or free_ba(gens))
        a = three_chain()
        p = positivize(free_l(), a)
        assert made == [4, 8]
        # the generator of mask k is true at the valuations that hold bit k
        assert [p.box_of(x) for x in a.carrier()] == [0xAAAA, 0xF0F0, 0xFF00]
        assert made == [4, 8]

    def test_free_box_side_condition(self):
        a = three_chain()
        p = positivize(free_l(), a)
        middle = a.spectrum.mask(["q"])
        assert not p.is_member(p.box_of(middle))
        assert p.box_of(middle) not in p.members
        assert p.is_member(p.box_of(a.bot))
        assert p.is_member(p.box_of(a.top))

    def test_embedding_is_injective_lattice_map(self):
        p = positivize(semantic_l(pow_functor()), three_chain())
        pairs = [(p.result.spectrum.labels(r), p.ambient.labels(m))
                 for r, m in p.embed.items()]
        assert len({m for _, m in pairs}) == len(pairs)
        for r1, m1 in pairs:
            for r2, m2 in pairs:
                assert (r1 <= r2) == (m1 <= m2)

    def test_mnb_syntax_runs(self):
        p = positivize(semantic_l(mnb_functor()), three_chain())
        assert len(p.members) >= 2

    def test_inserter_sweep_refused_before_the_ordered_double_is_lifted(self, monkeypatch):
        """On the spectrum a<b, c the semantic nb lifting would sweep 2^256
        candidate members.  The sweep is refused from the atom count, before
        nb lifts the comparison homs and builds the algebra on the 65,536
        families of the ordered double's 4 comparable pairs."""
        built = []
        init = FinBoolAlg.__init__
        monkeypatch.setattr(FinBoolAlg, "__init__",
                            lambda b, atoms: built.append(len(atoms)) or init(b, atoms))
        a = up_algebra(load_poset({"elements": ["a", "b", "c"], "leq": [["a", "b"]]}))
        with pytest.raises(BudgetExceeded) as refused:
            positivize(semantic_l(nb_functor()), a)
        assert (refused.value.stage, refused.value.requested) == ("inserter sweep", 2 ** 256)
        assert built and max(built) < 2 ** 16

    @pytest.mark.parametrize("functor, atoms", [("poly:sigma=c:0:5", 5), ("bag:0", 1)])
    def test_a_functor_blind_to_the_order_is_refused_as_the_inserter_sweep(self, functor,
                                                                           atoms):
        """A constant functor lifts both comparison homs of a non-Boolean
        lattice to the same hom, so the lifting is the whole ambient
        algebra.  That is known only once the homs are lifted, so an
        ambient carrier over the budget is refused as the inserter sweep
        over it, with the same size."""
        l = semantic_l(parse_functor(functor))
        assert len(positivize(l, three_chain()).members) == 2 ** atoms
        with budget(max_enum=2 ** atoms - 1), pytest.raises(BudgetExceeded) as refused:
            positivize(l, three_chain())
        assert (refused.value.stage, refused.value.requested) == ("inserter sweep", 2 ** atoms)

    def test_free_budget_refusal_on_large_spectrum(self):
        # a 4-point spectrum gives a 16-element envelope carrier: too many
        # generators for the free syntax functor at the default budget
        a = up_algebra(FinPoset.discrete(("a", "b", "c", "d")))
        with pytest.raises(BudgetExceeded):
            positivize(free_l(), a)

    def test_free_is_refused_before_it_is_built(self):
        """On every spectrum type of 3 or 4 elements the free syntax is
        refused under the default budget.  The free algebra over its ordered
        double has up to 2^1024 atoms, so a refusal that comes after
        anything is built shows in the allocation peak."""
        for x in iso_representatives(4):
            if len(x) < 3:
                continue
            tracemalloc.start()
            try:
                with pytest.raises(BudgetExceeded):
                    positivize(free_l(), up_algebra(x))
                assert tracemalloc.get_traced_memory()[1] < 2 ** 20, x
            finally:
                tracemalloc.stop()


class TestClosedForms:
    def test_dunn_sizes(self):
        assert len(closed_form_dunn(three_chain()).carrier()) == 8
        boolean2 = boolean_as_lattice(FinBoolAlg(atoms=("x", "y")))
        assert len(closed_form_dunn(boolean2).carrier()) == 16
        assert len(closed_form_dunn(two_lattice()).carrier()) == 4

    def test_fu_sizes(self):
        assert len(closed_form_fu(three_chain()).carrier()) == 16
        boolean1 = boolean_as_lattice(FinBoolAlg(atoms=("x",)))
        assert len(closed_form_fu(boolean1).carrier()) == 16
        assert len(closed_form_fu(two_lattice()).carrier()) == 16


class TestDunnAxioms:
    def test_boolean_case_matches_classical_duality(self):
        # on a Boolean lattice the diamond is the dual of the box
        b = FinBoolAlg(atoms=("x", "y"))
        a = boolean_as_lattice(b)
        p = positivize(semantic_l(pow_functor()), a)
        for x in a.carrier():
            dual = p.ambient.neg(p.box_of(b.neg(x)))
            assert p.diamond_of(x) == dual


class TestHomAction:
    def test_identity_and_tracking(self):
        l = semantic_l(pow_functor())
        p3 = positivize(l, three_chain())
        ident = positivize_mor(l, lattice_identity(three_chain()), p3, p3)
        assert all(k == v for k, v in ident.items())

        p2 = positivize(l, two_lattice())
        h = LatticeHom(two_lattice(), three_chain(),
                       MonotoneMap.of_dict(three_chain().spectrum,
                                           two_lattice().spectrum,
                                           {"p": "s", "q": "s"}))
        action = positivize_mor(l, h, p2, p3)
        assert action[p2.ambient.bot] == p3.ambient.bot
        assert action[p2.ambient.top] == p3.ambient.top

    def test_composition_law_on_samples(self):
        l = semantic_l(pow_functor())
        p2 = positivize(l, two_lattice())
        p3 = positivize(l, three_chain())
        h = LatticeHom(two_lattice(), three_chain(),
                       MonotoneMap.of_dict(three_chain().spectrum,
                                           two_lattice().spectrum,
                                           {"p": "s", "q": "s"}))
        back = LatticeHom(three_chain(), two_lattice(),
                          MonotoneMap.of_dict(two_lattice().spectrum,
                                              three_chain().spectrum,
                                              {"s": "q"}))
        f1 = positivize_mor(l, h, p2, p3)
        f2 = positivize_mor(l, back, p3, p2)
        from poslog.algebra import lattice_compose
        composite = positivize_mor(l, lattice_compose(back, h), p2, p2)
        for m in p2.members:
            assert composite[m] == f2[f1[m]]


class TestDualityRule:
    """Positivication of ``P T`` at ``Up(X)`` is ``Up(T'(X))``."""

    @pytest.mark.parametrize("name, size", DUALITY_CASES)
    def test_inserter_matches_the_dual_of_posetification(self, name, size):
        ok, detail = check_duality_rule(cases=((name, size),))
        assert ok, detail


class TestParseSyntax:
    def test_names(self):
        assert parse_syntax("dunn").name == "semantic:pow"
        assert parse_syntax("semantic:bag:2").name == "semantic:bag:2"
        assert parse_syntax("free").name == "free"

    @pytest.mark.parametrize("bad", ["", "semantic:", "semantic:foo", "pow", "Free"])
    def test_unknown(self, bad):
        with pytest.raises(InputError):
            parse_syntax(bad)


def sweep_and_rebuild(p):
    """The lifted lattice as the sweep and the rebuild over its
    join-irreducibles give it, relabelled by their atoms: ``(result,
    members, embed)``."""
    sub = lattice_from_elements(ba_inserter(p.h1, p.h2))
    spectrum = sub.lattice.spectrum
    result = up_algebra(spectrum.relabel(map(p.ambient.labels, spectrum.elements)))
    return result, sub.members, sub.embed


def strict_pairs(x):
    return " ".join(f"{a}<{b}" for a, b in x.covers())


# The liftings over at most 4 spectrum elements that were refused while a
# quadratic audit paired up the members: (syntax, spectrum size, its
# strict pairs, number of members).  They are answered now, and checked
# against their closed forms.
FORMERLY_REFUSED = (
    ("dunn", 4, "a<b", 4096),
    ("dunn", 4, "a<b a<c", 1296),
    ("dunn", 4, "a<c b<c", 1296),
    ("semantic:mnb", 3, "a<b", 5760),
    ("semantic:mnb", 3, "a<b a<c", 1256),
    ("semantic:mnb", 3, "a<c b<c", 1256),
)

# Every syntax on every spectrum type of at most 4 elements: each is
# answered, or refused under the default budget before the routes split.
ROUTE_CASES = [(syntax, x) for syntax in SYNTAXES for x in iso_representatives(4)]


class TestDualEdgeRoute:
    """The lifted lattice built from the preorder of the dual edges is the
    one the sweep and the rebuild give, output order included."""

    @pytest.mark.parametrize("syntax, x", ROUTE_CASES,
                             ids=[f"{s}-{len(x)}:{strict_pairs(x)}" for s, x in ROUTE_CASES])
    def test_the_lifting_is_the_sweep_and_rebuild(self, syntax, x):
        l = parse_syntax(syntax)
        try:
            p = positivize(l, up_algebra(x))
        except BudgetExceeded as exc:
            # refused before the routes split, at the stages the parent refused at
            assert exc.stage in ("boolean algebra carrier", "free boolean algebra",
                                 "inserter sweep") or exc.stage.endswith(" on an atom set")
            return
        if p.h1 == p.h2:
            assert p.result == boolean_as_lattice(p.ambient)
            assert p.members is p.embed and p.members == p.ambient.carrier()
            return
        refused = [n for s, size, pairs, n in FORMERLY_REFUSED
                   if (s, size, pairs) == (syntax, len(x), strict_pairs(x))]
        if refused:
            assert len(p.members) == refused[0] and refused[0] ** 2 > DEFAULT_MAX_ENUM
            assert lattice_isomorphic(p.result, l.closed_form(up_algebra(x))) is not None
            assert p.result.size() == len(p.members) == len(p.embed)
            return
        result, members, embed = sweep_and_rebuild(p)
        assert p.result == result and p.members == members
        assert list(p.embed.items()) == list(embed.items())

    @pytest.mark.parametrize("members, why", [
        ((0, 1, 2, 3), "member is not closed"),  # {0} leaves by the edge 0 -> 1
        ((0, 3), "members are not the closed sets"),  # the closed {1} is missing
    ])
    def test_a_sweep_that_is_not_the_closed_sets_is_refused(self, members, why):
        b, c = FinBoolAlg((0, 1)), FinBoolAlg((0,))
        h1, h2 = BAHom(b, c, (0,)), BAHom(b, c, (1,))
        assert _edge_preorder_lattice(h1, h2, (0, 2, 3), b.labels)[1] \
            == {0: 0, 1: 2, 3: 3}
        with pytest.raises(AssertionError, match=why):
            _edge_preorder_lattice(h1, h2, members, b.labels)

    @pytest.mark.parametrize("pairs, size", [(pairs, n) for s, _, pairs, n
                                             in FORMERLY_REFUSED if s == "dunn"])
    def test_a_formerly_refused_dunn_lifting_agrees_with_its_closed_form(
            self, tmp_path, pairs, size):
        lattice = tmp_path / "lattice.json"
        lattice.write_text(json.dumps({"type": "dl", "spectrum": {
            "elements": ["a", "b", "c", "d"], "leq": [p.split("<") for p in pairs.split()]}}))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = main(["positivize", "--syntax", "dunn", "--lattice", str(lattice),
                       "--check-closed-form"])
        report = json.loads(out.getvalue())
        assert rc == 0 and report["agree"] is True
        assert report["result_size"] == report["closed_form_size"] == size

    def test_interpret_answers_both_routes_on_a_formerly_refused_carrier(self, tmp_path):
        """On the carrier a<b, a<c, d the reference route lifts to 1,296
        members; it answers and agrees with the one-step clauses."""
        coalgebra, valuation = tmp_path / "coalgebra.json", tmp_path / "valuation.json"
        coalgebra.write_text(json.dumps({
            "carrier": {"elements": ["a", "b", "c", "d"], "leq": [["a", "b"], ["a", "c"]]},
            "structure": {"a": ["a"], "b": ["b"], "c": ["a", "c"], "d": ["d"]}}))
        valuation.write_text(json.dumps({"p": ["b", "c"], "q": ["b", "c", "d"]}))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = main(["interpret", "--coalgebra", str(coalgebra), "--valuation",
                       str(valuation), "--formula", "(or (box p) (dia (and p q)))",
                       "--mode", "both"])
        report = json.loads(out.getvalue())
        assert rc == 0 and report["routes_agree"] is True
        assert report["satisfying"]["positive"] == ["b", "c"]
