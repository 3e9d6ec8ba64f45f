"""Formulas, interpretation, the semantic component and its lifting."""

from itertools import product
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from poslog import semantics
from poslog.errors import InputError
from poslog.functors import nb_functor, pow_functor, powerset
from poslog.order import FinPoset, bits
from poslog.posetify import posetify_powerset
from poslog.semantics import (BOT, TOP, Coalgebra, box, check_positive_coalgebra,
                              conj, delta_pow, delta_prime, dia, disj, interpret_boolean,
                              interpret_positive, neg, parse_formula, var,
                              positive_context)
from poslog.verify import iso_representatives, monotone_coalgebras, small_posets


def chain(*labels):
    return FinPoset.chain(labels)


class TestFormulas:
    def test_parse_and_print_round_trip(self):
        for text in ["(dia (or p q))", "(box p)", "(not p)", "top",
                     "(and p (dia top))"]:
            f = parse_formula(text)
            assert parse_formula(str(f)) == f

    def test_nary_connectives_fold(self):
        f = parse_formula("(and p q r)")
        assert f == conj(var("p"), var("q"), var("r"))

    def test_positivity_and_depth(self):
        assert parse_formula("(dia (or p q))").is_positive
        assert not parse_formula("(not p)").is_positive
        assert parse_formula("(box (dia p))").depth == 2
        assert TOP.depth == 0

    @pytest.mark.parametrize("bad", ["", "(dia)", "(not p q)", "(frob p)",
                                     "(and p", "p q", "box"])
    def test_parse_errors(self, bad):
        with pytest.raises(InputError):
            parse_formula(bad)


class TestCoalgebra:
    def test_total_structure_required(self):
        with pytest.raises(InputError, match="^successor table does not match carrier$"):
            Coalgebra(FinPoset.discrete(("x", "y")), (0b10,))

    def test_successors_must_stay_inside(self):
        for succ in [(0b10,), (-1,)]:
            with pytest.raises(InputError, match="^successor index out of range$"):
                Coalgebra(FinPoset.discrete(("x",)), succ)

    def test_non_monotone_rejected_by_positive_interpretation(self):
        c = Coalgebra(chain("x", "y"), (0b10, 0))
        with pytest.raises(InputError):
            interpret_positive(c, {"p": 0b10}, var("p"))

    def test_non_convex_successor_rejected(self):
        c = Coalgebra(chain("x", "y", "z"), (0b101,) * 3)  # {x, z} each
        with pytest.raises(InputError):
            interpret_positive(c, {}, TOP)


    @pytest.mark.parametrize("method", ["direct", "delta"])
    @pytest.mark.parametrize("carrier, succ", [
        (("x", "y"), (0b10, 0)),
        (("x", "y", "z"), (0b101,) * 3)],
        ids=["not-monotone", "not-convex"])
    def test_refused_on_every_call_by_both_methods(self, method, carrier, succ):
        c = Coalgebra(chain(*carrier), succ)
        for _ in range(2):
            with pytest.raises(InputError):
                interpret_positive(c, {}, TOP, method)
        assert not c.positive_checked

    def test_checked_once_per_coalgebra(self, monkeypatch):
        calls = []
        check = semantics.check_positive_coalgebra
        monkeypatch.setattr(semantics, "check_positive_coalgebra",
                            lambda c: calls.append(c) or check(c))
        c = Coalgebra(chain("x", "y"), (0b10, 0b10))
        for method in ("direct", "delta", "direct"):
            for text in ("(dia p)", "(box p)"):
                interpret_positive(c, {"p": 0b10}, parse_formula(text), method)
        assert calls == [c] and c.positive_checked


def convex_powerset_check(c):
    """The coalgebra check as it read on the convex powerset: every
    successor set a code of the lifted order, every comparable pair of
    states related by the witness relation on all subsets."""
    pos = posetify_powerset(c.carrier)
    convex, lifted, x = set(pos.order.elements), pos.witness.succ, c.carrier
    for i, s in enumerate(c.succ):
        if s not in convex:
            raise InputError(f"successor set of {x.elements[i]!r} is not convex")
    for i, s in enumerate(c.succ):
        for j in bits(x.upmask[i]):
            if not lifted[s] >> c.succ[j] & 1:
                raise InputError(f"structure map is not monotone between "
                                 f"{x.elements[i]!r} and {x.elements[j]!r}")


def check_outcome(check, c):
    """``None`` when ``check`` accepts ``c``, else its message."""
    try:
        check(c)
    except InputError as exc:
        return str(exc)
    return None


class TestCoalgebraCheckOnMasks:
    """The mask check against the convex-powerset check it replaces."""

    def test_agrees_on_every_successor_map_up_to_three_states(self):
        accepted = 0
        for p in small_posets(3):
            for masks in product(range(1 << len(p)), repeat=len(p)):
                c = Coalgebra(p, masks)
                want = check_outcome(convex_powerset_check, c)
                assert check_outcome(check_positive_coalgebra, c) == want, \
                    (p.elements, p.upmask, masks)
                accepted += want is None
        assert accepted > 100  # both verdicts are exercised

    @settings(database=None, deadline=None, max_examples=300)
    @given(st.data())
    def test_agrees_on_drawn_maps_up_to_five_states(self, data):
        n = data.draw(st.integers(0, 5))
        pairs = data.draw(st.lists(st.tuples(st.integers(0, max(n - 1, 0)),
                                             st.integers(0, max(n - 1, 0)))))
        labels = ("a", "b", "c", "d", "e")[:n]
        p = FinPoset.from_pairs(labels, [(labels[i], labels[j]) for i, j in pairs
                                         if i < j])
        masks = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))
        shape = data.draw(st.sampled_from(["any", "convex", "constant"]))
        if shape != "any":  # convex sets, and for "constant" a monotone map
            masks = [p.up_of(m) & p.down_of(m) for m in masks]
            if shape == "constant" and masks:
                masks = [masks[0]] * n
        c = Coalgebra(p, tuple(masks))
        assert check_outcome(check_positive_coalgebra, c) == \
            check_outcome(convex_powerset_check, c)


PQ = FinPoset.discrete(("p", "q"))
# a mask over the subsets of {p, q}, as the set of those subsets
pq_subsets = nb_functor().decode(PQ.elements)


def _pq_diamond(u):
    return pow_functor().diamond(len(PQ), PQ.mask(u))


class TestDeltaComponent:
    def test_diamond_of_empty_is_empty(self):
        dp = delta_pow(("p", "q"))
        assert pq_subsets(dp.apply(_pq_diamond([]))) == frozenset()

    def test_diamond_of_everything_is_nonempty_sets(self):
        dp = delta_pow(("p", "q"))
        want = frozenset(s for s in powerset(("p", "q")) if s)
        assert pq_subsets(dp.apply(_pq_diamond(["p", "q"]))) == want

    def test_diamond_of_singleton(self):
        dp = delta_pow(("p", "q"))
        got = pq_subsets(dp.apply(_pq_diamond(["p"])))
        assert got == frozenset([frozenset(["p"]), frozenset(["p", "q"])])

    def test_box_is_dual(self):
        dp = delta_pow(("p", "q"))
        u = PQ.mask(["q"])
        box_img = pq_subsets(dp.apply(pow_functor().box(len(PQ), u)))
        assert box_img == frozenset([frozenset(), frozenset(["q"])])


class TestDeltaPrime:
    def test_two_chain_examples(self):
        pos, lifted, dprime = positive_context(chain("x", "y"))
        classes = pos.result.labels  # a predicate is a mask of lifted classes
        up_y = chain("x", "y").mask(["y"])
        dia_pred = classes(dprime.apply(lifted.diamond_of(up_y)))
        assert dia_pred == frozenset([frozenset(["y"]), frozenset(["x", "y"])])
        box_pred = classes(dprime.apply(lifted.box_of(up_y)))
        assert box_pred == frozenset([frozenset(), frozenset(["y"])])
        top_pred = classes(dprime.apply(lifted.ambient.top))
        assert top_pred == frozenset(pos.result.elements)

    def test_predicates_are_upsets_in_lifted_order(self):
        pos, lifted, dprime = positive_context(chain("x", "y"))
        for member in lifted.members:
            pred = pos.result.labels(dprime.apply(member))
            for c in pred:
                for d in pos.result.elements:
                    if pos.result.leq(c, d):
                        assert d in pred

    def test_on_demand_images_equal_the_eager_table(self):
        """Each member applied alone, in reverse order, gives the image of
        the eager loop written out here."""
        for p in iso_representatives(3):
            pos, lifted, _ = positive_context(p)
            dp, e = delta_pow(p.elements), pos.e
            eager = {}
            for m in lifted.members:
                ms = dp.apply(m)
                u = 0
                for i in bits(ms):
                    u |= 1 << e[i]
                eager[m] = u
            fresh = delta_prime(pow_functor(), delta_pow, p, pos, lifted)
            assert not fresh.memo
            for m in reversed(lifted.members):
                assert fresh.apply(m) == eager[m]

    def test_a_non_saturated_image_raises_on_its_first_apply(self):
        """Construction asks for no image; the first ``apply`` asserts
        saturation, and a failed image is not remembered."""
        p = chain("x", "y")
        pos, lifted, _ = positive_context(p)
        # the subset {x} alone: {y} and {x, y} lie above it in the lifted order
        stub = lambda states: SimpleNamespace(apply=lambda member: 1 << p.mask(["x"]))
        dprime = delta_prime(pow_functor(), stub, p, pos, lifted)
        for _ in range(2):
            with pytest.raises(AssertionError, match="not saturated"):
                dprime.apply(lifted.ambient.top)
        assert not dprime.memo

    def test_a_mask_outside_the_lifted_algebra_is_refused(self):
        pos, lifted, dprime = positive_context(chain("x", "y"))
        outside = next(m for m in range(1 << len(lifted.ambient.atoms))
                       if m not in lifted.members)
        with pytest.raises(AssertionError, match="left the lifted algebra"):
            dprime.apply(outside)
        assert outside not in dprime.memo

    def test_a_mask_beyond_the_ambient_atoms_is_refused(self):
        _, lifted, dprime = positive_context(chain("x", "y"))
        width = len(lifted.ambient.atoms)
        for mask in (1 << width, lifted.ambient.top | 1 << width, -1):
            with pytest.raises(AssertionError, match="^modal image left the lifted algebra$"):
                dprime.apply(mask)
            assert mask not in dprime.memo

    def test_membership_is_the_list_of_members(self):
        """Membership is tested by the inserter's definition; it accepts
        exactly the masks of the ambient algebra that the sweep listed."""
        for p in iso_representatives(3):
            _, lifted, dprime = positive_context(p)
            members = set(lifted.members)
            assert [m for m in range(1 << len(lifted.ambient.atoms))
                    if dprime.is_member(m)] == sorted(members)

    def test_the_images_are_those_of_membership_by_the_list(self):
        for p in iso_representatives(3):
            pos, lifted, dprime = positive_context(p)
            listed = semantics.DeltaPrime(lifted.members, set(lifted.members).__contains__,
                                          dprime.image)
            fresh = delta_prime(pow_functor(), delta_pow, p, pos, lifted)
            assert [fresh.apply(m) for m in lifted.members] == \
                [listed.apply(m) for m in lifted.members]


class TestBooleanInterpretation:
    def setup_method(self):
        self.c = Coalgebra(FinPoset.discrete(("x", "y")), (0b10, 0))  # x -> y
        self.v = {"p": 0b10}

    def test_constants(self):
        assert interpret_boolean(self.c, self.v, TOP) == 0b11
        assert interpret_boolean(self.c, self.v, BOT) == 0

    def test_one_step_diamond(self):
        assert interpret_boolean(self.c, self.v, dia(var("p"))) == 0b01

    def test_deadlock_states(self):
        assert interpret_boolean(self.c, self.v, neg(dia(TOP))) == 0b10
        # the deadlock convention: empty successor set satisfies every box
        assert interpret_boolean(self.c, self.v, box(BOT)) == 0b10

    def test_unbound_variable(self):
        with pytest.raises(InputError):
            interpret_boolean(self.c, {}, var("p"))

    @pytest.mark.parametrize("mask", [0b100, -1])
    def test_valuation_outside_the_carrier(self, mask):
        with pytest.raises(InputError, match="^valuation of 'q' leaves the carrier$"):
            interpret_boolean(self.c, {"p": 0b10, "q": mask}, var("p"))


class TestPositiveInterpretation:
    def setup_method(self):
        self.c = Coalgebra(chain("x", "y"), (0b10, 0b10))  # x -> y, y -> y
        self.v = {"p": 0b10}

    @pytest.mark.parametrize("text,want", [
        ("(dia p)", {"x", "y"}),
        ("(box p)", {"x", "y"}),
        ("(and p (dia p))", {"y"}),
    ])
    def test_examples_both_routes(self, text, want):
        f, want = parse_formula(text), self.c.carrier.mask(want)
        assert interpret_positive(self.c, self.v, f, "direct") == want
        assert interpret_positive(self.c, self.v, f, "delta") == want

    def test_negation_rejected(self):
        with pytest.raises(InputError):
            interpret_positive(self.c, self.v, neg(var("p")))

    def test_non_upset_valuation_rejected(self):
        with pytest.raises(InputError, match="^valuation of 'p' is not an upset$"):
            interpret_positive(self.c, {"p": 0b01}, var("p"))

    def test_results_are_upsets(self):
        x = self.c.carrier
        for text in ["(dia p)", "(box p)", "(or p (box (dia p)))"]:
            got = interpret_positive(self.c, self.v, parse_formula(text))
            assert x.up_of(got) == got


class TestCoherence:
    def test_formula_level_agreement_on_sampled_models(self):
        p = chain("x", "y", "z")
        pos, _, _ = positive_context(p)
        formulas = [dia(var("p")), box(var("p")),
                    box(dia(var("p"))), conj(var("p"), dia(var("p"))),
                    disj(box(var("p")), dia(box(var("p"))))]
        upsets = [u for u in range(1 << len(p)) if p.up_of(u) == u]
        for c in monotone_coalgebras(p, pos.order.elements, limit=8):
            for u in upsets:
                val = {"p": u}
                for f in formulas:
                    assert interpret_positive(c, val, f, "direct") == \
                        interpret_positive(c, val, f, "delta")


class TestDiscreteAgreement:
    def test_boolean_equals_positive_on_discrete(self):
        p = FinPoset.discrete(("x", "y"))
        subsets = range(1 << len(p))
        formulas = [var("p"), dia(var("p")), box(var("p")),
                    conj(dia(TOP), var("p")), disj(box(BOT), var("p")),
                    box(dia(var("p")))]
        for sx in subsets:
            for sy in subsets:
                c = Coalgebra(p, (sx, sy))
                for u in subsets:
                    val = {"p": u}
                    for f in formulas:
                        assert interpret_boolean(c, val, f) == \
                            interpret_positive(c, val, f, "direct")
