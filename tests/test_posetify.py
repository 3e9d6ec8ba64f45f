"""Order liftings: generic engine, closed forms, and their agreement."""

import dataclasses

import pytest

from poslog.errors import BudgetExceeded, budget
from poslog.functors import (_mnb_obj, lift_relation_generic, mnb_functor,
                             multiset_functor, nb_functor, poly_functor,
                             pow_functor)
from poslog.order import FinPoset, Preorder
from poslog.posetify import (Posetification, closed_form, cross_check, posetify_generic,
                             posetify_mnb, posetify_nb, posetify_powerset)
from poslog.verify import small_posets


def chain(*labels):
    return FinPoset.chain(labels)


def replaced(pos: Posetification, **fields) -> Posetification:
    """``pos`` with the given fields replaced."""
    old = {f: getattr(pos, f) for f in ("order", "e", "carrier", "witness", "decode")}
    return Posetification(**{**old, **fields})


class TestGeneric:
    def test_pow_two_chain_shape(self):
        pos = posetify_generic(pow_functor(), chain("p", "q"))
        pos.validate()
        assert len(pos.order) == 4
        # the classes of {}, {p}, {q} and {p, q}: a subset's code is its mask
        empty, p_, q_, pq = (pos.e[m] for m in (0b00, 0b01, 0b10, 0b11))
        leq = pos.order.leq_idx
        assert leq(p_, pq) and leq(pq, q_)
        assert not leq(q_, pq)
        assert all(not leq(empty, o) and not leq(o, empty) for o in (p_, q_, pq))

    def test_discrete_inputs_stay_discrete(self):
        for t in (pow_functor(), mnb_functor(), nb_functor(),
                  multiset_functor(3)):
            pos = posetify_generic(t, FinPoset.discrete(("a", "b")))
            pos.validate()
            assert not pos.result.covers()
            assert len(pos.result) == len(pos.e)  # projection bijective

    def test_multiset_no_quotient_on_two_chain(self):
        t = multiset_functor(3)
        pos = posetify_generic(t, chain("p", "q"))
        pos.validate()
        assert len(pos.result) == len(t.on_obj(("p", "q")))

    def test_empty_poset(self):
        pos = posetify_generic(pow_functor(), FinPoset((), ()))
        assert len(pos.result) == 1  # just the empty subset


class TestPowersetClosedForm:
    def test_two_chain_matches_generic(self):
        assert cross_check(pow_functor(), chain("p", "q")).ok

    def test_three_chain_has_seven_convex_sets(self):
        pos = posetify_powerset(chain("p", "q", "r"))
        pos.validate()
        assert len(pos.order) == 7
        convex = pos.order.elements  # the class of a subset is its convex closure
        assert convex[pos.e[0b101]] == 0b111  # gap closes
        x = chain("p", "q", "r")
        assert all(convex[pos.e[s]] == x.up_of(s) & x.down_of(s) for s in range(1 << 3))

    def test_discrete_keeps_all_subsets(self):
        pos = posetify_powerset(FinPoset.discrete(("a", "b", "c")))
        assert len(pos.result) == 8 and not pos.result.covers()


class TestAnalytic:
    @pytest.mark.parametrize("t", [multiset_functor(3),
                                   poly_functor([("f", 2, ("k",))])],
                             ids=lambda t: t.name)
    def test_antisymmetric_and_no_quotient(self, t):
        for p in small_posets(3):
            r = lift_relation_generic(t, p)
            assert r.is_antisymmetric()
            pos = posetify_generic(t, p)
            assert len(pos.order) == len(r.carrier)


class TestMnb:
    def test_discrete_two_set_has_six_families(self):
        pos = posetify_mnb(FinPoset.discrete(("a", "b")))
        assert len(pos.result) == 6 and not pos.result.covers()

    def test_two_chain_matches_generic(self):
        assert cross_check(mnb_functor(), chain("p", "q")).ok

    def test_three_chain_uses_fallback_and_agrees(self):
        r = cross_check(mnb_functor(), chain("p", "q", "r"))
        assert r.ok, r.detail

    def test_budget_refused_before_the_families_are_enumerated(self):
        x = FinPoset.discrete(("a", "b", "c", "d", "e"))
        before = _mnb_obj.cache_info().currsize
        with budget(max_enum=100):
            with pytest.raises(BudgetExceeded, match="would enumerate 57471561 items"):
                posetify_mnb(x)
            with pytest.raises(BudgetExceeded, match="would enumerate 57471561 items"):
                mnb_functor().step_relation(x)
        assert _mnb_obj.cache_info().currsize == before


class TestNb:
    def test_two_chain_collapses_to_four(self):
        pos = posetify_nb(chain("p", "q"))
        pos.validate()
        assert len(pos.result) == 4 and not pos.result.covers()

    def test_discrete_two_set_keeps_sixteen(self):
        pos = posetify_nb(FinPoset.discrete(("a", "b")))
        assert len(pos.result) == 16

    def test_chain_plus_point_has_two_components(self):
        p = FinPoset.from_pairs(("a", "b", "c"), [("a", "b")], complete=True)
        pos = posetify_nb(p)
        assert len(pos.result) == 16

    def test_projection_is_the_functor_on_the_component_collapse(self):
        p = FinPoset.from_pairs(("a", "b", "c"), [("a", "b")], complete=True)
        comp = (0, 0, 1)  # {a, b} and {c}
        pos = posetify_nb(p)
        for k, fam in enumerate(pos.carrier):
            # the families over the components whose preimage is in fam
            want = sum(1 << u for u in range(1 << 2)
                       if fam >> sum(1 << v for v in range(3) if u >> comp[v] & 1) & 1)
            assert pos.order.elements[pos.e[k]] == want


@pytest.mark.parametrize("closed", [posetify_nb, posetify_powerset, posetify_mnb])
def test_result_shares_the_rows_of_the_order(closed):
    pos = closed(FinPoset.discrete(("a", "b")))
    assert pos.result.upmask is pos.order.upmask
    assert pos.result.downmask is pos.order.downmask
    assert pos.result.elements == tuple(map(pos.decode, pos.order.elements))


class TestCrossCheck:
    def test_reports_the_first_pair_where_the_orders_differ(self):
        x = chain("p", "q")
        real = closed_form(pow_functor(), x)
        flat = replaced(real, order=FinPoset.discrete(real.order.elements))
        t = dataclasses.replace(pow_functor(), closed_form=lambda t, x: flat)
        r = cross_check(t, x)
        gen = r.generic
        # a subset's code is its carrier index on both routes
        phi = {gen.e[v]: flat.e[v] for v in range(1 << len(x))}
        classes = range(len(gen.order))
        i, j = next((i, j) for i in classes for j in classes
                    if gen.order.leq_idx(i, j) != flat.order.leq_idx(phi[i], phi[j]))
        first = (gen.result.elements[i], gen.result.elements[j])
        assert not r.ok and r.detail == f"order differs at {first!r}"

    def test_reports_where_the_orders_differ_when_both_are_on_the_carrier(self):
        """The analytic closed form keeps every element of the carrier, so
        the class map between the routes is the identity."""
        t = multiset_functor(3)
        real = closed_form(t, chain("p", "q"))
        flat = replaced(real, order=FinPoset.discrete(real.order.elements))
        r = cross_check(dataclasses.replace(t, closed_form=lambda t, x: flat),
                        chain("p", "q"))
        assert not r.ok and r.detail == "order differs at ((('p', 1),), (('q', 1),))"

    def test_analytic_closed_form_asserts_a_partial_order(self):
        t = multiset_functor(2)
        full = lambda x: Preorder(t.on_obj(x.elements), (0b111,) * 3)
        with pytest.raises(AssertionError, match="^bag:2: lifted relation is not "
                           "already a partial order$"):
            closed_form(dataclasses.replace(t, step_relation=full), chain("p"))

    def test_reports_projections_that_split_a_class(self):
        x = chain("p", "q", "r")
        real = closed_form(pow_functor(), x)
        e = list(real.e)
        e[0b101], e[0b010] = e[0b010], e[0b101]  # {p, r} and {q} trade classes
        split = replaced(real, e=tuple(e))
        t = dataclasses.replace(pow_functor(), closed_form=lambda t, x: split)
        r = cross_check(t, x)
        assert not r.ok and r.detail.startswith("projections disagree at ")

    def test_budget_propagates(self):
        with pytest.raises(BudgetExceeded):
            posetify_generic(nb_functor(), chain("a", "b", "c", "d"))

    def test_budget_checked_before_the_carrier_is_enumerated(self):
        def refuse(s):
            raise AssertionError("carrier enumerated before the budget check")

        nb = dataclasses.replace(nb_functor(), on_obj=refuse)
        with pytest.raises(BudgetExceeded):
            cross_check(nb, FinPoset.discrete(("a", "b", "c", "d")))
        with pytest.raises(BudgetExceeded):
            lift_relation_generic(nb, chain("a", "b", "c", "d"))
