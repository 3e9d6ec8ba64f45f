"""Functor catalogue: object/morphism maps, laws, estimates, budgets."""

import math

import pytest

from poslog.algebra import free_ba
from poslog.errors import DEFAULT_MAX_ENUM, BudgetExceeded, InputError, budget
from poslog.functors import (DEDEKIND, HUGE, _families, _family_positions, _multisets,
                             carrier_labels,
                             lift_relation_generic, mnb_functor,
                             multiset_functor, nb_functor, parse_functor,
                             poly_functor, pow_functor, powerset)
from poslog.order import FinPoset, transitive_closure
from poslog.verify import all_functions, iso_representatives, small_posets


ALL = [pow_functor(), nb_functor(), mnb_functor(), multiset_functor(3),
       poly_functor([("f", 2, ("k",)), ("c", 0, ("u", "v"))])]


class TestObjectMaps:
    def test_pow_on_three_set(self):
        assert len(pow_functor().on_obj(("a", "b", "c"))) == 8

    def test_nb_on_one_set(self):
        assert len(nb_functor().on_obj(("a",))) == 4

    def test_mnb_sizes_match_dedekind(self):
        for n in range(5):
            fams = mnb_functor().on_obj(tuple(range(n)))
            assert len(fams) == DEDEKIND[n]
            assert len(set(fams)) == len(fams)

    def test_mnb_families_are_up_closed(self):
        s = ("a", "b", "c")
        subsets = powerset(s)
        for fam in carrier_labels(mnb_functor(), s):
            for a in fam:
                for u in subsets:
                    if a <= u:
                        assert u in fam

    def test_bag_two_set_degree_two(self):
        # sizes 0..2 over two labels: 1 + 2 + 3 multisets
        elems = multiset_functor(2).on_obj(("p", "q"))
        assert len(elems) == 6

    def test_bag_estimate_matches(self):
        t = multiset_functor(3)
        for n in range(5):
            assert len(t.on_obj(tuple(range(n)))) == t.size_estimate(n) \
                == math.comb(n + 3, 3)

    def test_poly_counts(self):
        t = poly_functor([("f", 2, ("k",)), ("c", 0, ("u", "v"))])
        assert len(t.on_obj(("a", "b", "c"))) == 9 + 2 == t.size_estimate(3)
        assert len(t.on_obj(())) == 2  # constants survive on the empty set

    @pytest.mark.parametrize("cache, args", [
        (powerset, lambda k: ((k,),)),
        (_families, lambda k: (k,)),
        (_family_positions, lambda k: (k,)),
        (_multisets, lambda k: (k, 1)),
        (small_posets, lambda k: (k,)),
        (iso_representatives, lambda k: (k,)),
    ], ids=["powerset", "_families", "_family_positions", "_multisets", "small_posets",
            "iso_representatives"])
    def test_carrier_caches_are_bounded(self, cache, args):
        bound = cache.cache_info().maxsize
        assert bound is not None
        for k in range(bound + 1):
            cache(*args(k))
        assert cache.cache_info().currsize <= bound

    def test_label_tuples_of_one_size_share_one_enumeration(self):
        t = mnb_functor()
        assert t.on_obj(("a", "b", "c")) == t.on_obj(("x", "y", "z")) == range(DEDEKIND[3])


class TestMorphismMaps:
    @pytest.mark.parametrize("t", ALL, ids=lambda t: t.name)
    def test_identity_law(self, t):
        for n in range(3):
            s = ("a", "b", "c")[:n]
            assert t.on_mor(range(n), n) == list(range(len(t.on_obj(s))))

    @pytest.mark.parametrize("t", ALL, ids=lambda t: t.name)
    def test_composition_law(self, t):
        for f in all_functions(2, 2):
            for g in all_functions(2, 2):
                tf, tg = t.on_mor(f, 2), t.on_mor(g, 2)
                assert t.on_mor(tuple(g[i] for i in f), 2) == [tg[c] for c in tf]

    def test_mnb_action_is_upset_of_direct_image(self):
        t = mnb_functor()
        xs, ys = ("a", "b", "c"), ("x", "y")
        label, label_ys = t.decode(xs), t.decode(ys)
        for f in all_functions(len(xs), len(ys)):
            act = t.on_mor(f, len(ys))
            for code in t.on_obj(xs):
                direct = {frozenset(ys[f[xs.index(v)]] for v in a) for a in label(code)}
                want = frozenset(u for u in powerset(ys)
                                 if any(img <= u for img in direct))
                assert label_ys(act[code]) == want

    def test_nb_agrees_with_mnb_on_up_closed_families(self):
        nb, mnb = nb_functor(), mnb_functor()
        families = _families(2)[0]  # the mask of the family at each mnb code
        for f in all_functions(2, 2):
            nact = nb.on_mor(f, 2)
            mact = mnb.on_mor(f, 2)
            for code, fam in enumerate(families):
                assert nact[fam] == families[mact[code]]

    def test_pow_action_merges_the_images(self):
        act = pow_functor().on_mor((0, 0), 1)
        # a and b both go to x: {a, b} has mask 0b11 and {x} has mask 0b1
        assert pow_functor().decode(("x",))(act[0b11]) == frozenset(["x"])

    def test_multiset_action_preserves_degree(self):
        t = multiset_functor(3)
        xs, ys = ("a", "b", "c"), ("x",)
        act = t.on_mor((0, 0, 0), len(ys))
        label, label_ys = t.decode(xs), t.decode(ys)
        for e in t.on_obj(xs):
            assert sum(c for _, c in label_ys(act[e])) == sum(c for _, c in label(e))


class TestLifting:
    def test_discrete_lifting_is_diagonal(self):
        for t in ALL:
            p = FinPoset.discrete(("a", "b"))
            r = lift_relation_generic(t, p)
            n = len(r.carrier)
            assert r.rel == frozenset((i, i) for i in range(n))

    def test_pow_lifting_matches_pairwise_bounds_formula(self):
        # oracle: the direct two-sided formula, evaluated independently
        p = FinPoset.chain(("p", "q"))
        r = lift_relation_generic(pow_functor(), p)
        labels = carrier_labels(pow_functor(), p.elements)
        for i, a in enumerate(labels):
            for j, b in enumerate(labels):
                want = all(any(p.leq(v, w) for w in b) for v in a) and \
                    all(any(p.leq(v, w) for v in a) for w in b)
                assert ((i, j) in r.rel) == want

    def test_mnb_two_chain_has_dedekind_many_pair_witnesses(self):
        p = FinPoset.chain(("p", "q"))
        t = mnb_functor()
        assert t.size_estimate(3) == 20  # families over the 3-pair set
        r = lift_relation_generic(t, p)
        assert len(r.carrier) == 6

    def test_mnb_step_equals_materialised_on_all_small_posets(self):
        t = mnb_functor()
        from poslog.order import cotensor2
        for p in small_posets(3):
            if len(cotensor2(p)[0]) > 5:
                continue  # materialisation over budget; step path tested via oracles
            mat = lift_relation_generic(t, p)
            fast = t.step_relation(p)
            assert mat.carrier == fast.carrier and mat.rel == fast.rel

    def test_pow_step_equals_materialised(self):
        t = pow_functor()
        from poslog.order import enumerate_posets
        for p in enumerate_posets(("a", "b", "c")):
            mat = lift_relation_generic(t, p)
            fast = t.step_relation(p)
            assert mat.carrier == fast.carrier and mat.rel == fast.rel

    def test_nb_budget_refusal(self):
        chain4 = FinPoset.chain(("a", "b", "c", "d"))
        with pytest.raises(BudgetExceeded):
            lift_relation_generic(nb_functor(), chain4)

    def test_mnb_over_budget_uses_step_relation(self):
        chain3 = FinPoset.chain(("a", "b", "c"))
        t = mnb_functor()
        assert t.size_estimate(6) == 7828354  # would be materialised otherwise
        r = lift_relation_generic(t, chain3)
        assert len(r.carrier) == DEDEKIND[3]
        assert transitive_closure(r).carrier == r.carrier


def under(fn, max_enum):
    """``fn`` run inside ``budget(max_enum)``."""
    def run():
        with budget(max_enum):
            return fn()
    return run


@pytest.mark.parametrize("refuse, stage, requested, cap, message", [
    (lambda: lift_relation_generic(nb_functor(), FinPoset.discrete(tuple("abcde"))),
     "nb on the carrier", 1 << 32, DEFAULT_MAX_ENUM,
     "nb on the carrier would enumerate 4294967296 items (budget 1048576)"),
    (under(lambda: free_ba(tuple("abc")), 7), "free boolean algebra", 8, 7,
     "free boolean algebra would enumerate 8 items (budget 7)"),
    (under(lambda: lift_relation_generic(nb_functor(), FinPoset.chain("pq")), 100),
     "nb on the comparable pairs", 256, 100,
     "nb on 3 comparable pairs exceeds the budget and no closed-form lifting "
     "is available"),
    # 2^1024 families on the 10 pairs of a 4-chain: past 8 points the size of
    # nb is not computed, and HUGE stands in for it
    (lambda: lift_relation_generic(nb_functor(), FinPoset.chain("pqrs")),
     "nb on the comparable pairs", HUGE, DEFAULT_MAX_ENUM,
     "nb on 10 comparable pairs exceeds the budget and no closed-form lifting "
     "is available"),
], ids=["check_enum_budget", "free_ba", "lift_relation_generic",
        "lift_relation_generic_uncounted"])
def test_a_refusal_carries_its_stage_size_and_cap(refuse, stage, requested, cap, message):
    with pytest.raises(BudgetExceeded) as refused:
        refuse()
    exc = refused.value
    assert (exc.stage, exc.requested, exc.cap, str(exc)) == (stage, requested, cap, message)


class TestParsing:
    def test_names(self):
        assert parse_functor("pow").name == "pow"
        assert parse_functor("bag:2").name == "bag:2"
        assert parse_functor("bag").name == "bag:3"
        assert parse_functor("mnb").name == "mnb"

    def test_poly_spec(self):
        t = parse_functor("poly:sigma=f:2:1,g:0:2")
        assert t.size_estimate(2) == 4 + 2

    def test_bad_specs_rejected(self):
        for bad in ("unknown", "bag:x", "poly:f:2:1", "poly:sigma=f:2",
                    "poly:sigma=f:x:1"):
            with pytest.raises(InputError):
                parse_functor(bad)
