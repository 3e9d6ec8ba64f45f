"""Property tests on random posets: each mask-level computation against
its definition, written out here on labels and the ``up`` table."""

from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from poslog.functors import multiset_functor, poly_functor, pow_functor, powerset
from poslog.order import FinPoset, down_closure, up_closure
from poslog.posetify import cross_check, egli_milner_leq

# no example database on disk, and no per-example deadline on a slow host
checked = settings(database=None, deadline=None)

LABELS = ("a", "b", "c", "d", "e", "f")


@st.composite
def posets(draw, max_size=6):
    """A poset from random pairs ``i < j`` of a hidden linear order, its
    elements listed under a shuffled labelling."""
    n = draw(st.integers(0, max_size))
    labels = draw(st.permutations(LABELS[:n]))
    candidates = list(combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(candidates), unique=True)) if candidates else []
    pairs = [(labels[i], labels[j]) for i, j in chosen]
    elements = draw(st.permutations(labels))
    return FinPoset.from_pairs(elements, pairs, complete=True)


def subsets_of(x):
    return st.sets(st.sampled_from(x.elements)) if len(x) else st.just(set())


def below(x, a, b):
    """``a <= b`` read off the up table."""
    return x.elements.index(b) in x.up[x.elements.index(a)]


@checked
@given(posets())
def test_order_queries_match_the_up_table(x):
    for a in x.elements:
        assert x.up_set(a) == {b for b in x.elements if below(x, a, b)}
        assert x.down_set(a) == {b for b in x.elements if below(x, b, a)}
        for b in x.elements:
            assert x.leq(a, b) == below(x, a, b)
    assert x.covers() == [
        (a, b) for a in x.elements for b in x.elements
        if a != b and below(x, a, b)
        and not any(c not in (a, b) and below(x, a, c) and below(x, c, b)
                    for c in x.elements)]


@checked
@given(st.data())
def test_closures_match_their_definitions(data):
    x = data.draw(posets())
    s = data.draw(subsets_of(x))
    assert up_closure(x, s) == {b for b in x.elements
                                if any(below(x, a, b) for a in s)}
    assert down_closure(x, s) == {a for a in x.elements
                                  if any(below(x, a, b) for b in s)}


def egli_milner_by_definition(x, a, b):
    return all(any(below(x, v, w) for w in b) for v in a) and \
        all(any(below(x, v, w) for v in a) for w in b)


@checked
@given(posets(max_size=5))
def test_egli_milner_matches_the_forall_exists_formula(x):
    subsets = powerset(x.elements)
    for a in subsets:
        for b in subsets:
            assert egli_milner_leq(x, a, b) == egli_milner_by_definition(x, a, b)


@checked
@given(posets(max_size=5))
def test_powerset_step_relation_matches_the_label_formula(x):
    r = pow_functor().step_relation(x)
    want = {(i, j) for i, a in enumerate(r.carrier) for j, b in enumerate(r.carrier)
            if egli_milner_by_definition(x, a, b)}
    assert r.rel == want


@checked
@given(posets(max_size=5))
def test_multiset_step_relation_matches_the_label_formula(x):
    def expand(m):
        return [label for label, c in m for _ in range(c)]

    r = multiset_functor(2).step_relation(x)
    want = set()
    for i, a in enumerate(r.carrier):
        for j, b in enumerate(r.carrier):
            xa, xb = expand(a), expand(b)
            if len(xa) == len(xb) and any(
                    all(below(x, v, w) for v, w in zip(xa, perm))
                    for perm in permutations(xb)):
                want.add((i, j))
    assert r.rel == want


@pytest.mark.parametrize("t", [pow_functor(), multiset_functor(2),
                               poly_functor([("f", 2, ("k",)), ("c", 0, ("u", "v"))])],
                         ids=lambda t: t.name)
@settings(checked, max_examples=25)
@given(x=posets(max_size=4))
def test_both_routes_agree(t, x):
    r = cross_check(t, x)
    assert r.ok, r.detail


@checked
@given(posets())
def test_equal_tables_give_equal_posets(x):
    twin = FinPoset(tuple(x.elements),
                    tuple(frozenset(sorted(u, reverse=True)) for u in x.up))
    assert twin == x and hash(twin) == hash(x)
    assert twin.upmask == x.upmask and twin.downmask == x.downmask


@checked
@given(posets())
def test_index_of_an_unknown_label_raises(x):
    with pytest.raises(ValueError):
        x.index("z")
    with pytest.raises(ValueError):
        x.leq("z", "z")
