"""Property tests on random posets and relations: each mask-level
computation against its definition, written out here on labels and on
sets of pairs."""

from collections import Counter
from itertools import combinations, combinations_with_replacement, permutations, product

import pytest
from hypothesis import assume, given, settings, strategies as st

from poslog.algebra import (BAHom, FinBoolAlg, LatticeHom, ba_inserter,
                            lattice_from_elements, prime_filter_poset, product_ba,
                            tensor2, up_algebra)
from poslog.errors import BudgetExceeded, InputError
from poslog.functors import (_mnb_obj, carrier_labels, mnb_functor, multiset_functor,
                             nb_functor, poly_functor, pow_functor)
from poslog.io import format_label, render_poset
from poslog.order import (FinPoset, MonotoneMap, Preorder, _close_rows, bits,
                          enumerate_poset_types, enumerate_posets, poset_isomorphism,
                          poset_quotient, transitive_closure)
from poslog.posetify import cross_check, posetify_mnb, posetify_powerset
from poslog.positivize import beta, dunn_axiom_check, positivize, semantic_l
from poslog.semantics import (BOT, TOP, Coalgebra, DeltaPrime, box, conj, delta_pow, dia,
                              disj, interpret_positive, var)
from poslog.verify import CheckOutcome, egli_milner, iso_representatives

# no example database on disk, and no per-example deadline on a slow host
checked = settings(database=None, deadline=None)

LABELS = ("a", "b", "c", "d", "e", "f", "g")


@st.composite
def posets(draw, max_size=6, min_size=0):
    """``(x, leq)``: a poset from random pairs ``i < j`` of a hidden linear
    order, its elements listed under a shuffled labelling, and its order
    as the set of label pairs ``a <= b``, closed here on labels."""
    n = draw(st.integers(min_size, max_size))
    labels = draw(st.permutations(LABELS[:n]))
    candidates = list(combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(candidates), unique=True)) if candidates else []
    pairs = [(labels[i], labels[j]) for i, j in chosen]
    elements = draw(st.permutations(labels))
    x = FinPoset.from_pairs(elements, pairs, complete=True)
    return x, closure_by_fixpoint({(a, a) for a in labels} | set(pairs))


def closure_by_fixpoint(pairs):
    """The transitive closure of a set of pairs: add composites until none
    is new."""
    rel = set(pairs)
    while True:
        new = {(a, d) for a, b in rel for c, d in rel if b == c} - rel
        if not new:
            return frozenset(rel)
        rel |= new


def subsets_of(x):
    return st.sets(st.sampled_from(x.elements)) if len(x) else st.just(set())


def bits_by_digits(mask):
    """The set bits of ``mask``, lowest first, read off its binary digits."""
    return [j for j, digit in enumerate(reversed(bin(mask)[2:])) if digit == "1"]


@checked
@given(st.integers(0, 2 ** 20 - 1) | st.integers(2 ** 20, 2 ** 70_000))
def test_bits_match_the_binary_digits(mask):
    assert bits(mask) == bits_by_digits(mask)


@checked
@given(posets())
def test_order_queries_match_the_up_table(drawn):
    x, leq = drawn
    for i, a in enumerate(x.elements):
        assert x.upmask[i] == x.mask({b for b in x.elements if (a, b) in leq})
        assert x.downmask[i] == x.mask({b for b in x.elements if (b, a) in leq})
        for b in x.elements:
            assert x.leq(a, b) == ((a, b) in leq)
    assert x.covers() == [
        (a, b) for a in x.elements for b in x.elements
        if a != b and (a, b) in leq
        and not any(c not in (a, b) and (a, c) in leq and (c, b) in leq
                    for c in x.elements)]


@checked
@given(st.data())
def test_closures_match_their_definitions(data):
    x, leq = data.draw(posets())
    s = data.draw(subsets_of(x))
    m = x.mask(s)
    assert x.up_of(m) == x.mask({b for b in x.elements if any((a, b) in leq for a in s)})
    assert x.down_of(m) == x.mask({a for a in x.elements if any((a, b) in leq for b in s)})


def egli_milner_by_definition(leq, a, b):
    return all(any((v, w) in leq for w in b) for v in a) and \
        all(any((v, w) in leq for v in a) for w in b)


@checked
@given(posets(max_size=5))
def test_egli_milner_matches_the_forall_exists_formula(drawn):
    """The mask oracle of the verification suite against the definition."""
    x, leq = drawn
    for a in range(1 << len(x)):
        for b in range(1 << len(x)):
            assert egli_milner(x, a, b) == \
                egli_milner_by_definition(leq, x.labels(a), x.labels(b))


@checked
@given(posets(max_size=5))
def test_powerset_step_relation_matches_the_label_formula(drawn):
    x, leq = drawn
    r = pow_functor().step_relation(x)
    labels = carrier_labels(pow_functor(), x.elements)
    want = {(i, j) for i, a in enumerate(labels) for j, b in enumerate(labels)
            if egli_milner_by_definition(leq, a, b)}
    assert r.rel == want


@checked
@given(posets(max_size=5))
def test_multiset_step_relation_matches_the_label_formula(drawn):
    def expand(m):
        return [label for label, c in m for _ in range(c)]

    x, leq = drawn
    t = multiset_functor(2)
    r = t.step_relation(x)
    labels = carrier_labels(t, x.elements)
    want = set()
    for i, a in enumerate(labels):
        for j, b in enumerate(labels):
            xa, xb = expand(a), expand(b)
            if len(xa) == len(xb) and any(
                    all((v, w) in leq for v, w in zip(xa, perm))
                    for perm in permutations(xb)):
                want.add((i, j))
    assert r.rel == want


@checked
@given(posets(max_size=4))
def test_polynomial_step_relation_matches_the_label_formula(drawn):
    x, leq = drawn
    t = poly_functor([("f", 2, ("k",)), ("g", 1, ("u", "v")), ("c", 0, ("w",)),
                      ("h", 3, ("z",))])
    r = t.step_relation(x)
    labels = carrier_labels(t, x.elements)
    want = {(i, j) for i, a in enumerate(labels) for j, b in enumerate(labels)
            if a[:2] == b[:2] and all((v, w) in leq for v, w in zip(a[2], b[2]))}
    assert r.rel == want


@pytest.mark.parametrize("t, max_size", [
    pytest.param(t, size, id=t.name) for t, size in (
        (pow_functor(), 4), (multiset_functor(2), 5), (multiset_functor(3), 5),
        (poly_functor([("f", 2, ("k",)), ("c", 0, ("u", "v"))]), 5))])
@settings(checked, max_examples=25)
@given(data=st.data())
def test_both_routes_agree(t, max_size, data):
    r = cross_check(t, data.draw(posets(max_size=max_size))[0])
    assert r.ok, r.detail


def family_rows_pairwise(x):
    """The order on the up-closed families over ``x``, pair by pair: ``F <= G``
    when every member of ``F`` has a member of ``G`` whose up-closure lies
    inside its own, and every member of ``G`` has a member of ``F`` whose
    down-closure lies inside its own."""
    families = [bits(fam) for fam in _mnb_obj(x.elements)]
    up = [x.up_of(a) for a in range(1 << len(x))]
    down = [x.down_of(a) for a in range(1 << len(x))]

    def leq(f, g):
        return all(any(not up[b] & ~up[a] for b in g) for a in f) and \
            all(any(not down[a] & ~down[b] for a in f) for b in g)

    return tuple(sum(1 << j for j, g in enumerate(families) if leq(f, g))
                 for f in families)


@pytest.mark.parametrize("n", range(5))
def test_family_rows_match_the_pairwise_comparison_on_every_type(n):
    for x in enumerate_poset_types(LABELS[:n]):
        assert posetify_mnb(x).witness.succ == family_rows_pairwise(x)


@settings(checked, max_examples=20)
@given(posets(max_size=4))
def test_family_rows_match_the_pairwise_comparison(drawn):
    x, _ = drawn
    assert posetify_mnb(x).witness.succ == family_rows_pairwise(x)


SIGNATURE = (("c", 0, ("u", "v")), ("g", 1, ("k",)), ("f", 2, ("k", "l")),
             ("h", 3, ("m",)))


def bag_labels(d):
    """The multisets of at most ``d`` members of ``s``, by size, then in
    lexicographic order of their members' positions, each as its
    ``(label, count)`` pairs in element order."""
    return lambda s: tuple(
        tuple(sorted(Counter(combo).items(), key=lambda kv: s.index(kv[0])))
        for k in range(d + 1) for combo in combinations_with_replacement(s, k))


def bag_image(f, dst, label):
    counts = Counter()
    for v, c in label:
        counts[f[v]] += c
    return tuple(sorted(counts.items(), key=lambda kv: dst.index(kv[0])))


def poly_labels(s):
    return tuple((name, coeff, args) for name, arity, coeffs in SIGNATURE
                 for coeff in coeffs for args in product(s, repeat=arity))


def poly_image(f, dst, label):
    name, coeff, args = label
    return name, coeff, tuple(f[v] for v in args)


# each coded functor with its carrier and its action written on labels
CODED = [*((multiset_functor(d), bag_labels(d), bag_image) for d in (1, 2, 3)),
         (poly_functor(SIGNATURE), poly_labels, poly_image)]


@st.composite
def maps(draw, count=1, max_size=5):
    """Sets ``s0, ..., s_count`` of at most ``max_size`` labels, and a
    random map from each to the next, as an index assignment (a nonempty
    set maps to a nonempty one)."""
    sizes = [draw(st.integers(0, max_size))]
    for _ in range(count):
        sizes.append(draw(st.integers(1 if sizes[-1] else 0, max_size)))
    sets = [tuple(f"{chr(ord('p') + k)}{i}" for i in range(n)) for k, n in enumerate(sizes)]
    funcs = [tuple(draw(st.integers(0, n - 1)) for _ in range(m))
             for m, n in zip(sizes, sizes[1:])]
    return sets, funcs


@pytest.mark.parametrize("t, labels, image", [pytest.param(*c, id=c[0].name) for c in CODED])
@settings(checked, max_examples=30)
@given(maps())
def test_coded_functor_decodes_to_the_label_formula(t, labels, image, drawn):
    (src, dst), (f,) = drawn
    assert carrier_labels(t, src) == labels(src)
    assert carrier_labels(t, dst) == labels(dst)
    act, label, label_dst = t.on_mor(f, len(dst)), t.decode(src), t.decode(dst)
    on_labels = dict(zip(src, map(dst.__getitem__, f)))  # src[j] to dst[f[j]]
    for code in t.on_obj(src):
        assert label_dst(act(code)) == image(on_labels, dst, label(code))


# every functor with the largest set its laws are drawn on: a neighbourhood
# carrier over 4 elements has 65,536 codes, an up-closed one over 5 has 7,581
LAWFUL = [*((t, 5) for t, _, _ in CODED), (pow_functor(), 5), (nb_functor(), 3),
          (mnb_functor(), 4)]


@pytest.mark.parametrize("t, max_size", [pytest.param(*c, id=c[0].name) for c in LAWFUL])
@settings(checked, max_examples=30)
@given(data=st.data())
def test_coded_functor_preserves_identity(t, max_size, data):
    xs = LABELS[:data.draw(st.integers(0, max_size))]
    act = t.on_mor(range(len(xs)), len(xs))
    assert [act(c) for c in t.on_obj(xs)] == list(t.on_obj(xs))


@pytest.mark.parametrize("t, max_size", [pytest.param(*c, id=c[0].name) for c in LAWFUL])
@settings(checked, max_examples=30)
@given(data=st.data())
def test_coded_functor_preserves_composition(t, max_size, data):
    (xs, ys, zs), (f, g) = data.draw(maps(count=2, max_size=max_size))
    gf = t.on_mor(tuple(g[i] for i in f), len(zs))
    tf, tg = t.on_mor(f, len(ys)), t.on_mor(g, len(zs))
    assert [gf(c) for c in t.on_obj(xs)] == [tg(tf(c)) for c in t.on_obj(xs)]


@checked
@given(posets())
def test_equal_tables_give_equal_posets(drawn):
    x, leq = drawn
    twin = FinPoset.from_pairs(x.elements, sorted(leq, reverse=True))
    assert twin == x and hash(twin) == hash(x)
    assert twin.upmask == x.upmask and twin.downmask == x.downmask


@st.composite
def pair_lists(draw, max_size=6):
    """Labels in a shuffled order and a random list of pairs over them,
    cycles included."""
    labels = draw(st.permutations(LABELS[:draw(st.integers(0, max_size))]))
    if not labels:
        return labels, []
    return labels, draw(st.lists(st.tuples(st.sampled_from(labels), st.sampled_from(labels))))


@checked
@given(pair_lists())
def test_closed_pairs_give_the_poset_of_their_closed_rows(drawn):
    labels, pairs = drawn
    rows = [1 << i for i in range(len(labels))]
    for a, b in pairs:
        rows[labels.index(a)] |= 1 << labels.index(b)
    try:
        want = FinPoset(tuple(labels), _close_rows(rows))
    except InputError as refused:
        with pytest.raises(InputError) as got:
            FinPoset.from_pairs(labels, pairs, complete=True)
        assert str(got.value) == str(refused)
        return
    got = FinPoset.from_pairs(labels, pairs, complete=True)
    assert got == want and got.downmask == want.downmask


@checked
@given(posets())
def test_index_of_an_unknown_label_raises(drawn):
    x, _ = drawn
    with pytest.raises(ValueError):
        x.index("z")
    with pytest.raises(ValueError):
        x.leq("z", "z")


@st.composite
def relations(draw, max_size=8):
    """A reflexive relation on up to ``max_size`` indices, as a set of
    index pairs."""
    n = draw(st.integers(0, max_size))
    offdiag = [(i, j) for i in range(n) for j in range(n) if i != j]
    chosen = draw(st.sets(st.sampled_from(offdiag))) if offdiag else set()
    return n, frozenset((i, i) for i in range(n)) | chosen


def preorder(n, pairs):
    succ = [0] * n
    for i, j in pairs:
        succ[i] |= 1 << j
    return Preorder(tuple(range(n)), tuple(succ))


@st.composite
def relations_with_repeated_rows(draw, max_size=8, groups=3):
    """A reflexive relation in which the indices of each of a few groups
    share one row: the whole group plus random extra indices.  Some are
    transitive, most are not."""
    n = draw(st.integers(1, max_size))
    group = draw(st.lists(st.integers(0, groups - 1), min_size=n, max_size=n))
    extra = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=groups,
                          max_size=groups))
    rows = [extra[g] | sum(1 << i for i in range(n) if group[i] == g) for g in group]
    return n, frozenset((i, j) for i, row in enumerate(rows) for j in bits(row))


@checked
@given(st.one_of(relations(), relations_with_repeated_rows()))
def test_transitivity_matches_the_pairwise_formula(drawn):
    n, pairs = drawn
    want = all((a, d) in pairs for a, b in pairs for c, d in pairs if b == c)
    assert preorder(n, pairs).is_transitive() == want


@checked
@given(relations())
def test_transitive_closure_matches_the_pair_fixpoint(drawn):
    n, pairs = drawn
    assert transitive_closure(preorder(n, pairs)).rel == closure_by_fixpoint(pairs)


@checked
@given(relations())
def test_quotient_matches_the_class_definition(drawn):
    n, pairs = drawn
    closed = closure_by_fixpoint(pairs)
    r = transitive_closure(preorder(n, pairs))
    poset, projection = poset_quotient(r)
    # the class of i: every j related to i both ways, named by its least member
    least = [min(j for j in range(n) if (i, j) in closed and (j, i) in closed)
             for i in range(n)]
    assert poset.elements == tuple(r.carrier[c] for c in sorted(set(least)))
    for i in range(n):
        assert poset.elements[projection[i]] == r.carrier[least[i]]
        for j in range(n):
            assert poset.leq_idx(projection[i], projection[j]) == ((i, j) in closed)


@checked
@given(st.data())
def test_a_relabelled_reordered_poset_has_the_same_key(data):
    x, leq = data.draw(posets())
    rename = dict(zip(x.elements, data.draw(st.permutations(range(len(x))))))
    order = data.draw(st.permutations(x.elements))
    y = FinPoset.from_pairs([rename[a] for a in order],
                            [(rename[a], rename[b]) for a, b in leq])
    assert y.refinement[0] == x.refinement[0]
    iso = poset_isomorphism(x, y)
    assert iso is not None and sorted(iso) == list(range(len(y)))
    for i, a in enumerate(x.elements):
        for j, b in enumerate(x.elements):
            # both up-set tables, and the relation they were built from
            assert y.upmask[iso[i]] >> iso[j] & 1 == x.upmask[i] >> j & 1 == \
                ((a, b) in leq)


def isomorphic_by_brute_force(x, xleq, y, yleq):
    """Whether some bijection of the element lists preserves and reflects
    the order, trying every permutation."""
    return len(x) == len(y) and any(
        all(((a, b) in xleq) == ((image[a], image[b]) in yleq)
            for a in x.elements for b in x.elements)
        for image in (dict(zip(x.elements, perm)) for perm in permutations(y.elements)))


@checked
@given(st.data())
def test_isomorphism_found_exactly_when_brute_force_finds_one(data):
    n = data.draw(st.integers(0, 5))
    x, xleq = data.draw(posets(max_size=n, min_size=n))
    y, yleq = data.draw(posets(max_size=n, min_size=n))
    iso = poset_isomorphism(x, y)
    assert (iso is not None) == isomorphic_by_brute_force(x, xleq, y, yleq)
    if iso is not None:
        image = [y.elements[j] for j in iso]
        assert sorted(iso) == list(range(n))
        for i, a in enumerate(x.elements):
            for j, b in enumerate(x.elements):
                assert ((a, b) in xleq) == ((image[i], image[j]) in yleq)
                assert x.upmask[i] >> j & 1 == y.upmask[iso[i]] >> iso[j] & 1


@checked
@given(posets(max_size=5))
def test_birkhoff_round_trip(drawn):
    x, _ = drawn
    a = up_algebra(x)
    spectrum = prime_filter_poset(a)
    assert poset_isomorphism(x, spectrum) is not None
    # each up-set to the prime filters that hold it: onto the up-sets of the spectrum
    held = [sum(1 << k for k, g in enumerate(spectrum.elements) if not g & ~u)
            for u in a.carrier()]
    assert sorted(held) == list(up_algebra(spectrum).carrier())


POSITIVE_FORMULAS = st.recursive(
    st.sampled_from([var("v"), var("w"), TOP, BOT]),
    lambda sub: st.one_of(st.builds(box, sub), st.builds(dia, sub),
                          st.builds(conj, sub, sub), st.builds(disj, sub, sub)),
    max_leaves=6)


@st.composite
def positive_models(draw, shapes):
    """``(coalgebra, valuation)``: a poset drawn from ``shapes``, successor
    sets drawn one state at a time (lower states first) among the convex
    sets that keep the structure map monotone, and up-closed values for
    ``v`` and ``w``."""
    x = draw(shapes)
    convex = posetify_powerset(x).order.elements  # the convex subset masks
    gamma = {}
    for i in sorted(range(len(x)), key=lambda i: x.downmask[i].bit_count()):
        fits = [c for c in convex
                if all(egli_milner(x, gamma[j], c) for j in gamma if x.leq_idx(j, i))]
        assume(fits)
        gamma[i] = draw(st.sampled_from(fits))
    valuation = {name: x.up_of(x.mask(draw(subsets_of(x)))) for name in ("v", "w")}
    return Coalgebra(x, tuple(gamma[i] for i in range(len(x)))), valuation


@settings(checked, max_examples=60)
@given(positive_models(st.sampled_from(iso_representatives(4))), POSITIVE_FORMULAS)
def test_positive_semantics_direct_equals_delta(model, formula):
    """Posets are drawn up to isomorphism, so that the semantic caches are
    shared between examples.  Both routes answer on every type of at most
    4 elements, those whose lifted algebra has 1,296 or 4,096 members
    included."""
    c, valuation = model
    direct = interpret_positive(c, valuation, formula, "direct")
    assert c.carrier.up_of(direct) == direct
    assert interpret_positive(c, valuation, formula, "delta") == direct


@settings(checked, max_examples=10)
@given(positive_models(posets(max_size=5, min_size=5).map(lambda drawn: drawn[0])),
       POSITIVE_FORMULAS)
def test_positive_semantics_delta_refused_on_five_states(model, formula):
    c, valuation = model
    interpret_positive(c, valuation, formula, "direct")
    with pytest.raises(BudgetExceeded, match="would enumerate 4294967296 items"):
        interpret_positive(c, valuation, formula, "delta")


# 1, 1.0 and True are equal but print apart, so a memo keyed by value
# would give one of them the text of another.
SCALARS = st.sampled_from(["a", "b", "ab", "", 0, 1, 1.0, True, False, None])


def nested(children):
    return st.frozensets(children, max_size=3) | st.lists(children, max_size=3).map(tuple)


@st.composite
def labelled_posets(draw, max_size=6):
    """A poset whose labels nest frozensets and tuples around scalars and
    around members drawn from a pool, so that several labels hold the
    same member object."""
    pool = draw(st.lists(st.recursive(SCALARS, nested, max_leaves=4),
                         min_size=1, max_size=5))
    label = st.recursive(st.sampled_from(pool) | SCALARS, nested, max_leaves=6)
    n = draw(st.integers(0, max_size))
    labels = draw(st.lists(label, min_size=n, max_size=n, unique=True))
    candidates = list(combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(candidates), unique=True)) if candidates else []
    return FinPoset.from_pairs(labels, [(labels[i], labels[j]) for i, j in chosen],
                               complete=True)


@checked
@given(labelled_posets())
def test_the_renderer_formats_each_element_and_cover_in_order(x):
    names, covers = render_poset(x)
    assert names == [format_label(e) for e in x.elements]
    assert covers == [[format_label(a), format_label(b)] for a, b in x.covers()]


def test_the_renderer_keeps_equal_members_of_other_types_apart():
    one = frozenset({1})
    x = FinPoset.chain([(one, "x"), (frozenset({True}), one), (1.0, (1,))])
    assert render_poset(x) == (["({1},x)", "({true},{1})", "(1.0,(1))"],
                               [["({1},x)", "({true},{1})"],
                                ["({true},{1})", "(1.0,(1))"]])


@st.composite
def hom_pairs(draw):
    """Two homs ``h1, h2: B -> C`` with a common source of 1 to 10 atoms
    and a common target of up to 6: random dual maps from the target atoms
    to the source atoms."""
    n, m = draw(st.integers(1, 10)), draw(st.integers(0, 6))
    source, target = FinBoolAlg(tuple(range(n))), FinBoolAlg(tuple(range(m)))
    duals = st.lists(st.integers(0, n - 1), min_size=m, max_size=m).map(tuple)
    return BAHom(source, target, draw(duals)), BAHom(source, target, draw(duals))


@checked
@given(hom_pairs())
def test_the_inserter_is_the_upsets_of_the_preorder_of_the_dual_edges(homs):
    """``h1(b) <= h2(b)`` iff ``dual1[k] in b`` implies ``dual2[k] in b``
    for every target atom ``k``: the members are the up-sets of the
    preorder that the edges ``dual1[k] -> dual2[k]`` generate, and their
    join-irreducibles are its principal up-sets, the closed rows."""
    h1, h2 = homs
    n = len(h1.source.atoms)
    rows = [1 << i for i in range(n)]
    for s1, s2 in zip(h1.dual, h2.dual):
        rows[s1] |= 1 << s2
    rows = _close_rows(rows)
    upsets = [b for b in range(1 << n) if all(not rows[i] & ~b for i in bits(b))]
    members = ba_inserter(h1, h2)
    assert members == upsets
    irreducibles = lattice_from_elements(members).lattice.spectrum.elements
    assert irreducibles == tuple(sorted(set(rows)))


# ------------------------------------------- the scans the oracles replaced
#
# Each oracle below once scanned the whole lattice or assignment; the scans
# are kept here as references, and the oracles must give their answers.

def prime_filters_by_pairs(a):
    """The generators of the prime filters of ``a``, in carrier order: the
    nonzero ``m`` with no pair ``x, y`` such that ``m <= x | y`` while ``m``
    is below neither."""
    elems = a.carrier()
    return [m for m in elems if m != a.bot and
            not any(not m & ~(x | y) and m & ~x and m & ~y for x in elems for y in elems)]


def preimage_by_scan(assignment, a):
    """The mask of the indices ``k`` whose image ``assignment[k]`` is in
    the mask ``a``."""
    return sum(1 << k for k, s in enumerate(assignment) if a >> s & 1)


def refinement_by_sorted_colours(x):
    """The final colours of the refinement where each round recolours an
    element by its colour and the sorted colours of its up-set and of its
    down-set, colours numbered by sorted signature, until a round leaves
    every colour as it was."""
    ups, downs = x.upmask, x.downmask
    colours = [(u.bit_count(), d.bit_count()) for u, d in zip(ups, downs)]
    while True:
        sig = [(colours[i],
                tuple(sorted(colours[j] for j in bits(ups[i]))),
                tuple(sorted(colours[j] for j in bits(downs[i]))))
               for i in range(len(ups))]
        canon = {s: k for k, s in enumerate(sorted(set(sig)))}
        new = [canon[s] for s in sig]
        if new == colours:
            return new
        colours = new


def partition(colours):
    """The classes of a colouring, each as its sorted indices, in order."""
    classes = {}
    for i, c in enumerate(colours):
        classes.setdefault(c, set()).add(i)
    return sorted(map(sorted, classes.values()))


@checked
@given(posets(max_size=7))
def test_prime_filters_are_those_of_the_pair_scan(drawn):
    a = up_algebra(drawn[0])
    gens = prime_filters_by_pairs(a)
    spectrum = prime_filter_poset(a)
    assert spectrum.elements == tuple(gens)
    assert spectrum.upmask == tuple(sum(1 << k for k, m2 in enumerate(gens) if not m2 & ~m)
                                    for m in gens)


@st.composite
def ba_homs(draw, max_size=7):
    """A hom from an algebra of up to ``max_size`` atoms to one of up to
    ``max_size``, from a random dual assignment, and a mask that may have
    bits above the source atoms."""
    n = draw(st.integers(0, max_size))
    m = draw(st.integers(0, max_size)) if n else 0  # no atom maps to an empty source
    dual = tuple(draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))) if n else ()
    h = BAHom(FinBoolAlg(tuple(range(n))), FinBoolAlg(tuple(range(m))), dual)
    return h, draw(st.integers(0, (1 << (n + 3)) - 1))


@checked
@given(ba_homs())
def test_a_boolean_hom_acts_as_the_preimage_scan(drawn):
    h, mask = drawn
    assert h.apply(mask) == preimage_by_scan(h.dual, mask)


@checked
@given(hom_pairs())
def test_the_inserter_is_the_sweep_of_the_preimage_scans(homs):
    h1, h2 = homs
    assert ba_inserter(h1, h2) == [
        b for b in range(1 << len(h1.source.atoms))
        if not preimage_by_scan(h1.dual, b) & ~preimage_by_scan(h2.dual, b)]


@st.composite
def lattice_homs(draw, max_size=7):
    """A lattice hom ``Up(x) -> Up(y)`` from a random monotone map from
    ``y`` to ``x``, built in an order where each element of ``y`` comes
    after the elements below it, each image drawn above the images of
    those; and a mask that may have bits above the spectrum of ``x``."""
    x, _ = draw(posets(max_size=max_size, min_size=1))
    y, _ = draw(posets(max_size=max_size))
    images = [None] * len(y)
    for i in sorted(range(len(y)), key=lambda i: y.downmask[i].bit_count()):
        allowed = (1 << len(x)) - 1
        for j in bits(y.downmask[i] & ~(1 << i)):
            allowed &= x.upmask[images[j]]
        assume(allowed)
        images[i] = draw(st.sampled_from(bits(allowed)))
    dual = MonotoneMap(y, x, tuple(images))
    return LatticeHom(up_algebra(x), up_algebra(y), dual), \
        draw(st.integers(0, (1 << (len(x) + 3)) - 1))


@checked
@given(lattice_homs())
def test_a_lattice_hom_acts_as_the_preimage_scan(drawn):
    h, mask = drawn
    assert h.apply(mask) == preimage_by_scan(h.dual.assignment, mask)


@pytest.mark.parametrize("n", range(5))
def test_refinement_partitions_are_those_of_sorted_colours_on_every_poset(n):
    for x in enumerate_posets(LABELS[:n]):
        assert partition(x.refinement[1]) == partition(refinement_by_sorted_colours(x))


@checked
@given(st.data())
def test_refinement_partitions_are_those_of_sorted_colours(data):
    x, leq = data.draw(posets(max_size=7))
    assert partition(x.refinement[1]) == partition(refinement_by_sorted_colours(x))
    rename = dict(zip(x.elements, data.draw(st.permutations(range(len(x))))))
    order = data.draw(st.permutations(x.elements))
    y = FinPoset.from_pairs([rename[a] for a in order],
                            [(rename[a], rename[b]) for a, b in leq])
    assert y.refinement[0] == x.refinement[0]


# ----------------------------------------------- value and record types

def values_of(x: FinPoset) -> list:
    """One of each value type, built from ``x``."""
    n = len(x)
    a = up_algebra(x)
    ident = MonotoneMap(x, x, tuple(range(n)))
    b = FinBoolAlg(x.elements)
    phi = conj(var("v"), dia(var("w")))
    return [x, ident, Preorder(x.elements, x.upmask), a, LatticeHom(a, a, ident), b,
            BAHom(b, b, tuple(range(n))), phi]


@checked
@given(posets(max_size=5))
def test_values_compare_and_hash_by_their_fields(drawn):
    """Values built twice from equal fields are equal and hash equal, and
    print alike; a value whose fields differ is not equal, nor is a value
    of another class."""
    x, _ = drawn
    twin = FinPoset(x.elements, x.upmask)
    for a, b in zip(values_of(x), values_of(twin)):
        assert a is not b and a == b and not a != b and hash(a) == hash(b)
        assert repr(a) == repr(b) and repr(a).startswith(type(a).__name__ + "(")
    assert FinPoset.discrete(x.elements) != x or not x.covers()
    assert Preorder(x.elements, x.upmask) != x and x != Preorder(x.elements, x.upmask)
    assert FinBoolAlg(x.elements) != up_algebra(FinPoset.discrete(x.elements))


@checked
@given(posets(max_size=5))
def test_derived_fields_take_no_part_in_equality(drawn):
    """A poset with other down-set rows and a hom with other preimage
    rows still equal, and hash as, the ones built from their fields; so
    does a poset whose refinement is cached."""
    x, _ = drawn
    odd = FinPoset._trusted(x.elements, x.upmask, tuple(reversed(x.downmask)))
    x.refinement
    assert odd == x and hash(odd) == hash(x) and repr(odd) == repr(x)
    b = FinBoolAlg(x.elements)
    h, rowless = BAHom(b, b, tuple(range(len(x)))), BAHom(b, b, tuple(range(len(x))))
    object.__setattr__(rowless, "rows", ())
    assert rowless == h and hash(rowless) == hash(h)


@checked
@given(posets(max_size=5))
def test_values_refuse_assignment(drawn):
    x, _ = drawn
    for v in values_of(x):
        for name in v._fields + ("downmask", "rows", "anything"):
            with pytest.raises(AttributeError):
                setattr(v, name, None)
        with pytest.raises(AttributeError):
            delattr(v, v._fields[0])
    assert values_of(x) == values_of(FinPoset(x.elements, x.upmask))


@checked
@given(posets(max_size=3))
def test_records_compare_as_before(drawn):
    """Records of results compare by their fields, as tuples do; records
    that hold a computation's state (a lifting, a coalgebra, a semantic
    component) are equal only to themselves.  A coalgebra's check flag
    can be set, and each lifted component starts with its own memo."""
    x, _ = drawn
    a, b = up_algebra(x), FinBoolAlg(x.elements)
    for make in (lambda: tensor2(a), lambda: lattice_from_elements(a.carrier()),
                 lambda: product_ba(b, b), lambda: dunn_axiom_check(a),
                 lambda: CheckOutcome("order", "closure-laws", True, "detail")):
        one, two = make(), make()
        assert one == two and not one != two
    assert hash(product_ba(b, b)) == hash(product_ba(b, b))
    assert cross_check(pow_functor(), x) != cross_check(pow_functor(), x)
    lifted = positivize(semantic_l(pow_functor()), a)
    for make in (lambda: posetify_powerset(x), lambda: Coalgebra(x, (0,) * len(x)),
                 lambda: delta_pow(x.elements), lambda: beta(semantic_l(pow_functor()), b),
                 lambda: positivize(semantic_l(pow_functor()), a),
                 lambda: DeltaPrime(lifted.members, lifted.is_member, int)):
        one, two = make(), make()
        assert one == one and one != two and hash(one) == hash(one)
    c = Coalgebra(x, (0,) * len(x))
    assert not c.positive_checked
    c.positive_checked = True
    assert c.positive_checked
    one, two = (DeltaPrime(lifted.members, lifted.is_member, int) for _ in range(2))
    assert one.memo == {} and one.memo is not two.memo
