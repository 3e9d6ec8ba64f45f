"""Order core: posets, closures, quotients, pair posets, components."""

from itertools import permutations

import pytest

from poslog.errors import InputError
from poslog.functors import lift_relation_generic, pow_functor
from poslog.order import (FinPoset, MonotoneMap, Preorder, bits,
                          connected_components, cotensor2, diagonal_section,
                          enumerate_poset_types, enumerate_posets,
                          poset_isomorphism, poset_quotient, transitive_closure)
from poslog.verify import iso_representatives, small_posets


def chain(*labels):
    return FinPoset.chain(labels)


def preorder(carrier, pairs):
    """The reflexive relation on ``carrier`` with the given index pairs."""
    succ = [1 << i for i in range(len(carrier))]
    for i, j in pairs:
        succ[i] |= 1 << j
    return Preorder(tuple(carrier), tuple(succ))


class TestFinPoset:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(InputError):
            FinPoset.discrete(("a", "a"))

    def test_elements_are_stored_as_a_tuple(self):
        """A poset over a range equals, and hashes as, the poset over the
        tuple of its members."""
        p, q = FinPoset(range(3), (1, 2, 4)), FinPoset((0, 1, 2), (1, 2, 4))
        assert p.elements == (0, 1, 2)
        assert p == q and hash(p) == hash(q)

    def test_completion_fills_reflexive_transitive(self):
        p = FinPoset.from_pairs(("a", "b", "c"), [("a", "b"), ("b", "c")])
        assert p.leq("a", "c") and p.leq("b", "b")

    def test_antisymmetry_enforced(self):
        with pytest.raises(InputError):
            FinPoset(("a", "b"), (0b11, 0b11))

    def test_transitivity_enforced_without_completion(self):
        with pytest.raises(InputError):
            FinPoset(("a", "b", "c"), (0b011, 0b110, 0b100))

    def test_empty_poset_is_legal(self):
        p = FinPoset((), ())
        assert len(p) == 0 and p.upmask == () and p.covers() == []

    def test_covers_of_chain(self):
        p = chain("a", "b", "c")
        assert p.covers() == [("a", "b"), ("b", "c")]

    def test_up_down_sets(self):
        p = chain("p", "q")
        assert p.upmask == (0b11, 0b10) and p.downmask == (0b01, 0b11)

    def test_relabel_shares_the_rows(self):
        p = FinPoset.from_pairs(("a", "b", "c"), [("a", "b")])
        q = p.relabel(("x", "y", "z"))
        assert q.upmask is p.upmask and q.downmask is p.downmask
        assert q == FinPoset(("x", "y", "z"), p.upmask) and q.index("z") == 2
        with pytest.raises(InputError):
            p.relabel(("x", "x", "z"))
        with pytest.raises(InputError):
            p.relabel(("x", "y"))


class TestClosures:
    def test_up_closure_examples(self):
        p = chain("p", "q")
        assert p.up_of(0b01) == 0b11
        assert p.up_of(0) == 0
        assert p.down_of(0b10) == 0b11

    def test_adds_composite_pair(self):
        r = preorder("abc", [(0, 1), (1, 2)])
        c = transitive_closure(r)
        assert (0, 2) in c.rel

    def test_idempotent_on_already_transitive(self):
        r = preorder("ab", [(0, 1)])
        assert transitive_closure(r).rel == r.rel

    def test_a_transitive_relation_is_its_own_closure(self, monkeypatch):
        """The closure returns a transitive relation itself, and the
        relation keeps the verdict, so asking again, as the quotient does,
        checks no row.  Otherwise Warshall's closure runs."""
        import poslog.order as order
        real, rows = order._close_rows, []
        monkeypatch.setattr(order, "_close_rows", lambda succ: rows.append(succ) or real(succ))
        r = preorder("abc", [(0, 1), (1, 2), (0, 2)])
        assert transitive_closure(r) is r and not rows
        with monkeypatch.context() as m:
            m.setattr(order, "_rows_transitive", lambda rows: pytest.fail("checked again"))
            assert r.is_transitive()
        s = preorder("abc", [(0, 1), (1, 2)])
        c = transitive_closure(s)
        assert c is not s and rows == [s.succ] and (0, 2) in c.rel

    def test_powerset_lifting_of_two_chain_already_transitive(self):
        r = lift_relation_generic(pow_functor(), chain("p", "q"))
        assert transitive_closure(r).rel == r.rel

    def test_idempotent_and_monotone_exhaustive_small(self):
        offdiag = [(i, j) for i in range(3) for j in range(3) if i != j]
        rels = [preorder("abc", [p for k, p in enumerate(offdiag) if mask >> k & 1])
                for mask in range(1 << 6)]
        for r in rels:
            c = transitive_closure(r)
            assert transitive_closure(c).rel == c.rel
        for r in rels[:16]:
            for r2 in rels:
                if r.rel <= r2.rel:
                    assert transitive_closure(r).rel <= transitive_closure(r2).rel

    def test_reflexivity_required(self):
        with pytest.raises(InputError):
            Preorder(("a", "b"), (0b01, 0b00))


class TestQuotient:
    def test_discrete_relation_identity_quotient(self):
        r = preorder("ab", [])
        poset, proj = poset_quotient(r)
        assert len(poset) == 2 and proj == (0, 1)

    def test_total_relation_collapses(self):
        rel = [(i, j) for i in range(3) for j in range(3)]
        poset, proj = poset_quotient(preorder("abc", rel))
        assert len(poset) == 1 and poset.elements == ("a",)

    def test_powerset_order_on_two_chain_gives_four_classes(self):
        # oracle: brute-force the pairwise-bounds order on subsets and count
        # mutual pairs directly
        p = chain("p", "q")
        r = transitive_closure(lift_relation_generic(pow_functor(), p))
        mutual = sum(1 for (i, j) in r.rel if i != j and (j, i) in r.rel)
        assert mutual == 0  # every subset of a 2-chain is its own class
        poset, _ = poset_quotient(r)
        assert len(poset) == 4

    def test_requires_transitive(self):
        r = preorder("abc", [(0, 1), (1, 2)])
        with pytest.raises(InputError):
            poset_quotient(r)

    def test_projection_preserves_relation(self):
        rel = [(0, 0), (1, 1), (2, 2), (0, 1), (1, 0), (0, 2), (1, 2)]
        r = preorder("abc", rel)
        poset, proj = poset_quotient(r)
        assert proj[0] == proj[1] != proj[2]
        for i, j in rel:
            assert poset.leq_idx(proj[i], proj[j])


class TestCotensor:
    def test_discrete_two_set(self):
        p = FinPoset.discrete(("a", "b"))
        xsq, _, _ = cotensor2(p)
        assert set(xsq.elements) == {("a", "a"), ("b", "b")}
        assert not xsq.covers()

    def test_two_chain_gives_three_chain(self):
        xsq, _, _ = cotensor2(chain("p", "q"))
        assert set(xsq.elements) == {("p", "p"), ("p", "q"), ("q", "q")}
        assert poset_isomorphism(xsq, chain(0, 1, 2)) is not None

    def test_three_chain_has_six_pairs_componentwise(self):
        p = chain("a", "b", "c")
        xsq, p0, p1 = cotensor2(p)
        assert len(xsq) == 6
        for (a, b) in xsq.elements:
            for (c, d) in xsq.elements:
                assert xsq.leq((a, b), (c, d)) == (p.leq(a, c) and p.leq(b, d))

    def test_column_masks_match_the_pairwise_formula(self):
        """The row of each pair against the componentwise order written
        out over all pairs, and its down-sets against those a checked
        poset derives, on every type of at most four elements."""
        for n in range(5):
            for p in enumerate_poset_types(tuple("abcd"[:n])):
                ups = p.upmask
                pairs = [(i, j) for i in range(n) for j in bits(ups[i])]
                want = FinPoset(
                    tuple((p.elements[i], p.elements[j]) for i, j in pairs),
                    tuple(sum(1 << k for k, (a, b) in enumerate(pairs)
                              if ups[i] >> a & 1 and ups[j] >> b & 1)
                          for i, j in pairs))
                got = cotensor2(p)[0]
                assert got == want and got.downmask == want.downmask

    def test_projections_and_section(self):
        p = chain("p", "q")
        xsq, p0, p1 = cotensor2(p)
        i = diagonal_section(p, xsq).assignment
        for k in range(len(p)):
            assert p0.assignment[i[k]] == k and p1.assignment[i[k]] == k


class TestComponents:
    def test_examples(self):
        assert len(connected_components(FinPoset.discrete(("a", "b", "c")))[0]) == 3
        assert len(connected_components(chain("a", "b", "c"))[0]) == 1
        p = FinPoset.from_pairs(("a", "b", "c"), [("a", "b")])
        reps, comp = connected_components(p)
        assert reps == (0, 2) and comp == (0, 0, 1)

    def test_collapse_coequalises_projections(self):
        for p in enumerate_posets(("x", "y", "z")):
            _, comp = connected_components(p)
            xsq, _, _ = cotensor2(p)
            for (a, b) in xsq.elements:
                assert comp[p.index(a)] == comp[p.index(b)]

    def test_single_component_iff_connected(self):
        p = FinPoset.from_pairs(("a", "b", "c"), [("a", "b"), ("a", "c")])
        assert len(connected_components(p)[0]) == 1


class TestMonotoneMap:
    def test_monotonicity_enforced(self):
        src = chain("a", "b")
        dst = chain("x", "y")
        with pytest.raises(InputError):
            MonotoneMap.of_dict(src, dst, {"a": "y", "b": "x"})

    def test_composition(self):
        a = chain("a", "b")
        b = chain("x", "y", "z")
        f = MonotoneMap.of_dict(a, b, {"a": "x", "b": "z"})
        g = MonotoneMap.of_dict(b, a, {"x": "a", "y": "a", "z": "b"})
        assert f.then(g).assignment == (0, 1)


def carries_rows(iso, p, q) -> bool:
    """Whether the index assignment ``iso`` is a bijection onto ``q`` that
    carries each up-set row of ``p`` onto the row of its image in ``q``."""
    return sorted(iso) == list(range(len(q))) and all(
        sum(1 << iso[j] for j in bits(row)) == q.upmask[iso[i]]
        for i, row in enumerate(p.upmask))


class TestIsomorphism:
    def test_distinguishes_shapes(self):
        v = FinPoset.from_pairs((0, 1, 2), [(0, 1), (0, 2)])
        lam = FinPoset.from_pairs((0, 1, 2), [(1, 0), (2, 0)])
        assert poset_isomorphism(v, lam) is None
        assert poset_isomorphism(v, v) == (0, 1, 2)
        assert poset_isomorphism(FinPoset((), ()), FinPoset((), ())) == ()

    def test_finds_relabelling(self):
        p = chain("a", "b", "c")
        q = FinPoset.from_pairs(("z", "y", "x"), [("x", "y"), ("y", "z")])
        iso = poset_isomorphism(p, q)
        assert iso == (2, 1, 0)  # a -> x, b -> y, c -> z
        assert carries_rows(iso, p, q)

    def test_enumerate_posets_counts(self):
        # 1, 3 and 19 labelled partial orders on 1, 2 and 3 points
        assert sum(1 for _ in enumerate_posets(("a",))) == 1
        assert sum(1 for _ in enumerate_posets(("a", "b"))) == 3
        assert sum(1 for _ in enumerate_posets(("a", "b", "c"))) == 19


def posets_by_mask_filter(labels):
    """Every partial order on ``labels``, by testing each off-diagonal
    relation mask in increasing order for transitivity and antisymmetry."""
    n = len(labels)
    offdiag = [(i, j) for i in range(n) for j in range(n) if i != j]
    out = []
    for mask in range(1 << len(offdiag)):
        ups = [1 << i for i in range(n)]
        for b, (i, j) in enumerate(offdiag):
            if mask >> b & 1:
                ups[i] |= 1 << j
        if all((i == j or not ups[j] >> i & 1) and not ups[j] & ~ups[i]
               for i in range(n) for j in bits(ups[i])):
            out.append(FinPoset(labels, tuple(ups)))
    return out


def representatives_by_search(posets) -> tuple:
    """The first of ``posets`` of each isomorphism type, and the buckets:
    each poset is bucketed by its refinement key and searched against the
    representatives already in its bucket."""
    buckets = {}
    reps = []
    for p in posets:
        bucket = buckets.setdefault(p.refinement[0], [])
        if all(poset_isomorphism(p, q) is None for q in bucket):
            bucket.append(p)
            reps.append(p)
    return tuple(reps), buckets


class TestEnumeration:
    @pytest.mark.parametrize("n", range(5))
    def test_extension_yields_the_mask_filter_sequence(self, n):
        labels = ("a", "b", "c", "d")[:n]
        assert list(enumerate_posets(labels)) == posets_by_mask_filter(labels)

    def test_five_labels_give_4231_posets_of_63_types(self):
        # OEIS A001035 (labelled posets) and A000112 (isomorphism types)
        labels = ("a", "b", "c", "d", "e")
        posets = list(enumerate_posets(labels))
        assert len(posets) == 4231 and len(set(posets)) == 4231
        reps, buckets = representatives_by_search(posets)
        assert len(reps) == 63
        # the key alone already separates the types at this size
        assert len(buckets) == 63
        assert tuple(enumerate_poset_types(labels)) == reps

    @pytest.mark.parametrize("n, types, multisets", [(5, 63, 16), (6, 318, 32)])
    def test_the_key_separates_the_types_and_the_final_colours_do_not(self, n, types,
                                                                      multisets):
        refinements = [p.refinement for p in enumerate_poset_types("abcdef"[:n])]
        assert len({key for key, _ in refinements}) == types
        assert len({tuple(sorted(colours)) for _, colours in refinements}) == multisets

    def test_type_counts_up_to_six_labels(self):
        # OEIS A000112
        counts = [sum(1 for _ in enumerate_poset_types("abcdef"[:n])) for n in range(7)]
        assert counts == [1, 1, 2, 5, 16, 63, 318]

    def test_isomorphism_of_every_relisting_preserves_and_reflects_order(self):
        # symmetric posets (two chains side by side, ...) give a search
        # several same-coloured candidates; each relisting orders them anew
        for p in enumerate_posets(("a", "b", "c", "d")):
            for perm in permutations(range(4)):
                q = FinPoset(tuple(p.elements[k].upper() for k in perm),
                             tuple(sum(1 << perm.index(j) for j in bits(p.upmask[k]))
                                   for k in perm))
                iso = poset_isomorphism(p, q)
                assert iso is not None and carries_rows(iso, p, q)

    @pytest.mark.parametrize("n", range(5))
    def test_iso_representatives_match_the_search(self, n):
        assert iso_representatives(n) == representatives_by_search(small_posets(n))[0]

    def test_iso_representatives_per_size(self):
        sizes = [len(p) for p in iso_representatives(4)]
        assert [sizes.count(n) for n in range(5)] == [1, 1, 2, 5, 16]
