"""Boolean algebras, distributive lattices, duality, and the adjoint
constructions between them."""

import pytest

from poslog import verify
from poslog.algebra import (FinBoolAlg, LatticeHom,
                            boolean_as_lattice, dl_inserter, free_ba,
                            free_ba_generator, free_ba_map, free_over_dl_G,
                            g_of_hom, kernel_K,
                            lattice_isomorphic, nbhd_to_free,
                            prime_filter_poset, product_ba,
                            reflexive_pair_swap_check, subalgebras, tensor2,
                            up_algebra)
from poslog.errors import BudgetExceeded, InputError, budget
from poslog.functors import nb_functor
from poslog.order import FinPoset, MonotoneMap, enumerate_posets, poset_isomorphism


def chain(*labels):
    return FinPoset.chain(labels)


def three_chain():
    """The 3-element lattice, stored over its 2-chain spectrum."""
    return up_algebra(chain("p", "q"))


def encode(b, labels):
    """The mask of a set of atoms of the Boolean algebra ``b``."""
    return boolean_as_lattice(b).spectrum.mask(labels)


class TestLattices:
    def test_boolean_ops(self):
        b = FinBoolAlg(atoms=("a", "b"))
        x = encode(b, ["a"])
        assert b.labels(b.neg(x)) == frozenset(["b"])
        assert b.size() == 4 and b.labels(b.bot) == frozenset() and \
            b.labels(b.top) == {"a", "b"}

    def test_de_morgan_spot_check(self):
        b = FinBoolAlg(atoms=("a", "b", "c"))
        for x in b.carrier():
            for y in b.carrier():
                assert b.neg(x & y) == b.neg(x) | b.neg(y)
                assert b.neg(x | y) == b.neg(x) & b.neg(y)

    def test_distributivity_spot_check(self):
        lat = up_algebra(FinPoset.from_pairs(
            ("a", "b", "c"), [("a", "b")], complete=True))
        elems = lat.carrier()
        for x in elems:
            for y in elems:
                for z in elems:
                    assert x & (y | z) == (x & y) | (x & z)

    def test_upsets_of_two_chain(self):
        lat = three_chain()
        assert sorted(map(sorted, map(lat.spectrum.labels, lat.carrier()))) == \
            [[], ["p", "q"], ["q"]]
        x = lat.spectrum
        assert x.up_of(x.mask(["q"])) == x.mask(["q"])
        assert x.up_of(x.mask(["p"])) != x.mask(["p"])

    def test_up_algebra_sizes(self):
        assert len(up_algebra(FinPoset.discrete(("a", "b"))).carrier()) == 4
        assert len(three_chain().carrier()) == 3
        p = FinPoset.from_pairs(("a", "b", "c"), [("a", "b")], complete=True)
        # oracle: count upsets directly
        direct = [s for s in range(1 << len(p)) if p.up_of(s) == s]
        assert len(up_algebra(p).carrier()) == len(direct) == 6

    def test_carrier_budget(self):
        with pytest.raises(BudgetExceeded):
            with budget(max_enum=1 << 20):
                up_algebra(FinPoset.discrete(tuple(range(25)))).carrier()


class TestSpectrum:
    def test_two_element_lattice_has_one_point(self):
        lat = up_algebra(FinPoset.discrete(("s",)))
        assert len(prime_filter_poset(lat)) == 1

    def test_three_chain_spectrum_is_two_chain(self):
        pf = prime_filter_poset(three_chain())
        assert poset_isomorphism(pf, chain(0, 1)) is not None

    def test_boolean_spectrum_is_discrete(self):
        lat = boolean_as_lattice(FinBoolAlg(atoms=("a", "b")))
        pf = prime_filter_poset(lat)
        assert len(pf) == 2 and not pf.covers()

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_round_trips(self, n):
        labels = ("a", "b", "c", "d")[:n]
        for p in enumerate_posets(labels):
            a = up_algebra(p)
            pf = prime_filter_poset(a)
            assert poset_isomorphism(p, pf) is not None
            assert lattice_isomorphic(a, up_algebra(pf)) is not None

    def test_the_duality_check_fails_on_a_spectrum_with_the_wrong_generators(
            self, monkeypatch):
        """The prime filters in reverse order of their generators have the
        right shape, so the spectrum round trip passes.  On the 2-chain
        the up-sets no longer map onto the up-sets of that spectrum, and
        the lattice round trip fails: it is a second check."""
        real = prime_filter_poset
        monkeypatch.setattr(verify.alg, "prime_filter_poset",
                            lambda a: real(a).relabel(reversed(real(a).elements)))
        assert verify.check_birkhoff() == (False, "lattice round trip fails on ('a', 'b')")

    def test_round_trips_on_sampled_five_point_spectra(self):
        # lattices up to 32 elements: seeded random 5-point posets
        import random
        rng = random.Random(11)
        labels = ("a", "b", "c", "d", "e")
        for _ in range(10):
            pairs = [(labels[i], labels[j])
                     for i in range(5) for j in range(i + 1, 5)
                     if rng.random() < 0.4]
            p = FinPoset.from_pairs(labels, pairs, complete=True)
            a = up_algebra(p)
            assert len(a.carrier()) <= 32
            pf = prime_filter_poset(a)
            assert poset_isomorphism(p, pf) is not None
            assert lattice_isomorphic(a, up_algebra(pf)) is not None


class TestFreeBA:
    @pytest.mark.parametrize("n,size", [(0, 2), (1, 4), (2, 16)])
    def test_sizes(self, n, size):
        assert free_ba(("x", "y")[:n]).size() == size

    def test_budget_refusal(self):
        with pytest.raises(BudgetExceeded) as refused:
            with budget(max_generators=8):
                free_ba(tuple(range(9)))
        assert refused.value.flag == "--max-generators"

    def test_generator_embedding(self):
        fb = free_ba(("g", "h"))
        g = free_ba_generator(fb, "g")
        assert len(fb.labels(g)) == 2  # two of the four valuations make g true
        assert fb.neg(g) | g == fb.top

    def test_map_identity(self):
        h = free_ba_map(("g",), ("g",), (0,))
        fb = free_ba(("g",))
        for e in fb.carrier():
            assert h.apply(e) == e

    def test_map_collapse_checked_on_all_elements(self):
        # oracle: the dual action on valuations, computed from scratch
        gens, targets, image = ("g", "h"), ("z",), (0, 0)
        h = free_ba_map(gens, targets, image)
        src, dst = free_ba(gens), free_ba(targets)
        assert src.size() == 16 and dst.size() == 4
        for e in src.carrier():
            want = frozenset(v for v in dst.atoms
                             if frozenset(g for g, i in zip(gens, image) if targets[i] in v)
                             in src.labels(e))
            assert dst.labels(h.apply(e)) == want
        for g in ("g", "h"):
            assert h.apply(free_ba_generator(src, g)) == free_ba_generator(dst, "z")

    def test_map_injection_preserves_generators(self):
        h = free_ba_map(("g",), ("g", "h"), (0,))
        assert h.apply(free_ba_generator(free_ba(("g",)), "g")) == \
            free_ba_generator(free_ba(("g", "h")), "g")


class TestFamilyTranslation:
    def test_bounds(self):
        xs = ("p", "q")
        fb = free_ba(xs)  # its atoms are the subsets of xs, in mask order
        assert fb.labels(nbhd_to_free(xs, encode(fb, frozenset()))) == frozenset()
        full = frozenset(fb.atoms)
        assert fb.labels(nbhd_to_free(xs, encode(fb, full))) == full

    def test_singleton_family_is_generator(self):
        xs = ("p",)
        fam = frozenset([frozenset(["p"])])
        fb = free_ba(xs)
        assert nbhd_to_free(xs, encode(fb, fam)) == free_ba_generator(fb, "p")

    def test_bijective_and_natural(self):
        nb = nb_functor()
        xs, ys = ("p", "q"), ("z",)
        f = (0, 0)  # both to z
        act, label = nb.on_mor(f, len(ys)), nb.decode(xs)
        hom = free_ba_map(xs, ys, f)
        seen = set()
        for code in nb.on_obj(xs):
            fam = label(code)
            e = nbhd_to_free(xs, code)
            seen.add(e)
            assert hom.source.labels(e) == fam
            assert nbhd_to_free(ys, act(code)) == hom.apply(e)
        assert len(seen) == 16


class TestKernel:
    def test_boolean_lattice_is_its_own_kernel(self):
        lat = boolean_as_lattice(FinBoolAlg(atoms=("a", "b")))
        k, _ = kernel_K(lat)
        assert k.size() == 4

    def test_three_chain_kernel_is_two(self):
        k, embed = kernel_K(three_chain())
        assert k.size() == 2
        assert set(map(three_chain().spectrum.labels, embed)) == \
            {frozenset(), frozenset(["p", "q"])}

    def test_chain_plus_point(self):
        p = FinPoset.from_pairs(("a", "b", "c"), [("a", "b")], complete=True)
        k, embed = kernel_K(up_algebra(p))
        assert k.size() == 4
        # oracle: complemented upsets are exactly the component unions
        assert set(map(p.labels, embed)) == {frozenset(), frozenset(["c"]),
                                             frozenset(["a", "b"]),
                                             frozenset(["a", "b", "c"])}


class TestFreeEnvelope:
    def test_g_of_three_chain(self):
        g, unit = free_over_dl_G(three_chain())
        assert g.size() == 4
        for u in (frozenset(), frozenset(["p", "q"])):
            assert g.labels(unit.apply(three_chain().spectrum.mask(u))) == u

    def test_boolean_collapse(self):
        b = FinBoolAlg(atoms=("a", "b", "c"))
        g, unit = free_over_dl_G(boolean_as_lattice(b))
        assert g == b
        for x in b.carrier():
            assert unit.apply(x) == x

    def test_hom_action_is_preimage(self):
        lat2 = up_algebra(FinPoset.discrete(("s",)))
        h = LatticeHom(lat2, three_chain(),
                       MonotoneMap.of_dict(three_chain().spectrum,
                                           lat2.spectrum,
                                           {"p": "s", "q": "s"}))
        gh = g_of_hom(h)
        assert gh.target.labels(gh.apply(encode(gh.source, ["s"]))) == \
            frozenset(["p", "q"])
        assert gh.target.labels(gh.apply(encode(gh.source, []))) == frozenset()


class TestTensor2:
    def test_boolean_double_collapses(self):
        lat = boolean_as_lattice(FinBoolAlg(atoms=("a", "b")))
        t2 = tensor2(lat)
        assert lattice_isomorphic(t2.lattice, lat) is not None
        for u in lat.carrier():
            assert t2.in1.apply(u) == t2.in2.apply(u)

    def test_three_chain_double_is_four_chain(self):
        t2 = tensor2(three_chain())
        assert lattice_isomorphic(t2.lattice,
                                  up_algebra(chain(0, 1, 2))) is not None

    def test_left_below_right_and_retraction(self):
        lat = three_chain()
        t2 = tensor2(lat)
        assert t2.in1.apply(lat.top) == t2.in2.apply(lat.top)
        k, embed = kernel_K(lat)
        complemented = set(embed)
        doubled = t2.lattice.spectrum.labels
        for u in lat.carrier():
            assert doubled(t2.in1.apply(u)) <= doubled(t2.in2.apply(u))
            assert (t2.in1.apply(u) == t2.in2.apply(u)) == (u in complemented)
            assert t2.retract.apply(t2.in1.apply(u)) == u
            assert t2.retract.apply(t2.in2.apply(u)) == u


class _FuncHom:
    """Monotone-map stand-in for inserter tests."""

    def __init__(self, source, fn):
        self.source = source
        self.fn = fn

    def apply(self, x):
        return self.fn(x)


class TestInserter:
    def test_equal_maps_give_whole_source(self):
        lat = three_chain()
        ident = _FuncHom(lat, lambda x: x)
        sub = dl_inserter(ident, ident)
        assert set(sub.members) == set(lat.carrier())

    def test_constant_top_gives_whole_source(self):
        lat = three_chain()
        sub = dl_inserter(_FuncHom(lat, lambda x: x),
                          _FuncHom(lat, lambda x: lat.top))
        assert set(sub.members) == set(lat.carrier())

    def test_presentation_recovers_the_lattice(self):
        lat = three_chain()
        galg, unit = free_over_dl_G(lat)
        t2 = tensor2(lat)
        sub = dl_inserter(g_of_hom(t2.in1), g_of_hom(t2.in2))
        assert set(sub.members) == {unit.apply(u) for u in lat.carrier()}
        assert lattice_isomorphic(sub.lattice, lat) is not None
        irreducibles = sub.lattice.spectrum.elements  # labelled by their masks
        for relem, member in sub.embed.items():
            restrict = sum(1 << k for k, j in enumerate(irreducibles) if not j & ~member)
            assert restrict == relem

    def test_mismatched_sources_rejected(self):
        lat = three_chain()
        other = up_algebra(FinPoset.discrete(("s",)))
        with pytest.raises(InputError):
            dl_inserter(_FuncHom(lat, lambda x: x),
                        _FuncHom(other, lambda x: x))


class TestReflexivePairs:
    def test_diagonal_subalgebra(self):
        b = FinBoolAlg(atoms=("x", "y"))
        prod = product_ba(b, b)
        diag = {prod.pair(a, a) for a in b.carrier()}
        closure = set(diag)
        # close under complement and meet to get a subalgebra
        changed = True
        while changed:
            changed = False
            for u in list(closure):
                for v in list(closure):
                    for w in (prod.algebra.neg(u), u & v, u | v):
                        if w not in closure:
                            closure.add(w)
                            changed = True
        assert reflexive_pair_swap_check(prod, frozenset(closure))

    def test_full_product(self):
        b = FinBoolAlg(atoms=("x", "y"))
        prod = product_ba(b, b)
        assert reflexive_pair_swap_check(prod, frozenset(prod.algebra.carrier()))

    def test_exhaustive_over_subalgebras(self):
        b = FinBoolAlg(atoms=("x", "y"))
        prod = product_ba(b, b)
        diag = {prod.pair(a, a) for a in b.carrier()}
        count = 0
        for sub in subalgebras(prod.algebra):
            if diag <= sub:
                count += 1
                assert reflexive_pair_swap_check(prod, sub)
        assert count >= 2

    def test_missing_diagonal_rejected(self):
        b = FinBoolAlg(atoms=("x", "y"))
        prod = product_ba(b, b)
        with pytest.raises(InputError):
            reflexive_pair_swap_check(
                prod, frozenset([prod.algebra.bot, prod.algebra.top]))
