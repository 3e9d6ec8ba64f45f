"""Named verification suites.

Every check exercises one of the core properties of the constructions
(closure laws, duality round trips, oracle equivalence of the generic and
closed-form liftings, transfer of injectivity) by exhaustive computation
at desk scale.  Checks return ``(ok, detail)``; the CLI prints one line
per check and fails the process if any check fails.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import product
from typing import Iterator, NamedTuple
from . import algebra as alg
from . import semantics as sem
from .errors import BudgetExceeded, check_enum_budget
from .functors import (_family_positions, lift_relation_generic, mnb_functor,
                       multiset_functor, nb_functor, poly_functor, pow_functor)
from .order import (FinPoset, MonotoneMap, Preorder, bits, connected_components,
                    cotensor2, diagonal_section, enumerate_poset_types,
                    enumerate_posets, poset_isomorphism, poset_quotient,
                    transitive_closure, unions)
from .posetify import (cross_check, mnb_comparison, posetify_generic, posetify_mnb,
                       posetify_nb, posetify_powerset)
from .positivize import (closed_form_fu, free_l, parse_syntax, positivize,
                         positivize_mor, semantic_l)

LABELS = ("a", "b", "c", "d")
POLY = "poly:sigma=f:2:1,c:0:2"


# A size past len(LABELS) adds no labels, so these bounds keep every size.
@lru_cache(maxsize=len(LABELS) + 1)
def small_posets(max_size: int) -> tuple:
    """Every poset on the first ``n`` of ``LABELS``, for each ``n <= max_size``."""
    out = []
    for n in range(max_size + 1):
        out.extend(enumerate_posets(LABELS[:n]))
    return tuple(out)


@lru_cache(maxsize=len(LABELS) + 1)
def iso_representatives(max_size: int) -> tuple:
    """The first of ``small_posets(max_size)`` of each isomorphism type,
    found by canonical extension (:func:`enumerate_poset_types`)."""
    return tuple(p for n in range(max_size + 1) for p in enumerate_poset_types(LABELS[:n]))


def two_chain() -> FinPoset:
    return FinPoset.chain(("p", "q"))


def three_chain_lattice() -> alg.FinDistLattice:
    """The three-element lattice bottom < middle < top."""
    return alg.up_algebra(two_chain())


# ------------------------------------------------------------------ order

def _with_pair(r: Preorder, i: int, j: int) -> Preorder:
    succ = list(r.succ)
    succ[i] |= 1 << j
    return Preorder(r.carrier, tuple(succ))


def _contained(r: Preorder, s: Preorder) -> bool:
    return all(not a & ~b for a, b in zip(r.succ, s.succ))


def check_closure_laws():
    """Idempotence and monotonicity of the closure, exhaustively on 3
    elements and sampled on 4.  The relations on 3 elements are all the
    reflexive ones, so each is closed once: the closure of a closure, or
    of a relation with one more pair, is looked up by its rows."""
    rels3 = _reflexive_relations(3)
    closure = {r.succ: transitive_closure(r) for r in rels3}
    for r in rels3:
        c = closure[r.succ]
        if closure[c.succ] != c:
            return False, f"closure not idempotent on {r.succ}"
    for r in rels3:
        for extra in [(0, 1), (2, 0), (1, 2)]:
            bigger = _with_pair(r, *extra)
            if not _contained(closure[r.succ], closure[bigger.succ]):
                return False, f"closure not monotone on {r.succ} + {extra}"
    rng = random.Random(7)
    for _ in range(40):
        r = _random_reflexive_relation(4, rng)
        c = transitive_closure(r)
        if transitive_closure(c) != c:
            return False, f"closure not idempotent on {r.succ}"
        bigger = _with_pair(r, rng.randrange(4), rng.randrange(4))
        if not _contained(c, transitive_closure(bigger)):
            return False, "closure not monotone on a sampled relation"
    return True, f"{len(rels3)} relations on 3 elements, 40 sampled on 4"


def _reflexive_relations(n: int) -> list:
    """Every reflexive relation on ``n`` labels, by the mask of its
    off-diagonal pairs; pair ``(i, j)`` is bit ``i * n + j``."""
    flat = unions([1 << i * n + j for i in range(n) for j in range(n) if i != j])
    row = (1 << n) - 1
    return [Preorder(LABELS[:n], tuple(m >> i * n & row | 1 << i for i in range(n)))
            for m in flat]


def _random_reflexive_relation(n: int, rng) -> Preorder:
    carrier = tuple(LABELS[:n])
    succ = [1 << i for i in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < 0.3:
                succ[i] |= 1 << j
    return Preorder(carrier, tuple(succ))


def check_quotient():
    count = 0
    for r in _reflexive_relations(3):
        c = transitive_closure(r)
        poset, proj = poset_quotient(c)
        for i, row in enumerate(c.succ):
            for j in bits(row):
                if not poset.leq_idx(proj[i], proj[j]):
                    return False, f"projection drops a pair of {c.succ}"
                mutual = c.succ[j] >> i & 1 == 1
                if (proj[i] == proj[j]) != mutual:
                    return False, f"classes of {c.succ} disagree with the relation"
        count += 1
    return True, f"{count} quotients on 3-element carriers"


def check_cotensor():
    for p in small_posets(3):
        xsq, p0, p1 = cotensor2(p)
        expected = [(a, b) for a in p.elements for b in p.elements if p.leq(a, b)]
        if sorted(map(str, xsq.elements)) != sorted(map(str, expected)):
            return False, f"pair carrier wrong on {p.elements}"
        for (a, b) in xsq.elements:
            for (c, d) in xsq.elements:
                want = p.leq(a, c) and p.leq(b, d)
                if xsq.leq((a, b), (c, d)) != want:
                    return False, "componentwise order wrong"
        i = diagonal_section(p, xsq).assignment
        if any(p0.assignment[k] != j or p1.assignment[k] != j for j, k in enumerate(i)):
            return False, "diagonal is not a common section"
    return True, f"{len(small_posets(3))} posets checked"


def check_components():
    for p in small_posets(3):
        reps, comp = connected_components(p)
        xsq, p0, p1 = cotensor2(p)
        if any(comp[i] != comp[j] for i, j in zip(p0.assignment, p1.assignment)):
            return False, "collapse does not coequalise the projections"
        # independent route: symmetrise the order and quotient
        sym = tuple(u | d for u, d in zip(p.upmask, p.downmask))
        q, proj = poset_quotient(transitive_closure(Preorder(p.elements, sym)))
        if len(q) != len(reps):
            return False, f"component count differs on {p.elements}"
        if comp != proj:  # both number their classes in order of least member
            return False, "component partition differs"
    return True, "components match the symmetrised quotient"


# ---------------------------------------------------------------- algebra

def check_birkhoff():
    """Both round trips, by independent routes: the prime filters of the
    up-sets of ``p`` form a poset isomorphic to ``p``, and sending each
    up-set to the set of prime filters that hold it is a bijection onto
    the up-sets of that poset.  The map preserves meets by construction,
    so a bijection is a lattice isomorphism."""
    posets = list(small_posets(3)) + [p for p in iso_representatives(4) if len(p) == 4]
    for p in posets:
        a = alg.up_algebra(p)
        pf = alg.prime_filter_poset(a)
        if poset_isomorphism(p, pf) is None:
            return False, f"spectrum round trip fails on {p.elements}"
        held = []  # each up-set u as the mask of the prime filters holding it
        for u in a.carrier():
            m = 0
            for k, g in enumerate(pf.elements):  # a filter is labelled by its generator
                if not g & ~u:
                    m |= 1 << k
            held.append(m)
        if sorted(held) != list(alg.up_algebra(pf).carrier()):
            return False, f"lattice round trip fails on {p.elements}"
    return True, f"{len(posets)} posets round-tripped"


def check_free_ba():
    for n in range(4):
        gens = LABELS[:n]
        fb = alg.free_ba(gens)
        if fb.size() != 1 << (1 << n):
            return False, f"size wrong on {n} generators"
        for g in gens:
            e = alg.free_ba_generator(fb, g)
            if e & fb.neg(e) != fb.bot or e | fb.neg(e) != fb.top:
                return False, "generator embedding is not Boolean"
    return True, "sizes 2^2^n for n <= 3"


def check_nbhd_iso():
    nb = nb_functor()
    for n in range(3):
        xs = LABELS[:n]
        fams = nb.on_obj(xs)
        images = set()
        for fam in fams:
            e = alg.nbhd_to_free(xs, fam)
            if e != fam:
                return False, (f"translation is not the identity encoding at "
                               f"{nb.decode(xs)(fam)}")
            images.add(e)
        if len(images) != len(fams):
            return False, "translation is not injective"
    # naturality against the two morphism actions
    for src_n in (1, 2):
        for dst_n in (1, 2):
            xs, ys = LABELS[:src_n], LABELS[:dst_n]
            for f in all_functions(src_n, dst_n):
                act, hom = nb.on_mor(f, dst_n), alg.free_ba_map(xs, ys, f)
                for fam in nb.on_obj(xs):
                    if alg.nbhd_to_free(ys, act[fam]) != \
                            hom.apply(alg.nbhd_to_free(xs, fam)):
                        return False, f"naturality fails at {f}"
    return True, "bijective and natural on sets of size <= 2"


def all_functions(m: int, n: int) -> Iterator[tuple]:
    """Every map from an ``m``-element set to an ``n``-element one, as an
    index assignment, the image of element 0 varying slowest."""
    return product(range(n), repeat=m)


def check_kernel():
    posets = list(small_posets(3)) + [p for p in iso_representatives(4) if len(p) == 4]
    for p in posets:
        a = alg.up_algebra(p)
        k, embed = alg.kernel_K(a)
        reps, comp = connected_components(p)
        if (1 << len(reps)) != (1 << len(k.atoms)):
            return False, f"kernel size wrong on {p.elements}"
        comp_sets = {sum(1 << i for i, ci in enumerate(comp) if ci == c)
                     for c in range(len(reps))}
        atom_sets = {embed[1 << i] for i in range(len(k.atoms))}
        if comp_sets != atom_sets:
            return False, f"kernel atoms differ from components on {p.elements}"
    return True, f"{len(posets)} lattices"


def check_gw_collapse():
    for n in range(4):
        b = alg.FinBoolAlg(atoms=LABELS[:n])
        g, unit = alg.free_over_dl_G(alg.boolean_as_lattice(b))
        if g != b:
            return False, f"free envelope of a Boolean lattice moved ({n} atoms)"
        for x in b.carrier():
            if unit.apply(x) != x:
                return False, "unit is not the identity on a Boolean lattice"
    return True, "collapse is the identity for <= 3 atoms"


def check_tensor2():
    for p in small_posets(3):
        a = alg.up_algebra(p)
        t2 = alg.tensor2(a)
        k, embed = alg.kernel_K(a)
        complemented = set(embed)
        for u in a.carrier():
            x1, x2 = t2.in1.apply(u), t2.in2.apply(u)
            if x1 & ~x2:
                return False, f"left copy not below right copy at {p.labels(u)}"
            if (x1 == x2) != (u in complemented):
                return False, f"copies collide off the Boolean kernel at {p.labels(u)}"
            if t2.retract.apply(x1) != u or t2.retract.apply(x2) != u:
                return False, "retraction fails"
    a = three_chain_lattice()
    four_chain = alg.up_algebra(FinPoset.chain(("x", "y", "z")))
    if alg.lattice_isomorphic(alg.tensor2(a).lattice, four_chain) is None:
        return False, "ordered double of the 3-element chain is not the 4-chain"
    return True, "ordered double checked on all spectra <= 3"


def check_dl_inserter():
    """The inserter of the comparison homs, built at the lattice level
    (ordered double, free envelope, ``g_of_hom``), is the image of the
    unit.  These are also the homs that ``positivize`` reads off the
    comparable pairs, and the unit it skips is the identity of masks."""
    for p in small_posets(3):
        a = alg.up_algebra(p)
        galg, unit = alg.free_over_dl_G(a)
        t2 = alg.tensor2(a)
        h1 = alg.g_of_hom(t2.in1)
        h2 = alg.g_of_hom(t2.in2)
        sub = alg.dl_inserter(h1, h2)
        elems = a.carrier()
        image = [unit.apply(u) for u in elems]
        if set(sub.members) != set(image):
            return False, f"inserter members differ on {p.elements}"
        if alg.lattice_isomorphic(sub.lattice, a) is None:
            return False, f"inserter lattice not isomorphic on {p.elements}"
        if alg.comparison_homs(a) != (h1, h2) or h1.source != galg:
            return False, f"positivize's comparison homs differ on {p.elements}"
        if image != list(elems):
            return False, f"the unit moves a mask on {p.elements}"
    return True, "upset image recovered on all spectra <= 3"


def check_reflexive_pairs():
    b = alg.FinBoolAlg(atoms=("a1", "a2"))
    prod = alg.product_ba(b, b)
    diag = {prod.pair(x, x) for x in b.carrier()}
    count = 0
    for sub in alg.subalgebras(prod.algebra):
        if not diag <= sub:
            continue
        count += 1
        if not alg.reflexive_pair_swap_check(prod, sub):
            return False, f"swap closure fails on a subalgebra of size {len(sub)}"
    return True, f"{count} diagonal-containing subalgebras, all symmetric"


def two_into_three() -> tuple:
    """``(two, three, h)``: the 2- and 3-element chains and the lattice hom
    that sends the bottom and top of ``two`` to those of ``three``."""
    two, three = alg.up_algebra(FinPoset.discrete(("s",))), three_chain_lattice()
    return two, three, alg.LatticeHom(two, three, MonotoneMap.of_dict(
        three.spectrum, two.spectrum, {"p": "s", "q": "s"}))


def check_dual_composition():
    two, three, f = two_into_three()
    four = alg.up_algebra(FinPoset.chain(("x", "y", "z")))
    g = alg.LatticeHom(three, four,
                       MonotoneMap.of_dict(four.spectrum, three.spectrum,
                                           {"x": "p", "y": "p", "z": "q"}))
    gf = alg.lattice_compose(g, f)
    for u in two.carrier():
        if gf.apply(u) != g.apply(f.apply(u)):
            return False, "element action of a composite differs"
    for t in range(len(four.spectrum)):
        if gf.dual.assignment[t] != f.dual.assignment[g.dual.assignment[t]]:
            return False, "duals do not compose contravariantly"
    return True, "composite checked elementwise"


# --------------------------------------------------------------- posetify

def _oracle_functors():
    return (pow_functor(), multiset_functor(3),
            poly_functor([("f", 2, ("k",))]), mnb_functor())


def check_posetify_oracles():
    checked, nb = 0, nb_functor()
    for t in (*_oracle_functors(), nb):
        for p in small_posets(3):
            if t is nb and len(cotensor2(p)[0]) > 3:
                continue  # families over more than 3 comparable pairs
            r = cross_check(t, p)
            if not r.ok:
                return False, f"{t.name} on {p.elements}: {r.detail}"
            checked += 1
    return True, f"{checked} functor/poset pairs agree"


def egli_milner(x: FinPoset, a: int, b: int) -> bool:
    """The oracle of the lifted powerset order on subset masks: every
    member of ``a`` lies below one of ``b``, every member of ``b`` above
    one of ``a``."""
    return not a & ~x.down_of(b) and not b & ~x.up_of(a)


def check_powerset_closed_form():
    chain3 = FinPoset.chain(("p", "q", "r"))
    pos = posetify_powerset(chain3)
    codes = pos.order.elements  # the convex subset masks, bit 0 for p
    if set(codes) != {0, 0b1, 0b10, 0b100, 0b11, 0b110, 0b111} or len(codes) != 7:
        return False, "convex subsets of the 3-chain are wrong"
    if codes[pos.e[0b101]] != 0b111:
        return False, "convex closure of the gap set is wrong"
    for i, c in enumerate(codes):
        for j, d in enumerate(codes):
            if pos.order.leq_idx(i, j) != egli_milner(chain3, c, d):
                return False, "order on the convex sets is not the lifted order"
    for n in range(1, 5):
        chain = FinPoset.chain(LABELS[:n])
        for s in range(1 << n):
            c = chain.up_of(s) & chain.down_of(s)
            if chain.up_of(c) & chain.down_of(c) != c:
                return False, "convex closure is not idempotent"
            if not (egli_milner(chain, s, c) and egli_milner(chain, c, s)):
                return False, "a set is not equivalent to its convex closure"
    return True, "7 convex sets on the 3-chain; closure laws on chains <= 4"


def check_analytic_antisymmetry():
    for t in (multiset_functor(3), poly_functor([("f", 2, ("k",))])):
        for p in small_posets(3):
            r = lift_relation_generic(t, p)
            if not r.is_antisymmetric():
                return False, f"{t.name} lifting not antisymmetric on {p.elements}"
            pos = posetify_generic(t, p)
            if pos.e != tuple(range(len(r.carrier))):
                return False, f"{t.name} quotient is not the identity on {p.elements}"
    return True, "lifted relations antisymmetric; quotient trivial"


def check_mnb_order():
    pos = posetify_mnb(two_chain())
    # families as masks over subset masks: {{p, q}} and {{q}, {p, q}}
    fam_a, fam_b = 1 << 0b11, 1 << 0b10 | 1 << 0b11
    a_cls, b_cls = (pos.e[_family_positions(2)[fam]] for fam in (fam_a, fam_b))
    if a_cls == b_cls or not pos.order.leq_idx(a_cls, b_cls) or \
            pos.order.leq_idx(b_cls, a_cls):
        return False, "the two-chain example is not strictly ordered"
    for p in small_posets(3):
        direct = mnb_comparison(p)
        generic = transitive_closure(lift_relation_generic(mnb_functor(), p))
        if direct != generic:
            return False, f"family comparison differs from the closure on {p.elements}"
    return True, "strict example holds; comparison equals the closure"


def check_nb_collapse():
    pos = posetify_nb(two_chain())
    if len(pos.order) != 4 or pos.order.covers():
        return False, "two-chain collapse is not 4 discrete points"
    for p in iso_representatives(4):
        reps, _ = connected_components(p)
        pos = posetify_nb(p)
        if len(pos.order) != 1 << (1 << len(reps)):
            return False, f"size wrong on {p.elements}"
        if pos.order.covers():
            return False, f"result not discrete on {p.elements}"
    return True, "2^2^components for all posets <= 4 (up to iso)"


def check_discrete_identity():
    functors = list(_oracle_functors()) + [nb_functor()]
    for t in functors:
        for n in range(4):
            p = FinPoset.discrete(LABELS[:n])
            pos = posetify_generic(t, p)
            if pos.order.covers():
                return False, f"{t.name} on a discrete set is not discrete"
            if len(pos.order) != len(pos.e):
                return False, f"{t.name} projection not bijective on discrete"
    return True, "all functors are unchanged on discrete posets"


def check_pow_transitive():
    for p in small_posets(3):
        r = lift_relation_generic(pow_functor(), p)
        if not r.is_transitive():
            return False, f"one-step powerset lifting not transitive on {p.elements}"
    return True, "one-step lifting already transitive"


def check_mnb_transitivity_probe():
    """Informational: does the one-step lifting for up-closed families ever
    fail transitivity at this scale?  The outcome is recorded either way."""
    failures = []
    for p in small_posets(3):
        r = lift_relation_generic(mnb_functor(), p)
        if not r.is_transitive():
            failures.append(p.elements)
    if failures:
        return True, f"non-transitive one-step lifting found on {len(failures)} posets"
    return True, "one-step lifting transitive on every poset <= 3"


# -------------------------------------------------------------- positivize

def check_dunn_closed_form():
    ok, detail = check_duality_rule((("dunn", 2), ("dunn", 3)))
    if not ok:
        return False, detail
    three = positivize(semantic_l(pow_functor()), three_chain_lattice())
    size = three.result.size()
    if size != 8 or len(three.members) != 8:
        return False, f"lifting of the 3-element chain has {size} elements, not 8"
    return True, "inserter matches the convex closed form on spectra <= 3"


def check_dunn_axioms():
    """The positive modal axioms inside the lifted lattice of normal modal
    logic, on every spectrum of at most 3 elements.  The box and diamond of
    every element must land in the lifted sublattice; the (in)equations are
    then evaluated with ambient mask operations, which agree with the
    sublattice ones."""
    l = semantic_l(pow_functor())
    for p in small_posets(3):
        a = alg.up_algebra(p)
        lifted = positivize(l, a)
        members = set(lifted.members)
        elems = a.carrier()
        box = {x: lifted.box_of(x) for x in elems}
        dia = {x: lifted.diamond_of(x) for x in elems}
        failures = []
        for x in elems:
            if box[x] not in members:
                failures.append(("box-membership", x))
            if dia[x] not in members:
                failures.append(("diamond-membership", x))
        if box[a.top] != lifted.ambient.top:
            failures.append(("box-preserves-top", a.top))
        if dia[a.bot] != lifted.ambient.bot:
            failures.append(("diamond-preserves-bottom", a.bot))
        for x in elems:
            for y in elems:
                if box[x & y] != box[x] & box[y]:
                    failures.append(("box-preserves-meet", (x, y)))
                if dia[x | y] != dia[x] | dia[y]:
                    failures.append(("diamond-preserves-join", (x, y)))
                if box[x] & dia[y] & ~dia[x & y]:
                    failures.append(("box-meet-diamond-below-diamond-meet", (x, y)))
                if box[x | y] & ~(box[x] | dia[y]):
                    failures.append(("box-join-below-box-or-diamond", (x, y)))
                if not x & ~y:
                    if box[x] & ~box[y]:
                        failures.append(("box-monotone", (x, y)))
                    if dia[x] & ~dia[y]:
                        failures.append(("diamond-monotone", (x, y)))
        if failures:
            return False, f"axiom failures on spectrum {p.elements}: {tuple(failures[:3])}"
    return True, "all interaction laws hold on spectra <= 3"


def check_fu_closed_form():
    ok, detail = check_duality_rule((("free", 2),))
    if not ok:
        return False, detail
    a = three_chain_lattice()
    three = positivize(free_l(), a)
    size = three.result.size()
    if size != 16 or len(three.members) != 16:
        return False, f"lifting of the 3-element chain has {size} elements, not 16"
    if alg.lattice_isomorphic(three.result, closed_form_fu(a)) is None:
        return False, "free-modality lifting differs on the 3-element chain"
    return True, "inserter matches the kernel closed form on spectra <= 2"


def check_fu_box_side_condition():
    a = three_chain_lattice()
    p = positivize(free_l(), a)
    middle = a.spectrum.mask(["q"])
    if p.is_member(p.box_of(middle)):
        return False, "box of the non-complemented middle element slipped in"
    if not (p.is_member(p.box_of(a.bot)) and p.is_member(p.box_of(a.top))):
        return False, "box of a complemented element was rejected"
    if p.box_of(middle) in p.members:
        return False, "membership check disagrees with the member list"
    return True, "box is only defined on the Boolean kernel"


def check_beta():
    """At a Boolean algebra ``b`` lifting and including agree: the free
    Boolean envelope of the included ``b`` is ``b`` itself under the atom
    encoding, so the lifted lattice and the included ``l(b)`` have equal
    carriers, and the comparison between them is the identity on elements,
    which is checked element by element.  The inserter then finds as many
    members as ``l(b)`` has elements."""
    for l in (semantic_l(pow_functor()), free_l()):
        for n in range(3):
            b = alg.FinBoolAlg(atoms=LABELS[:n])
            p = positivize(l, alg.boolean_as_lattice(b))
            lb = l.on_obj(b)
            if p.ambient != lb:
                return False, f"{l.name}: envelope of a {n}-atom algebra did not collapse"
            if p.result != alg.boolean_as_lattice(lb):
                return False, f"{l.name}: lifting at a {n}-atom algebra is not the inclusion"
            if any(p.embed[r] != r for r in p.result.carrier()):
                return False, f"{l.name}: comparison is not the identity on elements"
            if len(p.members) != lb.size():
                return False, f"{l.name}: lifting at a {n}-atom algebra has the wrong size"
    return True, "lifting agrees with inclusion on Boolean algebras <= 2 atoms"


def check_positivize_mor():
    l = semantic_l(pow_functor())
    two, three, h = two_into_three()
    p_two = positivize(l, two)
    p_three = positivize(l, three)
    action = positivize_mor(l, h, p_two, p_three)
    ident = positivize_mor(l, alg.lattice_identity(three), p_three, p_three)
    if any(k != v for k, v in ident.items()):
        return False, "identity hom does not act as the identity"
    if action[p_two.ambient.bot] != p_three.ambient.bot or \
            action[p_two.ambient.top] != p_three.ambient.top:
        return False, "bounds are not tracked"
    collapse = alg.LatticeHom(three, two,
                              MonotoneMap.of_dict(two.spectrum, three.spectrum,
                                                  {"s": "q"}))
    positivize_mor(l, collapse, p_three, p_two)
    return True, "lifted homs stay inside the target sublattice"


# Syntax name and spectrum size: every spectrum of at most 2 elements, or
# every one of exactly 3.
DUALITY_CASES = (*((f"semantic:{t}", 2) for t in ("pow", "mnb", "nb", "bag:2", POLY)),
                 *((f"semantic:{t}", 3) for t in ("pow", "bag:2", POLY)))


def check_duality_rule(cases=DUALITY_CASES):
    """Positivication of ``P T`` at ``Up(X)`` is ``Up(T'(X))``: the inserter
    route against the syntax's own closed form."""
    checked = 0
    for name, size in cases:
        l = parse_syntax(name)
        for p in small_posets(size):
            if size < 3 or len(p) == 3:
                a = alg.up_algebra(p)
                if alg.lattice_isomorphic(positivize(l, a).result,
                                          l.closed_form(a)) is None:
                    return False, f"{l.name} differs on spectrum {p.elements}"
                checked += 1
    return True, (f"inserter equals the up-sets of the posetification in {checked} "
                  f"syntax/spectrum pairs")


# -------------------------------------------------------------- semantics

def _collision(domain, fn):
    """Two members of ``domain`` that ``fn`` sends to one value, or None."""
    seen = {}
    for x in domain:
        first = seen.setdefault(fn(x), x)
        if first != x:
            return first, x
    return None


def check_delta_pow_injective():
    """The semantic component is injective on every modal-algebra element
    over sets of at most 3 states.  Its domain is counted against the
    budget after the component itself is."""
    nb = nb_functor()
    for n in range(4):
        states = LABELS[:n]
        dp = sem.delta_pow(states)
        check_enum_budget(1 << (1 << n), "semantic component domain")
        cex = _collision(nb.on_obj(states), dp.apply)
        if cex is not None:
            labels = tuple(map(nb.decode(states), cex))
            return False, f"not injective at a {n}-element set: {labels}"
    return True, "injective at all sets <= 3"


def check_delta_prime_injective():
    """The lifted component is injective on the members of the lifted
    algebra at every poset of at most 3 elements; each image asserts its
    saturation."""
    for p in small_posets(3):
        _, lifted, dprime = sem.positive_context(p)
        cex = _collision(dprime.members, dprime.apply)
        if cex is not None:
            labels = tuple(map(lifted.ambient.labels, cex))
            return False, f"not injective at {p.elements}: {labels}"
    return True, "injective at all posets <= 3 (saturation asserted throughout)"


def monotone_coalgebras(p: FinPoset, convex, limit: int | None = None) -> list:
    """The coalgebras on ``p`` with successor masks drawn from ``convex``
    that are monotone for the pairwise-bounds order, in depth-first order;
    only the first ``limit`` of them when a limit is given."""
    out = []

    def extend(chosen: list):
        if limit is not None and len(out) >= limit:
            return
        i = len(chosen)
        if i == len(p):
            out.append(sem.Coalgebra(p, tuple(chosen)))
            return
        for c in convex:
            if all((not p.leq_idx(j, i) or egli_milner(p, cj, c)) and
                   (not p.leq_idx(i, j) or egli_milner(p, c, cj))
                   for j, cj in enumerate(chosen)):
                chosen.append(c)
                extend(chosen)
                chosen.pop()

    extend([])
    return out


def linear_formulas(depth: int, variables: tuple) -> list:
    """Formulas built from the atoms by stacking one modality or one binary
    connective with an atom per layer, up to ``depth`` layers."""
    atoms = [sem.var(v) for v in variables] + [sem.TOP, sem.BOT]
    level = list(atoms)
    out = list(atoms)
    for _ in range(depth):
        nxt = []
        for f in level:
            nxt.append(sem.box(f))
            nxt.append(sem.dia(f))
            for a in atoms:
                nxt.append(sem.conj(f, a))
                nxt.append(sem.disj(a, f))
        out.extend(nxt)
        level = nxt
    return out


def _coherence_formulas() -> list:
    """Linear formulas to depth 3, the deepest layer thinned to every
    seventh entry, plus four formulas outside the linear family."""
    v = sem.var("v")
    return [f for k, f in enumerate(linear_formulas(3, ("v",)))
            if f.depth < 3 or k % 7 == 0] + [
        sem.box(sem.dia(sem.box(v))),
        sem.dia(sem.conj(v, sem.dia(v))),
        sem.conj(sem.disj(v, sem.TOP), sem.box(v)),
        sem.conj(sem.disj(v, sem.BOT), sem.box(sem.dia(v)))]


def check_semantics_coherence():
    # modal predicates agree for every upset, independently of any coalgebra
    for p in small_posets(3):
        pos, lifted, dprime = sem.positive_context(p)
        for u in alg.up_algebra(p).carrier():
            # masks of the convex sets (the classes of the lifting) by index
            dia_direct = sum(1 << k for k, c in enumerate(pos.order.elements) if c & u)
            box_direct = sum(1 << k for k, c in enumerate(pos.order.elements)
                             if not c & ~u)
            if dprime.apply(lifted.diamond_of(u)) != dia_direct:
                return False, f"diamond predicates differ at {p.elements}, {p.labels(u)}"
            if dprime.apply(lifted.box_of(u)) != box_direct:
                return False, f"box predicates differ at {p.elements}, {p.labels(u)}"
    # end to end: every monotone coalgebra and every upset valuation over
    # the posets <= 2, a sample of both over the 3-element posets
    formulas = _coherence_formulas()
    for p in iso_representatives(3):
        convex = sem.positive_context(p)[0].order.elements
        upsets = alg.up_algebra(p).carrier()
        if len(p) < 3:
            models = monotone_coalgebras(p, convex)
        else:
            models, upsets = monotone_coalgebras(p, convex, 6), upsets[:4]
        for c in models:
            for u in upsets:
                val = {"v": u}
                for f in formulas:
                    direct = sem.interpret_positive(c, val, f, "direct")
                    ref = sem.interpret_positive(c, val, f, "delta")
                    if direct != ref:
                        return False, f"routes differ on {p.elements}: {f}"
                    if p.up_of(direct) != direct:
                        return False, f"not an upset on {p.elements}: {f}"
    return True, "direct and reference semantics agree on all posets <= 3"


def check_discrete_agreement():
    formulas = linear_formulas(2, ("v",))
    for n in (1, 2):
        p = FinPoset.discrete(LABELS[:n])
        for st in all_functions(n, 1 << n):
            c = sem.Coalgebra(p, st)
            for u in range(1 << n):
                val = {"v": u}
                for f in formulas:
                    if not f.is_positive:
                        continue
                    if sem.interpret_boolean(c, val, f) != \
                            sem.interpret_positive(c, val, f, "direct"):
                        return False, f"semantics differ on a discrete {n}-set: {f}"
    return True, "boolean and positive semantics agree on discrete carriers"


# ------------------------------------------------------------------ suite

SUITES = {
    "order": (
        ("closure-laws", check_closure_laws),
        ("quotient-poset", check_quotient),
        ("comparable-pairs", check_cotensor),
        ("connected-components", check_components),
    ),
    "algebra": (
        ("duality-round-trip", check_birkhoff),
        ("free-boolean-algebra", check_free_ba),
        ("family-term-translation", check_nbhd_iso),
        ("boolean-kernel", check_kernel),
        ("envelope-collapse", check_gw_collapse),
        ("ordered-double", check_tensor2),
        ("inserter-presentation", check_dl_inserter),
        ("reflexive-pairs-symmetric", check_reflexive_pairs),
        ("dual-composition", check_dual_composition),
    ),
    "posetify": (
        ("lifting-oracle-equivalence", check_posetify_oracles),
        ("convex-powerset-form", check_powerset_closed_form),
        ("analytic-antisymmetry", check_analytic_antisymmetry),
        ("family-order", check_mnb_order),
        ("neighbourhood-collapse", check_nb_collapse),
        ("discrete-identity", check_discrete_identity),
        ("powerset-step-transitive", check_pow_transitive),
        ("family-step-transitivity-probe", check_mnb_transitivity_probe),
    ),
    "positivize": (
        ("normal-modal-closed-form", check_dunn_closed_form),
        ("positive-modal-axioms", check_dunn_axioms),
        ("free-modality-closed-form", check_fu_closed_form),
        ("free-modality-side-condition", check_fu_box_side_condition),
        ("boolean-agreement", check_beta),
        ("lifted-hom-action", check_positivize_mor),
        ("positivication-dual-to-posetification", check_duality_rule),
    ),
    "semantics": (
        ("component-injective", check_delta_pow_injective),
        ("lifted-component-injective", check_delta_prime_injective),
        ("semantics-coherence", check_semantics_coherence),
        ("discrete-agreement", check_discrete_agreement),
    ),
}


class CheckOutcome(NamedTuple):
    suite: str
    name: str
    ok: bool
    detail: str


def run_suite(name: str) -> list:
    """The outcome of every check of suite ``name``, or of every suite for
    ``all``; an unknown name raises ``KeyError``.  A check that raises
    fails with the exception as its detail; a budget refusal is not a
    failure and ends the run."""
    names = list(SUITES) if name == "all" else [name]
    out = []
    for suite in names:
        for check_name, fn in SUITES[suite]:
            try:
                ok, detail = fn()
            except AssertionError as exc:
                ok, detail = False, f"assertion: {exc}"
            except BudgetExceeded:
                raise
            except Exception as exc:
                ok, detail = False, f"{type(exc).__name__}: {exc}"
            out.append(CheckOutcome(suite, check_name, ok, detail))
    return out
