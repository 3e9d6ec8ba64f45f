"""Finite Boolean algebras and distributive lattices.

A Boolean algebra is stored by its atom set; an element is a frozenset of
atoms.  A distributive lattice is stored by its dual poset (spectrum); an
element is an upset of the spectrum.  Under this representation meets and
joins are intersections and unions, and homomorphisms are stored dually as
maps between spectra, with the element-level action derived by preimage.

The spectrum orientation is pinned so that the round trips
``lattice == upsets(prime filters(lattice))`` and
``poset == prime filters(upsets(poset))`` hold on the nose (the former) or
up to isomorphism (the latter); see :func:`prime_filter_poset`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Mapping

from .errors import (BudgetExceeded, DEFAULT_MAX_ENUM, DEFAULT_MAX_GENERATORS,
                     InputError, check_enum_budget)
from .functors import powerset
from .order import (FinPoset, MonotoneMap, cotensor2, diagonal_section,
                    poset_isomorphism, unions)


@dataclass(frozen=True)
class FinBoolAlg:
    """A finite Boolean algebra given by its atoms.

    Elements are frozensets of atoms; ``meet``/``join``/``neg`` are
    intersection, union and complement.
    """

    atoms: tuple

    def __post_init__(self):
        if len(set(self.atoms)) != len(self.atoms):
            raise InputError("atoms must be distinct")

    @property
    def top(self) -> frozenset:
        return frozenset(self.atoms)

    @property
    def bot(self) -> frozenset:
        return frozenset()

    def neg(self, a: frozenset) -> frozenset:
        return self.top - a

    def implies(self, a: frozenset, b: frozenset) -> frozenset:
        return self.neg(a) | b

    def size(self) -> int:
        return 1 << len(self.atoms)

    def carrier(self, max_enum: int = DEFAULT_MAX_ENUM) -> tuple:
        check_enum_budget(self.size(), max_enum, "boolean algebra carrier")
        return powerset(self.atoms)


@dataclass(frozen=True)
class FinDistLattice:
    """A finite distributive lattice given by its spectrum (dual poset).

    Elements are the upsets of the spectrum ordered by inclusion.
    """

    spectrum: FinPoset

    @property
    def top(self) -> frozenset:
        return frozenset(self.spectrum.elements)

    @property
    def bot(self) -> frozenset:
        return frozenset()

    def size(self, max_enum: int = DEFAULT_MAX_ENUM) -> int:
        """The number of upsets, counted without building them: among the
        upsets of a set of spectrum elements, those without its first
        element ``j`` avoid the down-set of ``j``, the others hold its up-set."""
        check_enum_budget(1 << len(self.spectrum), max_enum,
                          "distributive lattice carrier")
        ups, downs = self.spectrum.upmask, self.spectrum.downmask

        @lru_cache(maxsize=None)
        def count(mask: int) -> int:
            if not mask:
                return 1
            j = (mask & -mask).bit_length() - 1
            return count(mask & ~downs[j]) + count(mask & ~ups[j])

        return count((1 << len(self.spectrum)) - 1)

    def carrier(self, max_enum: int = DEFAULT_MAX_ENUM) -> tuple:
        check_enum_budget(1 << len(self.spectrum), max_enum,
                          "distributive lattice carrier")
        return _upsets_in_mask_order(self.spectrum)


@lru_cache(maxsize=256)
def _upsets_in_mask_order(spectrum: FinPoset) -> tuple:
    return tuple(spectrum.labels(k) for k, up in enumerate(unions(spectrum.upmask))
                 if up == k)


def up_algebra(x: FinPoset) -> FinDistLattice:
    """The distributive lattice of upsets of a poset."""
    return FinDistLattice(spectrum=x)


def boolean_as_lattice(b: FinBoolAlg) -> FinDistLattice:
    """A Boolean algebra seen as a distributive lattice (discrete spectrum).

    Element encodings coincide: a subset of atoms is an upset of the
    discrete spectrum.
    """
    return FinDistLattice(spectrum=FinPoset.discrete(b.atoms))


@dataclass(frozen=True)
class BAHom:
    """A Boolean algebra homomorphism stored by its dual atom map.

    ``dual[k]`` is the source atom that the k-th target atom maps to; the
    element-level action is preimage, which preserves all operations.
    """

    source: FinBoolAlg
    target: FinBoolAlg
    dual: tuple

    def __post_init__(self):
        if len(self.dual) != len(self.target.atoms):
            raise InputError("dual map does not cover the target atoms")
        src = set(self.source.atoms)
        for a in self.dual:
            if a not in src:
                raise InputError(f"dual map hits unknown atom {a!r}")

    def dual_of(self, target_atom):
        return self.dual[self.target.atoms.index(target_atom)]

    def apply(self, a: frozenset) -> frozenset:
        return frozenset(t for t, s in zip(self.target.atoms, self.dual) if s in a)

    @classmethod
    def of_dict(cls, source: FinBoolAlg, target: FinBoolAlg, dual: Mapping):
        return cls(source, target, tuple(dual[t] for t in target.atoms))


def ba_compose(g: BAHom, f: BAHom) -> BAHom:
    """The composite ``g after f``; duals compose the other way round."""
    if f.target != g.source:
        raise InputError("homs do not compose")
    return BAHom(f.source, g.target,
                 tuple(f.dual_of(a) for a in g.dual))


def ba_identity(b: FinBoolAlg) -> BAHom:
    return BAHom(b, b, b.atoms)


@dataclass(frozen=True)
class LatticeHom:
    """A lattice homomorphism stored as a monotone map between spectra."""

    source: FinDistLattice
    target: FinDistLattice
    dual: MonotoneMap

    def __post_init__(self):
        if self.dual.source != self.target.spectrum or \
                self.dual.target != self.source.spectrum:
            raise InputError("dual map must go from target spectrum to source spectrum")

    def apply(self, u: frozenset) -> frozenset:
        return frozenset(t for t in self.target.spectrum.elements
                         if self.dual.of(t) in u)


def lattice_compose(g: LatticeHom, f: LatticeHom) -> LatticeHom:
    if f.target != g.source:
        raise InputError("homs do not compose")
    return LatticeHom(f.source, g.target, g.dual.then(f.dual))


def lattice_identity(a: FinDistLattice) -> LatticeHom:
    ident = MonotoneMap(a.spectrum, a.spectrum, tuple(range(len(a.spectrum))))
    return LatticeHom(a, a, ident)


def prime_filter_poset(a: FinDistLattice,
                       max_enum: int = DEFAULT_MAX_ENUM) -> FinPoset:
    """The poset of prime filters of ``a``, ordered by inclusion.

    Computed from first principles: every filter of a finite lattice is
    principal, so we enumerate generators and test primality directly.
    Each prime filter is labelled by its generating element.  For a
    lattice stored as the upsets of a poset this reproduces that poset up
    to isomorphism; it is the oracle for the duality round trip.
    """
    elems = a.carrier(max_enum)
    gens = []
    for m in elems:
        if m == a.bot:
            continue
        prime = True
        for x in elems:
            for y in elems:
                if m <= (x | y) and not (m <= x) and not (m <= y):
                    prime = False
                    break
            if not prime:
                break
        if prime:
            gens.append(m)
    # filter inclusion: {x : x >= m} <= {x : x >= m'} iff m' <= m
    ups = tuple(sum(1 << k for k, m2 in enumerate(gens) if m2 <= m) for m in gens)
    return FinPoset(tuple(gens), ups)


def free_ba(gens: tuple,
            max_generators: int = DEFAULT_MAX_GENERATORS) -> FinBoolAlg:
    """The free Boolean algebra on ``gens``: atoms are the valuations.

    A valuation is encoded as the frozenset of generators it sends to
    true, so the algebra has ``2^len(gens)`` atoms and ``2^2^len(gens)``
    elements.  Oversized generator sets are refused, not truncated.
    """
    gens = tuple(gens)
    if len(set(gens)) != len(gens):
        raise InputError("generators must be distinct")
    if len(gens) > max_generators:
        raise BudgetExceeded(
            f"free boolean algebra on {len(gens)} generators "
            f"(budget {max_generators})")
    return FinBoolAlg(atoms=powerset(gens))


def free_ba_generator(fb: FinBoolAlg, g) -> frozenset:
    """The image of a generator under the unit of the free construction."""
    return frozenset(v for v in fb.atoms if g in v)


def free_ba_map(source_gens: tuple, target_gens: tuple, f: Mapping,
                max_generators: int = DEFAULT_MAX_GENERATORS) -> BAHom:
    """The hom between free algebras induced by a function on generators.

    Dually, a target valuation ``v`` pulls back to the valuation
    ``{g | f(g) in v}``; this sends generators to generators.
    """
    src = free_ba(tuple(source_gens), max_generators)
    dst = free_ba(tuple(target_gens), max_generators)
    dual = tuple(frozenset(g for g in source_gens if f[g] in v)
                 for v in dst.atoms)
    return BAHom(src, dst, dual)


def nbhd_to_free(xs: tuple, family: frozenset,
                 max_generators: int = DEFAULT_MAX_GENERATORS) -> frozenset:
    """Translate a family of subsets of ``xs`` into the free algebra on ``xs``.

    Each member subset ``a`` contributes the conjunction of the generators
    in ``a`` and the negated generators outside it; the family is the join
    of these.  The resulting element equals ``family`` itself under the
    valuation encoding, which is what makes the translation a natural
    bijection; callers may rely on that but the computation here follows
    the term shape.
    """
    fb = free_ba(tuple(xs), max_generators)
    result = fb.bot
    for a in family:
        term = fb.top
        for g in xs:
            img = free_ba_generator(fb, g)
            term &= img if g in a else fb.neg(img)
        result |= term
    return result


def kernel_K(a: FinDistLattice, max_enum: int = DEFAULT_MAX_ENUM) -> tuple:
    """The largest Boolean subalgebra of a distributive lattice.

    Carrier = complemented elements.  Returns ``(ba, embed)`` where the
    atoms of ``ba`` are the minimal nonzero complemented elements and
    ``embed`` sends each subset of atoms to its union, an element of
    ``a``.
    """
    elems = a.carrier(max_enum)
    members = set(elems)
    top = a.top
    complemented = [m for m in elems if (top - m) in members]
    atoms = [m for m in complemented
             if m != a.bot and not any(c != a.bot and c < m for c in complemented)]
    if (1 << len(atoms)) != len(complemented):
        raise AssertionError("complemented elements do not form a Boolean algebra")
    ba = FinBoolAlg(atoms=tuple(atoms))
    return ba, dict(zip(ba.carrier(max_enum), unions(atoms, frozenset())))


def free_over_dl_G(a: FinDistLattice) -> tuple:
    """The free Boolean algebra over a distributive lattice, with its unit.

    At finite scale this is the powerset algebra on the underlying set of
    the spectrum; the unit sends an upset to itself viewed as a mere
    subset.
    """
    g = FinBoolAlg(atoms=a.spectrum.elements)
    wg = boolean_as_lattice(g)
    dual = MonotoneMap.of_dict(wg.spectrum, a.spectrum,
                               {e: e for e in a.spectrum.elements})
    unit = LatticeHom(a, wg, dual)
    return g, unit


def g_of_hom(h: LatticeHom) -> BAHom:
    """The action of the free-Boolean-algebra construction on a hom."""
    gsrc = FinBoolAlg(atoms=h.source.spectrum.elements)
    gdst = FinBoolAlg(atoms=h.target.spectrum.elements)
    dual = tuple(h.dual.of(t) for t in gdst.atoms)
    return BAHom(gsrc, gdst, dual)


@dataclass(frozen=True)
class Tensor2:
    lattice: FinDistLattice
    in1: LatticeHom
    in2: LatticeHom
    retract: LatticeHom


def tensor2(a: FinDistLattice) -> Tensor2:
    """The ordered double of ``a``: left copy below the right copy.

    Dually this is the comparable-pair poset of the spectrum; ``in1`` and
    ``in2`` are dual to the two projections, so ``in1(x) <= in2(x)`` always,
    with equality exactly on complemented elements.  The retraction is dual
    to the diagonal and collapses both copies back onto ``a``.
    """
    xsq, p0, p1 = cotensor2(a.spectrum)
    lat = up_algebra(xsq)
    in1 = LatticeHom(a, lat, p0)
    in2 = LatticeHom(a, lat, p1)
    retract = LatticeHom(lat, a, diagonal_section(a.spectrum, xsq))
    return Tensor2(lat, in1, in2, retract)


@dataclass(frozen=True)
class SubLattice:
    """A sublattice re-expressed over its own spectrum.

    ``members`` are the original elements (in the ambient encoding),
    ``embed`` maps elements of ``lattice`` back into the ambient algebra
    and ``restrict`` is its inverse on members.
    """

    lattice: FinDistLattice
    members: tuple
    embed: dict
    restrict: dict


def lattice_from_elements(members: Iterable,
                          max_enum: int = DEFAULT_MAX_ENUM) -> SubLattice:
    """Rebuild a family of sets, closed under union/intersection, as a
    lattice over its join-irreducibles.

    The bijectivity check at the end doubles as a distributivity check:
    it fails if and only if the input was not (isomorphic to) a lattice of
    upsets.
    """
    members = list(members)
    if not members:
        raise InputError("a lattice needs at least one element")
    check_enum_budget(len(members), max_enum, "sublattice reconstruction")
    bot = members[0]
    for m in members:
        bot &= m
    irreducibles = []
    for m in members:
        if m == bot:
            continue
        below = bot
        for m2 in members:
            if m2 < m:
                below |= m2
        if below != m:
            irreducibles.append(m)
    ups = tuple(sum(1 << k for k, j2 in enumerate(irreducibles) if j2 <= j)
                for j in irreducibles)
    spectrum = FinPoset(tuple(irreducibles), ups)
    lat = FinDistLattice(spectrum=spectrum)
    restrict = {}
    embed = {}
    for m in members:
        s = frozenset(j for j in irreducibles if j <= m)
        restrict[m] = s
        embed[s] = m
    if len(embed) != len(members) or len(lat.carrier(max_enum)) != len(members):
        raise AssertionError("input family is not a distributive lattice")
    for m in members:
        joined = bot
        for j in restrict[m]:
            joined |= j
        if joined != m:
            raise AssertionError("join-irreducible decomposition failed")
    return SubLattice(lat, tuple(members), embed, restrict)


def dl_inserter(f, g, max_enum: int = DEFAULT_MAX_ENUM) -> SubLattice:
    """The sublattice ``{b | f(b) <= g(b)}`` of the common source of f, g.

    ``f`` and ``g`` may be lattice homs, Boolean homs, or any objects with
    ``source``/``apply``; monotone maps suffice for the inserter to be a
    sublattice, which is asserted rather than assumed.
    """
    if f.source != g.source:
        raise InputError("inserter needs a common source")
    members = [b for b in f.source.carrier(max_enum) if f.apply(b) <= g.apply(b)]
    assert_sublattice(members, f.source)
    return lattice_from_elements(members, max_enum)


def ba_inserter(h1: BAHom, h2: BAHom,
                max_enum: int = DEFAULT_MAX_ENUM) -> list:
    """Members of ``{b | h1(b) <= h2(b)}`` swept with bitmask images.

    Same value as the generic inserter membership scan, but linear-time per
    candidate in the number of source atoms, which keeps the documented
    worst case (a 2^16-element sweep) comfortably fast.
    """
    if h1.source != h2.source or h1.target != h2.target:
        raise InputError("inserter needs a common source and target")
    src_atoms = h1.source.atoms
    check_enum_budget(1 << len(src_atoms), max_enum, "inserter sweep")
    pre1 = [0] * len(src_atoms)
    pre2 = [0] * len(src_atoms)
    src_index = {a: k for k, a in enumerate(src_atoms)}
    for k, a in enumerate(h1.target.atoms):
        pre1[src_index[h1.dual[k]]] |= 1 << k
    for k, a in enumerate(h2.target.atoms):
        pre2[src_index[h2.dual[k]]] |= 1 << k
    members = []
    for mask in range(1 << len(src_atoms)):
        img1 = 0
        img2 = 0
        m = mask
        while m:
            i = (m & -m).bit_length() - 1
            img1 |= pre1[i]
            img2 |= pre2[i]
            m &= m - 1
        if img1 & ~img2 == 0:
            members.append(frozenset(a for k, a in enumerate(src_atoms)
                                     if mask >> k & 1))
    return members


def assert_sublattice(members: list, ambient) -> None:
    mset = set(members)
    if ambient.bot not in mset or ambient.top not in mset:
        raise AssertionError("inserter misses top or bottom")
    for x in members:
        for y in members:
            if (x | y) not in mset or (x & y) not in mset:
                raise AssertionError("inserter not closed under lattice operations")


@dataclass(frozen=True)
class ProductBA:
    """A binary product of Boolean algebras with tagging helpers."""

    left_algebra: FinBoolAlg
    right_algebra: FinBoolAlg
    algebra: FinBoolAlg

    def pair(self, x: frozenset, y: frozenset) -> frozenset:
        return frozenset([("l", a) for a in x] + [("r", a) for a in y])

    def left(self, z: frozenset) -> frozenset:
        return frozenset(a for tag, a in z if tag == "l")

    def right(self, z: frozenset) -> frozenset:
        return frozenset(a for tag, a in z if tag == "r")


def product_ba(b1: FinBoolAlg, b2: FinBoolAlg) -> ProductBA:
    atoms = tuple(("l", a) for a in b1.atoms) + tuple(("r", a) for a in b2.atoms)
    return ProductBA(b1, b2, FinBoolAlg(atoms=atoms))


def set_partitions(items: tuple) -> Iterator[list]:
    """All partitions of ``items`` into nonempty blocks."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(tuple(rest)):
        for k in range(len(part)):
            yield part[:k] + [part[k] + [first]] + part[k + 1:]
        yield part + [[first]]


def subalgebras(b: FinBoolAlg) -> Iterator[frozenset]:
    """All Boolean subalgebras of ``b``, as frozensets of elements.

    Subalgebras of a finite Boolean algebra correspond to partitions of
    its atom set: the subalgebra holds exactly the unions of blocks.
    """
    for part in set_partitions(b.atoms):
        yield frozenset(unions([frozenset(blk) for blk in part], frozenset()))


def reflexive_pair_swap_check(prod: ProductBA, sub: frozenset) -> bool:
    """Check that a diagonal-containing subalgebra of B x B is swap-closed.

    Also evaluates, for every member, the explicit witness term built from
    the member and the two diagonal elements of its components; the witness
    must itself be a member and must project to the swapped pair.  Returns
    False on the first violation.
    """
    alg = prod.algebra
    for a in powerset(prod.left_algebra.atoms):
        if prod.pair(a, a) not in sub:
            raise InputError("subalgebra does not contain the diagonal")
    for z in sub:
        a, b = prod.left(z), prod.right(z)
        if prod.pair(b, a) not in sub:
            return False
        ia = prod.pair(a, a)
        ib = prod.pair(b, b)
        witness = (alg.implies(z & ib, ia)
                   & alg.implies(z & ia, ib)
                   & (ia | z | ib))
        if witness not in sub:
            return False
        if prod.left(witness) != b or prod.right(witness) != a:
            return False
    return True


def lattice_isomorphic(a: FinDistLattice, b: FinDistLattice):
    """An isomorphism witness between the dual posets, or None.

    Two finite distributive lattices are isomorphic exactly when their
    spectra are.
    """
    return poset_isomorphism(a.spectrum, b.spectrum)
