"""Finite Boolean algebras and distributive lattices.

A Boolean algebra is stored by its atoms; an element is a bitmask over
them (bit ``k`` for ``atoms[k]``).  A distributive lattice is stored by its
dual poset (spectrum); an element is the bitmask of an upset of the
spectrum.  Meets and joins are ``&`` and ``|``, the order is inclusion of
masks, and homomorphisms are stored dually as index maps between atoms or
spectra, with the element-level action derived by preimage.  Labels appear
only where an element is shown: ``FinBoolAlg.labels`` and
``FinPoset.labels`` decode a mask.

The spectrum orientation is pinned so that the round trips
``lattice == upsets(prime filters(lattice))`` and
``poset == prime filters(upsets(poset))`` hold on the nose (the former) or
up to isomorphism (the latter); see :func:`prime_filter_poset`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import InputError, check_enum_budget, check_generator_budget
from .functors import powerset
from .order import (FinPoset, MonotoneMap, Value, bits, cotensor2, diagonal_section,
                    poset_isomorphism, unions)


class FinBoolAlg(Value, fields=("atoms",)):
    """A finite Boolean algebra given by its atoms.

    Elements are masks over the atoms; meet and join are ``&`` and
    ``|``, and ``neg`` flips every bit of ``top``.
    """

    def __init__(self, atoms: tuple):
        if len(set(atoms)) != len(atoms):
            raise InputError("atoms must be distinct")
        object.__setattr__(self, "atoms", atoms)

    @property
    def top(self) -> int:
        return (1 << len(self.atoms)) - 1

    @property
    def bot(self) -> int:
        return 0

    def neg(self, a: int) -> int:
        return a ^ self.top

    def implies(self, a: int, b: int) -> int:
        return self.neg(a) | b

    def size(self) -> int:
        return 1 << len(self.atoms)

    def carrier(self) -> range:
        check_enum_budget(self.size(), "boolean algebra carrier")
        return range(self.size())

    def labels(self, a: int) -> frozenset:
        """The atoms below an element: its label where it is shown."""
        return frozenset(self.atoms[k] for k in bits(a))


class FinDistLattice(Value, fields=("spectrum",)):
    """A finite distributive lattice given by its spectrum (dual poset).

    Elements are the upset masks of the spectrum ordered by inclusion.
    """

    def __init__(self, spectrum: FinPoset):
        object.__setattr__(self, "spectrum", spectrum)

    @property
    def top(self) -> int:
        return (1 << len(self.spectrum)) - 1

    @property
    def bot(self) -> int:
        return 0

    def size(self) -> int:
        """The number of upsets, counted without building them: among the
        upsets of a set of spectrum elements, those without its first
        element ``j`` avoid the down-set of ``j``, the others hold its up-set."""
        check_enum_budget(1 << len(self.spectrum), "distributive lattice carrier")
        ups, downs = self.spectrum.upmask, self.spectrum.downmask

        @lru_cache(maxsize=None)
        def count(mask: int) -> int:
            if not mask:
                return 1
            j = (mask & -mask).bit_length() - 1
            return count(mask & ~downs[j]) + count(mask & ~ups[j])

        return count((1 << len(self.spectrum)) - 1)

    def carrier(self) -> tuple:
        """The upset masks, in increasing order."""
        check_enum_budget(1 << len(self.spectrum), "distributive lattice carrier")
        return tuple(k for k, up in enumerate(unions(self.spectrum.upmask)) if up == k)


def up_algebra(x: FinPoset) -> FinDistLattice:
    """The distributive lattice of upsets of a poset."""
    return FinDistLattice(spectrum=x)


def boolean_as_lattice(b: FinBoolAlg) -> FinDistLattice:
    """A Boolean algebra seen as a distributive lattice (discrete spectrum).

    Element encodings coincide: a mask over the atoms is an upset mask of
    the discrete spectrum.
    """
    return FinDistLattice(spectrum=FinPoset.discrete(b.atoms))


def _preimage_rows(assignment: tuple, n: int) -> tuple:
    """Row ``s`` is the mask of the indices ``k`` with ``assignment[k] ==
    s``, for each ``s`` below ``n``."""
    rows = [0] * n
    for k, s in enumerate(assignment):
        rows[s] |= 1 << k
    return tuple(rows)


def _apply_rows(rows: tuple, a: int) -> int:
    """The union of the rows of the set bits of ``a``; bits at or above
    ``len(rows)`` contribute nothing."""
    out = 0
    a &= (1 << len(rows)) - 1
    while a:
        low = a & -a
        out |= rows[low.bit_length() - 1]
        a ^= low
    return out


class BAHom(Value, fields=("source", "target", "dual")):
    """A Boolean algebra homomorphism stored by its dual atom map.

    ``dual[k]`` is the index of the source atom that the k-th target atom
    maps to, an assignment as :class:`MonotoneMap` stores one; the
    element-level action is preimage, which preserves all operations.
    Construction stores the preimage row of each source atom (``rows[s]``,
    the mask of the target atoms that ``dual`` sends to ``s``), and
    ``apply`` takes the union of the rows of an element's atoms.  The rows
    are derived from ``dual``, so they take no part in equality, hashing
    or the repr.
    """

    def __init__(self, source: FinBoolAlg, target: FinBoolAlg, dual: tuple):
        if len(dual) != len(target.atoms):
            raise InputError("dual map does not cover the target atoms")
        atoms = range(len(source.atoms))
        for s in dual:
            if s not in atoms:
                raise InputError(f"dual map hits unknown atom {s!r}")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "dual", dual)
        object.__setattr__(self, "rows", _preimage_rows(dual, len(atoms)))

    def apply(self, a: int) -> int:
        return _apply_rows(self.rows, a)


class LatticeHom(Value, fields=("source", "target", "dual")):
    """A lattice homomorphism stored as a monotone map between spectra.

    As :class:`BAHom` does, construction stores the preimage row of each
    source spectrum element (``rows[s]``, the target spectrum elements
    that the dual map sends to ``s``), outside equality, hashing and the
    repr; ``apply`` takes the union of the rows of an up-set's elements.
    """

    def __init__(self, source: FinDistLattice, target: FinDistLattice, dual: MonotoneMap):
        if dual.source != target.spectrum or dual.target != source.spectrum:
            raise InputError("dual map must go from target spectrum to source spectrum")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "dual", dual)
        object.__setattr__(self, "rows", _preimage_rows(dual.assignment, len(source.spectrum)))

    def apply(self, u: int) -> int:
        return _apply_rows(self.rows, u)


def lattice_compose(g: LatticeHom, f: LatticeHom) -> LatticeHom:
    if f.target != g.source:
        raise InputError("homs do not compose")
    return LatticeHom(f.source, g.target, g.dual.then(f.dual))


def lattice_identity(a: FinDistLattice) -> LatticeHom:
    ident = MonotoneMap(a.spectrum, a.spectrum, tuple(range(len(a.spectrum))))
    return LatticeHom(a, a, ident)


def prime_filter_poset(a: FinDistLattice) -> FinPoset:
    """The poset of prime filters of ``a``, ordered by inclusion.

    Computed from first principles: every filter of a finite lattice is
    principal, so we enumerate generators and test primality directly.
    The filter of a nonzero ``m`` is prime when ``m <= x | y`` implies
    ``m <= x`` or ``m <= y``.  By induction on the number of joinands this
    is the same for every finite join, so it holds exactly when ``m`` is
    not below the join of all the elements not above it: one pass over
    the lattice per candidate, folding that join and stopping at the
    first partial join above ``m``, where testing every pair would take a
    pass per element.  Each prime filter is labelled by its generating
    element, an upset mask.  For a lattice stored as the upsets of a poset
    this reproduces that poset up to isomorphism; it is the oracle for the
    duality round trip.
    """
    elems = a.carrier()
    gens = []
    for m in elems:
        if m == a.bot:
            continue
        rest = a.bot  # the join of the elements not above m, so far
        for x in elems:
            if m & ~x:
                rest |= x
                if not m & ~rest:
                    break
        else:
            gens.append(m)
    # filter inclusion: {x : x >= m} <= {x : x >= m'} iff m' <= m
    ups = tuple(sum(1 << k for k, m2 in enumerate(gens) if not m2 & ~m) for m in gens)
    return FinPoset(tuple(gens), ups)


def free_ba(gens: tuple) -> FinBoolAlg:
    """The free Boolean algebra on ``gens``: atoms are the valuations.

    A valuation is labelled by the set of generators it sends to true, and
    atom ``k`` is the valuation of the generators in the mask ``k``, so the
    algebra has ``2^len(gens)`` atoms and ``2^2^len(gens)`` elements.
    Oversized generator sets are refused, not truncated.
    """
    gens = tuple(gens)
    if len(set(gens)) != len(gens):
        raise InputError("generators must be distinct")
    check_generator_budget(len(gens))
    return FinBoolAlg(atoms=powerset(gens))


def free_ba_generator(fb: FinBoolAlg, g) -> int:
    """The image of a generator under the unit of the free construction:
    the valuations that make it true."""
    return sum(1 << k for k, v in enumerate(fb.atoms) if g in v)


def free_ba_map(source_gens: tuple, target_gens: tuple, image: Sequence) -> BAHom:
    """The hom between free algebras induced by the function on generators
    that sends ``source_gens[j]`` to ``target_gens[image[j]]``.

    Dually, a target valuation ``v`` pulls back to the valuation
    ``{g | f(g) in v}``, the union of the preimage rows of the generators
    in ``v``; this sends generators to generators.
    """
    src = free_ba(tuple(source_gens))
    dst = free_ba(tuple(target_gens))
    return BAHom(src, dst, tuple(unions(_preimage_rows(image, len(target_gens)))))


def nbhd_to_free(xs: tuple, family: int) -> int:
    """Translate a family of subsets of ``xs``, given by its ``nb`` code
    (bit ``k`` for the subset of mask ``k``), into the free algebra on
    ``xs``.

    Each member subset ``a`` contributes the conjunction of the generators
    in ``a`` and the negated generators outside it; the family is the join
    of these.  The resulting element equals the code itself under the
    valuation encoding, which is what makes the translation a natural
    bijection; callers may rely on that but the computation here follows
    the term shape.
    """
    fb = free_ba(tuple(xs))
    gens = [free_ba_generator(fb, g) for g in xs]
    result = fb.bot
    for a in bits(family):
        term = fb.top
        for j, img in enumerate(gens):
            term &= img if a >> j & 1 else fb.neg(img)
        result |= term
    return result


def kernel_K(a: FinDistLattice) -> tuple:
    """The largest Boolean subalgebra of a distributive lattice.

    Carrier = complemented elements.  Returns ``(ba, embed)`` where the
    atoms of ``ba`` are the minimal nonzero complemented elements and
    ``embed[k]`` is the union of the atoms in the mask ``k``, an element of
    ``a``.
    """
    elems = a.carrier()
    members = set(elems)
    complemented = [m for m in elems if (m ^ a.top) in members]
    atoms = [m for m in complemented
             if m and not any(c and c != m and not c & ~m for c in complemented)]
    if (1 << len(atoms)) != len(complemented):
        raise AssertionError("complemented elements do not form a Boolean algebra")
    return FinBoolAlg(atoms=tuple(atoms)), unions(atoms)


def free_over_dl_G(a: FinDistLattice) -> tuple:
    """The free Boolean algebra over a distributive lattice, with its unit.

    At finite scale this is the powerset algebra on the underlying set of
    the spectrum; the unit sends an upset to itself viewed as a mere
    subset.
    """
    g = FinBoolAlg(atoms=a.spectrum.elements)
    wg = boolean_as_lattice(g)
    dual = MonotoneMap(wg.spectrum, a.spectrum, tuple(range(len(g.atoms))))
    unit = LatticeHom(a, wg, dual)
    return g, unit


def g_of_hom(h: LatticeHom) -> BAHom:
    """The action of the free-Boolean-algebra construction on a hom."""
    gsrc = FinBoolAlg(atoms=h.source.spectrum.elements)
    gdst = FinBoolAlg(atoms=h.target.spectrum.elements)
    return BAHom(gsrc, gdst, h.dual.assignment)


class Tensor2(NamedTuple):
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


class SubLattice(NamedTuple):
    """A sublattice re-expressed over its own spectrum.

    ``members`` are the original elements (masks in the ambient algebra),
    the spectrum of ``lattice`` is the join-irreducible members, labelled
    by their masks, and ``embed`` maps each element of ``lattice`` to the
    member it stands for.
    """

    lattice: FinDistLattice
    members: tuple
    embed: dict


def lattice_from_elements(members: Iterable) -> SubLattice:
    """Rebuild a family of masks, closed under ``|`` and ``&``, as a
    lattice over its join-irreducibles.

    The bijectivity check at the end doubles as a distributivity check:
    it fails if and only if the input was not (isomorphic to) a lattice of
    upsets.
    """
    members = list(members)
    if not members:
        raise InputError("a lattice needs at least one element")
    check_enum_budget(len(members), "sublattice reconstruction")
    bot = members[0]
    for m in members:
        bot &= m
    irreducibles = []
    for m in members:
        if m == bot:
            continue
        below = bot
        for m2 in members:
            if m2 != m and not m2 & ~m:
                below |= m2
        if below != m:
            irreducibles.append(m)
    ups = tuple(sum(1 << k for k, j2 in enumerate(irreducibles) if not j2 & ~j)
                for j in irreducibles)
    lat = FinDistLattice(spectrum=FinPoset(tuple(irreducibles), ups))
    restrict = {m: sum(1 << k for k, j in enumerate(irreducibles) if not j & ~m)
                for m in members}
    embed = {s: m for m, s in restrict.items()}
    if len(embed) != len(members) or lat.size() != len(members):
        raise AssertionError("input family is not a distributive lattice")
    for s, m in embed.items():
        joined = bot
        for k in bits(s):
            joined |= irreducibles[k]
        if joined != m:
            raise AssertionError("join-irreducible decomposition failed")
    return SubLattice(lat, tuple(members), embed)


def dl_inserter(f, g) -> SubLattice:
    """The sublattice ``{b | f(b) <= g(b)}`` of the common source of f, g.

    ``f`` and ``g`` may be lattice homs, Boolean homs, or any objects with
    ``source``/``apply``; monotone maps suffice for the inserter to be a
    sublattice, which is asserted rather than assumed.
    """
    if f.source != g.source:
        raise InputError("inserter needs a common source")
    members = [b for b in f.source.carrier() if not f.apply(b) & ~g.apply(b)]
    assert_sublattice(members, f.source)
    return lattice_from_elements(members)


def ba_inserter(h1: BAHom, h2: BAHom) -> list:
    """Members of ``{b | h1(b) <= h2(b)}`` swept with bitmask images.

    Same value as the generic inserter membership scan, but linear-time per
    candidate in the number of source atoms, which keeps the documented
    worst case (a 2^16-element sweep) comfortably fast.
    """
    if h1.source != h2.source or h1.target != h2.target:
        raise InputError("inserter needs a common source and target")
    n = len(h1.source.atoms)
    check_enum_budget(1 << n, "inserter sweep")
    pre1, pre2 = h1.rows, h2.rows
    members = []
    for mask in range(1 << n):
        img1 = 0
        img2 = 0
        m = mask
        while m:
            i = (m & -m).bit_length() - 1
            img1 |= pre1[i]
            img2 |= pre2[i]
            m &= m - 1
        if img1 & ~img2 == 0:
            members.append(mask)
    return members


def assert_sublattice(members: list, ambient) -> None:
    mset = set(members)
    if ambient.bot not in mset or ambient.top not in mset:
        raise AssertionError("inserter misses top or bottom")
    for x in members:
        for y in members:
            if (x | y) not in mset or (x & y) not in mset:
                raise AssertionError("inserter not closed under lattice operations")


class ProductBA(NamedTuple):
    """A binary product of Boolean algebras: the atoms of the left factor
    come first, so ``(x, y)`` is the mask ``x | y << len(left atoms)``."""

    left_algebra: FinBoolAlg
    right_algebra: FinBoolAlg
    algebra: FinBoolAlg

    def pair(self, x: int, y: int) -> int:
        return x | y << len(self.left_algebra.atoms)

    def left(self, z: int) -> int:
        return z & self.left_algebra.top

    def right(self, z: int) -> int:
        return z >> len(self.left_algebra.atoms)


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


def subalgebras(b: FinBoolAlg) -> Iterator[set]:
    """All Boolean subalgebras of ``b``, as sets of elements.

    Subalgebras of a finite Boolean algebra correspond to partitions of
    its atom set: the subalgebra holds exactly the unions of blocks.
    """
    for part in set_partitions(tuple(range(len(b.atoms)))):
        yield set(unions([sum(1 << k for k in blk) for blk in part]))


def reflexive_pair_swap_check(prod: ProductBA, sub) -> bool:
    """Check that a diagonal-containing subalgebra of B x B is swap-closed.

    Also evaluates, for every member, the explicit witness term built from
    the member and the two diagonal elements of its components; the witness
    must itself be a member and must project to the swapped pair.  Returns
    False on the first violation.
    """
    alg = prod.algebra
    for a in prod.left_algebra.carrier():
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
    """An isomorphism of the spectra, as the index assignment that
    :func:`poset_isomorphism` returns, or None.

    Two finite distributive lattices are isomorphic exactly when their
    spectra are.
    """
    return poset_isomorphism(a.spectrum, b.spectrum)
