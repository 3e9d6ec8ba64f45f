"""Negation-free liftings of Boolean syntax functors to distributive
lattices.

The general construction embeds a lattice into its free Boolean envelope,
applies the syntax functor to the two comparisons coming from the ordered
double of the lattice, and carves out the sublattice on which the first
image lies below the second.  Each syntax functor carries a closed form
(for ``P T``, the up-sets of the posetification ``T'`` of the spectrum),
checked against the inserter computation rather than trusted.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

from .algebra import (BAHom, FinBoolAlg, FinDistLattice, LatticeHom,
                      ba_inserter, boolean_as_lattice, free_ba,
                      free_ba_generator, free_ba_map, free_over_dl_G, g_of_hom,
                      kernel_K, tensor2, up_algebra)
from .errors import InputError, check_enum_budget
from .functors import SetFunctor, parse_functor, pow_functor
from .order import FinPoset, _close_rows, bits
from .posetify import closed_form


@dataclass(frozen=True)
class BAFunctor:
    """A syntax-building endofunctor of finite Boolean algebras.

    ``closed_form`` gives the lifting at a lattice without the inserter.
    ``count_atoms(b)`` is the number of atoms of ``on_obj(b)``; it refuses
    ``on_obj(b)`` as ``on_obj`` would, before any atom is built.
    ``diamond(b, x)``/``box(b, x)`` optionally give the action of the
    modality generators on an element ``x`` of the argument algebra ``b``,
    an element of ``on_obj(b)``, to track modal operators through the
    lifting."""

    name: str
    on_obj: Callable[[FinBoolAlg], FinBoolAlg]
    on_mor: Callable[[BAHom], BAHom]
    closed_form: Callable[[FinDistLattice], FinDistLattice]
    count_atoms: Callable[[FinBoolAlg], int]
    diamond: Optional[Callable[[FinBoolAlg, int], int]] = None
    box: Optional[Callable[[FinBoolAlg, int], int]] = None


def semantic_l(t: SetFunctor) -> BAFunctor:
    """The semantically presented syntax functor: powerset of the functor
    applied to the atom set.

    The atoms of ``on_obj(b)`` are the labels of ``T`` of the atoms of
    ``b``, in carrier order.  The modal clauses are the functor's predicate
    liftings at the atom set; with the powerset functor this is normal
    modal logic in its finite semantic form.  Dual to posetification, the
    lifting at ``Up(X)`` is ``Up(T'(X))``: that is the closed form.

    The codes and the algebra of the last two atom sets are kept, so that
    one ``positivize`` call, which meets the ambient atom set and that of
    the ordered double, builds and decodes each once.  Every call counts
    the codes, so a build kept from a larger budget is refused under a
    smaller one."""

    build = lru_cache(maxsize=2)(t.on_obj)

    def codes(atoms: tuple):
        check_enum_budget(t.size_estimate(len(atoms)), f"{t.name} on an atom set")
        return build(atoms)

    @lru_cache(maxsize=2)
    def algebra(atoms: tuple) -> FinBoolAlg:
        return FinBoolAlg(atoms=tuple(map(t.decode(atoms), codes(atoms))))

    def on_obj(b: FinBoolAlg) -> FinBoolAlg:
        codes(b.atoms)  # counts them, though the algebra may be kept
        return algebra(b.atoms)

    def on_mor(h: BAHom) -> BAHom:
        src, dst = h.source.atoms, h.target.atoms
        act = t.on_mor(h.dual, len(src))  # T of the dual atom map
        index = {c: k for k, c in enumerate(codes(src))}
        return BAHom(algebra(src), algebra(dst),
                     tuple(index[act(c)] for c in codes(dst)))

    def modal(clause):
        return None if clause is None else (lambda b, x: clause(len(b.atoms), x))

    return BAFunctor(f"semantic:{t.name}", on_obj, on_mor,
                     lambda a: up_algebra(closed_form(t, a.spectrum).result),
                     lambda b: len(codes(b.atoms)), modal(t.diamond), modal(t.box))


def free_l() -> BAFunctor:
    """One unary modality obeying no equations: the free Boolean algebra
    over the carrier, with the box generator given by the unit.  The
    generators are labelled by the labels of the elements, in mask order.
    The algebra over ``b`` has ``2^size(b)`` atoms, counted before the
    generators are labelled."""

    def count_atoms(b: FinBoolAlg) -> int:
        atoms = 1 << len(b.carrier())
        check_enum_budget(atoms, "free boolean algebra")
        return atoms

    def gens_of(b: FinBoolAlg) -> tuple:
        return tuple(map(b.labels, b.carrier()))

    def on_obj(b: FinBoolAlg) -> FinBoolAlg:
        return free_ba(gens_of(b))

    def on_mor(h: BAHom) -> BAHom:
        return free_ba_map(gens_of(h.source), gens_of(h.target),
                           tuple(map(h.apply, h.source.carrier())))

    def box(b: FinBoolAlg, x: int) -> int:
        return free_ba_generator(on_obj(b), b.labels(x))

    return BAFunctor("free", on_obj, on_mor, closed_form_fu, count_atoms, box=box)


SYNTAXES = ("dunn", "free", "semantic:pow", "semantic:mnb", "semantic:nb")


def parse_syntax(text: str) -> BAFunctor:
    """Parse a syntax name: ``dunn`` (the same as ``semantic:pow``), ``free``,
    or ``semantic:<functor>`` for any name :func:`parse_functor` accepts."""
    if text == "free":
        return free_l()
    if text == "dunn":
        text = "semantic:pow"
    if text.startswith("semantic:"):
        return semantic_l(parse_functor(text[len("semantic:"):]))
    raise InputError(f"unknown syntax {text!r}")


class Positivication:
    """The lifted syntax functor evaluated at one lattice.

    ``result`` is the lifted lattice over its own spectrum, labelled for
    display; ``members`` are the same elements inside the ambient algebra
    (the syntax functor applied to the free Boolean envelope), as masks
    over its atoms, and ``embed[r]`` is the member that the element ``r``
    of ``result`` stands for.  In the Boolean case both are one
    ``range``: the whole ambient algebra, as the identity.
    ``box_of``/``diamond_of`` map an element of the argument lattice to its
    modal image in the ambient algebra; membership of that image is a
    property of the logic, not a given (see ``is_member``).  Two
    evaluations are equal only if they are one object.
    """

    __slots__ = ("result", "members", "embed", "ambient", "h1", "h2", "box_of",
                 "diamond_of")

    def __init__(self, result: FinDistLattice, members: Sequence, embed: Mapping | range,
                 ambient: FinBoolAlg, h1: BAHom, h2: BAHom,
                 box_of: Optional[Callable[[int], int]] = None,
                 diamond_of: Optional[Callable[[int], int]] = None):
        self.result = result
        self.members = members
        self.embed = embed
        self.ambient = ambient
        self.h1 = h1
        self.h2 = h2
        self.box_of = box_of
        self.diamond_of = diamond_of

    def is_member(self, candidate: int) -> bool:
        """Whether ``candidate`` is a mask of the ambient algebra with
        ``h1(candidate) <= h2(candidate)``: a member of the inserter."""
        return not candidate >> len(self.ambient.atoms) and \
            not self.h1.apply(candidate) & ~self.h2.apply(candidate)


def _edge_preorder_lattice(h1: BAHom, h2: BAHom, members: Sequence, labels) -> tuple:
    """The inserter of ``h1, h2`` as a lattice, from the preorder that the
    edges ``h1.dual[k] -> h2.dual[k]`` generate on the source atoms, and
    checked against ``members``, the inserter found by its definition.

    Homs act by preimage along their dual maps, so ``h1(b) <= h2(b)`` iff
    every edge that starts in ``b`` ends in ``b``: the inserter is the sets
    closed under the preorder, and its join-irreducibles are the closed
    rows ``reach[i]``, in increasing order under reverse inclusion and
    labelled by ``labels``.  Every member must be closed and the closed
    sets as many as the members; a member stands for the irreducibles
    inside it.  Returns ``(result, embed)``."""
    reach = [1 << i for i in range(len(h1.source.atoms))]
    for s, t in zip(h1.dual, h2.dual):
        reach[s] |= 1 << t
    reach = _close_rows(reach)
    irreducibles = sorted(set(reach))
    index = {j: k for k, j in enumerate(irreducibles)}
    below = [1 << index[j] for j in reach]  # the irreducible of each atom

    def restrict(m: int) -> int:
        s = 0
        for i in bits(m):
            if reach[i] & ~m:
                raise AssertionError("inserter member is not closed under the dual edges")
            s |= below[i]
        return s

    ups = tuple(map(restrict, irreducibles))
    result = up_algebra(FinPoset(map(labels, irreducibles), ups))
    embed = {restrict(m): m for m in members}
    if result.size() != len(members):
        raise AssertionError("inserter members are not the closed sets of the dual edges")
    return result, embed


def positivize(l: BAFunctor, a: FinDistLattice) -> Positivication:
    """Compute the lifted functor at ``a`` by the inserter construction.

    When the two comparison homs coincide (exactly the Boolean case, where
    the ordered double collapses), the inserter is the whole ambient
    algebra: the sweep is skipped and the members are ``range(size)``.
    Otherwise two routes run and must agree: the sweep of the ambient
    algebra finds the members by the definition, and the preorder of the
    dual edges gives the spectrum of the lifted lattice, its
    join-irreducible members, labelled by their atoms.
    """
    galg, unit = free_over_dl_G(a)
    t2 = tensor2(a)
    gh1 = g_of_hom(t2.in1)
    gh2 = g_of_hom(t2.in2)
    # the ambient algebra, then the ordered double: the order in which
    # on_obj and on_mor below would refuse them
    atoms = l.count_atoms(galg)
    l.count_atoms(gh1.target)
    # the whole ambient carrier is the result when gh1 == gh2 (so lh1 ==
    # lh2), else the inserter sweeps it: refused before any label is built
    check_enum_budget(1 << atoms,
                      "boolean algebra carrier" if gh1 == gh2 else "inserter sweep")
    lga = l.on_obj(galg)
    lh1 = l.on_mor(gh1)
    lh2 = l.on_mor(gh2)
    if lh1 == lh2:
        result, members = boolean_as_lattice(lga), lga.carrier()
        embed = members
    else:
        members = tuple(ba_inserter(lh1, lh2))
        result, embed = _edge_preorder_lattice(lh1, lh2, members, lga.labels)
    box_of = (lambda x: l.box(galg, unit.apply(x))) if l.box else None
    diamond_of = (lambda x: l.diamond(galg, unit.apply(x))) if l.diamond else None
    return Positivication(result, members, embed, lga, lh1, lh2, box_of, diamond_of)


def positivize_mor(l: BAFunctor, h: LatticeHom,
                   p_src: Positivication, p_dst: Positivication) -> dict:
    """The lifted functor on a hom, by restricting the ambient action.

    Well-definedness (the image of a member is a member) is asserted; a
    failure here means the lifting is not natural for this instance and is
    reported, not repaired.
    """
    lgh = l.on_mor(g_of_hom(h))
    target = set(p_dst.members)
    out = {}
    for m in p_src.members:
        img = lgh.apply(m)
        if img not in target:
            raise AssertionError(
                f"lifted hom leaves the target sublattice at {m!r}")
        out[m] = img
    return out


def closed_form_dunn(a: FinDistLattice) -> FinDistLattice:
    """Closed form for the lifting of normal modal logic: upsets of the
    convex-powerset lifting of the spectrum."""
    return semantic_l(pow_functor()).closed_form(a)


def closed_form_fu(a: FinDistLattice) -> FinDistLattice:
    """Closed form for the lifting of the free unary-modality logic: the
    free Boolean algebra over the carrier of the largest Boolean
    subalgebra, included back into lattices."""
    k, _ = kernel_K(a)
    return boolean_as_lattice(free_ba(tuple(k.carrier())))
