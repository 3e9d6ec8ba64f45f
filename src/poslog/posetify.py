"""Order liftings of set functors to posets, computed two independent ways.

The generic engine runs the quotient construction: lift the order through
the functor, close transitively, quotient by the induced equivalence.  The
closed forms compute the same posets from structure-specific descriptions
(convex sets, up-closed family comparison, component collapse, or no
quotient at all for analytic functors).  ``cross_check`` verifies that the
two routes agree via an isomorphism that commutes with the projection maps.
Each route returns its order, projection and decoder, not the relation
it quotiented: a reader builds that (``mnb_comparison``,
``order.egli_milner_rows``).
"""

from __future__ import annotations

from functools import reduce
from operator import and_, or_
from typing import Callable, NamedTuple

from .errors import InputError, check_enum_budget
from .functors import (SetFunctor, _families, lift_relation_generic, mnb_functor,
                       mnb_size, nb_functor, pow_functor)
from .order import (FinPoset, Preorder, bits, connected_components,
                    egli_milner_rows, poset_quotient, subset_closures,
                    transitive_closure)


class Posetification:
    """Result of lifting a functor to a poset: order, projection, decoder.

    ``order`` is the lifted poset over the codes of canonical class
    representatives, and ``e[c]`` is the index in ``order`` of the class
    of code ``c`` of the unordered carrier ``T(VX)`` (a code is its
    position there).  ``decode`` labels the codes of ``order``; ``result``
    is ``order`` over labels, sharing its rows, built on first use.  Two
    results are equal only if they are one object.
    """

    __slots__ = ("order", "e", "decode", "_result")

    def __init__(self, order: FinPoset, e: tuple, decode: Callable):
        self.order = order
        self.e = e
        self.decode = decode
        self._result = None

    @property
    def result(self) -> FinPoset:
        if self._result is None:
            self._result = self.order.relabel(map(self.decode, self.order.elements))
        return self._result


def posetify_generic(t: SetFunctor, x: FinPoset) -> Posetification:
    """Lift, close, quotient: the universal construction done literally."""
    r = lift_relation_generic(t, x)
    closed = transitive_closure(r)
    poset, projection = poset_quotient(closed)
    return Posetification(poset, projection, t.decode(x.elements))


# --------------------------------------------------------------- powerset

def count_convex_powerset(n: int) -> None:
    """Refuse the convex powerset over ``n`` elements before building it:
    it reads the Egli-Milner rows, which relate every pair of subsets."""
    check_enum_budget(pow_functor().size_estimate(n) ** 2, "convex powerset")


def posetify_powerset(x: FinPoset) -> Posetification:
    """Closed form for the powerset: convex subsets under the pairwise
    upper-and-lower-bound order, with convex closure as projection, all
    computed on subset masks."""
    count_convex_powerset(len(x))
    up, down = closures = subset_closures(x)
    rows = egli_milner_rows(x, closures)
    seen = {}  # convex mask -> class index, in first-seen order
    e = tuple(seen.setdefault(u & d, len(seen)) for u, d in zip(up, down))
    ups = []
    for c in seen:
        row = 0
        for d in bits(rows[c]):
            if d in seen:
                row |= 1 << seen[d]
        ups.append(row)
    return Posetification(FinPoset(seen, tuple(ups)), e, pow_functor().decode(x.elements))


# ------------------------------------------------- monotone neighbourhood

def mnb_comparison(x: FinPoset) -> Preorder:
    """The direct comparison of up-closed families: every member of the
    first family refines upward to one of the second, every member of the
    second refines downward to one of the first.

    Computed a row at a time on family masks.  ``col[s]`` holds the
    families ``G`` with a member ``b`` such that ``up(b) <= up(s)``, and
    ``has[d]`` those that hold the subset ``d``.  The row of ``F`` is the
    AND of ``col[s]`` over its members ``s``, less every family that holds
    a subset ``d`` outside ``Psi(F)``, the subsets ``d`` with
    ``down(a) <= down(d)`` for some member ``a`` of ``F``.
    """
    check_enum_budget(mnb_size(len(x)) ** 2, "up-closed family comparison")
    fams = _families(len(x))[0]
    up, down = subset_closures(x)
    subsets = range(len(up))
    has = [0] * len(up)
    for k, fam in enumerate(fams):
        for d in bits(fam):
            has[d] |= 1 << k
    col = [reduce(or_, (has[b] for b in subsets if not up[b] & ~up[s]), 0)
           for s in subsets]
    psi = [sum(1 << d for d in subsets if not down[a] & ~down[d]) for a in subsets]
    every_family, every_subset = (1 << len(fams)) - 1, (1 << len(up)) - 1
    succ = []
    for fam in fams:
        members = bits(fam)
        outside = every_subset & ~reduce(or_, map(psi.__getitem__, members), 0)
        succ.append(reduce(and_, map(col.__getitem__, members), every_family)
                    & ~reduce(or_, map(has.__getitem__, bits(outside)), 0))
    return Preorder(range(len(fams)), tuple(succ))


def posetify_mnb(x: FinPoset) -> Posetification:
    """Closed form for up-closed families: the quotient of their direct
    comparison, transitive as given (the quotient's precondition asserts
    it).  Classes are represented by least index: closing each family
    downward instead would merge classes that the order keeps distinct."""
    try:  # the quotient checks transitivity
        poset, projection = poset_quotient(mnb_comparison(x))
    except InputError as exc:
        raise AssertionError("family comparison should be transitive as given") from exc
    return Posetification(poset, projection, mnb_functor().decode(x.elements))


# ----------------------------------------------------------- neighbourhood

def posetify_nb(x: FinPoset) -> Posetification:
    """Closed form for arbitrary neighbourhood families: the lifted poset
    is discrete on the families over the set of connected components, and
    the projection is the functor applied to the component collapse."""
    nb = nb_functor()
    reps, comp = connected_components(x)
    comps = tuple(map(x.elements.__getitem__, reps))
    check_enum_budget(nb.size_estimate(len(comps)), "neighbourhood families on components")
    check_enum_budget(nb.size_estimate(len(x)), "neighbourhood families on the carrier")
    result = FinPoset.discrete(nb.on_obj(comps))
    return Posetification(result, tuple(nb.on_mor(comp, len(comps))), nb.decode(comps))


# ------------------------------------------------------- analytic functors

def posetify_analytic(t: SetFunctor, x: FinPoset) -> Posetification:
    """Closed form for multiset and polynomial functors: the one-step
    lifted relation is already a partial order, so nothing is collapsed."""
    if t.step_relation is None:
        raise InputError(f"{t.name} has no closed-form lifting")
    r = t.step_relation(x)
    try:  # the poset checks the axioms
        order = FinPoset(r.carrier, r.succ)
    except InputError as exc:
        raise AssertionError(
            f"{t.name}: lifted relation is not already a partial order") from exc
    return Posetification(order, tuple(r.carrier), t.decode(x.elements))


# ------------------------------------------------------------ dispatching

def closed_form(t: SetFunctor, x: FinPoset) -> Posetification:
    return t.closed_form(t, x)


class CrossCheck(NamedTuple):
    ok: bool
    detail: str
    generic: Posetification
    closed: Posetification

    def same_result(self) -> bool:
        """Whether both routes give one poset over labels, read off their
        orders.  Every closed form decodes over the poset's elements, as the
        generic route does, but nb's decodes over the least element of each
        component.  When the routes agree, nb's generic route labels the
        family {all m components} by {the carrier}, a code below 2 ** 2 ** m
        only if each component is one element: then both decode alike."""
        return self.ok and self.generic.order == self.closed.order


def cross_check(t: SetFunctor, x: FinPoset) -> CrossCheck:
    """Run both routes and match them up.

    Because both projections are surjective, an isomorphism commuting with
    them is unique if it exists: send the class of ``v`` on one side to the
    class of ``v`` on the other.  We verify that this assignment is well
    defined, bijective, and an order isomorphism: mapped through it by
    index, each up-set bitmask of one result must be the matching up-set
    bitmask of the other.  When the two projections are equal the map is
    the identity, and the two up-set tables are compared whole.  The
    comparison is quadratic in the carrier, so its budget is checked
    before either route runs.
    """
    check_enum_budget(t.size_estimate(len(x)) ** 2, f"{t.name} cross-check comparison")
    gen = posetify_generic(t, x)
    clo = closed_form(t, x)
    if gen.e == clo.e and gen.order.upmask == clo.order.upmask:  # the identity map
        return CrossCheck(True, "isomorphic and projection-compatible", gen, clo)
    phi = [-1] * len(gen.order)  # generic class index -> closed class index
    for i, (src, dst) in enumerate(zip(gen.e, clo.e)):
        if phi[src] not in (-1, dst):
            return CrossCheck(False, f"projections disagree at {gen.decode(i)!r}",
                              gen, clo)
        phi[src] = dst
    if len(set(phi)) != len(phi) or len(phi) != len(clo.order):
        return CrossCheck(False, "class counts differ", gen, clo)
    g, c = gen.order, clo.order
    for i, row in enumerate(g.upmask):
        want = c.upmask[phi[i]]
        image = 0
        for j in bits(row):
            image |= 1 << phi[j]
        if image != want:
            j = next(j for j in range(len(phi))
                     if (row >> j & 1) != (want >> phi[j] & 1))
            return CrossCheck(
                False, f"order differs at ({gen.decode(g.elements[i])!r}, "
                f"{gen.decode(g.elements[j])!r})", gen, clo)
    return CrossCheck(True, "isomorphic and projection-compatible", gen, clo)
