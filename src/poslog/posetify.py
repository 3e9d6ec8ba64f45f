"""Order liftings of set functors to posets, computed two independent ways.

The generic engine runs the quotient construction: lift the order through
the functor, close transitively, quotient by the induced equivalence.  The
closed forms compute the same posets from structure-specific descriptions
(convex sets, up-closed family comparison, component collapse, or no
quotient at all for analytic functors).  ``cross_check`` verifies that the
two routes agree via an isomorphism that commutes with the projection maps.
"""

from __future__ import annotations

from functools import reduce
from operator import and_, or_
from typing import Callable, NamedTuple, Sequence

from .errors import InputError, check_enum_budget, fits
from .functors import (SetFunctor, lift_relation_generic, mnb_functor,
                       nb_functor, pow_functor)
from .order import (FinPoset, Preorder, bits, connected_components,
                    egli_milner_rows, poset_quotient, subset_closures,
                    transitive_closure)


class Posetification:
    """Result of lifting a functor to a poset.

    ``carrier`` holds the codes of the unordered functor carrier ``T(VX)``
    and ``order`` is the lifted poset over the codes of canonical class
    representatives; ``e[i]`` is the index in ``order`` of the class of
    ``carrier[i]``, and ``witness`` is the transitively closed lifted
    relation on the carrier that induced the quotient.  The witness may be
    None when the carrier is too large to store a quadratic relation (the
    discrete neighbourhood collapse on four-element posets).  ``decode``
    labels the codes of ``order``; ``result`` is ``order`` over labels,
    sharing its rows, built on first use.  Two results are equal only if
    they are one object.
    """

    __slots__ = ("order", "e", "carrier", "witness", "decode", "_result")

    def __init__(self, order: FinPoset, e: tuple, carrier: Sequence,
                 witness: Preorder | None, decode: Callable):
        self.order = order
        self.e = e
        self.carrier = carrier
        self.witness = witness
        self.decode = decode
        self._result = None

    @property
    def result(self) -> FinPoset:
        if self._result is None:
            self._result = self.order.relabel(map(self.decode, self.order.elements))
        return self._result

    def validate(self) -> None:
        """Best-effort structural audit; poset axioms are already enforced
        by construction, this re-checks the projection contracts."""
        if set(self.e) != set(range(len(self.order))):
            raise AssertionError("projection is not surjective")
        if self.witness is None:
            return
        ups, cls = self.order.upmask, self.e
        members = [0] * len(ups)  # the carrier indices of each class
        for i, k in enumerate(cls):
            members[k] |= 1 << i
        succ = self.witness.succ
        for i, row in enumerate(succ):
            mutual = 0  # the indices related to i both ways
            for j in bits(row):
                if not ups[cls[i]] >> cls[j] & 1:
                    raise AssertionError("projection does not preserve the relation")
                if succ[j] >> i & 1:
                    mutual |= 1 << j
            if mutual != members[cls[i]]:
                raise AssertionError("classes disagree with the relation")


def posetify_generic(t: SetFunctor, x: FinPoset) -> Posetification:
    """Lift, close, quotient: the universal construction done literally."""
    r = lift_relation_generic(t, x)
    closed = transitive_closure(r)
    poset, projection = poset_quotient(closed)
    return Posetification(poset, projection, closed.carrier, closed, t.decode(x.elements))


# --------------------------------------------------------------- powerset

def count_convex_powerset(n: int) -> None:
    """Refuse the convex powerset over ``n`` elements before building it:
    its witness relates every pair of subsets."""
    check_enum_budget(pow_functor().size_estimate(n) ** 2, "convex powerset")


def posetify_powerset(x: FinPoset) -> Posetification:
    """Closed form for the powerset: convex subsets under the pairwise
    upper-and-lower-bound order, with convex closure as projection, all
    computed on subset masks."""
    count_convex_powerset(len(x))
    t = pow_functor()
    carrier = t.on_obj(x.elements)
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
    return Posetification(FinPoset(tuple(seen), tuple(ups)), e, carrier,
                          Preorder(carrier, rows), t.decode(x.elements))


# ------------------------------------------------- monotone neighbourhood

def posetify_mnb(x: FinPoset) -> Posetification:
    """Closed form for up-closed families via the direct comparison: every
    member of the first family refines upward to one of the second, every
    member of the second refines downward to one of the first.

    Computed a row at a time on family masks.  ``col[s]`` holds the
    families ``G`` with a member ``b`` such that ``up(b) <= up(s)``, and
    ``has[d]`` those that hold the subset ``d``.  The row of ``F`` is the
    AND of ``col[s]`` over its members ``s``, less every family that holds
    a subset ``d`` outside ``Psi(F)``, the subsets ``d`` with
    ``down(a) <= down(d)`` for some member ``a`` of ``F``.

    No transitive closure step: the comparison formula is transitive as
    given (asserted).  Class representatives are by least index; the
    canonical-form recipe that closes each family downward merges classes
    that the order keeps distinct, so it is not used (see the probe in the
    verification suite).
    """
    t = mnb_functor()
    check_enum_budget(t.size_estimate(len(x)) ** 2, "up-closed family comparison")
    fams = t.on_obj(x.elements)
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
    pre = Preorder(fams, tuple(succ))
    if not pre.is_transitive():
        raise AssertionError("family comparison should be transitive as given")
    poset, projection = poset_quotient(pre)
    return Posetification(poset, projection, fams, pre, t.decode(x.elements))


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
    carrier = nb.on_obj(x.elements)
    e = tuple(map(nb.on_mor(comp, len(comps)), carrier))
    witness = None
    if fits(len(carrier) ** 2):
        classes = [0] * len(result)  # the mask of the members of each class
        for k, c in enumerate(e):
            classes[c] |= 1 << k
        witness = Preorder(carrier, tuple(classes[c] for c in e))
    return Posetification(result, e, carrier, witness, nb.decode(comps))


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
    return Posetification(order, tuple(range(len(r.carrier))),
                          r.carrier, r, t.decode(x.elements))


# ------------------------------------------------------------ dispatching

def closed_form(t: SetFunctor, x: FinPoset) -> Posetification:
    return t.closed_form(t, x)


class CrossCheck(NamedTuple):
    ok: bool
    detail: str
    generic: Posetification
    closed: Posetification


def cross_check(t: SetFunctor, x: FinPoset) -> CrossCheck:
    """Run both routes and match them up.

    Because both projections are surjective, an isomorphism commuting with
    them is unique if it exists: send the class of ``v`` on one side to the
    class of ``v`` on the other.  We verify that this assignment is well
    defined, bijective, and an order isomorphism: mapped through it by
    index, each up-set bitmask of one result must be the matching up-set
    bitmask of the other.  The comparison is quadratic in the carrier, so
    its budget is checked before either route runs.
    """
    check_enum_budget(t.size_estimate(len(x)) ** 2, f"{t.name} cross-check comparison")
    gen = posetify_generic(t, x)
    clo = closed_form(t, x)
    phi = [-1] * len(gen.order)  # generic class index -> closed class index
    for i, (src, dst) in enumerate(zip(gen.e, clo.e)):
        if phi[src] not in (-1, dst):
            return CrossCheck(False, f"projections disagree at "
                              f"{gen.decode(gen.carrier[i])!r}", gen, clo)
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
