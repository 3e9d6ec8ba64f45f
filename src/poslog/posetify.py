"""Order liftings of set functors to posets, computed two independent ways.

The generic engine runs the quotient construction: lift the order through
the functor, close transitively, quotient by the induced equivalence.  The
closed forms compute the same posets from structure-specific descriptions
(convex sets, up-closed family comparison, component collapse, or no
quotient at all for analytic functors).  ``cross_check`` verifies that the
two routes agree via an isomorphism that commutes with the projection maps.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DEFAULT_MAX_ENUM, InputError, check_enum_budget
from .functors import (SetFunctor, lift_relation_generic, mnb_functor,
                       nb_functor, powerset)
from .order import (FinPoset, Preorder, bits, connected_components,
                    egli_milner_rows, poset_quotient, subset_closures,
                    transitive_closure)


@dataclass(frozen=True, eq=False)
class Posetification:
    """Result of lifting a functor to a poset.

    ``result`` is the lifted poset whose elements are canonical class
    representatives, ``e`` maps every element of the unordered functor
    carrier onto its class, and ``witness`` is the transitively closed
    lifted relation that induced the quotient.  The witness may be None
    when the carrier is too large to store a quadratic relation (the
    discrete neighbourhood collapse on four-element posets).
    """

    result: FinPoset
    e: dict
    witness: Preorder | None

    def validate(self) -> None:
        """Best-effort structural audit; poset axioms are already enforced
        by construction, this re-checks the projection contracts."""
        image = set(self.e.values())
        if image != set(self.result.elements):
            raise AssertionError("projection is not surjective")
        if self.witness is None:
            return
        ups = self.result.upmask
        cls = [self.result.index(self.e[v]) for v in self.witness.carrier]
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


def posetify_generic(t: SetFunctor, x: FinPoset,
                     max_enum: int = DEFAULT_MAX_ENUM) -> Posetification:
    """Lift, close, quotient: the universal construction done literally."""
    r = lift_relation_generic(t, x, max_enum)
    closed = transitive_closure(r)
    poset, projection = poset_quotient(closed)
    e = {v: poset.elements[projection[i]] for i, v in enumerate(closed.carrier)}
    return Posetification(poset, e, closed)


# --------------------------------------------------------------- powerset

def convex_closure(x: FinPoset, s: frozenset) -> frozenset:
    """Everything between two members of ``s``."""
    m = x.mask(s)
    return x.labels(x.up_of(m) & x.down_of(m))


def egli_milner_leq(x: FinPoset, a: frozenset, b: frozenset) -> bool:
    """Every member of ``a`` lies below one of ``b``, and every member of
    ``b`` above one of ``a``."""
    ma, mb = x.mask(a), x.mask(b)
    return not ma & ~x.down_of(mb) and not mb & ~x.up_of(ma)


def posetify_powerset(x: FinPoset,
                      max_enum: int = DEFAULT_MAX_ENUM) -> Posetification:
    """Closed form for the powerset: convex subsets under the pairwise
    upper-and-lower-bound order, with convex closure as projection.

    Subset ``k`` of ``powerset(x.elements)`` has mask ``k``, so the
    closures, the convex classes and the order are computed on masks."""
    subsets = powerset(x.elements)
    check_enum_budget(len(subsets) ** 2, max_enum, "convex powerset")
    up, down = subset_closures(x)
    rows = egli_milner_rows(x)
    seen = {}  # convex mask -> class index, in first-seen order
    e = {}
    for k, a in enumerate(subsets):
        c = up[k] & down[k]
        seen.setdefault(c, len(seen))
        e[a] = subsets[c]
    ups = []
    for c in seen:
        row = 0
        for d in bits(rows[c]):
            if d in seen:
                row |= 1 << seen[d]
        ups.append(row)
    result = FinPoset(tuple(subsets[c] for c in seen), tuple(ups))
    return Posetification(result, e, Preorder(subsets, rows))


# ------------------------------------------------- monotone neighbourhood

def posetify_mnb(x: FinPoset,
                 max_enum: int = DEFAULT_MAX_ENUM) -> Posetification:
    """Closed form for up-closed families via the direct comparison: every
    member of the first family refines upward to one of the second, every
    member of the second refines downward to one of the first.

    No transitive closure step: the comparison formula is transitive as
    given (asserted).  Class representatives are by least index; the
    canonical-form recipe that closes each family downward merges classes
    that the order keeps distinct, so it is not used (see the probe in the
    verification suite).
    """
    t = mnb_functor()
    check_enum_budget(t.size_estimate(len(x)) ** 2, max_enum,
                      "up-closed family comparison")
    fams = t.on_obj(x.elements)
    up, down = subset_closures(x)
    ups = [[up[x.mask(a)] for a in fam] for fam in fams]
    downs = [[down[x.mask(a)] for a in fam] for fam in fams]
    succ = tuple(sum(1 << j for j in range(len(fams))
                     if all(any(not ub & ~ua for ub in ups[j]) for ua in ups[i]) and
                     all(any(not da & ~db for da in downs[i]) for db in downs[j]))
                 for i in range(len(fams)))
    pre = Preorder(fams, succ)
    if not pre.is_transitive():
        raise AssertionError("family comparison should be transitive as given")
    poset, projection = poset_quotient(pre)
    e = {fam: poset.elements[projection[i]] for i, fam in enumerate(fams)}
    return Posetification(poset, e, pre)


# ----------------------------------------------------------- neighbourhood

def posetify_nb(x: FinPoset,
                max_enum: int = DEFAULT_MAX_ENUM) -> Posetification:
    """Closed form for arbitrary neighbourhood families: the lifted poset
    is discrete on the families over the set of connected components, and
    the projection is the functor applied to the component collapse."""
    nb = nb_functor()
    comps, comp_of = connected_components(x)
    check_enum_budget(nb.size_estimate(len(comps)), max_enum,
                      "neighbourhood families on components")
    check_enum_budget(nb.size_estimate(len(x)), max_enum,
                      "neighbourhood families on the carrier")
    result_elems = nb.on_obj(comps)
    result = FinPoset.discrete(result_elems)
    collapse = nb.on_mor(comp_of, x.elements, comps)
    carrier = nb.on_obj(x.elements)
    e = {fam: collapse(fam) for fam in carrier}
    witness = None
    if len(carrier) ** 2 <= max_enum:
        classes: dict = {}  # class -> the mask of its members
        for k, fam in enumerate(carrier):
            classes[e[fam]] = classes.get(e[fam], 0) | 1 << k
        witness = Preorder(carrier, tuple(classes[e[fam]] for fam in carrier))
    return Posetification(result, e, witness)


# ------------------------------------------------------- analytic functors

def posetify_analytic(t: SetFunctor, x: FinPoset,
                      max_enum: int = DEFAULT_MAX_ENUM) -> Posetification:
    """Closed form for multiset and polynomial functors: the one-step
    lifted relation is already a partial order, so nothing is collapsed."""
    if t.step_relation is None:
        raise InputError(f"{t.name} has no closed-form lifting")
    r = t.step_relation(x, max_enum)
    if not r.is_transitive() or not r.is_antisymmetric():
        raise AssertionError(
            f"{t.name}: lifted relation is not already a partial order")
    e = {v: v for v in r.carrier}
    return Posetification(FinPoset(r.carrier, r.succ), e, r)


# ------------------------------------------------------------ dispatching

def closed_form(t: SetFunctor, x: FinPoset,
                max_enum: int = DEFAULT_MAX_ENUM) -> Posetification:
    return t.closed_form(t, x, max_enum)


@dataclass(frozen=True)
class CrossCheck:
    ok: bool
    detail: str
    generic: Posetification
    closed: Posetification


def cross_check(t: SetFunctor, x: FinPoset,
                max_enum: int = DEFAULT_MAX_ENUM) -> CrossCheck:
    """Run both routes and match them up.

    Because both projections are surjective, an isomorphism commuting with
    them is unique if it exists: send the class of ``v`` on one side to the
    class of ``v`` on the other.  We verify that this assignment is well
    defined, bijective, and an order isomorphism: mapped through it by
    index, each up-set bitmask of one result must be the matching up-set
    bitmask of the other.  The comparison is quadratic in the carrier, so
    its budget is checked before either route runs.
    """
    check_enum_budget(t.size_estimate(len(x)) ** 2, max_enum,
                      f"{t.name} cross-check comparison")
    gen = posetify_generic(t, x, max_enum)
    clo = closed_form(t, x, max_enum)
    phi: dict = {}
    for v in gen.e:
        src = gen.e[v]
        dst = clo.e[v]
        if src in phi and phi[src] != dst:
            return CrossCheck(False,
                              f"projections disagree at {v!r}", gen, clo)
        phi[src] = dst
    if len(set(phi.values())) != len(phi) or len(phi) != len(clo.result):
        return CrossCheck(False, "class counts differ", gen, clo)
    g, c = gen.result, clo.result
    to = [c.index(phi[a]) for a in g.elements]
    for i, row in enumerate(g.upmask):
        want = c.upmask[to[i]]
        image = 0
        for j in bits(row):
            image |= 1 << to[j]
        if image != want:
            j = next(j for j in range(len(to))
                     if (row >> j & 1) != (want >> to[j] & 1))
            return CrossCheck(
                False, f"order differs at ({g.elements[i]!r}, {g.elements[j]!r})",
                gen, clo)
    return CrossCheck(True, "isomorphic and projection-compatible", gen, clo)
