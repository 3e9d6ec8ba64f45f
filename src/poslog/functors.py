"""The catalogue of set endofunctors used to build transition types.

Each functor is a stateless behaviour bundle: an object map on finite sets
(tuples of hashable labels), a morphism map, a size estimate consulted
*before* any enumeration, its closed-form posetification, and optionally
a closed-form one-step order lifting (for when materialising the functor
on the comparable-pair set would bust the budget) and modal clauses.

Functor elements carry canonical encodings (frozensets, sorted tuples) so
that equality is structural.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement, product
from typing import Callable, Mapping, Optional

from .errors import BudgetExceeded, DEFAULT_MAX_ENUM, InputError, check_enum_budget
from .order import FinPoset, Preorder, bits, cotensor2, egli_milner_rows

# Numbers of up-closed families over an n-element set, n = 0..8.
DEDEKIND = (2, 3, 6, 20, 168, 7581, 7828354,
            2414682040998, 56130437228687557907788)

HUGE = 1 << 400


@lru_cache(maxsize=256)
def powerset(labels: tuple) -> tuple:
    """All subsets of ``labels`` as frozensets, in mask order."""
    return tuple(frozenset(l for k, l in enumerate(labels) if mask >> k & 1)
                 for mask in range(1 << len(labels)))


def _posetify():
    """The module of the closed forms, imported late: it imports this one."""
    from . import posetify
    return posetify


def _analytic_closed_form(t: SetFunctor, x: FinPoset, max_enum: int):
    """The step relation is already the lifted order (multisets, polynomials)."""
    return _posetify().posetify_analytic(t, x, max_enum)


@dataclass(frozen=True)
class SetFunctor:
    """Behaviour interface of a finitary set endofunctor.

    ``closed_form(t, x, max_enum)`` posetifies ``t`` at ``x``; it is given
    ``t`` so that a ``dataclasses.replace`` copy runs its own fields.  The
    predicate liftings ``diamond(tx, u)`` and ``box(tx, u)`` return the
    members of ``tx = T(X)`` satisfying the lifting of ``u``, a subset of X.
    """

    name: str
    on_obj: Callable[[tuple], tuple]
    on_mor: Callable[[Mapping, tuple, tuple], Callable]
    size_estimate: Callable[[int], int]
    step_relation: Optional[Callable[[FinPoset, int], Preorder]] = None
    closed_form: Callable[["SetFunctor", FinPoset, int], object] = _analytic_closed_form
    diamond: Optional[Callable[[tuple, frozenset], frozenset]] = None
    box: Optional[Callable[[tuple, frozenset], frozenset]] = None


# ---------------------------------------------------------------- powerset

def _pow_obj(s: tuple) -> tuple:
    return powerset(s)


def _pow_mor(f: Mapping, src: tuple, dst: tuple) -> Callable:
    return lambda a: frozenset(f[v] for v in a)


def _pow_step(x: FinPoset, max_enum: int = DEFAULT_MAX_ENUM) -> Preorder:
    """The direct formula for the one-step lifting of the order to subsets:
    every element of ``a`` lies below something in ``b`` and every element
    of ``b`` lies above something in ``a`` (the Egli-Milner order, computed
    on subset masks)."""
    carrier = powerset(x.elements)
    check_enum_budget(len(carrier) ** 2, max_enum, "powerset order lifting")
    return Preorder(carrier, egli_milner_rows(x))


def pow_functor() -> SetFunctor:
    return SetFunctor("pow", _pow_obj, _pow_mor, lambda n: 1 << n, _pow_step,
                      lambda t, x, m: _posetify().posetify_powerset(x, m),
                      diamond=lambda tx, u: frozenset(c for c in tx if c & u),
                      box=lambda tx, u: frozenset(c for c in tx if c <= u))


# ----------------------------------------------------------- neighbourhood

def _nb_obj(s: tuple) -> tuple:
    subsets = powerset(s)
    return tuple(frozenset(subsets[k] for k in range(len(subsets))
                           if mask >> k & 1)
                 for mask in range(1 << len(subsets)))


def _nb_mor(f: Mapping, src: tuple, dst: tuple) -> Callable:
    pre = {u: frozenset(v for v in src if f[v] in u) for u in powerset(dst)}

    def act(family: frozenset) -> frozenset:
        return frozenset(u for u in powerset(dst) if pre[u] in family)

    return act


def nb_functor() -> SetFunctor:
    return SetFunctor("nb", _nb_obj, _nb_mor,
                      lambda n: (1 << (1 << n)) if n < 9 else HUGE,
                      closed_form=lambda t, x, m: _posetify().posetify_nb(x, m))


# -------------------------------------------------- monotone neighbourhood

@lru_cache(maxsize=32)
def _mnb_obj(s: tuple) -> tuple:
    """All inclusion-up-closed families over the powerset of ``s``.

    Families are generated from their antichains of minimal members, which
    keeps the enumeration linear in the output size.
    """
    subsets = powerset(s)
    order = sorted(range(len(subsets)), key=lambda k: (len(subsets[k]), k))
    families = []

    def up_close(antichain: tuple) -> frozenset:
        return frozenset(u for u in subsets
                         if any(a <= u for a in antichain))

    def extend(start: int, chosen: tuple):
        families.append(up_close(chosen))
        for pos in range(start, len(order)):
            cand = subsets[order[pos]]
            if any(a <= cand or cand <= a for a in chosen):
                continue
            extend(pos + 1, chosen + (cand,))

    extend(0, ())
    return tuple(families)


def _mnb_mor(f: Mapping, src: tuple, dst: tuple) -> Callable:
    dst_subsets = powerset(dst)

    def act(family: frozenset) -> frozenset:
        images = {frozenset(f[v] for v in a) for a in family}
        return frozenset(u for u in dst_subsets
                         if any(img <= u for img in images))

    return act


def _mnb_step(x: FinPoset, max_enum: int = DEFAULT_MAX_ENUM) -> Preorder:
    """One-step lifting for up-closed families, without materialising the
    functor on the comparable-pair set.

    The image pair of an up-closed family depends only on a generating set
    of member subsets, and taking pairwise unions of the image pairs of
    single subsets realises exactly the image pairs of all families.  So
    the relation is the union-closure of one generator pair per subset of
    comparable pairs, plus the empty pair.
    """
    pairs = sum(m.bit_count() for m in x.upmask)
    check_enum_budget(1 << pairs, max_enum, "order lifting generators")
    check_enum_budget(mnb_size(len(x)) ** 2, max_enum, "order lifting closure")
    carrier = _mnb_obj(x.elements)
    xsq, _, _ = cotensor2(x)
    subsets = powerset(x.elements)

    def principal(s: frozenset) -> frozenset:
        return frozenset(u for u in subsets if s <= u)

    gens = set()
    for c in powerset(xsq.elements):
        im0 = frozenset(a for a, _ in c)
        im1 = frozenset(b for _, b in c)
        gens.add((principal(im0), principal(im1)))
    empty = (frozenset(), frozenset())
    closed = {empty} | gens
    frontier = list(closed)
    while frontier:
        p0, p1 = frontier.pop()
        for g0, g1 in gens:
            q = (p0 | g0, p1 | g1)
            if q not in closed:
                closed.add(q)
                frontier.append(q)
    idx = {fam: k for k, fam in enumerate(carrier)}
    succ = [0] * len(carrier)
    for a, b in closed:
        succ[idx[a]] |= 1 << idx[b]
    return Preorder(carrier, tuple(succ))


def mnb_size(n: int) -> int:
    """The number of up-closed families over an ``n``-element set."""
    return DEDEKIND[n] if n < len(DEDEKIND) else HUGE


def mnb_functor() -> SetFunctor:
    return SetFunctor("mnb", _mnb_obj, _mnb_mor, mnb_size, _mnb_step,
                      lambda t, x, m: _posetify().posetify_mnb(x, m))


# ------------------------------------------------------------- multisets

def _mset_obj(d: int):
    def obj(s: tuple) -> tuple:
        out = []
        for k in range(d + 1):
            for combo in combinations_with_replacement(range(len(s)), k):
                counts: dict = {}
                for i in combo:
                    counts[i] = counts.get(i, 0) + 1
                out.append(tuple((s[i], c) for i, c in sorted(counts.items())))
        return tuple(out)

    return obj


def _mset_mor(f: Mapping, src: tuple, dst: tuple) -> Callable:
    pos = {v: k for k, v in enumerate(dst)}

    def act(m: tuple) -> tuple:
        counts: dict = {}
        for label, c in m:
            k = pos[f[label]]
            counts[k] = counts.get(k, 0) + c
        return tuple((dst[k], c) for k, c in sorted(counts.items()))

    return act


def _mset_step(d: int):
    def step(x: FinPoset, max_enum: int = DEFAULT_MAX_ENUM) -> Preorder:
        """``a <= b`` when some bijection between the two multisets sends
        every element of ``a`` to one above it; so the multisets above
        ``a`` are those formed by choosing, for each element of ``a`` with
        multiplicity, one element of its up-set."""
        carrier = _mset_obj(d)(x.elements)
        check_enum_budget(len(carrier) ** 2, max_enum, "multiset order lifting")
        # each multiset as the sorted tuple of its element indices
        flat = [tuple(x.index(label) for label, c in m for _ in range(c))
                for m in carrier]
        position = {f: k for k, f in enumerate(flat)}
        ups = [tuple(bits(m)) for m in x.upmask]
        succ = []
        for f in flat:
            row = 0
            for above in product(*(ups[v] for v in f)):
                row |= 1 << position[tuple(sorted(above))]
            succ.append(row)
        return Preorder(carrier, tuple(succ))

    return step


def multiset_functor(degree: int = 3) -> SetFunctor:
    """Multisets of total size at most ``degree``.

    The bound makes the functor finitary on objects; morphism images sum
    multiplicities and so preserve total degree, which is what makes the
    truncation functorial.
    """
    if degree < 0:
        raise InputError("degree bound must be nonnegative")
    return SetFunctor(
        f"bag:{degree}", _mset_obj(degree), _mset_mor,
        lambda n: math.comb(n + degree, degree),
        _mset_step(degree))


# ------------------------------------------------------------ polynomial

def _poly_obj(signature: tuple):
    def obj(s: tuple) -> tuple:
        out = []
        for name, arity, coeffs in signature:
            for coeff in coeffs:
                out.extend((name, coeff, args)
                           for args in _tuples(s, arity))
        return tuple(out)

    return obj


def _tuples(s: tuple, arity: int) -> list:
    if arity == 0:
        return [()]
    shorter = _tuples(s, arity - 1)
    return [t + (v,) for t in shorter for v in s]


def _poly_mor(f: Mapping, src: tuple, dst: tuple) -> Callable:
    return lambda e: (e[0], e[1], tuple(f[v] for v in e[2]))


def _poly_step(signature: tuple):
    def step(x: FinPoset, max_enum: int = DEFAULT_MAX_ENUM) -> Preorder:
        carrier = _poly_obj(signature)(x.elements)
        check_enum_budget(len(carrier) ** 2, max_enum, "polynomial order lifting")
        succ = tuple(sum(1 << j for j, b in enumerate(carrier)
                         if a[0] == b[0] and a[1] == b[1] and
                         all(x.leq(v, w) for v, w in zip(a[2], b[2])))
                     for a in carrier)
        return Preorder(carrier, succ)

    return step


def poly_functor(signature) -> SetFunctor:
    """A polynomial functor from a signature of (name, arity, coefficients).

    ``coefficients`` is a tuple of labels; the functor sends ``X`` to the
    disjoint union over symbols of ``coefficients x X^arity``.
    """
    sig = tuple((name, arity, tuple(coeffs)) for name, arity, coeffs in signature)
    for name, arity, coeffs in sig:
        if arity < 0 or not coeffs:
            raise InputError(f"bad signature entry {name!r}")

    def estimate(n: int) -> int:
        return sum(len(coeffs) * n ** arity for _, arity, coeffs in sig)

    fmt = ",".join(f"{name}:{arity}:{len(coeffs)}" for name, arity, coeffs in sig)
    return SetFunctor(f"poly:sigma={fmt}", _poly_obj(sig), _poly_mor,
                      estimate, _poly_step(sig))


# ------------------------------------------------------------ dispatching

def parse_functor(text: str, max_enum: int = DEFAULT_MAX_ENUM) -> SetFunctor:
    """Parse a CLI functor name: pow, nb, mnb, bag:<d>, poly:sigma=....

    A polynomial's coefficient labels are counted against ``max_enum``
    before they are built: on any nonempty poset the functor's carrier has
    at least that many elements."""
    if text == "pow":
        return pow_functor()
    if text == "nb":
        return nb_functor()
    if text == "mnb":
        return mnb_functor()
    if text == "bag":
        return multiset_functor()
    if text.startswith("bag:"):
        try:
            return multiset_functor(int(text.split(":", 1)[1]))
        except ValueError as exc:
            raise InputError(f"bad multiset degree in {text!r}") from exc
    if text.startswith("poly:"):
        body = text[len("poly:"):]
        if not body.startswith("sigma="):
            raise InputError("polynomial spec must start with sigma=")
        entries = []
        for entry in body[len("sigma="):].split(","):
            parts = entry.split(":")
            if len(parts) != 3:
                raise InputError(f"bad signature entry {entry!r}")
            try:
                entries.append((parts[0], int(parts[1]), int(parts[2])))
            except ValueError as exc:
                raise InputError(f"bad signature entry {entry!r}") from exc
        check_enum_budget(sum(max(csize, 0) for _, _, csize in entries), max_enum,
                          "polynomial coefficients")
        return poly_functor([(name, arity, tuple(f"{name}.{i}" for i in range(csize)))
                             for name, arity, csize in entries])
    raise InputError(f"unknown functor {text!r}")


def apply_obj(t: SetFunctor, s: tuple, max_enum: int = DEFAULT_MAX_ENUM) -> tuple:
    check_enum_budget(t.size_estimate(len(s)), max_enum, f"{t.name} on a set")
    return t.on_obj(tuple(s))


def apply_mor(t: SetFunctor, f: Mapping, src: tuple, dst: tuple,
              max_enum: int = DEFAULT_MAX_ENUM) -> Callable:
    check_enum_budget(max(t.size_estimate(len(src)), t.size_estimate(len(dst))),
                      max_enum, f"{t.name} on a function")
    return t.on_mor(dict(f), tuple(src), tuple(dst))


def lift_relation_generic(t: SetFunctor, x: FinPoset,
                          max_enum: int = DEFAULT_MAX_ENUM) -> Preorder:
    """The one-step lifting of the order of ``x`` to the carrier ``T(VX)``.

    Pairs are the images, under the two projections, of the functor applied
    to the comparable-pair set; the relation is reflexive because the
    diagonal is a common section of the projections.  When materialising
    the functor on the pair set would exceed the budget, the functor's
    closed-form step relation is used instead (it computes the same set of
    pairs); with neither available the call is refused.  The route is
    chosen before the carrier is enumerated.
    """
    check_enum_budget(t.size_estimate(len(x)), max_enum,
                      f"{t.name} on the carrier")
    xsq, p0, p1 = cotensor2(x)
    if t.size_estimate(len(xsq)) <= max_enum:
        carrier = t.on_obj(x.elements)
        welems = t.on_obj(xsq.elements)
        f0 = t.on_mor(p0.as_dict(), xsq.elements, x.elements)
        f1 = t.on_mor(p1.as_dict(), xsq.elements, x.elements)
        idx = {e: k for k, e in enumerate(carrier)}
        succ = [0] * len(carrier)
        for c in welems:
            succ[idx[f0(c)]] |= 1 << idx[f1(c)]
        return Preorder(carrier, tuple(succ))
    if t.step_relation is None:
        raise BudgetExceeded(
            f"{t.name} on {len(xsq)} comparable pairs exceeds the budget "
            f"and no closed-form lifting is available")
    r = t.step_relation(x, max_enum)
    if r.carrier != t.on_obj(x.elements):
        raise AssertionError(f"{t.name}: closed-form lifting disagrees on carrier")
    return r
