"""The catalogue of set endofunctors used to build transition types.

Each functor is a stateless behaviour bundle: an object map on finite sets
(tuples of hashable labels), a morphism map, a size estimate consulted
*before* any enumeration, its closed-form posetification, and optionally
a closed-form one-step order lifting (for when materialising the functor
on the comparable-pair set would bust the budget) and modal clauses.

An element of ``T(X)`` is a *code*: for ``pow`` the mask of a subset (bit
``j`` for ``X[j]``), for ``nb`` and ``mnb`` a mask over subset masks, for
``bag`` the sorted tuple of its element indices, and for ``poly`` its
position in the carrier.  ``on_obj`` returns the codes (a ``range`` where
they are dense), ``on_mor(image, n)`` maps codes to codes along the map
sending element ``j`` of the source to element ``image[j]`` of an
``n``-element target (an index assignment, the one format of maps), and
``decode(X)`` maps a code to its label, built only where labels are shown
or compared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations_with_replacement, groupby, product
from operator import and_, or_
from typing import Callable, Optional, Sequence

from .errors import BudgetExceeded, InputError, check_enum_budget, current_budget, fits
from .order import FinPoset, Preorder, bits, cotensor2, egli_milner_rows, unions

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


def _analytic_closed_form(t: SetFunctor, x: FinPoset):
    """The step relation is already the lifted order (multisets, polynomials)."""
    return _posetify().posetify_analytic(t, x)


@dataclass(frozen=True)
class SetFunctor:
    """Behaviour interface of a finitary set endofunctor.

    ``closed_form(t, x)`` posetifies ``t`` at ``x``; it is given
    ``t`` so that a ``dataclasses.replace`` copy runs its own fields.  The
    predicate liftings ``diamond(n, u)`` and ``box(n, u)`` return the mask
    of the codes of ``T(X)``, for an ``n``-element set X, that satisfy the
    lifting of the subset of mask ``u``.
    """

    name: str
    on_obj: Callable[[tuple], tuple]
    on_mor: Callable[[Sequence, int], Callable]
    size_estimate: Callable[[int], int]
    step_relation: Optional[Callable[[FinPoset], Preorder]] = None
    closed_form: Callable[["SetFunctor", FinPoset], object] = _analytic_closed_form
    diamond: Optional[Callable[[int, int], int]] = None
    box: Optional[Callable[[int, int], int]] = None
    decode: Callable[[tuple], Callable] = lambda s: (lambda code: code)


def carrier_labels(t: SetFunctor, s: tuple) -> tuple:
    """The labels of ``T(s)``, in carrier order."""
    return tuple(map(t.decode(s), t.on_obj(s)))


def _images(image: Sequence) -> list:
    """Entry ``k``: the mask of the image under ``image`` of the subset of
    mask ``k`` of its source."""
    return unions([1 << i for i in image])


def _family_decode(s: tuple) -> Callable:
    subsets = powerset(s)
    return lambda family: frozenset(subsets[k] for k in bits(family))


# ---------------------------------------------------------------- powerset

def _pow_step(x: FinPoset) -> Preorder:
    """The direct formula for the one-step lifting of the order to subsets:
    every element of ``a`` lies below something in ``b`` and every element
    of ``b`` lies above something in ``a`` (the Egli-Milner order, computed
    on subset masks)."""
    check_enum_budget((1 << len(x)) ** 2, "powerset order lifting")
    return Preorder(range(1 << len(x)), egli_milner_rows(x))


def _pow_diamond(n: int, u: int) -> int:
    """The subsets that meet ``u``: the union of the subsets holding each
    member of ``u``."""
    principal = _principals(n)
    return reduce(or_, (principal[1 << j] for j in bits(u)), 0)


def _pow_box(n: int, u: int) -> int:
    """The subsets inside ``u``: those that do not meet its complement."""
    return ((1 << (1 << n)) - 1) ^ _pow_diamond(n, ((1 << n) - 1) ^ u)


def pow_functor() -> SetFunctor:
    return SetFunctor("pow", lambda s: range(1 << len(s)),
                      lambda image, n: _images(image).__getitem__,
                      lambda n: 1 << n, _pow_step,
                      lambda t, x: _posetify().posetify_powerset(x),
                      diamond=_pow_diamond, box=_pow_box,
                      decode=lambda s: powerset(s).__getitem__)


# ----------------------------------------------------------- neighbourhood

def _nb_mor(image: Sequence, n: int) -> Callable:
    """A family goes to the target subsets whose preimage it holds: an
    OR-linear map, tabulated by doubling from the images ``g[k]`` of the
    one-member families (the subsets whose preimage has mask ``k``)."""
    g = [0] * (1 << len(image))
    for u in range(1 << n):
        g[sum(1 << j for j, i in enumerate(image) if u >> i & 1)] |= 1 << u
    return unions(g).__getitem__


def nb_functor() -> SetFunctor:
    return SetFunctor("nb", lambda s: range(1 << (1 << len(s))), _nb_mor,
                      lambda n: (1 << (1 << n)) if n < 9 else HUGE,
                      closed_form=lambda t, x: _posetify().posetify_nb(x),
                      decode=_family_decode)


# -------------------------------------------------- monotone neighbourhood

@lru_cache(maxsize=16)
def _principals(n: int) -> tuple:
    """Entry ``a``: the mask of the supersets of the subset of mask ``a``
    among the subsets of an ``n``-element set."""
    out = [(1 << (1 << n)) - 1]
    for j in range(n):
        holding = sum(1 << u for u in range(1 << n) if u >> j & 1)
        out += [o & holding for o in out]
    return tuple(out)


@lru_cache(maxsize=32)
def _mnb_obj(s: tuple) -> tuple:
    """All inclusion-up-closed families over the powerset of ``s``.

    Families are generated from their antichains of minimal members, which
    keeps the enumeration linear in the output size.
    """
    principal = _principals(len(s))
    order = sorted(range(1 << len(s)), key=lambda k: (k.bit_count(), k))
    families = []

    def extend(start: int, chosen: tuple, family: int):
        families.append(family)
        for pos in range(start, len(order)):
            cand = order[pos]
            if any(a & cand in (a, cand) for a in chosen):
                continue
            extend(pos + 1, chosen + (cand,), family | principal[cand])

    extend(0, (), 0)
    return tuple(families)


def _mnb_mor(image: Sequence, n: int) -> Callable:
    """A family goes to the up-closure of the images of its members: the
    union of the principal families of those images."""
    principal = _principals(n)
    g = [principal[img] for img in _images(image)]
    return lambda family: reduce(or_, map(g.__getitem__, bits(family)), 0)


def _mnb_step(x: FinPoset) -> Preorder:
    """One-step lifting for up-closed families, without materialising the
    functor on the comparable-pair set.

    The image pair of an up-closed family depends only on a generating set
    of member subsets, and taking pairwise unions of the image pairs of
    single subsets realises exactly the image pairs of all families.  So
    the relation is the union-closure of one generator pair per subset of
    comparable pairs, plus the empty pair.
    """
    pairs = sum(m.bit_count() for m in x.upmask)
    check_enum_budget(1 << pairs, "order lifting generators")
    check_enum_budget(mnb_size(len(x)) ** 2, "order lifting closure")
    carrier = _mnb_obj(x.elements)
    _, first, second = cotensor2(x)
    principal = _principals(len(x))
    gens = {(principal[a], principal[b]) for a, b in
            zip(_images(first.assignment), _images(second.assignment))}
    closed = {(0, 0)} | gens
    frontier = list(closed)
    while frontier:
        a0, a1 = frontier.pop()
        for g0, g1 in gens:
            q = (a0 | g0, a1 | g1)
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
                      lambda t, x: _posetify().posetify_mnb(x),
                      decode=_family_decode)


# ------------------------------------------------------------- multisets

def _mset_obj(d: int):
    def obj(s: tuple) -> tuple:
        return tuple(combo for k in range(d + 1)
                     for combo in combinations_with_replacement(range(len(s)), k))

    return obj


def _mset_decode(s: tuple) -> Callable:
    """A multiset as its ``(label, multiplicity)`` pairs, in element order."""
    return lambda code: tuple((s[i], len(list(run))) for i, run in groupby(code))


def _mset_mor(image: Sequence, n: int) -> Callable:
    return lambda code: tuple(sorted(map(image.__getitem__, code)))


def _mset_step(d: int):
    def step(x: FinPoset) -> Preorder:
        """``a <= b`` when some bijection between the two multisets sends
        every element of ``a`` to one above it; so the multisets above
        ``a`` are those formed by choosing, for each element of ``a`` with
        multiplicity, one element of its up-set."""
        check_enum_budget(math.comb(len(x) + d, d) ** 2, "multiset order lifting")
        carrier = _mset_obj(d)(x.elements)
        position = {c: k for k, c in enumerate(carrier)}
        ups = [tuple(bits(m)) for m in x.upmask]
        succ = []
        for c in carrier:
            row = 0
            for above in product(*(ups[v] for v in c)):
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
        _mset_step(degree), decode=_mset_decode)


# ------------------------------------------------------------ polynomial

def _poly_size(signature: tuple, n: int) -> int:
    return sum(len(coeffs) * n ** arity for _, arity, coeffs in signature)


def _poly_obj(signature: tuple):
    """The codes ``0 .. |T(s)|-1``: a block per symbol, a sub-block per
    coefficient, and within it the argument indices as the digits, base
    ``|s|``, of the offset (the first argument most significant)."""
    return lambda s: range(_poly_size(signature, len(s)))


def _poly_decode(signature: tuple):
    """Decoding tabulates the labels ``(name, coeff, args)`` in carrier order."""
    return lambda s: tuple((name, coeff, args) for name, arity, coeffs in signature
                           for coeff in coeffs
                           for args in product(s, repeat=arity)).__getitem__


def _poly_mor(signature: tuple):
    def mor(image: Sequence, n: int) -> Callable:
        """Tabulated: each argument digit is replaced by the index of its
        image, and the symbol and coefficient are kept."""
        table, offset = [], 0
        for _, arity, coeffs in signature:
            args = [0]  # the images of the argument tuples, in product order
            for _ in range(arity):
                args = [a * n + w for a in args for w in image]
            for _ in coeffs:
                table += [offset + a for a in args]
                offset += n ** arity
        return table.__getitem__

    return mor


def _block_rows(ups: tuple, arity: int) -> list:
    """The successor masks of ``X^arity`` under the componentwise order,
    over the argument tuples in ``product`` order, for ``X`` with up-set
    masks ``ups``.  ``above[k][v]`` is the mask of the tuples whose
    argument at position ``k`` lies above ``v``; the row of a tuple is the
    AND of these masks over its arguments."""
    members = list(product(range(len(ups)), repeat=arity))
    holding = [[0] * len(ups) for _ in range(arity)]  # [k][w]: w at position k
    for m, args in enumerate(members):
        for k, w in enumerate(args):
            holding[k][w] |= 1 << m
    above = [[reduce(or_, map(h.__getitem__, bits(up)), 0) for up in ups]
             for h in holding]
    full = (1 << len(members)) - 1
    return [reduce(and_, map(list.__getitem__, above, args), full) for args in members]


def _poly_step(signature: tuple):
    def step(x: FinPoset) -> Preorder:
        """``a <= b`` when both carry the same symbol and coefficient and
        every argument of ``a`` lies below the matching one of ``b``: each
        block of one symbol and coefficient is a power of ``x``."""
        check_enum_budget(_poly_size(signature, len(x)) ** 2, "polynomial order lifting")
        carrier = _poly_obj(signature)(x.elements)
        succ = []
        for _, arity, coeffs in signature:
            rows = _block_rows(x.upmask, arity)
            for _ in coeffs:
                offset = len(succ)
                succ += [row << offset for row in rows]
        return Preorder(carrier, tuple(succ))

    return step


def poly_functor(signature) -> SetFunctor:
    """A polynomial functor from a signature of (name, arity, coefficients).

    ``coefficients`` is a tuple of labels; the functor sends ``X`` to the
    disjoint union over symbols of ``coefficients x X^arity``.
    """
    sig = tuple((name, arity, tuple(coeffs)) for name, arity, coeffs in signature)
    seen = set()
    for name, arity, coeffs in sig:
        if arity < 0 or not coeffs:
            raise InputError(f"bad signature entry {name!r}")
        if name in seen:
            raise InputError(f"symbol {name!r} appears twice in the signature")
        seen.add(name)

    fmt = ",".join(f"{name}:{arity}:{len(coeffs)}" for name, arity, coeffs in sig)
    return SetFunctor(f"poly:sigma={fmt}", _poly_obj(sig), _poly_mor(sig),
                      lambda n: _poly_size(sig, n), _poly_step(sig),
                      decode=_poly_decode(sig))


# ------------------------------------------------------------ dispatching

def parse_functor(text: str) -> SetFunctor:
    """Parse a CLI functor name: pow, nb, mnb, bag:<d>, poly:sigma=....

    A polynomial's coefficient labels are counted against the budget
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
        check_enum_budget(sum(max(csize, 0) for _, _, csize in entries),
                          "polynomial coefficients")
        return poly_functor([(name, arity, tuple(f"{name}.{i}" for i in range(csize)))
                             for name, arity, csize in entries])
    raise InputError(f"unknown functor {text!r}")


def apply_obj(t: SetFunctor, s: tuple) -> tuple:
    check_enum_budget(t.size_estimate(len(s)), f"{t.name} on a set")
    return t.on_obj(tuple(s))


def apply_mor(t: SetFunctor, image: Sequence, n: int) -> Callable:
    check_enum_budget(max(t.size_estimate(len(image)), t.size_estimate(n)),
                      f"{t.name} on a function")
    return t.on_mor(tuple(image), n)


def lift_relation_generic(t: SetFunctor, x: FinPoset) -> Preorder:
    """The one-step lifting of the order of ``x`` to the carrier ``T(VX)``.

    Pairs are the images, under the two projections, of the functor applied
    to the comparable-pair set; the relation is reflexive because the
    diagonal is a common section of the projections.  When materialising
    the functor on the pair set would exceed the budget, the functor's
    closed-form step relation is used instead (it computes the same set of
    pairs); with neither available the call is refused.  The route is
    chosen before the carrier is enumerated.  The materialised relation
    has a row of ``|T(VX)|`` bits per element, and closing it takes as
    many steps again, so the square of the carrier is counted against the
    budget before that route starts.
    """
    check_enum_budget(t.size_estimate(len(x)), f"{t.name} on the carrier")
    xsq, p0, p1 = cotensor2(x)
    if fits(t.size_estimate(len(xsq))):
        check_enum_budget(t.size_estimate(len(x)) ** 2, f"{t.name} lifted relation")
        carrier = t.on_obj(x.elements)
        f0 = t.on_mor(p0.assignment, len(x))
        f1 = t.on_mor(p1.assignment, len(x))
        idx = {e: k for k, e in enumerate(carrier)}
        succ = [0] * len(carrier)
        for c in t.on_obj(xsq.elements):
            succ[idx[f0(c)]] |= 1 << idx[f1(c)]
        return Preorder(carrier, tuple(succ))
    if t.step_relation is None:
        raise BudgetExceeded(
            f"{t.name} on {len(xsq)} comparable pairs exceeds the budget "
            f"and no closed-form lifting is available",
            stage=f"{t.name} on the comparable pairs",
            requested=t.size_estimate(len(xsq)), cap=current_budget().max_enum)
    r = t.step_relation(x)
    if r.carrier != t.on_obj(x.elements):
        raise AssertionError(f"{t.name}: closed-form lifting disagrees on carrier")
    return r
