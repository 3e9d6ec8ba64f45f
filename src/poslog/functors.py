"""The catalogue of set endofunctors used to build transition types.

Each functor is a stateless behaviour bundle: an object map on finite sets
(tuples of hashable labels), a morphism map, a size estimate consulted
*before* any enumeration, its closed-form posetification, and optionally
a closed-form one-step order lifting (for when materialising the functor
on the comparable-pair set would bust the budget) and modal clauses.

An element of ``T(X)`` is a *code*: for ``pow`` the mask of a subset (bit
``j`` for ``X[j]``), for ``nb`` and ``mnb`` a mask over subset masks, and
for ``bag`` and ``poly`` its position in the carrier.  ``on_obj`` returns
the codes (a ``range`` where they are dense), ``on_mor(image, n)`` maps
codes to codes along the map sending element ``j`` of the source to
element ``image[j]`` of an ``n``-element target (an index assignment, the
one format of maps), and ``decode(X)`` maps a code to its label, built
only where labels are shown or compared.

Each action is a table, built in one step per code along the carrier's
own enumeration: a multiset is its prefix plus its last member, and an
up-closed family is the family it was generated from plus one principal
family, so the image of a code is read off the image of an earlier one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import product
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


@lru_cache(maxsize=5)
def _families(n: int) -> tuple:
    """``(families, parent, added)``: all inclusion-up-closed families over
    the subsets of an ``n``-element set, with the tree that generates them.

    Families are generated from their antichains of minimal members, which
    keeps the enumeration linear in the output size: family ``k > 0`` is
    family ``parent[k]`` together with the supersets of the subset of mask
    ``added[k]``.  The families do not depend on the labels, so every set
    of ``n`` labels shares one enumeration.
    """
    principal = _principals(n)
    order = sorted(range(1 << n), key=lambda k: (k.bit_count(), k))
    families, parent, added = [0], [0], [0]

    def extend(start: int, chosen: tuple, at: int):
        for pos in range(start, len(order)):
            cand = order[pos]
            if any(a & cand in (a, cand) for a in chosen):
                continue
            families.append(families[at] | principal[cand])
            parent.append(at)
            added.append(cand)
            extend(pos + 1, chosen + (cand,), len(families) - 1)

    extend(0, (), 0)
    return tuple(families), tuple(parent), tuple(added)


def _mnb_mor(image: Sequence, n: int) -> Callable:
    """A family goes to the up-closure of the images of its members.  The
    up-closure of a union is the union of the up-closures, and the
    supersets of ``a`` go to the supersets of the image of ``a``, so each
    family's image is its parent's image and one principal family."""
    families, parent, added = _families(len(image))
    principal, img = _principals(n), _images(image)
    table = [0]
    for p, a in zip(parent[1:], added[1:]):
        table.append(table[p] | principal[img[a]])
    return dict(zip(families, table)).__getitem__


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
    carrier = _families(len(x))[0]
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
    return SetFunctor("mnb", lambda s: _families(len(s))[0], _mnb_mor, mnb_size, _mnb_step,
                      lambda t, x: _posetify().posetify_mnb(x),
                      decode=_family_decode)


# ------------------------------------------------------------- multisets

@lru_cache(maxsize=16)
def _multisets(n: int, d: int) -> tuple:
    """``(prefix, last, add)`` for the multisets of at most ``d`` members of
    an ``n``-element set, in carrier order: by size, then lexicographically
    as sorted index tuples.

    Multiset ``k > 0`` is multiset ``prefix[k]`` plus its largest member
    ``last[k]``; ``add[c][e]`` is the position of multiset ``c`` plus
    element ``e``, for each ``c`` of fewer than ``d`` members.  Listing
    each multiset's extensions by its members or more, multiset by
    multiset, gives the next size in lexicographic order; an extension by
    a smaller member ``e`` is the prefix plus ``e``, plus the last member.
    """
    prefix, last, add = [0], [0], []
    start = 0
    for _ in range(d):
        end = len(prefix)
        for c in range(start, end):
            row = [0] * n
            for e in range(last[c], n):
                row[e] = len(prefix)
                prefix.append(c)
                last.append(e)
            add.append(row)
        for c in range(start, end):
            for e in range(last[c]):
                add[c][e] = add[add[prefix[c]][e]][last[c]]
        start = end
    return tuple(prefix), tuple(last), tuple(map(tuple, add))


def _mset_decode(d: int):
    """Decoding tabulates the ``(label, multiplicity)`` pairs, in element
    order, along the carrier."""
    def decode(s: tuple) -> Callable:
        prefix, last, _ = _multisets(len(s), d)
        labels = [()]
        for p, e in zip(prefix[1:], last[1:]):
            label = labels[p]
            if p and last[p] == e:
                labels.append(label[:-1] + ((s[e], label[-1][1] + 1),))
            else:
                labels.append(label + ((s[e], 1),))
        return labels.__getitem__

    return decode


def _mset_mor(d: int):
    def mor(image: Sequence, n: int) -> Callable:
        """Tabulated: a multiset goes to the image of its prefix plus the
        image of its last member."""
        prefix, last, _ = _multisets(len(image), d)
        add = _multisets(n, d)[2]
        table = [0]
        for p, e in zip(prefix[1:], map(image.__getitem__, last[1:])):
            table.append(add[table[p]][e])
        return table.__getitem__

    return mor


def _mset_step(d: int):
    def step(x: FinPoset) -> Preorder:
        """``a <= b`` when some bijection between the two multisets sends
        every element of ``a`` to one above it; so the multisets above
        ``a`` plus ``e`` are those above ``a`` plus an element above
        ``e``."""
        size = math.comb(len(x) + d, d)
        check_enum_budget(size ** 2, "multiset order lifting")
        prefix, last, add = _multisets(len(x), d)
        ups = [bits(m) for m in x.upmask]
        succ = [1]
        for p, e in zip(prefix[1:], last[1:]):
            above, row = ups[e], 0
            for b in bits(succ[p]):
                extend = add[b]
                for f in above:
                    row |= 1 << extend[f]
            succ.append(row)
        return Preorder(range(size), tuple(succ))

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
        f"bag:{degree}", lambda s: range(math.comb(len(s) + degree, degree)),
        _mset_mor(degree), lambda n: math.comb(n + degree, degree),
        _mset_step(degree), decode=_mset_decode(degree))


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
        pairs = t.on_obj(xsq.elements)
        rows = map(t.on_mor(p0.assignment, len(x)), pairs)
        cols = map(t.on_mor(p1.assignment, len(x)), pairs)
        if not isinstance(carrier, range):  # codes that are not positions
            idx = {e: k for k, e in enumerate(carrier)}.__getitem__
            rows, cols = map(idx, rows), map(idx, cols)
        succ = [0] * len(carrier)
        for a, b in zip(rows, cols):
            succ[a] |= 1 << b
        return Preorder(carrier, tuple(succ))
    if t.step_relation is None:
        raise BudgetExceeded(
            f"{t.name} on {len(xsq)} comparable pairs exceeds the budget "
            f"and no closed-form lifting is available",
            stage=f"{t.name} on the comparable pairs",
            requested=t.size_estimate(len(xsq)), cap=current_budget())
    r = t.step_relation(x)
    if r.carrier != t.on_obj(x.elements):
        raise AssertionError(f"{t.name}: closed-form lifting disagrees on carrier")
    return r
