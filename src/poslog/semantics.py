"""Modal formulas, coalgebras, and their interpretation.

Boolean Kripke semantics runs over set-based successor coalgebras; the
positive side runs over monotone coalgebras for the convex-powerset
lifting, where satisfaction sets are upsets.  Both a direct recursion and
a reference route through the lifted semantic transformation are provided;
the two are kept in agreement by the verification suite.

Successor sets, valuations and satisfaction sets are state masks (bit
``i`` for the ``i``-th carrier element), and the semantic components map
masks to masks: the interpreters take a valuation of masks and return the
mask of the satisfying states.  Labels are read and shown by ``io`` and
``cli``.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import Callable, Optional, Sequence

from .algebra import up_algebra
from .errors import InputError, check_enum_budget, current_budget
from .functors import carrier_labels, pow_functor
from .order import FinPoset, Value, bits, egli_milner_rows
from .posetify import Posetification, count_convex_powerset, posetify_powerset
from .positivize import Positivication, parse_syntax, positivize


# ----------------------------------------------------------------- syntax

class Formula(Value, fields=("op", "args", "name")):
    """A modal formula: a connective ``op`` over the subformulas ``args``,
    or a variable (``op`` is ``"var"``) with its ``name``."""

    def __init__(self, op: str, args: tuple = (), name: Optional[str] = None):
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "name", name)

    def __str__(self) -> str:
        if self.op == "var":
            return self.name
        if self.op in ("top", "bot"):
            return self.op
        return "(" + " ".join([self.op] + [str(a) for a in self.args]) + ")"

    @cached_property
    def is_positive(self) -> bool:
        return self.op != "not" and all(a.is_positive for a in self.args)

    @property
    def depth(self) -> int:
        return (1 + max(a.depth for a in self.args)) if self.args else 0


def var(name: str) -> Formula:
    return Formula("var", name=name)


TOP = Formula("top")
BOT = Formula("bot")


def neg(f: Formula) -> Formula:
    return Formula("not", (f,))


def conj(*fs: Formula) -> Formula:
    if not fs:
        return TOP
    out = fs[0]
    for f in fs[1:]:
        out = Formula("and", (out, f))
    return out


def disj(*fs: Formula) -> Formula:
    if not fs:
        return BOT
    out = fs[0]
    for f in fs[1:]:
        out = Formula("or", (out, f))
    return out


def box(f: Formula) -> Formula:
    return Formula("box", (f,))


def dia(f: Formula) -> Formula:
    return Formula("dia", (f,))


def _tokenize(text: str) -> list:
    return text.replace("(", " ( ").replace(")", " ) ").split()


# The deepest formula accepted.  Printing and evaluating a formula recurse
# on it, about three interpreter frames a level, so a formula this deep
# stays far inside Python's default recursion limit of 1000 in every mode.
MAX_FORMULA_DEPTH = 100


def parse_formula(text: str) -> Formula:
    """Parse an s-expression formula: ``(dia (or p q))``, ``(box p)``,
    ``(not p)``, ``(and p q r)``, with ``top``/``bot`` constants.

    A formula deeper than ``MAX_FORMULA_DEPTH`` (an atom has depth 0, and
    ``(and p q r)`` is ``(and (and p q) r)``, of depth 2) is refused with
    an :class:`InputError`."""
    tokens = _tokenize(text)
    if not tokens:
        raise InputError("empty formula")
    pos = 0
    too_deep = f"formula nested deeper than {MAX_FORMULA_DEPTH} levels"

    def read(level: int) -> tuple:
        """The formula at ``pos`` and its depth; ``level`` counts the
        parentheses open around it."""
        nonlocal pos
        if pos >= len(tokens):
            raise InputError("unexpected end of formula")
        tok = tokens[pos]
        pos += 1
        if tok == ")":
            raise InputError("unexpected ')'")
        if tok != "(":
            if tok == "top":
                return TOP, 0
            if tok == "bot":
                return BOT, 0
            if tok in ("and", "or", "not", "box", "dia"):
                raise InputError(f"operator {tok!r} needs parentheses")
            return var(tok), 0
        if level >= MAX_FORMULA_DEPTH:  # a group inside this many is too deep
            raise InputError(too_deep)
        if pos >= len(tokens):
            raise InputError("unexpected end of formula")
        head = tokens[pos]
        pos += 1
        args = []
        while pos < len(tokens) and tokens[pos] != ")":
            args.append(read(level + 1))
        if pos >= len(tokens):
            raise InputError("missing ')'")
        pos += 1
        if head in ("not", "box", "dia"):
            if len(args) != 1:
                raise InputError(f"{head!r} takes exactly one argument")
            (arg, depth), = args
            out, depth = Formula(head, (arg,)), depth + 1
        elif head in ("and", "or"):
            if len(args) < 2:
                raise InputError(f"{head!r} takes at least two arguments")
            out, depth = args[0]
            for arg, d in args[1:]:
                out, depth = Formula(head, (out, arg)), max(depth, d) + 1
        else:
            raise InputError(f"unknown operator {head!r}")
        if depth > MAX_FORMULA_DEPTH:
            raise InputError(too_deep)
        return out, depth

    out, _ = read(0)
    if pos != len(tokens):
        raise InputError("trailing input after formula")
    return out


# -------------------------------------------------------------- coalgebras

class Coalgebra:
    """A successor-set coalgebra over a poset carrier.

    A plain set carrier is the discrete poset.  ``succ[i]`` is the mask
    of the successors of the ``i``-th state; construction checks that
    there is one per state and that it stays inside the carrier.  For
    positive semantics the structure map must be monotone for the lifted
    order and land on convex sets; this is checked by
    :func:`check_positive_coalgebra` at the first positive interpretation,
    not at construction, and ``positive_checked`` records that it passed.
    Two coalgebras are equal only if they are one object.
    """

    __slots__ = ("carrier", "succ", "positive_checked")

    def __init__(self, carrier: FinPoset, succ: tuple):
        n = len(carrier)
        if len(succ) != n:
            raise InputError("successor table does not match carrier")
        if any(s < 0 or s >> n for s in succ):
            raise InputError("successor index out of range")
        self.carrier = carrier
        self.succ = succ
        self.positive_checked = False


def check_positive_coalgebra(c: Coalgebra) -> None:
    """Structure values must be convex sets (each the meet of its up- and
    down-closure) and the map must be monotone for the Egli-Milner order:
    ``i <= j`` needs ``succ[i]`` inside the down-closure of ``succ[j]`` and
    ``succ[j]`` inside the up-closure of ``succ[i]``.  Bit operations on
    the state masks, with no lifted carrier."""
    x, succ = c.carrier, c.succ
    upmask, downmask = x.upmask, x.downmask
    up, down = [], []
    for i, s in enumerate(succ):
        u = d = 0
        for k in bits(s):
            u |= upmask[k]
            d |= downmask[k]
        if u & d != s:
            raise InputError(f"successor set of {x.elements[i]!r} is not convex")
        up.append(u)
        down.append(d)
    for i, s in enumerate(succ):
        for j in bits(upmask[i] ^ (1 << i)):  # every set is below itself
            if s & ~down[j] or succ[j] & ~up[i]:
                raise InputError(f"structure map is not monotone between "
                                 f"{x.elements[i]!r} and {x.elements[j]!r}")


def _refuse_valuation(x: FinPoset, valuation: dict, positive: bool) -> None:
    """Refuse a valuation mask with a bit outside the carrier and, for
    positive semantics, one that is not an up-set, in the valuation's
    order."""
    for name, m in valuation.items():
        if m < 0 or m >> len(x):
            raise InputError(f"valuation of {name!r} leaves the carrier")
        if positive and x.up_of(m) != m:
            raise InputError(f"valuation of {name!r} is not an upset")


# ------------------------------------------------- the semantic component

class DeltaPow:
    """The semantic component over one finite set: it sends a modal-algebra
    element (a set of successor sets, as a mask over subset masks) to the
    predicate on successor sets it denotes (a mask of the same kind).

    The map is generated from the diamond clause "the successor sets
    meeting the argument" and extended to the whole algebra through the
    atom decomposition, so totality is by construction, not stipulation.
    Two components are equal only if they are one object.
    """

    __slots__ = ("atom_image",)

    def __init__(self, atom_image: tuple):
        self.atom_image = atom_image

    def apply(self, phi: int) -> int:
        out = 0
        for c in bits(phi):
            out |= self.atom_image[c]
        return out


def count_delta_pow(n: int) -> None:
    """Refuse the semantic component over ``n`` states before building it."""
    check_enum_budget((1 << n) ** 2, "semantic component construction")


def delta_pow(states: tuple) -> DeltaPow:
    n, diamond = len(states), pow_functor().diamond
    count_delta_pow(n)
    every, full = (1 << (1 << n)) - 1, (1 << n) - 1
    atom_image = []
    for c in range(1 << n):
        img = every
        for u in bits(c):
            img &= diamond(n, 1 << u)
        atom_image.append(img & ~diamond(n, full ^ c))
    return DeltaPow(tuple(atom_image))


# ----------------------------------------------- the lifted semantic map

class DeltaPrime:
    """The lifted semantic component at one poset.

    An element of the lifted modal algebra is pushed through the boolean
    component over the underlying set, and the resulting saturated
    predicate is transferred along the projection to the mask of the
    classes (the indices of the lifted poset) it holds.  ``image`` does
    this for one member and asserts that the predicate is saturated (an
    up-closed union of classes), that it transfers uniquely and that it
    lands on an up-set.  ``apply`` runs it the first time a member is
    asked for and remembers the answer, and refuses a mask that is not a
    member by ``is_member``, the inserter's definition of one.  Each
    component starts with an empty ``memo`` of its own, and two are equal
    only if they are one object.
    """

    __slots__ = ("members", "is_member", "image", "memo")

    def __init__(self, members: Sequence, is_member: Callable[[int], bool],
                 image: Callable[[int], int]):
        self.members = members
        self.is_member = is_member
        self.image = image
        self.memo = {}

    def apply(self, member: int) -> int:
        """The predicate of ``member``, which must be one of ``members``."""
        try:
            return self.memo[member]
        except KeyError:
            if not self.is_member(member):
                raise AssertionError("modal image left the lifted algebra") from None
            out = self.memo[member] = self.image(member)
            return out


def delta_prime(t, delta_factory, x: FinPoset, pos: Posetification,
                lifted: Positivication) -> DeltaPrime:
    """The lifted component from ``lifted`` to the up-sets of ``pos``, the
    convex powerset lifting of ``x``, saturating against Egli-Milner rows."""
    dp = delta_factory(x.elements)
    if tuple(lifted.ambient.atoms) != carrier_labels(t, x.elements):
        raise AssertionError("ambient algebra does not match the component domain")
    succ, e, order = egli_milner_rows(x), pos.e, pos.order

    def image(member: int) -> int:
        ms = dp.apply(member)  # powerset codes are carrier indices
        if any(succ[i] & ~ms for i in bits(ms)):
            raise AssertionError("semantic image is not saturated for the lifted order")
        u = 0  # the classes the image meets
        for i in bits(ms):
            u |= 1 << e[i]
        if sum(1 << i for i, k in enumerate(e) if u >> k & 1) != ms:
            raise AssertionError("saturated image transfers to more than one upset")
        if order.up_of(u) != u:
            raise AssertionError("transferred predicate is not an upset")
        return u

    return DeltaPrime(lifted.members, lifted.is_member, image)


# ----------------------------------------------------------- interpreters

def _evaluate(phi: Formula, vals: dict, states: int,
              modal: Callable[[str, int], int]) -> int:
    """The mask of the states satisfying ``phi``, all of them ``states``;
    ``(op psi)`` is ``modal(op, <mask of psi>)``."""

    def rec(f: Formula) -> int:
        if f.op == "var":
            if f.name not in vals:
                raise InputError(f"unbound variable {f.name!r}")
            return vals[f.name]
        if f.op == "top":
            return states
        if f.op == "bot":
            return 0
        if f.op == "not":
            return states ^ rec(f.args[0])
        if f.op == "and":
            return rec(f.args[0]) & rec(f.args[1])
        if f.op == "or":
            return rec(f.args[0]) | rec(f.args[1])
        if f.op in ("dia", "box"):
            return modal(f.op, rec(f.args[0]))
        raise InputError(f"unknown connective {f.op!r}")

    return rec(phi)


def interpret_boolean(c: Coalgebra, valuation: dict, phi: Formula) -> int:
    """Kripke semantics over a set-based successor coalgebra: the mask of
    the states satisfying ``phi`` when each variable holds at the states
    of its mask in ``valuation``.

    Modal clauses go through the semantic component: a state satisfies the
    formula when its successor set lands in the component's image of the
    powerset functor's modal clause at the subformula.  An empty successor
    set therefore refutes every diamond and satisfies every box.
    """
    x = c.carrier
    _refuse_valuation(x, valuation, positive=False)
    dp = delta_pow(x.elements)
    t = pow_functor()

    def modal(op: str, u: int) -> int:
        clause = t.diamond if op == "dia" else t.box
        pred = dp.apply(clause(len(x), u))
        return sum(1 << i for i, s in enumerate(c.succ) if pred >> s & 1)

    return _evaluate(phi, valuation, (1 << len(x)) - 1, modal)


# Keyed on the budget in force, which the body does not otherwise read, so
# that nothing built under one budget is handed out under another.
@lru_cache(maxsize=64)
def _positive_context(carrier: FinPoset, budget: int):
    """Shared machinery for the reference route over one poset.  The
    convex powerset is counted first but built last, so that a carrier
    that ``positivize`` refuses never builds its relation on all subsets."""
    count_convex_powerset(len(carrier))
    lifted = positivize(parse_syntax("dunn"), up_algebra(carrier))
    pos = posetify_powerset(carrier)
    dprime = delta_prime(pow_functor(), delta_pow, carrier, pos, lifted)
    return pos, lifted, dprime


def positive_context(x: FinPoset) -> tuple:
    """``(pos, lifted, dprime)``: the reference route over ``x`` under the
    budget in force.  ``pos`` is the convex-powerset lifting of ``x``,
    ``lifted`` the positivication of normal modal logic at the up-sets of
    ``x`` and ``dprime`` the lifted semantic component between them.  The
    result is cached per poset and budget, so nothing built under one
    budget is handed out under another."""
    return _positive_context(x, current_budget())


def interpret_positive(c: Coalgebra, valuation: dict, phi: Formula,
                       method: str = "direct") -> int:
    """Negation-free semantics over a monotone convex-successor coalgebra:
    the mask of the states satisfying ``phi`` under a valuation of up-set
    masks.

    ``method='direct'`` uses the one-step clauses (diamond: successor set
    meets the subformula; box: successor set contained in it).
    ``method='delta'`` routes every modal step through the lifted semantic
    component; it is the reference implementation the direct clauses are
    checked against.  Both return upsets.
    """
    if not phi.is_positive:
        raise InputError("positive interpretation needs a negation-free formula")
    if method not in ("direct", "delta"):
        raise InputError(f"unknown method {method!r}")
    x = c.carrier
    _refuse_valuation(x, valuation, positive=True)
    if method == "direct":
        def modal(op: str, u: int) -> int:
            if op == "dia":
                return sum(1 << i for i, s in enumerate(c.succ) if s & u)
            return sum(1 << i for i, s in enumerate(c.succ) if not s & ~u)
    else:
        pos, lifted, dprime = positive_context(x)

        def modal(op: str, u: int) -> int:
            elem = lifted.diamond_of(u) if op == "dia" else lifted.box_of(u)
            pred = dprime.apply(elem)  # a mask of lifted classes
            return sum(1 << i for i, s in enumerate(c.succ) if pred >> pos.e[s] & 1)
    if not c.positive_checked:
        check_positive_coalgebra(c)
        c.positive_checked = True
    out = _evaluate(phi, valuation, (1 << len(x)) - 1, modal)
    if x.up_of(out) != out:
        raise AssertionError("positive satisfaction set is not an upset")
    return out
