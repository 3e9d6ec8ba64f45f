"""Finite posets, monotone maps, and reflexive relations.

All values are immutable after construction and every operation is a pure
function, so everything here is safe to share between concurrent readers.
A subset of an indexed carrier is an int bitmask, bit ``j`` for the
``j``-th element, and a relation has one form: a tuple of such masks, one
row per index, where bit ``j`` of row ``i`` says that ``i`` is related to
``j``.  A poset stores its up-sets this way (and derives its down-sets and
a label -> index dict), a :class:`Preorder` its successors; order queries,
closure, quotient and isomorphism search are integer operations on these
rows.  Labels are converted only at the edge: :meth:`FinPoset.index`,
``mask``, ``labels`` and ``leq``, and :meth:`MonotoneMap.of_dict`.
"""

from __future__ import annotations

from functools import cached_property, reduce
from itertools import permutations
from operator import attrgetter, or_
from typing import Hashable, Iterable, Iterator, Mapping, Optional

from .errors import InputError

Label = Hashable


def bits(mask: int) -> list:
    """The indices of the set bits of ``mask``, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class Value:
    """An immutable value compared by its fields.

    A subclass names the fields that make up the value,
    ``class P(Value, fields=("a", "b"))``, and sets them, and anything
    derived from them, in its own ``__init__`` with ``object.__setattr__``
    (updating ``__dict__`` instead would allocate a dict per instance).
    Equality (between instances of one class), hashing and the repr use
    those fields only, read by one ``operator.attrgetter``; a derived
    attribute or a cached one takes no part.  Assignment and deletion
    raise ``AttributeError``.  No method is generated when a subclass is
    defined, so defining one costs no more than any other class.
    """

    __slots__ = ()

    def __init_subclass__(cls, fields: tuple, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = fields
        cls._key = attrgetter(*fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self is other or self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(" + ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields) + ")"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _close_rows(rows) -> tuple:
    """Warshall's transitive closure of successor masks: for each pivot
    ``k``, every row that reaches ``k`` gains the row of ``k``."""
    rows = list(rows)
    for k, row_k in enumerate(rows):
        bit = 1 << k
        for i, row in enumerate(rows):
            if row & bit:
                rows[i] = row | row_k
    return tuple(rows)


class FinPoset(Value, fields=("elements", "upmask")):
    """A finite partial order: unique element labels plus an up-set table.

    ``upmask[i]`` is the bitmask of every element above element ``i``,
    including ``i`` itself (bit ``j`` stands for element ``j``).  The
    relation must be reflexive, transitive and antisymmetric; this is
    checked at construction time.

    Construction also caches a label -> index dict and the down-set of
    each element as a bitmask (``downmask``), and the first use of
    :attr:`refinement` caches that on the instance too.  They are derived
    from ``elements`` and ``upmask``, so they take no part in equality,
    hashing or the repr.
    """

    def __init__(self, elements: tuple, upmask: tuple):
        n = len(elements)
        pos = {e: i for i, e in enumerate(elements)}
        if len(pos) != n:
            raise InputError("poset labels must be unique")
        if len(upmask) != n:
            raise InputError("up-set table does not match carrier")
        if any(m < 0 or m >> n for m in upmask):
            raise InputError("up-set index out of range")
        downmask = [0] * n
        for i, mi in enumerate(upmask):
            if not mi >> i & 1:
                raise InputError(f"relation not reflexive at {elements[i]!r}")
            for j in bits(mi):
                mj = upmask[j]
                if i != j and mj >> i & 1:
                    raise InputError(
                        f"antisymmetry fails between {elements[i]!r} "
                        f"and {elements[j]!r}"
                    )
                if mj & ~mi:
                    raise InputError(
                        f"transitivity fails at {elements[i]!r} <= {elements[j]!r}"
                    )
                downmask[j] |= 1 << i
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "upmask", upmask)
        object.__setattr__(self, "_pos", pos)
        object.__setattr__(self, "downmask", tuple(downmask))

    @classmethod
    def from_pairs(cls, elements: Iterable, pairs: Iterable, complete: bool = False):
        """Build a poset from ``a <= b`` label pairs.

        With ``complete=True`` the reflexive-transitive closure of the pairs
        is taken first, so inputs may omit implied pairs (this is the JSON
        convention).  Antisymmetry is always enforced; on rows closed here
        (the down-set rows from the reversed pairs) it is all that can fail.
        """
        elems = tuple(elements)
        index = {e: i for i, e in enumerate(elems)}
        ups = [1 << i for i in range(len(elems))]
        downs = ups[:]
        for a, b in pairs:
            if a not in index or b not in index:
                raise InputError(f"pair ({a!r}, {b!r}) mentions unknown element")
            ups[index[a]] |= 1 << index[b]
            downs[index[b]] |= 1 << index[a]
        if not complete:
            return cls(elems, tuple(ups))
        p = cls._trusted(elems, _close_rows(ups), _close_rows(downs))
        for i, (up, down) in enumerate(zip(p.upmask, p.downmask)):
            both = up & down & ~(1 << i)
            if both:
                raise InputError(f"antisymmetry fails between {elems[i]!r} "
                                 f"and {elems[(both & -both).bit_length() - 1]!r}")
        return p

    @classmethod
    def _trusted(cls, elements: Iterable, upmask: tuple, downmask: tuple):
        """A poset from rows that already form an order, so only the
        labels are checked."""
        elems = tuple(elements)
        pos = {e: i for i, e in enumerate(elems)}
        if len(pos) != len(elems):
            raise InputError("poset labels must be unique")
        if len(upmask) != len(elems):
            raise InputError("up-set table does not match carrier")
        p = object.__new__(cls)
        object.__setattr__(p, "elements", elems)
        object.__setattr__(p, "upmask", upmask)
        object.__setattr__(p, "_pos", pos)
        object.__setattr__(p, "downmask", downmask)
        return p

    @classmethod
    def discrete(cls, elements: Iterable):
        """Each element only below itself: the up- and down-set rows are
        one tuple (268 MB on the 65,536 families of a neighbourhood
        collapse)."""
        elems = tuple(elements)
        ups = tuple(1 << i for i in range(len(elems)))
        return cls._trusted(elems, ups, ups)

    def relabel(self, elements: Iterable) -> "FinPoset":
        """The same order under new labels, one per element; it shares
        this poset's rows."""
        return FinPoset._trusted(elements, self.upmask, self.downmask)

    @classmethod
    def chain(cls, elements: Iterable):
        elems = tuple(elements)
        n = len(elems)
        return cls(elems, tuple((1 << n) - (1 << i) for i in range(n)))

    def __len__(self) -> int:
        return len(self.elements)

    def index(self, label) -> int:
        try:
            return self._pos[label]
        except (KeyError, TypeError):
            raise ValueError(f"{label!r} is not an element of the poset") from None

    def mask(self, labels: Iterable) -> int:
        """The bitmask of a set of element labels."""
        m = 0
        for label in labels:
            m |= 1 << self.index(label)
        return m

    def labels(self, mask: int) -> frozenset:
        """The set of element labels of a bitmask."""
        return frozenset(self.elements[j] for j in bits(mask))

    def leq(self, a, b) -> bool:
        return self.upmask[self.index(a)] >> self.index(b) & 1 == 1

    def leq_idx(self, i: int, j: int) -> bool:
        return self.upmask[i] >> j & 1 == 1

    def up_of(self, mask: int) -> int:
        """The bitmask of the up-closure of the elements in ``mask``."""
        out = 0
        for j in bits(mask):
            out |= self.upmask[j]
        return out

    def down_of(self, mask: int) -> int:
        """The bitmask of the down-closure of the elements in ``mask``."""
        out = 0
        for j in bits(mask):
            out |= self.downmask[j]
        return out

    @cached_property
    def refinement(self) -> tuple:
        """``(key, colours)``: the colour refinement of the elements.

        Every element starts coloured by the sizes of its up- and down-set;
        each round recolours it by its colour and by how many elements of
        each colour class its up-set and its down-set hold: the popcounts
        of its two rows against each class mask, the classes taken in
        colour order.  A multiset of colours is its count per colour, so
        this is the partition that sorting the colours of the up- and
        down-set would give.  The first round that splits no class ends
        the refinement.  Colours are numbered by sorted signature, so they
        do not depend on the labelling.  ``colours`` is the final colour
        of each index; ``key`` is the history, the sorted signatures of
        every round.  Isomorphic posets have equal keys, and an
        isomorphism maps each element to one of the same final colour.
        The history is needed: the final colour multiset alone takes only
        16 values on the 63 isomorphism types of 5-element posets and 32 on
        the 318 of 6, while the key takes 63 and 318.
        """
        ups, downs = self.upmask, self.downmask
        colours = [(u.bit_count(), d.bit_count()) for u, d in zip(ups, downs)]
        history = []
        while True:
            classes = {}
            for i, c in enumerate(colours):
                classes[c] = classes.get(c, 0) | 1 << i
            masks = [classes[c] for c in sorted(classes)]
            sig = [(c, tuple([(u & m).bit_count() for m in masks]),
                    tuple([(d & m).bit_count() for m in masks]))
                   for c, u, d in zip(colours, ups, downs)]
            history.append(tuple(sorted(sig)))
            canon = {s: k for k, s in enumerate(sorted(set(sig)))}
            new = [canon[s] for s in sig]
            if len(canon) == len(classes):
                return tuple(history), tuple(new)
            colours = new

    def cover_indices(self) -> list:
        """Cover pairs ``(i, j)`` by index, with element ``i`` below ``j``
        and nothing strictly between, in row order."""
        out = []
        downs = self.downmask
        for i, m in enumerate(self.upmask):
            strict = m & ~(1 << i)
            for j in bits(strict):
                if not strict & ~(1 << j) & downs[j]:
                    out.append((i, j))
        return out

    def covers(self) -> list:
        """Cover pairs (a, b) with a < b and nothing strictly between."""
        elems = self.elements
        return [(elems[i], elems[j]) for i, j in self.cover_indices()]


def unions(masks) -> list:
    """Entry ``k`` is the union of ``masks[j]`` over the bits ``j`` of
    ``k``, for every ``k`` below ``2 ** len(masks)``: a table built by
    doubling."""
    out = [0]
    for m in masks:
        out += [o | m for o in out]
    return out


def subset_closures(x: FinPoset) -> tuple:
    """``(up, down)``: the up- and down-closure masks of every subset of
    ``x``, indexed by the subset's mask."""
    return unions(x.upmask), unions(x.downmask)


def egli_milner_rows(x: FinPoset, closures: Optional[tuple] = None) -> tuple:
    """The Egli-Milner order on all subsets of ``x`` as successor masks
    over subset masks: ``a <= b`` iff every member of ``a`` lies below a
    member of ``b`` and every member of ``b`` above a member of ``a``, that
    is ``a`` is inside the down-closure of ``b`` and ``b`` inside the
    up-closure of ``a``.  ``closures`` is ``subset_closures(x)``, if known."""
    up, down = closures or subset_closures(x)
    rows = []
    for a, ua in enumerate(up):
        row = 0
        b = ua
        while True:  # the submasks b of ua
            if not a & ~down[b]:
                row |= 1 << b
            if not b:
                break
            b = (b - 1) & ua
        rows.append(row)
    return tuple(rows)


class MonotoneMap(Value, fields=("source", "target", "assignment")):
    """A monotone function between finite posets, stored by source index."""

    def __init__(self, source: FinPoset, target: FinPoset, assignment: tuple):
        if len(assignment) != len(source):
            raise InputError("assignment does not cover the source")
        f, target_up = assignment, target.upmask
        for i, ups in enumerate(source.upmask):
            above = target_up[f[i]]
            for j in bits(ups):
                if not above >> f[j] & 1:
                    raise InputError(
                        f"map not monotone at {source.elements[i]!r} "
                        f"<= {source.elements[j]!r}"
                    )
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "assignment", assignment)

    @classmethod
    def of_dict(cls, source: FinPoset, target: FinPoset, mapping: Mapping):
        assignment = tuple(target.index(mapping[e]) for e in source.elements)
        return cls(source, target, assignment)

    def then(self, other: "MonotoneMap") -> "MonotoneMap":
        """Composite ``other after self``."""
        if self.target is not other.source and self.target != other.source:
            raise InputError("maps do not compose")
        return MonotoneMap(self.source, other.target,
                           tuple(other.assignment[i] for i in self.assignment))


class Preorder(Value, fields=("carrier", "succ")):
    """A reflexive relation on an explicitly indexed carrier.

    Not necessarily transitive or antisymmetric; this is the raw material
    of quotient constructions.  ``succ[i]`` is the bitmask of the indices
    related to ``i``.
    """

    def __init__(self, carrier: tuple, succ: tuple):
        n = len(carrier)
        if len(succ) != n:
            raise InputError("successor table does not match carrier")
        for i, row in enumerate(succ):
            if not row >> i & 1:
                raise InputError("preorder must be reflexive")
        if any(row < 0 or row >> n for row in succ):
            raise InputError("relation index out of range")
        object.__setattr__(self, "carrier", carrier)
        object.__setattr__(self, "succ", succ)

    @property
    def rel(self) -> frozenset:
        """The relation as index pairs, derived from ``succ``."""
        return frozenset((i, j) for i, row in enumerate(self.succ) for j in bits(row))

    def is_transitive(self) -> bool:
        """Whether each row holds the rows of its members.  That depends
        only on the row's value, so each distinct row is checked once."""
        succ = self.succ
        return all(not succ[j] & ~row for row in set(succ) for j in bits(row))

    def is_antisymmetric(self) -> bool:
        succ = self.succ
        return all(not succ[j] >> i & 1
                   for i, row in enumerate(succ) for j in bits(row & ~(1 << i)))


def transitive_closure(r: Preorder) -> Preorder:
    """Smallest transitive relation containing ``r``; idempotent."""
    return Preorder(r.carrier, _close_rows(r.succ))


def poset_quotient(r: Preorder) -> tuple:
    """Quotient a reflexive transitive relation to a poset.

    Returns ``(poset, projection)`` where ``projection[i]`` is the index in
    the result of class ``[carrier[i]]``.  Classes of ``r & r^-1`` are
    labelled by their least-index member, so output is deterministic.
    """
    if not r.is_transitive():
        raise InputError("quotient requires a transitive relation")
    succ = r.succ
    projection = [-1] * len(succ)
    reps = []
    for i, row in enumerate(succ):
        if projection[i] < 0:
            for j in bits(row):
                if succ[j] >> i & 1:
                    projection[j] = len(reps)
            reps.append(i)
    ups = []
    for c in reps:
        up = 0
        for j in bits(succ[c]):
            up |= 1 << projection[j]
        ups.append(up)
    poset = FinPoset(tuple(r.carrier[c] for c in reps), tuple(ups))
    return poset, tuple(projection)


def cotensor2(x: FinPoset) -> tuple:
    """The poset of comparable pairs ``{(a, b) | a <= b}`` of ``x``.

    Ordered componentwise; returns ``(poset, first, second)`` with the two
    projection maps.  The diagonal ``a -> (a, a)`` is a common section of
    both projections (see :func:`diagonal_section`).
    """
    ups = x.upmask
    pairs = [(i, j) for i in range(len(x)) for j in bits(ups[i])]
    labels = tuple((x.elements[i], x.elements[j]) for i, j in pairs)
    # column masks: the pairs whose first (second) member is each element
    cols = ([0] * len(x), [0] * len(x))
    for k, pair in enumerate(pairs):
        for side, a in zip(cols, pair):
            side[a] |= 1 << k

    def spread(side, rows):  # the pairs with that member in each row
        return [reduce(or_, map(side.__getitem__, bits(row)), 0) for row in rows]

    # (a, b) is above (i, j) iff a is above i and b above j, and dually
    up1, up2 = (spread(side, ups) for side in cols)
    down1, down2 = (spread(side, x.downmask) for side in cols)
    poset = FinPoset._trusted(labels, tuple(up1[i] & up2[j] for i, j in pairs),
                              tuple(down1[i] & down2[j] for i, j in pairs))
    first = MonotoneMap(poset, x, tuple(i for i, _ in pairs))
    second = MonotoneMap(poset, x, tuple(j for _, j in pairs))
    return poset, first, second


def diagonal_section(x: FinPoset, xsq: FinPoset) -> MonotoneMap:
    return MonotoneMap.of_dict(x, xsq, {e: (e, e) for e in x.elements})


def connected_components(x: FinPoset) -> tuple:
    """Components of the comparability graph, by index.

    Returns ``(reps, comp)``: ``reps[c]`` is the least index of component
    ``c``, and ``comp[i]`` is the component of element ``i``, so ``comp``
    is the index assignment of the collapse onto the components.
    """
    comp = [-1] * len(x)
    reps = []
    for i in range(len(x)):
        if comp[i] != -1:
            continue
        reps.append(i)
        reach = frontier = 1 << i
        while frontier:
            step = x.up_of(frontier) | x.down_of(frontier)
            frontier = step & ~reach
            reach |= step
        for k in bits(reach):
            comp[k] = len(reps) - 1
    return tuple(reps), tuple(comp)


def poset_isomorphism(p: FinPoset, q: FinPoset) -> Optional[tuple]:
    """An order isomorphism ``p -> q`` as an index assignment (element
    ``i`` of ``p`` goes to element ``iso[i]`` of ``q``), or None.

    The refinement keys propose (see :attr:`FinPoset.refinement`): posets
    with different keys are not isomorphic.  For equal keys a backtracking
    search confirms, mapping each element to an unused one of the same
    final colour and checking order both ways against every element
    placed so far, so every answer is exact.  Both posets keep their
    refinement, so repeated calls on the same posets pay only the search.
    """
    n = len(p)
    if n != len(q):
        return None
    (pkey, cp), (qkey, cq) = p.refinement, q.refinement
    if pkey != qkey:
        return None
    candidates = [[j for j in range(n) if cq[j] == cp[i]] for i in range(n)]
    pu, qu = p.upmask, q.upmask
    order = sorted(range(n), key=lambda i: len(candidates[i]))
    placed = []  # the pairs (i, j) assigned so far, in search order
    used = [False] * n

    def extend(k: int) -> bool:
        if k == n:
            return True
        i = order[k]
        for j in candidates[i]:
            if used[j]:
                continue
            ok = True
            for i2, j2 in placed:
                if (pu[i] >> i2 & 1) != (qu[j] >> j2 & 1) or \
                        (pu[i2] >> i & 1) != (qu[j2] >> j & 1):
                    ok = False
                    break
            if ok:
                placed.append((i, j))
                used[j] = True
                if extend(k + 1):
                    return True
                placed.pop()
                used[j] = False
        return False

    return tuple(j for _, j in sorted(placed)) if extend(0) else None


def _down_closed(ups: tuple) -> list:
    """The down-closed sets of the order with up-set rows ``ups``, as
    masks in increasing order."""
    downs = [0] * len(ups)
    for i, row in enumerate(ups):
        for j in bits(row):
            downs[j] |= 1 << i
    return [d for d, c in enumerate(unions(downs)) if c == d]


def _sweep_index(ups: tuple) -> int:
    """The off-diagonal relation as one mask: bit ``b`` for the ``b``-th
    pair ``(i, j)``, ``i != j``, in row-major order."""
    width = len(ups) - 1
    out = 0
    for i, row in enumerate(ups):
        out |= (row & ((1 << i) - 1) | row >> (i + 1) << i) << (i * width)
    return out


def enumerate_posets(labels: tuple) -> Iterator[FinPoset]:
    """All partial orders on the given labels, ordered by their
    off-diagonal relation mask (see :func:`_sweep_index`).

    The posets are built by extension: a poset on the first ``k + 1``
    labels is one on the first ``k`` plus element ``k`` with a down-set
    ``D`` below it and an up-set ``U`` above it, where ``D`` and ``U`` are
    disjoint and every member of ``D`` lies below every member of ``U``.
    Each poset arises once.  There are 1, 1, 3, 19, 219, 4,231 and 130,023
    posets on 0 to 6 labels; 5 labels take some tens of milliseconds.
    """
    layer = [()]
    for k in range(len(labels)):
        grown = []
        for ups in layer:
            upsets = [m for m, c in enumerate(unions(ups)) if c == m]
            bit = 1 << k
            for d in _down_closed(ups):
                allowed = (bit - 1) & ~d
                for i in bits(d):
                    allowed &= ups[i]
                below = tuple(row | bit if d >> i & 1 else row
                              for i, row in enumerate(ups))
                for u in upsets:
                    if not u & ~allowed:
                        grown.append(below + (bit | u,))
        layer = grown
    for ups in sorted(layer, key=_sweep_index):
        yield FinPoset(labels, ups)


def _from_sweep_index(n: int, key: int) -> tuple:
    """The up-set rows on ``n`` elements whose :func:`_sweep_index` is
    ``key``."""
    ups = [1 << i for i in range(n)]
    for b in bits(key):
        i, j = divmod(b, n - 1)
        ups[i] |= 1 << (j + (j >= i))
    return tuple(ups)


def enumerate_poset_types(labels: tuple) -> Iterator[FinPoset]:
    """The first poset of each isomorphism type in
    :func:`enumerate_posets` order, in that order.

    The first of a type is its relabelling with the least
    :func:`_sweep_index`, its canonical form.  The types are grown by
    extension: every poset on ``k + 1`` elements is one on ``k`` elements
    plus a new maximal element above a down-closed set of it, so the types
    on ``k + 1`` elements are the canonical forms of the types on ``k``
    extended above each of their down-closed sets.  No isomorphism search
    is needed.  There are 1, 1, 2, 5, 16, 63 and 318 types on 0 to 6
    labels; 5 labels take a few milliseconds, 6 about 0.2 s.
    """
    layer = [()]
    for k in range(len(labels)):
        n = k + 1
        # entry i*n+j for each relabelling p: the sweep bit that pair
        # (i, j) moves to under p, 0 on the diagonal
        places = [tuple(0 if p[i] == p[j] else
                        1 << (p[i] * k + p[j] - (p[j] > p[i]))
                        for i in range(n) for j in range(n))
                  for p in permutations(range(n))]
        keys = set()
        for ups in layer:
            pairs = [i * n + j for i, row in enumerate(ups) for j in bits(row) if i != j]
            for d in _down_closed(ups):
                grown = pairs + [i * n + k for i in bits(d)]
                keys.add(min(sum(map(place.__getitem__, grown)) for place in places))
        layer = [_from_sweep_index(n, key) for key in sorted(keys)]
    for ups in layer:
        yield FinPoset(labels, ups)
