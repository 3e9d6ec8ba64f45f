"""Seeded request streams for the poslog benchmark.

Each workload is a list of CLI requests built from a seed.  A request is a
plain dict:

``id``      unique name within the stream, e.g. ``posetify-mix/017``
``argv``    arguments for ``poslog.cli.main``; an argument ``@name`` stands
            for the path of the input file ``name`` and is resolved by the
            runner once the files are written
``files``   input file name -> file text
``expect``  ``"answer"`` for a well-formed input, ``"malformed"`` for an
            input built to be rejected with exit code 3
``check``   what an exit-0 answer must satisfy (see ``outcomes.py``)
``note``    one line naming the input, printed when the request fails

Every stream is a fixed sequence of (shape, verb) pairs, so that streams
from different seeds cost about the same; the seed picks the labels, the
element order and the pairs listed in the JSON, and the coalgebras and
formulas of interpret-stream.  The oracles in ``check`` are computed here
from the shapes alone, independently of the program.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
import string

# Two-letter state labels: fixed length keeps output sizes equal across seeds.
LABELS = tuple(a + b for a in string.ascii_lowercase for b in string.ascii_lowercase)

# CPU seconds after which a request has failed.  The slowest passing
# request takes 0.3-0.5 s, depending on how busy the host is; the generic
# route alone of the deadline defect in posetify-mix takes about 3 s.
DEADLINE_CPU_S = 4.0

# The verify suites of verify-quick and the number of checks each registers:
# the two that take under a second.  The others take 1-2 s (positivize),
# 2.6-4 s (semantics, 3 s of it in one check) and about 22 s (posetify),
# too long to time steadily on a host whose speed changes every few seconds.
VERIFY_SUITES = {"order": 4, "algebra": 9}


# ------------------------------------------------------------------ shapes

class Shape:
    """A finite partial order on ``0..n-1`` given by its strict pairs."""

    def __init__(self, n: int, strict, name: str):
        self.n = n
        self.strict = frozenset(strict)
        self.name = name

    def leq(self, i: int, j: int) -> bool:
        return i == j or (i, j) in self.strict

    def covers(self) -> list:
        return sorted((i, j) for i, j in self.strict
                      if not any((i, k) in self.strict and (k, j) in self.strict
                                 for k in range(self.n)))

    def components(self) -> int:
        comp = list(range(self.n))

        def find(i):
            while comp[i] != i:
                i = comp[i]
            return i

        for i, j in self.strict:
            comp[find(i)] = find(j)
        return len({find(i) for i in range(self.n)})

    def convex_subsets(self) -> int:
        count = 0
        for mask in range(1 << self.n):
            members = [i for i in range(self.n) if mask >> i & 1]
            if all(mask >> c & 1 for a in members for b in members
                   for c in range(self.n) if self.leq(a, c) and self.leq(c, b)):
                count += 1
        return count

    def upsets(self) -> list:
        out = []
        for mask in range(1 << self.n):
            s = frozenset(i for i in range(self.n) if mask >> i & 1)
            if all(j in s for i in s for j in range(self.n) if self.leq(i, j)):
                out.append(s)
        return out


def _close(n: int, pairs) -> frozenset:
    up = [{i} | {j for a, j in pairs if a == i} for i in range(n)]
    changed = True
    while changed:
        changed = False
        for i in range(n):
            grown = set().union(*(up[j] for j in up[i]))
            if grown != up[i]:
                up[i] = grown
                changed = True
    return frozenset((i, j) for i in range(n) for j in up[i] if i != j)


def _canonical(n: int, strict: frozenset) -> tuple:
    return min(tuple(sorted((p[i], p[j]) for i, j in strict))
               for p in itertools.permutations(range(n)))


_SHAPES: dict = {}


def shapes(n: int) -> list:
    """Every partial order on ``n <= 4`` points up to isomorphism, ordered
    by number of strict pairs, then by canonical form."""
    if n not in _SHAPES:
        upper = [(i, j) for i in range(n) for j in range(i + 1, n)]
        canon = {_canonical(n, _close(n, [p for b, p in enumerate(upper)
                                          if mask >> b & 1]))
                 for mask in range(1 << len(upper))}
        _SHAPES[n] = [Shape(n, c, f"{n}.{k}")
                      for k, c in enumerate(sorted(canon, key=lambda c: (len(c), c)))]
    return _SHAPES[n]


def _five(name: str, covers) -> Shape:
    return Shape(5, _close(5, covers), name)


FIVE = (_five("5.diamond+1", [(0, 1), (0, 2), (1, 3), (2, 3)]),
        _five("5.V+chain2", [(0, 1), (0, 2), (3, 4)]),
        _five("5.fence", [(0, 1), (2, 1), (2, 3), (4, 3)]))


# ----------------------------------------------------------------- streams

class _Stream:
    def __init__(self, workload: str, seed: int):
        self.prefix = workload
        self.rng = random.Random(f"{workload}:{seed}")
        self.requests: list = []

    def labels(self, n: int) -> list:
        return self.rng.sample(LABELS, n)

    def poset(self, shape: Shape, labels: list) -> dict:
        """Poset JSON with shuffled elements and the cover pairs plus a
        random share of the implied pairs, which the loader completes."""
        order = list(range(shape.n))
        self.rng.shuffle(order)
        covers = shape.covers()
        pairs = covers + [p for p in sorted(shape.strict)
                          if p not in covers and self.rng.random() < 0.3]
        self.rng.shuffle(pairs)
        return {"elements": [labels[i] for i in order],
                "leq": [[labels[i], labels[j]] for i, j in pairs]}

    def add(self, argv, files, check, note, expect="answer") -> None:
        self.requests.append({
            "argv": argv, "expect": expect, "check": check, "note": note,
            "files": {k: v if isinstance(v, str) else json.dumps(v)
                      for k, v in files.items()}})

    def finish(self, shuffle: bool = True) -> list:
        if shuffle:
            # One interleaving for every seed, so that streams from different
            # seeds also allocate, and collect garbage, in the same order.
            random.Random(self.prefix).shuffle(self.requests)
        for k, req in enumerate(self.requests):
            req["id"] = f"{self.prefix}/{k:03d}"
            # file names are made unique per stream position
            renamed = {f"{k:03d}-{name}": text for name, text in req["files"].items()}
            req["argv"] = ["@" + f"{k:03d}-" + a[1:] if a.startswith("@") else a
                           for a in req["argv"]]
            req["files"] = renamed
        return self.requests


def _functor_size(fn: str, shape: Shape):
    """Size of the lifted poset, where a closed count is known."""
    n = shape.n
    if fn == "pow":
        return shape.convex_subsets()
    if fn == "nb":
        return 1 << (1 << shape.components())
    if fn.startswith("bag:"):
        return math.comb(n + int(fn[4:]), n)
    if fn.startswith("poly:sigma="):
        return sum(int(c) * n ** int(a) for _, a, c in
                   (e.split(":") for e in fn[len("poly:sigma="):].split(",")))
    return None


POLY = "poly:sigma=f:2:1,c:0:2"

# mnb and nb in posetify-mix run on 3-element posets, where they take
# 2-35 ms.  On 4-element posets they take 0.2-2.7 s, too long to time
# steadily on a host whose speed changes every few seconds, except for one
# refusal that is paid for after enumerating 65,536 families (0.3-0.5 s).
# By index in shapes(3): ``mnb --method both`` takes about 1 s on the other two.
MNB_BOTH = (0, 1, 4)
NB_REFUSED_FOUR = 10  # index in shapes(4)


def _posetify(s: _Stream, fn: str, shape: Shape, method: str, extra=()) -> None:
    size = _functor_size(fn, shape)
    s.add(["posetify", "--functor", fn, "--poset", "@poset.json",
           "--method", method, *extra],
          {"poset.json": s.poset(shape, s.labels(shape.n))},
          {"kind": "posetify", "size": size,
           "group": f"{fn}|{shape.name}"},
          " ".join([f"posetify {fn} --method {method}", *extra, f"on shape {shape.name}"]))


def posetify_mix(seed: int) -> list:
    s = _Stream("posetify-mix", seed)
    s3, s4 = shapes(3), shapes(4)
    for k, shape in enumerate(s4):
        for fn in ("pow", "bag:3", POLY):
            for method in ("both", "closed") if k % 2 == 0 else ("both",):
                _posetify(s, fn, shape, method)
    for k in MNB_BOTH:
        _posetify(s, "mnb", s3[k], "both")
    for shape in s3:
        _posetify(s, "mnb", shape, "closed")
        _posetify(s, "nb", shape, "closed")
    for shape in s3[2:]:  # refused before enumerating: too many comparable pairs
        _posetify(s, "nb", shape, "both")
    # refused only after enumerating all 65,536 families
    _posetify(s, "nb", s4[NB_REFUSED_FOUR], "both")
    # Known defect: the order loop of the cross-check on 65,536 families.
    _posetify(s, "nb", s4[0], "both")
    for shape in FIVE:
        _posetify(s, "pow", shape, "both")
    # Under this budget the 2^10 subsets of the chain's comparable pairs are
    # not enumerated: the powerset's closed-form step relation is used.
    _posetify(s, "pow", s4[15], "both", ("--max-enum", "512"))
    good = s.poset(s4[3], s.labels(4))
    a, b = s.labels(2)
    malformed = (
        ("unknown functor", "powset", good),
        ("bad bag degree", "bag:x", good),
        # known defect: a non-numeric arity raises ValueError
        ("non-numeric poly arity", "poly:sigma=f:x:1", good),
        # known defect: unhashable labels raise TypeError
        ("list labels", "pow", {"elements": [[1], [2]], "leq": []}),
        ("cyclic order", "pow", {"elements": [a, b], "leq": [[a, b], [b, a]]}),
        ("unknown element in leq", "pow", {"elements": [a], "leq": [[a, b]]}),
        ("not JSON", "pow", "{\"elements\": [" + a),
        ("missing elements", "pow", {"leq": []}),
    )
    for note, fn, poset in malformed:
        s.add(["posetify", "--functor", fn, "--poset", "@poset.json"],
              {"poset.json": poset}, {"kind": "posetify"},
              f"malformed: {note}", expect="malformed")
    s.add(["posetify", "--functor", "pow", "--poset", "@poset.json",
           "--method", "fast"], {"poset.json": good}, {"kind": "posetify"},
          "malformed: unknown method", expect="malformed")
    return s.finish()


def _lattice(s: _Stream, shape: Shape) -> dict:
    return {"type": "dl", "spectrum": s.poset(shape, s.labels(shape.n))}


def _positivize(s: _Stream, syntax: str, shape: Shape) -> None:
    s.add(["positivize", "--syntax", syntax, "--lattice", "@lattice.json",
           "--check-closed-form"],
          {"lattice.json": _lattice(s, shape)},
          {"kind": "positivize", "group": f"{syntax}|{shape.name}"},
          f"positivize {syntax} on spectrum shape {shape.name}")


# 4-element spectra of positivize-mix, by index in shapes(4): one of the
# three that are refused (0.16 s) and two answered ones (0.2 s).  The other
# thirteen take 0.2-1.7 s each, and ``free`` on the 2-element antichain
# 0.9 s; so many long requests could not be timed steadily on a host whose
# speed changes every few seconds.
DUNN_FOUR = (3, 12, 15)


def positivize_mix(seed: int) -> list:
    s = _Stream("positivize-mix", seed)
    small = [sh for n in range(4) for sh in shapes(n)]
    for k in DUNN_FOUR:
        _positivize(s, "dunn", shapes(4)[k])
    _positivize(s, "free", shapes(2)[1])
    for shape in small:
        for _ in range(8):
            _positivize(s, "dunn", shape)
    for shape in small[:2]:
        for _ in range(4):
            _positivize(s, "free", shape)
    for k, shape in enumerate(small[1:] + shapes(4)[::3]):
        if k < 3:
            data = {"type": "ba", "atoms": s.labels(shape.n)}
            size = 1 << shape.n
            note = f"dualize boolean algebra with {shape.n} atoms"
        else:
            data = _lattice(s, shape)
            size = len(shape.upsets())
            note = f"dualize lattice on spectrum shape {shape.name}"
        s.add(["dualize", "--lattice", "@lattice.json"], {"lattice.json": data},
              {"kind": "dualize", "lattice_size": size, "spectrum_size": shape.n},
              note)
    a, b = s.labels(2)
    malformed = (
        ("unknown lattice type", "dunn", {"type": "dx"}),
        ("dl without spectrum", "dunn", {"type": "dl"}),
        ("atoms not a list", "free", {"type": "ba", "atoms": a}),
        ("cyclic spectrum", "dunn",
         {"type": "dl", "spectrum": {"elements": [a, b], "leq": [[a, b], [b, a]]}}),
        ("unknown syntax", "modal", _lattice(s, shapes(2)[1])),
    )
    for note, syntax, data in malformed:
        s.add(["positivize", "--syntax", syntax, "--lattice", "@lattice.json",
               "--check-closed-form"], {"lattice.json": data},
              {"kind": "positivize"}, f"malformed: {note}", expect="malformed")
    return s.finish()


# ---------------------------------------------------------------- semantics

def _convex_sets(shape: Shape) -> list:
    out = []
    for mask in range(1 << shape.n):
        s = frozenset(i for i in range(shape.n) if mask >> i & 1)
        if all(c in s for a in s for b in s for c in range(shape.n)
               if shape.leq(a, c) and shape.leq(c, b)):
            out.append(s)
    return out


def _em_leq(shape: Shape, a: frozenset, b: frozenset) -> bool:
    return all(any(shape.leq(x, y) for y in b) for x in a) and \
        all(any(shape.leq(x, y) for x in a) for y in b)


def monotone_structure(rng: random.Random, shape: Shape) -> dict:
    """A random map from points to convex sets, monotone for the
    Egli-Milner order, found by bounded backtracking."""
    convex = _convex_sets(shape)
    gamma: dict = {}

    def fits(x, c) -> bool:
        return all(_em_leq(shape, g, c) for y, g in gamma.items() if shape.leq(y, x)) \
            and all(_em_leq(shape, c, g) for y, g in gamma.items() if shape.leq(x, y))

    def assign(x: int) -> bool:
        if x == shape.n:
            return True
        cands = [c for c in convex if fits(x, c)]
        rng.shuffle(cands)
        for c in cands[:3]:
            gamma[x] = c
            if assign(x + 1):
                return True
            del gamma[x]
        return False

    if not assign(0):
        gamma = {x: convex[-1] for x in range(shape.n)}
    return gamma


def random_formula(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.25:
        return rng.choice((("var", "p"), ("var", "q"), ("var", "p"),
                           ("var", "q"), ("top",), ("bot",)))
    op = rng.choice(("and", "or", "box", "dia", "box", "dia"))
    if op in ("box", "dia"):
        return (op, random_formula(rng, depth - 1))
    return (op, random_formula(rng, depth - 1), random_formula(rng, depth - 1))


def render(f) -> str:
    if f[0] == "var":
        return f[1]
    if len(f) == 1:
        return f[0]
    return "(" + " ".join([f[0]] + [render(g) for g in f[1:]]) + ")"


def satisfying(shape: Shape, gamma: dict, val: dict, f) -> frozenset:
    """Direct one-step semantics: diamond meets, box is contained in."""
    everything = frozenset(range(shape.n))
    op = f[0]
    if op == "var":
        return val[f[1]]
    if op == "top":
        return everything
    if op == "bot":
        return frozenset()
    if op in ("and", "or"):
        a = satisfying(shape, gamma, val, f[1])
        b = satisfying(shape, gamma, val, f[2])
        return a & b if op == "and" else a | b
    u = satisfying(shape, gamma, val, f[1])
    if op == "dia":
        return frozenset(x for x in everything if gamma[x] & u)
    return frozenset(x for x in everything if gamma[x] <= u)


MALFORMED_FORMULAS = ("(dia p", "(and p)", "(foo p q)", "(box p q)", "p q",
                      "(not p)", "(or p r)", ")", "(dia)", "")

# 4-element carriers of interpret-stream, by index in shapes(4): one whose
# first request builds the lifted semantic component, one that is refused.
INTERPRET_BIG = (12,)
INTERPRET_REFUSED = 2


def interpret_stream(seed: int) -> list:
    s = _Stream("interpret-stream", seed)
    rng = s.rng
    carriers = []

    def carrier(shape: Shape, uses: int, refused: bool = False) -> None:
        labels = s.labels(shape.n)
        gamma = monotone_structure(rng, shape)
        ups = shape.upsets()
        val = {"p": rng.choice(ups), "q": rng.choice(ups)}
        discrete = not shape.strict
        body = [labels[i] for i in rng.sample(range(shape.n), shape.n)] \
            if discrete and rng.random() < 0.5 else s.poset(shape, labels)
        files = {
            "coalgebra.json": json.dumps({
                "carrier": body,
                "structure": {labels[x]: sorted(labels[y] for y in gamma[x])
                              for x in range(shape.n)}}),
            "valuation.json": json.dumps({v: sorted(labels[i] for i in u)
                                          for v, u in val.items()}),
        }
        carriers.append((shape, labels, gamma, val, files))
        for _ in range(uses):
            f = random_formula(rng, 3)
            want = satisfying(shape, gamma, val, f)
            s.add(["interpret", "--coalgebra", "@coalgebra.json",
                   "--valuation", "@valuation.json", "--formula", render(f),
                   "--mode", "both"], files,
                  {"kind": "interpret", "satisfying": sorted(labels[i] for i in want),
                   "boolean": discrete},
                  f"interpret {render(f)} on carrier shape {shape.name}"
                  + (" (refused)" if refused else ""))

    small = [sh for n in (1, 2, 3) for sh in shapes(n)]
    for shape in small:
        for _ in range(4):
            carrier(shape, 5)
    for k in INTERPRET_BIG:
        carrier(shapes(4)[k], 8)
    carrier(shapes(4)[INTERPRET_REFUSED], 2, refused=True)
    for text in MALFORMED_FORMULAS:
        shape, _, _, _, files = rng.choice(carriers[:len(small) * 4])
        s.add(["interpret", "--coalgebra", "@coalgebra.json",
               "--valuation", "@valuation.json", "--formula", text,
               "--mode", "both"], files, {"kind": "interpret"},
              f"malformed formula {text!r}", expect="malformed")
    order = random.Random(s.prefix)
    order.shuffle(s.requests)
    for _ in range(11):
        i = order.randrange(len(s.requests) - 1)
        copy = dict(s.requests[i])
        s.requests.insert(order.randrange(i + 1, len(s.requests) + 1), copy)
    return s.finish(shuffle=False)


def verify_quick(seed: int) -> list:
    """``verify --suite <name>`` for each suite of ``VERIFY_SUITES``, one
    request per suite, in one process.  The suites take no input, so the
    seed changes nothing here."""
    s = _Stream("verify-quick", seed)
    for suite, checks in VERIFY_SUITES.items():
        s.add(["verify", "--suite", suite], {}, {"kind": "verify", "checks": checks},
              f"verify --suite {suite}")
    return s.finish(shuffle=False)


STREAMS = {"posetify-mix": posetify_mix, "positivize-mix": positivize_mix,
           "interpret-stream": interpret_stream, "verify-quick": verify_quick}
WORKLOADS = tuple(STREAMS)


def build(workload: str, seed: int) -> list:
    return STREAMS[workload](seed)


def digest(requests: list) -> str:
    """Digest of a request list, independent of where files are written."""
    text = json.dumps([[r["argv"], r["files"], r["expect"]] for r in requests],
                      sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]
