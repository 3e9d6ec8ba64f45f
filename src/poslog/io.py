"""JSON formats and Graphviz export.

Poset JSON may omit reflexive and transitive pairs; they are completed on
load.  DOT output draws the Hasse diagram only (cover relation) and is
deterministic byte for byte for a fixed input.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote
from typing import Any

from .algebra import FinBoolAlg, FinDistLattice, boolean_as_lattice, up_algebra
from .errors import InputError
from .order import FinPoset, bits
from .semantics import Coalgebra


def _labels(values: list, what: str) -> list:
    """Labels must be JSON scalars: lists and objects cannot be hashed."""
    for v in values:
        if isinstance(v, (list, dict)):
            raise InputError(f"{what} must be strings or numbers, not {v!r}")
    return values


def load_poset(data: Any) -> FinPoset:
    if not isinstance(data, dict) or "elements" not in data:
        raise InputError("poset JSON needs an 'elements' list")
    elements = data["elements"]
    if not isinstance(elements, list):
        raise InputError("'elements' must be a list")
    pairs = data.get("leq", [])
    if not isinstance(pairs, list) or \
            any(not isinstance(p, list) or len(p) != 2 for p in pairs):
        raise InputError("'leq' must be a list of [a, b] pairs")
    _labels(elements + [v for p in pairs for v in p], "poset labels")
    return FinPoset.from_pairs(elements, [tuple(p) for p in pairs],
                               complete=True)


def _name(label, memo: dict) -> str:
    """The text of a label: ``str``, except that ``True``, ``False`` and
    ``None`` print as their JSON text, a frozenset as ``{...}`` with its
    members sorted by their text and a tuple as ``(...)`` with its members
    in order.  The text of each frozenset object is kept in ``memo`` under
    its id."""
    if isinstance(label, frozenset):
        text = memo.get(id(label))
        if text is None:
            text = memo[id(label)] = "{" + ",".join(sorted(
                [v if v.__class__ is str else _name(v, memo) for v in label])) + "}"
        return text
    if isinstance(label, tuple):
        return "(" + ",".join(
            [v if v.__class__ is str else _name(v, memo) for v in label]) + ")"
    if label is None or label.__class__ is bool:
        return json_text(label)
    return str(label)


def render_poset(p: FinPoset) -> tuple:
    """``(names, covers)``: :func:`format_label` of each element, in
    carrier order, and the pairs of :meth:`FinPoset.covers` as name pairs,
    in the same order.  Each element is formatted once.  So is each
    frozenset object inside the labels, such as the subsets that the
    families of a neighbourhood carrier share; the memo lives for this
    call only.  Tuples are formatted where they occur: the multisets and
    terms of a carrier are built fresh for each label."""
    memo = {}
    names = [_name(e, memo) for e in p.elements]
    return names, [[names[i], names[j]] for i, j in p.cover_indices()]


def poset_to_dict(p: FinPoset) -> dict:
    names, covers = render_poset(p)
    return {"elements": names, "leq": covers}


def load_lattice(data: Any):
    if not isinstance(data, dict) or "type" not in data:
        raise InputError("lattice JSON needs a 'type' of 'dl' or 'ba'")
    kind = data["type"]
    if kind == "dl":
        if "spectrum" not in data:
            raise InputError("'dl' lattice JSON needs a 'spectrum' poset")
        return up_algebra(load_poset(data["spectrum"]))
    if kind == "ba":
        atoms = data.get("atoms")
        if not isinstance(atoms, list):
            raise InputError("'ba' lattice JSON needs an 'atoms' list")
        return FinBoolAlg(atoms=tuple(_labels(atoms, "atoms")))
    raise InputError(f"unknown lattice type {kind!r}")


def as_lattice(obj) -> FinDistLattice:
    return boolean_as_lattice(obj) if isinstance(obj, FinBoolAlg) else obj


def load_coalgebra(data: Any) -> Coalgebra:
    if not isinstance(data, dict) or "carrier" not in data or \
            "structure" not in data:
        raise InputError("coalgebra JSON needs 'carrier' and 'structure'")
    carrier = data["carrier"]
    if isinstance(carrier, list):
        poset = FinPoset.discrete(_labels(carrier, "carrier states"))
    else:
        poset = load_poset(carrier)
    structure = data["structure"]
    if not isinstance(structure, dict):
        raise InputError("'structure' must map states to successor lists")
    for x, states in structure.items():
        if not isinstance(states, list):
            raise InputError(f"successors of {x!r} must be a list of states")
        _labels(states, f"successors of {x!r}")
    succ, owner = [], {}  # the state of each structure key met so far
    for x in poset.elements:
        # JSON object keys are strings: a state that is not has its JSON text
        key = x if isinstance(x, str) else json.dumps(x)
        if key in owner:
            raise InputError(f"states {owner[key]!r} and {x!r} share the "
                             f"structure key {key!r}")
        owner[key] = x
        if key not in structure:
            raise InputError(f"structure map undefined at {x!r}")
        try:
            succ.append(poset.mask(structure[key]))
        except ValueError:
            raise InputError(f"successors of {x!r} leave the carrier") from None
    return Coalgebra(poset, tuple(succ))


def load_valuation(data: Any) -> dict:
    if not isinstance(data, dict):
        raise InputError("valuation JSON must map variables to state lists")
    out = {}
    for name, states in data.items():
        if not isinstance(states, list):
            raise InputError(f"valuation of {name!r} must be a list")
        out[name] = frozenset(_labels(states, f"states of {name!r}"))
    return out


def json_text(value, indent: str = "\n") -> str:
    """The text of ``json.dumps(value, indent=2, sort_keys=True)``, built
    with the C string escaper and ``str.join``: with ``indent`` set,
    ``json.dumps`` runs its pure-Python encoder.  Dict keys must be
    strings; a scalar other than a string, bool, None or int goes to
    ``json.dumps``.  ``indent`` is the newline and indentation that come
    before a closing bracket of ``value``.  A value held under several
    keys of one dict, such as a report shared by two routes, is written
    once."""
    if value.__class__ is str:
        return _quote(value)
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join(
            [_quote(v) if v.__class__ is str else json_text(v, inner)
             for v in value]) + indent + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        texts, parts = {}, []  # id of a value -> its text
        for k in sorted(value):
            v = value[k]
            text = texts.get(id(v))
            if text is None:
                text = texts[id(v)] = json_text(v, inner)
            parts.append(_quote(k) + ": " + text)
        return "{" + inner + ("," + inner).join(parts) + indent + "}"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    return json.dumps(value)


def read_json(path: str) -> Any:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def format_label(label) -> str:
    """Human-readable, deterministic rendering of nested set labels."""
    return _name(label, {})


def _dot_lines(elements, covers, title) -> str:
    names = {e: f"n{k}" for k, e in enumerate(elements)}
    lines = ["digraph hasse {"]
    if title:
        lines.append(f'  label="{title}";')
    lines.append("  rankdir=BT;")
    lines.append('  node [shape=box, fontsize=10];')
    for e in elements:
        lines.append(f'  {names[e]} [label="{format_label(e)}"];')
    for a, b in covers:
        lines.append(f"  {names[a]} -> {names[b]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def poset_dot(p: FinPoset, title: str = "") -> str:
    return _dot_lines(p.elements, p.covers(), title)


def lattice_dot(lat: FinDistLattice, title: str = "") -> str:
    """Hasse diagram of the element order of a lattice, read off the
    spectrum: an upset is covered by the upsets that add one element to
    it, a maximal element of its complement."""
    x, elems = lat.spectrum, lat.carrier()
    labels = {u: x.labels(u) for u in elems}
    covers = [(labels[u], labels[u | 1 << j]) for u in elems
              for j in bits(lat.top & ~u) if not x.upmask[j] & ~u & ~(1 << j)]
    return _dot_lines(tuple(labels.values()), covers, title)
