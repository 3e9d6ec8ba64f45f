"""Dead-code guard: every function, class and method defined in the package
is named somewhere besides its own definition, in the package's modules
or in the benchmark harness.  A re-export from ``__init__`` is not a use,
nor is a test.  The search is by word, so a definition named by a word
that occurs everywhere cannot be checked this way; it must be listed, with
its reason, in ``EXEMPT``."""

import ast
import re
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "poslog").glob("*.py") if p.name != "__init__.py")

# Words that name a definition of the package but are also the names of
# variables, parameters, attributes and methods of other types, so that a
# search by word always finds them: a definition with one of these names
# would never count as unused.  Each such definition must be listed in
# EXEMPT instead, with the reason it stays.
UNRESOLVABLE = {"apply", "image", "table", "members", "is_member"}

# "module:qualified name" -> the reason the definition stays although the
# word search cannot show it used.  Dunder methods are called by the
# interpreter and need no entry.
EXEMPT = {
    "algebra:BAHom.apply": "maps an element through a boolean algebra hom: "
                           "ba_inserter, the inserter's membership test in positivize, "
                           "and the algebra checks of verify",
    "algebra:LatticeHom.apply": "maps an up-set through a lattice hom: the unit and the "
                                "lifted hom in positivize, the duality checks of verify",
    "positivize:Positivication.is_member": "the inserter's membership test, handed to "
                                            "DeltaPrime by delta_prime and run by verify",
    "semantics:DeltaPow.apply": "the boolean semantic component, run by delta_prime's "
                                "image on each member",
    "semantics:DeltaPrime.apply": "the lifted semantic component, run by "
                                  "interpret_positive's delta route and by verify",
    "semantics:delta_prime.image": "the transfer that DeltaPrime.apply runs on a member "
                                   "it has not met",
}


def _uses() -> dict:
    """Each word of the searched files -> the ``(file, line)`` pairs where
    it occurs other than as the name after ``def`` or ``class``."""
    uses = defaultdict(list)
    for path in MODULES + sorted((ROOT / "perfbench").rglob("*.py")):
        for k, line in enumerate(path.read_text().splitlines(), 1):
            for defined, word in re.findall(r"\b(def |class )?([A-Za-z_]\w*)", line):
                if not defined:
                    uses[word].append((path, k))
    return uses


USES = _uses()


def _definitions(node, prefix: str = ""):
    """``(qualified name, node)`` for each function and class under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield prefix + child.name, child
            yield from _definitions(child, prefix + child.name + ".")
        else:
            yield from _definitions(child, prefix)


DEFINITIONS = [(f"{module.stem}:{qualname}", module, node) for module in MODULES
               for qualname, node in _definitions(ast.parse(module.read_text()))]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.stem)
def test_every_definition_is_used(module):
    unused, unlisted = [], []
    for key, defined_in, node in DEFINITIONS:
        name = node.name
        if defined_in != module or name.startswith("__") and name.endswith("__") \
                or key in EXEMPT:
            continue
        if name in UNRESOLVABLE:
            unlisted.append(f"{module.name}:{node.lineno} {key}")
        elif all(path == module and node.lineno <= k <= node.end_lineno
                 for path, k in USES[name]):
            unused.append(f"{module.name}:{node.lineno} {name}")
    assert not unused, unused
    assert not unlisted, f"a word search cannot show these used; list them in EXEMPT: {unlisted}"


def test_every_exemption_names_a_definition():
    assert not set(EXEMPT) - {key for key, _, _ in DEFINITIONS}
