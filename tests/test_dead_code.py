"""Dead-code guard: every function, class and method defined in the package
is named somewhere besides its own definition, in the package's modules
or in the benchmark harness.  A re-export from ``__init__`` is not a use,
nor is a test."""

import ast
import re
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "poslog").glob("*.py") if p.name != "__init__.py")

# name -> the reason it may stay unnamed.  Dunder methods are called by the
# interpreter and need no entry.
EXEMPT = {}


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


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.stem)
def test_every_definition_is_used(module):
    unused = []
    for node in ast.walk(ast.parse(module.read_text())):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        name = node.name
        if name.startswith("__") and name.endswith("__") or name in EXEMPT:
            continue
        if all(path == module and node.lineno <= k <= node.end_lineno
               for path, k in USES[name]):
            unused.append(f"{module.name}:{node.lineno} {name}")
    assert not unused, unused
