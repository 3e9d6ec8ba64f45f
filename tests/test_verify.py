"""The failing side of the registered checks: each defect planted here must
make ``run_suite`` report its check as failed, with a detail that names
the defect."""

import dataclasses

import pytest

from poslog import semantics, verify
from poslog.algebra import FinBoolAlg, boolean_as_lattice, up_algebra
from poslog.order import FinPoset, Preorder
from poslog.posetify import Posetification
from poslog.positivize import Positivication
from poslog.semantics import DeltaPow, DeltaPrime
from poslog.verify import SUITES, run_suite


def outcome(monkeypatch, suite: str, name: str):
    """The outcome of check ``name`` of ``suite``, run alone by ``run_suite``."""
    monkeypatch.setitem(SUITES, suite, ((name, dict(SUITES[suite])[name]),))
    (out,) = run_suite(suite)
    assert (out.suite, out.name) == (suite, name)
    return out


def replaced(p: Positivication, **fields) -> Positivication:
    """``p`` with the given fields replaced; ``p`` itself is left as it was."""
    old = {f: getattr(p, f) for f in Positivication.__slots__}
    return Positivication(**{**old, **fields})


def plant_in_positivize(monkeypatch, defect):
    real = verify.positivize
    monkeypatch.setattr(verify, "positivize", lambda l, a: defect(real(l, a)))


def one_more_atom(p: Positivication) -> FinBoolAlg:
    return FinBoolAlg(atoms=("z",) + tuple(p.ambient.atoms))


BOOLEAN_DEFECTS = {
    "envelope": (lambda p: replaced(p, ambient=one_more_atom(p)),
                 "semantic:pow: envelope of a 0-atom algebra did not collapse"),
    "inclusion": (lambda p: replaced(p, result=boolean_as_lattice(one_more_atom(p))),
                  "semantic:pow: lifting at a 0-atom algebra is not the inclusion"),
    "comparison": (lambda p: replaced(p, embed=[p.result.top ^ r for r in p.result.carrier()]),
                   "semantic:pow: comparison is not the identity on elements"),
    "size": (lambda p: replaced(p, members=p.members[1:]),
             "semantic:pow: lifting at a 0-atom algebra has the wrong size"),
}


@pytest.mark.parametrize("defect", BOOLEAN_DEFECTS)
def test_boolean_agreement_fails_on_a_planted_defect(monkeypatch, defect):
    plant, detail = BOOLEAN_DEFECTS[defect]
    plant_in_positivize(monkeypatch, plant)
    assert outcome(monkeypatch, "positivize", "boolean-agreement")[2:] == (False, detail)


# defect -> (the lifting with the defect, the first spectrum it fails on and
# the first axioms it breaks there)
AXIOM_DEFECTS = {
    "box-outside": (lambda p: replaced(p, box_of=lambda x: 1 << len(p.ambient.atoms)),
                    "(): (('box-membership', 0), ('box-preserves-top', 0))"),
    "box-bottom": (lambda p: replaced(p, box_of=lambda x: p.ambient.bot),
                   "(): (('box-preserves-top', 0),)"),
    "diamond-top": (lambda p: replaced(p, diamond_of=lambda x: p.ambient.top),
                    "(): (('diamond-preserves-bottom', 0),)"),
    "box-top": (lambda p: replaced(p, box_of=lambda x: p.ambient.top),
                "('a',): (('box-meet-diamond-below-diamond-meet', (0, 1)),)"),
    "diamond-bottom": (lambda p: replaced(p, diamond_of=lambda x: p.ambient.bot),
                       "('a',): (('box-join-below-box-or-diamond', (0, 1)),)"),
}


@pytest.mark.parametrize("defect", AXIOM_DEFECTS)
def test_positive_modal_axioms_fail_on_a_planted_defect(monkeypatch, defect):
    plant, failures = AXIOM_DEFECTS[defect]
    plant_in_positivize(monkeypatch, plant)
    assert outcome(monkeypatch, "positivize", "positive-modal-axioms")[2:] == \
        (False, f"axiom failures on spectrum {failures}")


def test_component_injective_fails_when_two_atoms_share_an_image(monkeypatch):
    """Over one state the subsets are {} and {a}; sending both to the
    image of {} merges the families that hold one of them."""
    real = semantics.delta_pow

    def merged(states):
        image = real(states).atom_image
        return DeltaPow(image[:1] * 2 + image[2:] if len(image) > 1 else image)

    monkeypatch.setattr(semantics, "delta_pow", merged)
    assert outcome(monkeypatch, "semantics", "component-injective")[2:] == \
        (False, "not injective at a 1-element set: "
                "(frozenset({frozenset()}), frozenset({frozenset({'a'})}))")


def test_lifted_component_injective_fails_on_a_constant_image(monkeypatch):
    """At the empty poset the lifted algebra has two members, the empty
    family and the family of the empty set."""
    real = semantics.positive_context

    def constant(x):
        pos, lifted, _ = real(x)
        return pos, lifted, DeltaPrime(lifted.members, lifted.is_member, lambda m: 0)

    monkeypatch.setattr(semantics, "positive_context", constant)
    assert outcome(monkeypatch, "semantics", "lifted-component-injective")[2:] == \
        (False, "not injective at (): (frozenset(), frozenset({frozenset()}))")


def symmetric_pair(r: Preorder) -> Preorder:
    """``r`` with its first two carrier elements related both ways."""
    succ = list(r.succ)
    if len(succ) > 1:
        succ[0] |= 0b10
        succ[1] |= 0b01
    return Preorder(r.carrier, tuple(succ))


ANALYTIC_DEFECTS = {
    "symmetric-pair": ("lift_relation_generic", symmetric_pair,
                       "bag:3 lifting not antisymmetric on ('a',)"),
    "merged-classes": ("posetify_generic",
                       lambda pos: Posetification(pos.order, (0,) * len(pos.e), pos.decode),
                       "bag:3 quotient is not the identity on ('a',)"),
}


@pytest.mark.parametrize("defect", ANALYTIC_DEFECTS)
def test_analytic_antisymmetry_fails_on_a_planted_defect(monkeypatch, defect):
    name, plant, detail = ANALYTIC_DEFECTS[defect]
    real = getattr(verify, name)
    monkeypatch.setattr(verify, name, lambda t, p: plant(real(t, p)))
    assert outcome(monkeypatch, "posetify", "analytic-antisymmetry")[2:] == (False, detail)


@pytest.mark.parametrize("check, syntax", [
    ("normal-modal-closed-form", "semantic:pow"),
    ("free-modality-closed-form", "free"),
    ("positivication-dual-to-posetification", "semantic:pow"),
])
def test_the_closed_form_loop_fails_on_a_wrong_closed_form(monkeypatch, check, syntax):
    """Each closed-form check compares the inserter with the syntax's closed
    form in ``check_duality_rule``'s loop; a closed form of three atoms
    differs from the lifting at the empty spectrum, of 2 or 4 elements."""
    real = verify.parse_syntax
    wrong = up_algebra(FinPoset.discrete(("x", "y", "z")))
    monkeypatch.setattr(verify, "parse_syntax", lambda name: dataclasses.replace(
        real(name), closed_form=lambda a: wrong))
    assert outcome(monkeypatch, "positivize", check)[2:] == \
        (False, f"{syntax} differs on spectrum ()")
