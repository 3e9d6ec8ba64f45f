"""The budget context: scoping, caches that must not outlive a budget, and
the stages that read it."""

import threading

import pytest

from poslog import verify
from poslog.algebra import BAHom, FinBoolAlg, up_algebra
from poslog.errors import BudgetExceeded, DEFAULT_MAX_ENUM, budget, current_budget
from poslog.functors import pow_functor
from poslog.order import FinPoset
from poslog.positivize import free_l, semantic_l
from poslog.semantics import (Coalgebra, delta_pow, delta_prime, interpret_positive,
                              parse_formula, positive_context)


def test_the_default_budget_is_the_flag_default():
    assert current_budget() == DEFAULT_MAX_ENUM


def test_nested_blocks_restore_the_outer_budget_also_after_a_refusal():
    outer = current_budget()
    with budget(max_enum=100):
        assert current_budget() == 100
        with budget(max_enum=50):
            assert current_budget() == 50
            with pytest.raises(BudgetExceeded), budget(max_enum=4):
                up_algebra(FinPoset.discrete("abc")).carrier()
            assert current_budget() == 50
        assert current_budget() == 100
    assert current_budget() == outer


def test_a_thread_starts_from_the_default_budget():
    seen = []
    with budget(max_enum=100):
        worker = threading.Thread(target=lambda: seen.append(current_budget()))
        worker.start()
        worker.join(timeout=10)
    assert not worker.is_alive() and seen == [DEFAULT_MAX_ENUM]


def test_a_delta_answer_is_refused_under_a_smaller_budget():
    x = FinPoset.chain("xy")
    c, phi = Coalgebra(x, (0b11, 0b10)), parse_formula("(dia p)")
    assert interpret_positive(c, {"p": 0b10}, phi, "delta") == 0b11
    with budget(max_enum=15), pytest.raises(BudgetExceeded) as refused:
        interpret_positive(c, {"p": 0b10}, phi, "delta")
    assert (refused.value.stage, refused.value.requested) == ("convex powerset", 16)


def test_a_reused_semantic_functor_is_refused_under_a_smaller_budget():
    l, b = semantic_l(pow_functor()), FinBoolAlg(atoms=("x", "y", "z"))
    ident = BAHom(b, b, (0, 1, 2))
    assert len(l.on_obj(b).atoms) == l.count_atoms(b) == len(l.on_mor(ident).dual) == 8
    for build in (l.on_obj, l.count_atoms, lambda b: l.on_mor(ident)):
        with budget(max_enum=7), pytest.raises(BudgetExceeded) as refused:
            build(b)
        assert (refused.value.stage, refused.value.requested) == ("pow on an atom set", 8)


def test_delta_prime_reads_the_budget():
    x = FinPoset.chain("xy")
    pos, lifted, _ = positive_context(x)
    with budget(max_enum=15), pytest.raises(BudgetExceeded) as refused:
        delta_prime(pow_functor(), delta_pow, x, pos, lifted)
    assert refused.value.stage == "semantic component construction"


def test_free_l_reads_the_budget():
    with budget(max_enum=4), pytest.raises(BudgetExceeded) as refused:
        free_l().on_obj(FinBoolAlg(atoms=("x", "y", "z")))
    assert (refused.value.stage, refused.value.requested) == ("boolean algebra carrier", 8)


@pytest.mark.parametrize("check, stage", [
    (verify.check_fu_closed_form, "boolean algebra carrier"),
    (verify.check_fu_box_side_condition, "free boolean algebra"),
    (verify.check_beta, "boolean algebra carrier"),
])
def test_the_free_modality_checks_read_the_budget(check, stage):
    assert check()[0]
    with budget(max_enum=15), pytest.raises(BudgetExceeded) as refused:
        check()
    assert (refused.value.stage, refused.value.requested) == (stage, 16)

