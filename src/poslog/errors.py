"""Shared error types and the enumeration budget.

Budgets guard against enumerations that are structurally legal but
infeasible at desk scale.  Every stage counts what it would build against
the current :class:`Budget` before building it; exceeding it raises
:class:`BudgetExceeded`, which callers (and the CLI) treat as a distinct,
recoverable condition rather than invalid input.  The budget is set for a
block, ``with budget(max_enum=...):``, and held in a ``ContextVar``: the
block restores the outer value on exit, also on an exception, and a new
thread starts from the default budget, not from that of its starter.
"""

import contextlib
import contextvars
from typing import NamedTuple

DEFAULT_MAX_ENUM = 1 << 20
DEFAULT_MAX_GENERATORS = 8


class InputError(ValueError):
    """User-supplied data violates a structural invariant."""


class BudgetExceeded(RuntimeError):
    """An enumeration would exceed the configured budget.

    ``stage`` names what would be enumerated, ``requested`` is its size,
    ``cap`` the budget it exceeds and ``flag`` the command-line option that
    raises the cap.  The sizes of ``nb`` and ``mnb`` on 9 or more points are
    not computed: ``requested`` is then ``functors.HUGE`` (2^400), which
    stands for "too large to count", not for the size itself."""

    def __init__(self, message: str, *, stage: str, requested: int, cap: int,
                 flag: str = "--max-enum"):
        super().__init__(message)
        self.stage, self.requested, self.cap, self.flag = stage, requested, cap, flag


class Budget(NamedTuple):
    """The largest enumeration (``--max-enum``) and the largest generator
    set of a free Boolean algebra (``--max-generators``) allowed."""

    max_enum: int = DEFAULT_MAX_ENUM
    max_generators: int = DEFAULT_MAX_GENERATORS


_BUDGET = contextvars.ContextVar("poslog_budget", default=Budget())
current_budget = _BUDGET.get  # the budget in force


@contextlib.contextmanager
def budget(max_enum: int | None = None, max_generators: int | None = None):
    """Run the block under a budget; a value left out keeps the outer one."""
    outer = _BUDGET.get()
    token = _BUDGET.set(Budget(outer.max_enum if max_enum is None else max_enum,
                               outer.max_generators if max_generators is None
                               else max_generators))
    try:
        yield
    finally:
        _BUDGET.reset(token)


def _count(size: int) -> str:
    """``size`` in decimal, or as a power of two once it is wider than
    Python prints (4,300 digits by default)."""
    try:
        return str(size)
    except ValueError:
        exp = size.bit_length() - 1
        return f"2^{exp}" if size == 1 << exp else f"more than 2^{exp}"


def fits(size: int) -> bool:
    """Whether an enumeration of ``size`` items is within the budget."""
    return size <= _BUDGET.get().max_enum


def check_enum_budget(size: int, what: str) -> None:
    """Refuse the stage ``what`` when it would enumerate ``size`` items."""
    cap = _BUDGET.get().max_enum
    if size > cap:
        raise BudgetExceeded(
            f"{what} would enumerate {_count(size)} items (budget {cap})",
            stage=what, requested=size, cap=cap)


def check_generator_budget(count: int) -> None:
    """Refuse a free Boolean algebra on ``count`` generators."""
    cap = _BUDGET.get().max_generators
    if count > cap:
        raise BudgetExceeded(
            f"free boolean algebra on {count} generators (budget {cap})",
            stage="free boolean algebra", requested=count, cap=cap,
            flag="--max-generators")
