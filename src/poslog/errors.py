"""Shared error types and the enumeration budget.

Budgets guard against enumerations that are structurally legal but
infeasible at desk scale.  Every stage counts what it would build against
the largest enumeration allowed (``--max-enum``) before building it;
exceeding it raises :class:`BudgetExceeded`, which callers (and the CLI)
treat as a distinct, recoverable condition rather than invalid input.  The
cap is set for a block, ``with budget(max_enum):``, and held in a
``ContextVar``: the block restores the outer cap on exit, also on an
exception, and a new thread starts from the default cap, not from that of
its starter.  The cap is at most ``sys.maxsize``, the largest size
``len()`` takes, so the placeholder for "too large to count" is refused.
"""

import contextlib
import contextvars
import sys

DEFAULT_MAX_ENUM = 1 << 20


class InputError(ValueError):
    """User-supplied data violates a structural invariant."""


class BudgetExceeded(RuntimeError):
    """An enumeration would exceed the configured budget.

    ``stage`` names what would be enumerated, ``requested`` is its size and
    ``cap`` the budget it exceeds, which ``--max-enum`` raises.  The sizes
    of ``nb`` and ``mnb`` on 9 or more points and of a polynomial symbol of
    arity past 400 are not computed: ``functors.HUGE`` (2^400) stands in
    for them, meaning "too large to count", not the size itself."""

    def __init__(self, message: str, *, stage: str, requested: int, cap: int):
        super().__init__(message)
        self.stage, self.requested, self.cap = stage, requested, cap


_BUDGET = contextvars.ContextVar("poslog_budget", default=DEFAULT_MAX_ENUM)
current_budget = _BUDGET.get  # the cap in force


@contextlib.contextmanager
def budget(max_enum: int):
    """Run the block with ``max_enum`` (at most ``sys.maxsize``) as the
    largest enumeration allowed."""
    token = _BUDGET.set(min(max_enum, sys.maxsize))
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
    return size <= _BUDGET.get()


def check_enum_budget(size: int, what: str) -> None:
    """Refuse the stage ``what`` when it would enumerate ``size`` items."""
    cap = _BUDGET.get()
    if size > cap:
        raise BudgetExceeded(
            f"{what} would enumerate {_count(size)} items (budget {cap})",
            stage=what, requested=size, cap=cap)

