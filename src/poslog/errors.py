"""Shared error types and enumeration budgets.

Budgets guard against enumerations that are structurally legal but
infeasible at desk scale.  Exceeding one raises :class:`BudgetExceeded`,
which callers (and the CLI) treat as a distinct, recoverable condition
rather than invalid input.
"""

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


def _count(size: int) -> str:
    """``size`` in decimal, or as a power of two once it is wider than
    Python prints (4,300 digits by default)."""
    try:
        return str(size)
    except ValueError:
        exp = size.bit_length() - 1
        return f"2^{exp}" if size == 1 << exp else f"more than 2^{exp}"


def check_enum_budget(size: int, max_enum: int, what: str) -> None:
    if size > max_enum:
        raise BudgetExceeded(
            f"{what} would enumerate {_count(size)} items (budget {max_enum})",
            stage=what, requested=size, cap=max_enum)
