"""Exception types and the default work budgets shared across the package."""


class HigherCharError(Exception):
    """Base class for all package errors."""


class InputError(HigherCharError):
    """Malformed input: bad vertex ids, unparseable files, invalid parameters."""

    def __init__(self, message, lineno=None):
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)
        self.lineno = lineno


class DomainError(HigherCharError):
    """A value violates an operation's precondition (e.g. simplex not in complex)."""


class ResourceBudgetError(HigherCharError):
    """A configurable work budget was exhausted before the operation finished."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


# The default budgets live here, so the CLI's parser reads them without loading
# the modules that spend them; characteristics re-exports DEFAULT_OP_BUDGET, and
# recognizers DEFAULT_CALL_BUDGET as DEFAULT_BUDGET.
DEFAULT_OP_BUDGET = 10**9  # steps of one characteristics operation
DEFAULT_CALL_BUDGET = 100_000  # calls of one recognizer query


def charge(stage: str, cost: int, budget: int | None, unit: str = "steps", partial=None) -> None:
    """Refuse ``stage`` when its ``cost`` is over ``budget``; no budget, no limit.

    Every operation-budget refusal of the package is raised here, so each
    reads ``<stage> would cost <cost> <unit>, over the budget <budget>``.
    """
    if budget is not None and cost > budget:
        raise ResourceBudgetError(
            f"{stage} would cost {cost} {unit}, over the budget {budget}", partial=partial
        )


def charge_tuples(stage: str, n: int, k: int, budget: int | None, unit: str) -> None:
    """Charge the n**k k-tuples of n items; n <= 1 is free.

    For n >= 2 and k at least the budget's bit length b, n**k >= 2**b > budget,
    so the count is refused with that lower bound, without forming n**k,
    whose size grows with k.
    """
    if budget is None or n <= 1:
        return
    b = budget.bit_length()
    if k < b:
        charge(stage, n**k, budget, unit)
    else:
        charge(stage, 1 << b, budget, f"{unit} or more")


class SingularMatrixError(HigherCharError):
    """Matrix inversion was requested for a singular matrix."""
