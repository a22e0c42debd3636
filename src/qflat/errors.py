"""Error types shared by the budgeted computations in this package."""


class BudgetExceeded(ValueError):
    """The requested computation would exceed the operation budget."""
