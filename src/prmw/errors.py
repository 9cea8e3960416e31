"""Error types shared by every module."""


class DomainError(ValueError):
    """An argument is outside the domain an operation is defined on."""


class BudgetExceeded(RuntimeError):
    """An enumeration would exceed its point / message / entry cap.

    The message names the budget that would be required, except for a
    witness search, whose length is not known ahead: it names the budget
    it passed.
    """
