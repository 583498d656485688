"""Exception hierarchy shared by all modules."""

from __future__ import annotations


class ExpanderCodeError(Exception):
    """Base class for errors raised by this package."""


class InvalidParameters(ExpanderCodeError, ValueError):
    """Parameters violate a documented precondition."""


class InvalidInput(ExpanderCodeError, ValueError):
    """A word, index set, or list argument is malformed for the operation."""


class GenerationFailed(ExpanderCodeError, RuntimeError):
    """Randomized construction exhausted its resampling budget."""

    def __init__(self, message: str, attempts: int = 0):
        super().__init__(message)
        self.attempts = attempts


class ConvergenceFailed(ExpanderCodeError, ArithmeticError):
    """A numerical fixed-point search ended outside its tolerance."""


class GraphFormatError(ExpanderCodeError, ValueError):
    """Graph or word file could not be parsed; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class BudgetExceeded(ExpanderCodeError, RuntimeError):
    """Exhaustive enumeration refused; carries the budget that would be needed."""

    def __init__(self, message: str, required: int):
        super().__init__(f"{message} (required budget {required})")
        self.required = required
