"""Exception types shared across the package.

The CLI maps these onto its exit codes: ParseError -> 2, precondition
violations (PreconditionError and plain ValueError) -> 3, BudgetError
(a size guard refused to run) -> 4.
"""


class ParseError(ValueError):
    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class PreconditionError(ValueError):
    pass


class BudgetError(RuntimeError):
    pass
