"""Exception types shared across the package."""


class StructuralError(Exception):
    """Contract violation: bad dimensions, broken certificate, invalid input."""


class InternalError(Exception):
    """A broken internal invariant: a bug, not bad input.  Deliberately not
    a StructuralError, so the CLI reports it with its own exit code."""


class ParseError(Exception):
    """Syntax error in the session language, with source position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class NameResolutionError(StructuralError):
    """A session statement refers to an undeclared name."""


class DimensionError(StructuralError):
    """Dimensionally inconsistent input (matrix rows, vector lengths)."""
