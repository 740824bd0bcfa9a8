"""Exception hierarchy shared across the toolkit."""


class LgnsatError(Exception):
    """Base class for all lgnsat errors."""


class NetlistFormatError(LgnsatError):
    """Netlist file is syntactically malformed.

    Carries the 1-based line (and column, when known) of the offending token;
    the column counts from the start of the line as written in the file.
    """

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        loc = ""
        if line is not None:
            loc = f"line {line}" + (f", col {col}" if col is not None else "")
            message = f"{loc}: {message}"
        super().__init__(message)
        self.line = line
        self.col = col


class SchemaFormatError(LgnsatError):
    """Feature schema file is malformed."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class InvalidNetlistError(LgnsatError):
    """A netlist (or netlist/schema pair) violates structural invariants."""

    def __init__(self, violations):
        super().__init__("; ".join(violations))
        self.violations = tuple(violations)


class QueryBuildError(LgnsatError):
    """A verification query cannot be lowered (bad mode/threshold/widths)."""


class SolverNotFoundError(LgnsatError):
    """No usable SAT solver executable could be located."""


class SolverOutputError(LgnsatError):
    """The solver produced output we cannot interpret."""


class EncodingConsistencyError(LgnsatError):
    """A decoded model failed its concrete recheck: an encoding bug, never a
    user error."""


class DataError(LgnsatError):
    """CSV/feature-value problem: out of range, unknown category, ill-formed
    bit pattern, or width mismatch."""
