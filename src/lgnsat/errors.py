"""Exception hierarchy shared across the toolkit."""


class LgnsatError(Exception):
    """Base class for all lgnsat errors."""


class LocatedFormatError(LgnsatError):
    """An input file is malformed. Carries the 1-based line (and column,
    when known) of the problem, and the message starts with them:
    ``line N, col M: ...``."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        if line is not None:
            loc = f"line {line}" + (f", col {col}" if col is not None else "")
            message = f"{loc}: {message}"
        super().__init__(message)
        self.line = line
        self.col = col


class NetlistFormatError(LocatedFormatError):
    """Netlist file is syntactically malformed; the column counts from the
    start of the line as written in the file."""


class SchemaFormatError(LocatedFormatError):
    """Feature schema file is malformed."""


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


class DataError(LocatedFormatError):
    """CSV/feature-value problem: out of range, unknown category, ill-formed
    bit pattern, or width mismatch; only an undecodable CSV sets ``line``."""
