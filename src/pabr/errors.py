"""Exception types shared across the package.

The CLI maps these onto exit codes, so every externally visible failure
mode gets its own class here rather than a bare ValueError.
"""


class PabrError(Exception):
    """Base class for all domain errors raised by this package."""


class ParseError(PabrError):
    """Malformed input text.

    Carries a 0-based `offset` for one-line formula strings, or a 1-based
    `line`/`column` pair for knowledge base and snapshot files.
    """

    def __init__(self, message, offset=None, line=None, column=None):
        self.offset = offset
        self.line = line
        self.column = column
        super().__init__(message)

    def location(self) -> str:
        if self.line is not None:
            if self.column is not None:
                return f"line {self.line}, column {self.column}"
            return f"line {self.line}"
        if self.offset is not None:
            return f"offset {self.offset}"
        return ""

    def __str__(self):
        base = super().__str__()
        loc = self.location()
        return f"{base} at {loc}" if loc else base


class UndeclaredSymbolError(ParseError):
    """An identifier was used without a prior declaration."""


class StaleSnapshotError(PabrError):
    """A snapshot was compiled from other clauses than the knowledge base's."""


class FormulaTooDeepError(PabrError):
    """A query formula is nested deeper than the recursive parser and rewrites reach."""


class PivotError(PabrError):
    """Resolution was requested on a symbol that is not complementary in the parents."""


class NonAssumptionLiteralError(PabrError):
    """A clause-to-term conversion hit a literal over a proposition symbol."""


class InconsistentTermError(PabrError):
    """A term containing complementary literals where a consistent one is required."""


class TotalInconsistencyError(PabrError):
    """The knowledge base excludes every assumption configuration."""


class BoundsPreconditionError(PabrError):
    """Truncation order too large for the number of terms; an exact method applies."""


class EnumerationLimitError(PabrError):
    """An exhaustive enumeration would exceed its fixed limit.

    Raised for an alphabet too large for model enumeration, and for a union
    whose inclusion-exclusion subsets or disjoint-product fragments exceed
    the probability module's work budget.
    """
