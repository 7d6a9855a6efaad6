"""Exception types shared across the package."""

__all__ = [
    "BanachsumError",
    "HorizonExceeded",
    "ParseError",
    "OverlapError",
    "BadLength",
    "PreconditionFailed",
    "EmptySelection",
    "BudgetExceeded",
    "NoSuitableRun",
    "DisjointnessViolation",
]


class BanachsumError(Exception):
    """Base class for every error this package raises on purpose."""


class HorizonExceeded(BanachsumError):
    """A finite representation ran out of search space without an answer."""


class ParseError(BanachsumError):
    """A set description line could not be parsed."""

    def __init__(self, message: str, lineno: int | None = None):
        self.lineno = lineno
        super().__init__(f"line {lineno}: {message}" if lineno else message)


class OverlapError(ParseError):
    """Two declared runs intersect."""


class BadLength(BanachsumError):
    """An interval length lies outside the window."""


class PreconditionFailed(BanachsumError, ValueError):
    """An operation was called on input it explicitly rejects; a ValueError too."""


class EmptySelection(BanachsumError):
    """A family sum was requested over no sets at all."""


class BudgetExceeded(BanachsumError):
    """A size or enumeration budget was hit before the answer."""


class NoSuitableRun(BanachsumError):
    """The source set offers no run long enough for the next greedy step."""


class DisjointnessViolation(BanachsumError):
    """Family members that must be pairwise disjoint share an element."""
