"""Exception types shared across the library.

Every failure mode that callers are expected to catch gets its own class;
plain ValueError/TypeError are reserved for programming errors.
"""


class LucascertError(Exception):
    """Base class for all library-specific errors."""


class NotPLocal(LucascertError):
    """A rational number (or series coefficient) has p in its denominator."""

    def __init__(self, p, value=None, index=None):
        self.p = p
        self.value = value
        self.index = index
        msg = f"denominator divisible by p={p}"
        if index is not None:
            msg += f" at coefficient index {index}"
        super().__init__(msg)


class ZeroDenominator(LucascertError):
    """Attempt to build a rational function with zero denominator."""


class NotSeriesExpandable(LucascertError):
    """A rational function has a pole at 0 and cannot be expanded there."""


class BadPrime(LucascertError):
    """Reduction mod p would degenerate the operator, or p is not usable."""


class NotMomAtZero(LucascertError):
    """Operator is not MOM at zero where that is required."""


class LeadingZero(LucascertError):
    """Recurrence leading polynomial vanishes at an index to be solved."""

    def __init__(self, index):
        self.index = index
        super().__init__(f"leading recurrence polynomial vanishes at m={index}")


class ReconstructionFailed(LucascertError):
    """No rational/polynomial relation of the requested degree exists."""

    def __init__(self, message, index=None):
        # first coefficient index at which the relation fails, when known; a split with no section
        # relation or too large a denominator in the prefix it reads names the last index read
        self.index = index
        super().__init__(message)


class HeightBoundViolated(LucascertError):
    """A constructed certificate exceeds its theoretical height bound."""

    def __init__(self, height, bound, what="certificate"):
        self.height = height
        self.bound = bound
        super().__init__(f"{what} height {height} exceeds bound {bound}")


class BudgetExceeded(LucascertError):
    """A computation would need more series terms than its fixed budget allows."""


class NoCycleFound(LucascertError):
    """Cartier-iterate orbit detection exhausted its step budget."""


class SylvesterSingular(LucascertError):
    """Frobenius shadow failed: G(0) is not the shift (not MOM), p F(0) != G(0), or the last row fails."""


class UnknownSeries(LucascertError):
    """Catalog lookup failed."""


class UnknownCase(LucascertError):
    """Casebook lookup failed."""


class ParseError(LucascertError):
    """Malformed input: operator or catalog JSON, or a CLI value."""

    def __init__(self, message, location=None):
        self.location = location
        if location is not None:
            message = f"{message} (at {location})"
        super().__init__(message)
