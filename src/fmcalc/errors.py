"""Exception types shared across fmcalc."""


class FmcalcError(Exception):
    """Base class for all fmcalc errors."""


class NotPrime(FmcalcError):
    pass


class NotIrreducibleModP(FmcalcError):
    pass


class NotEisenstein(FmcalcError):
    pass


class TowerMismatch(FmcalcError):
    pass


class DivisionByZero(FmcalcError):
    pass


class NotIntegral(FmcalcError):
    pass


class NotSubtower(FmcalcError):
    pass


class NoSuitablePrimeFound(FmcalcError):
    """Raised when no prime up to the bound is unramified, non-split and
    equal-degree.  Carries the per-prime scan table."""

    def __init__(self, message, scan_table):
        super().__init__(message)
        self.scan_table = scan_table


class RingMismatch(FmcalcError):
    pass


class ZeroPolynomial(FmcalcError):
    pass


class MissingImage(FmcalcError):
    pass


class IntegralityFailure(FmcalcError):
    pass


class CongruenceFailed(FmcalcError):
    pass


class NonIntegerMatrix(FmcalcError):
    pass


class TruncationUnsound(FmcalcError):
    pass


class OutsideScope(FmcalcError):
    pass


class UsageError(FmcalcError):
    pass


class ConfigParseError(FmcalcError):
    pass
