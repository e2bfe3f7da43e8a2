"""Exception types shared across the package."""


class UserKitError(Exception):
    """Base class for all userkit errors."""


class NotHermitian(UserKitError):
    pass


class NotUnitary(UserKitError):
    pass


class NotNormalized(UserKitError):
    pass


class DimensionMismatch(UserKitError):
    pass


class DegenerateSpectrum(UserKitError):
    """All eigenphases coincide; every power of the unitary is trivial."""


class InvalidLambda(UserKitError):
    pass


class BadLength(UserKitError):
    pass


class UnsupportedOrder(UserKitError):
    """Only the first two Magnus terms are implemented."""


class SpectrumOutOfRange(UserKitError):
    pass


class TraceViolation(UserKitError):
    pass


class NotTracePreserving(UserKitError):
    pass


class GridTooLarge(UserKitError):
    """The sampling grid the grid rule asks for is too large to allocate."""


class DegenerateDenominator(UserKitError):
    """The probe (rho, O) cannot resolve the noise strength; re-probe."""


class UnphysicalEpsilon(UserKitError):
    pass


class ConfigError(UserKitError):
    pass
