"""Exception hierarchy shared across the package."""


class GchwError(Exception):
    """Base class for every error raised by this package."""


class ParameterError(GchwError, ValueError):
    """A parameter is outside its documented bounds."""


class ShapeError(GchwError, ValueError):
    """An input has the wrong dimensions for the requested operation."""


class SingularMatrixError(GchwError):
    """Inversion was requested for a singular matrix."""


class KeyDerivationError(GchwError):
    """No nonsingular enciphering matrix was found within the attempt budget."""


class CorruptionError(GchwError):
    """Decrypted or deserialized data violates a structural invariant."""


class CorruptStreamError(CorruptionError):
    """A compressed bit stream ended mid-symbol or carried trailing bits."""


class AuthenticationError(GchwError):
    """The MAC tag does not match the received data."""


class ParseError(GchwError):
    """A serialized envelope or key file cannot be parsed."""


class StatisticsError(GchwError, ValueError):
    """A statistics routine received degenerate input."""


class AttackError(GchwError):
    """Key recovery hit a non-finite intermediate value."""
