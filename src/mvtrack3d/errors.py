"""Exception types raised by the library."""


class MvTrackError(Exception):
    """Base class for all library errors."""


class SingularProjection(MvTrackError):
    """K*R is not invertible, the pixel ray is undefined."""


class DegenerateBaseline(MvTrackError):
    """Two camera centers coincide, no epipolar geometry exists."""


class NonMonotonicFrames(MvTrackError):
    """Frame indices in a stream went backwards."""


class NonMonotonicTime(MvTrackError):
    """Timestamps fed to the tracker went backwards."""


class SchemaMismatch(MvTrackError):
    """Joint counts or schema names disagree between inputs."""


class ParseError(MvTrackError):
    """A record file line could not be parsed."""


class ValidationError(MvTrackError):
    """A parsed record violates a structural constraint."""


class ConfigError(MvTrackError):
    """An unknown or ill-typed configuration key was supplied."""
