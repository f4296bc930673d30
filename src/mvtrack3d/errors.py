"""Exception types raised by the library."""


class MvTrackError(Exception):
    """Base class for all library errors."""


class DepthNonPositive(MvTrackError):
    """Point does not lie strictly in front of the camera."""


class SingularProjection(MvTrackError):
    """K*R is not invertible, the pixel ray is undefined."""


class DegenerateBaseline(MvTrackError):
    """Two camera centers coincide, no epipolar geometry exists."""


class InsufficientObservations(MvTrackError):
    """Fewer than two views were supplied for triangulation."""


class DegenerateGeometry(MvTrackError):
    """Observation rays do not intersect in a unique finite point."""


class NoRecentObservations(MvTrackError):
    """A track has no matched 2D pose inside the time window."""


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
