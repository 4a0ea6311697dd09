"""Exception types shared across the package.

Every error raised by library code derives from :class:`RwreError` so callers
can catch the whole family at once.  The subclasses mirror the distinct
failure modes of the quenched computations: regime preconditions, a
window missing a site that is read, parity of step counts, and degenerate
conditioning events.
"""


class RwreError(Exception):
    """Base class for all errors raised by this package."""


class RegimeError(RwreError):
    """An operation was applied to a distribution in the wrong regime."""


class WindowTooSmallError(RwreError):
    """The environment window does not cover the sites a read needs, one
    site or a computation's range."""


class ParityError(RwreError):
    """A step count has the wrong parity for the requested event."""


class OrderingError(RwreError):
    """Interval endpoints were not strictly ordered around the start site."""


class DegenerateBridgeError(RwreError):
    """The conditioning event has probability zero.

    Under uniform ellipticity every even-length return event has positive
    probability, so seeing this error signals a bug in the caller's setup
    (for example an environment window filled with hard reflections).
    """


class NotABridgeError(RwreError):
    """A path does not start and end at the origin with matching length."""


class GapError(RwreError):
    """The support gap above the minimal transition probability is zero."""


class DomainError(RwreError):
    """A numeric argument lies outside the domain of the requested formula."""


class ConfigError(RwreError):
    """An experiment configuration file is missing or inconsistent."""
