"""Exception types shared across the package."""


class HaloLabError(Exception):
    """Base class for all package errors."""


class ConfigurationError(HaloLabError):
    """Invalid run configuration, decomposition or buffer sizing."""


class ZeroDensityError(HaloLabError):
    """Equilibrium or collision asked of a site whose density is not positive."""


class UsageError(HaloLabError):
    """An API contract was violated (double end, consumed handles, ...)."""


class TransportError(HaloLabError):
    """Base class for message-fabric failures."""


class MessageTruncation(TransportError):
    """Incoming payload exceeds the posted receive capacity."""


class TransportAborted(TransportError):
    """The fabric was shut down while a wait was in progress."""


class TransportDeadlock(TransportError):
    """A wait exceeded the watchdog timeout.

    ``pending`` lists the outstanding requests as (kind, source, dest, tag)
    tuples so the caller can see exactly which messages never matched.
    """

    def __init__(self, message, pending=()):
        super().__init__(message)
        self.pending = list(pending)
