"""Exception hierarchy shared across the toolkit.

Each CLI-visible failure class maps to a distinct exit code (see cli.py).
"""


class OutageKitError(Exception):
    """Base class for all toolkit errors."""


class InvalidInputError(OutageKitError, ValueError):
    """An argument violates a documented precondition."""


class MissingPoolError(InvalidInputError):
    """A fuel has a positive capacity target but no size pool to draw from."""


class ParseError(OutageKitError):
    """A raw document could not be parsed; the message carries the location."""


class AuthError(OutageKitError):
    """The platform rejected the API token.  Not retryable."""


class FetchError(OutageKitError):
    """A download failed after exhausting retries."""


class StatsError(OutageKitError):
    """A statistic is undefined for the given input (e.g. zero variance)."""


class UsageError(OutageKitError):
    """A request for an unknown artifact kind or malformed invocation."""
