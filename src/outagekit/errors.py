"""The toolkit's error policy: one exception hierarchy and one way to locate an error.

Each class carries the CLI exit code of its failures as ``exit_code`` (the
table of codes is in cli.py).  ``where`` names where an error happened.  A
block that turns a foreign exception into a toolkit class is explicit, since
it changes the class: ``io._reading`` for reads, ``io._replacing`` for writes.
"""

from contextlib import contextmanager
from typing import Iterator


class OutageKitError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 1


class InvalidInputError(OutageKitError, ValueError):
    """An argument violates a documented precondition."""

    exit_code = 2


class MissingPoolError(InvalidInputError):
    """A fuel has a positive capacity target but no size pool to draw from."""


class ParseError(OutageKitError):
    """A raw document could not be parsed; the message carries the location."""

    exit_code = 5


class AuthError(OutageKitError):
    """The platform rejected the API token.  Not retryable."""

    exit_code = 3


class FetchError(OutageKitError):
    """A download failed after exhausting retries."""

    exit_code = 4


class StatsError(OutageKitError):
    """A statistic is undefined for the given input (e.g. zero variance)."""

    exit_code = 6


class UsageError(OutageKitError):
    """A request for an unknown artifact kind or malformed invocation."""

    exit_code = 2


@contextmanager
def where(place: object) -> Iterator[None]:
    """Prefix ``place`` and ``: `` to a toolkit error raised in the block, keeping its class.

    The new error's ``__cause__`` is the original one.  Any other exception
    passes through untouched.
    """
    try:
        yield
    except OutageKitError as exc:
        raise type(exc)(f"{place}: {exc}") from exc
