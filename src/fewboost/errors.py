"""Exception types shared across the package, and the decoding guard for bundles."""

from contextlib import contextmanager


class FewboostError(Exception):
    """Base class for all library errors."""


class ParseError(FewboostError):
    """Malformed CSV or JSON content; the message names the file and, for a CSV, the row."""


class SchemaError(FewboostError):
    """Schema file does not match the CSV or is internally inconsistent."""


class ValidationError(FewboostError):
    """Arguments violate an operation's preconditions."""


class UndefinedMetricError(FewboostError):
    """Metric has no defined value for the given inputs."""


# What decoding a malformed document raises before any check of ours does:
# a missing field, a value of the wrong type, a non-object entry, an
# infinite count.
DECODE_ERRORS = (AttributeError, KeyError, OverflowError, TypeError, ValueError)


def describe(exc: Exception) -> str:
    """One decoding error in words: the missing field, or the error and its message."""
    if isinstance(exc, KeyError):
        return f"missing field {exc}"
    return f"{type(exc).__name__}: {exc}"


@contextmanager
def decoding(what: str | None = None):
    """Raise every error from decoding a document part as :class:`ValidationError`.

    A raw :data:`DECODE_ERRORS` error is described by :func:`describe`. With
    ``what``, the message, a ``ValidationError``'s too, begins ``<what>: ``,
    so nested parts name their whole path.
    """
    prefix = f"{what}: " if what else ""
    try:
        yield
    except ValidationError as exc:
        if not prefix:
            raise
        raise ValidationError(prefix + str(exc)) from exc
    except DECODE_ERRORS as exc:
        raise ValidationError(prefix + describe(exc)) from exc
