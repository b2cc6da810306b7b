"""Exception types shared across the package, and the one rule per JSON type (its check and
its message) that bundle fields and :class:`~fewboost.params.Params` fields are decoded by."""

from contextlib import contextmanager
from math import isfinite


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
# a missing field, a value of the wrong type, a non-object entry, a huge
# number, a document nested deeper than the recursion limit.
DECODE_ERRORS = (AttributeError, KeyError, OverflowError, RecursionError, TypeError, ValueError)


def describe(exc: Exception) -> str:
    """One decoding error in words: the missing field, or the error and its message."""
    if isinstance(exc, KeyError):
        return f"missing field {exc}"
    return f"{type(exc).__name__}: {exc}"


def integer(field: str, value) -> int:
    """``value`` if it is a JSON integer (not a bool, a float or a string), else ValidationError."""
    if type(value) is not int:
        raise ValidationError(f"field {field!r} must be an integer, got {value!r}")
    return value


def number(field: str, value) -> float:
    """``value`` as a float if it is a finite JSON number (not a bool), else ValidationError."""
    if type(value) not in (int, float) or not isfinite(value):
        raise ValidationError(f"field {field!r} must be a finite number, got {value!r}")
    return float(value)


def boolean(field: str, value) -> bool:
    """``value`` if it is a JSON bool (not a number or a string), else ValidationError."""
    if type(value) is not bool:
        raise ValidationError(f"field {field!r} must be a bool, got {value!r}")
    return value


def string(field: str, value) -> str:
    """``value`` if it is a JSON string, else ValidationError."""
    if type(value) is not str:
        raise ValidationError(f"field {field!r} must be a string, got {value!r}")
    return value


def array(field: str, value) -> list:
    """``value`` if it is a JSON list, else ValidationError."""
    if type(value) is not list:
        raise ValidationError(f"field {field!r} must be a list, got {type(value).__name__}")
    return value


def integers(field: str, values) -> list[int]:
    """``values`` if it is a JSON list of integers, else ValidationError naming the bad entry."""
    if not {*map(type, array(field, values))} <= {int}:
        at, value = next((at, v) for at, v in enumerate(values) if type(v) is not int)
        raise ValidationError(f"field {field!r} entry {at} must be an integer, got {value!r}")
    return values


def numbers(field: str, values) -> list:
    """``values`` if it is a JSON list of finite numbers, else ValidationError naming one."""
    if not {*map(type, array(field, values))} <= {int, float} or not all(map(isfinite, values)):
        at, value = next((at, v) for at, v in enumerate(values)
                         if type(v) not in (int, float) or not isfinite(v))
        raise ValidationError(f"field {field!r} entry {at} must be a finite number, got {value!r}")
    return values


def bundle_version(d, kind: str, version: int) -> None:
    """Check that ``d`` is a ``fewboost-<kind>`` bundle document of this JSON-integer ``version``.

    Anything else raises ValidationError: not a document of that format, or
    an unsupported version (a bool or a float such as ``1.0`` among them).
    """
    if not isinstance(d, dict) or d.get("format") != f"fewboost-{kind}":
        raise ValidationError(f"not a fewboost {kind} document")
    got = d.get("version")
    if type(got) is not int or got != version:
        raise ValidationError(f"unsupported {kind} version {got!r}")


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
