"""Exception types shared across the package."""


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
