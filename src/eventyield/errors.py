"""Exception hierarchy shared across the package."""


class EventYieldError(ValueError):
    """Base class for all errors raised by this package."""


class CalendarError(EventYieldError):
    """Invalid trading calendar, or a date lookup that leaves the calendar."""


class SeriesError(EventYieldError):
    """Invalid price or return series."""


class IngestError(EventYieldError):
    """Malformed input file; carries the offending row number where known."""

    def __init__(self, message: str, row: int | None = None):
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)
        self.row = row


class EventError(EventYieldError):
    """Invalid event set or group assignment."""


class DesignError(EventYieldError):
    """Design matrix cannot be built (empty group, window truncation, ...)."""


class EstimationError(EventYieldError):
    """Estimation failure: collinear design, solver non-convergence."""


class PermutationError(EventYieldError):
    """Placebo draw or permutation setup failure."""


class ConfigError(EventYieldError):
    """Invalid study configuration."""
