"""Exception types shared across the library.

Plain ``ValueError`` is used for ordinary invalid arguments; the classes
here exist where callers need to distinguish the failure mode (the CLI
maps each to a machine-readable error line).
"""

__all__ = [
    "CensrankError",
    "UndefinedMetricError",
    "CsvParseError",
    "TrainingDivergedError",
    "ExperimentFailedError",
]


class CensrankError(Exception):
    """Base class for library-specific failures."""


class UndefinedMetricError(CensrankError, ValueError):
    """The concordance index is undefined (no acceptable pairs)."""


class CsvParseError(CensrankError, ValueError):
    """A dataset file failed to parse; the message names columns/rows."""


class TrainingDivergedError(CensrankError, RuntimeError):
    """Training produced a non-finite loss or non-finite scores."""

    def __init__(self, message, epoch=None):
        super().__init__(message)
        self.epoch = epoch


class ExperimentFailedError(CensrankError, RuntimeError):
    """Every configuration of an experiment failed (e.g. all grid points diverged)."""
