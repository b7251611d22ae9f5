"""Exception types shared across the pipeline.

Data problems (bad cells, impossible ranges, degenerate inputs) raise
DataError; bad pipeline settings and malformed JSON inputs raise
ConfigError. The CLI maps DataError to exit code 1 and ConfigError to exit
code 2, and prints a DataError's class name as the error's ``kind``. The four
CSV faults below have classes of their own, so their kind names the fault;
every other data fault is a plain DataError, told apart by its message.
"""


class EarlyPdError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(EarlyPdError):
    """Invalid pipeline configuration (bad flag values, malformed JSON file)."""


class DataError(EarlyPdError):
    """Invalid data. Carries optional row / column context for CSV problems."""

    def __init__(self, message, row=None, column=None):
        super().__init__(message)
        self.row = row
        self.column = column


class MissingColumn(DataError):
    """CSV header does not match the expected 15-column layout."""


class NonNumericCell(DataError):
    """A feature or label cell could not be parsed as a decimal literal."""


class RangeViolation(DataError):
    """A parsed value breaks a schema invariant (range, integrality, ratio consistency)."""


class UnreadableCsv(DataError):
    """A CSV file is not UTF-8 text, or the csv module cannot read it (a field too large)."""
