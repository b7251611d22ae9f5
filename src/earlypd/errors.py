"""Exception types shared across the pipeline.

Data problems (bad cells, impossible ranges, degenerate inputs) raise
DataError subclasses; bad pipeline settings raise ConfigError. The CLI
maps DataError to exit code 1 and ConfigError to exit code 2.
"""


class EarlyPdError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(EarlyPdError):
    """Invalid pipeline configuration (bad flag values, malformed config file)."""


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


class DivisionByZeroDenominator(DataError):
    """Ratio computation was asked to divide by a zero concentration."""


class EmptyDataset(DataError):
    """An operation that needs at least one record got none."""


class MissingFeatureStats(DataError):
    """Normalization stats do not cover the dataset schema."""


class ClassTooSmall(DataError):
    """Stratified splitting needs at least two records per class."""


class BinsTooFew(DataError):
    """Discretization needs at least two bins."""


class SingleClassTraining(DataError):
    """A classifier was given training data containing only one class."""


class NonNormalizedInput(DataError):
    """MLP training requires every feature value inside [0, 1]."""


class SingleClassWeight(DataError):
    """Weighted logistic fitting needs positive weight on both classes."""


class NonFiniteFeature(DataError):
    """A feature matrix passed to a fitter contains NaN or infinity."""


class EmptyModel(DataError):
    """A boosted model with zero rounds cannot score records."""


class LengthMismatch(DataError):
    """Paired label / prediction sequences differ in length."""


class EmptyInput(DataError):
    """Confusion counting got zero records."""


class EmptyMatrix(DataError):
    """Summary metrics got a confusion matrix with zero total."""


class NonFiniteScore(DataError):
    """ROC analysis got a NaN or infinite score."""


class SingleClassLabels(DataError):
    """ROC analysis needs at least one positive and one negative label."""


class EmptyCohort(DataError):
    """Cohort generation was asked for zero records."""


class UnreadableCsv(DataError):
    """A CSV file is not UTF-8 text, or the csv module cannot read it (a field too large)."""
