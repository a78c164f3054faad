"""Exception hierarchy shared across the package."""


class FairdesertError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(FairdesertError):
    """A required column is missing or the schema is otherwise malformed."""


class ParseError(FairdesertError):
    """A cell value could not be parsed; carries the offending 1-based data row."""

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


class EmptyDataError(FairdesertError):
    """The input contains no data rows."""


class DegenerateCovariateError(FairdesertError):
    """A covariate column is constant and cannot be min-max scaled."""


class PositivityError(FairdesertError):
    """One of the four (s, z) strata is empty."""


class SeparationError(FairdesertError):
    """A logit fit did not converge; typically perfect separation without ridge."""


class WeakAuxiliaryError(FairdesertError):
    """The identification denominator is numerically zero (relevance failure)."""


class InvalidIdentificationError(FairdesertError):
    """A sensitivity-extended inversion left its validity region."""


class FitError(FairdesertError):
    """All optimizer restarts failed to converge."""


class BootstrapError(FairdesertError):
    """Too many bootstrap replicates failed to fit."""


class UndefinedAUCError(FairdesertError):
    """AUC is undefined because only one label class is present."""


class VariantMismatchError(FairdesertError):
    """An operation requiring baseline-variant estimates received a sensitivity variant."""


class RelevanceWarning(UserWarning):
    """A fit leaves |tau1 - tau0| below the relevance margin on over 10% of rows."""


class ParityWarning(UserWarning):
    """The label-debiasing baseline's reweighting stopped short of its parity target."""
