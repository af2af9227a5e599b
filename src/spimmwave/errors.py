"""Exception types shared across the package."""


class SpimmwaveError(Exception):
    """Base class for all errors raised by this package.

    `field` names the argument at fault where the raiser knows it, else it is None.
    """

    def __init__(self, message: str, field: str | None = None):
        self.field = field
        super().__init__(message)


class ParameterError(SpimmwaveError, ValueError):
    """An argument is outside its documented domain."""


class DimensionError(SpimmwaveError, ValueError):
    """Array arguments do not conform (non-square, mismatched)."""


class NotPositiveDefiniteError(SpimmwaveError, ArithmeticError):
    """A matrix required to be Hermitian positive definite is not."""


class NoRootError(SpimmwaveError, ArithmeticError):
    """A bracketed root search found no sign change."""


class SpecValidationError(SpimmwaveError, ValueError):
    """An experiment spec file is invalid; message carries the field path."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}", field)
