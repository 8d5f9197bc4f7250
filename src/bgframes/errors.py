"""Exception types shared across the package."""


class FrameToolError(ValueError):
    """Base class for all errors raised by this package."""


class NotSquare(FrameToolError):
    """A square matrix was required."""


class NotHermitian(FrameToolError):
    """Hermitian deviation exceeded the allowed tolerance."""


class NotPositiveDefinite(FrameToolError):
    """A Hermitian positive definite matrix was required.

    Carries ``smallest_eigenvalue`` when it was computed.
    """

    def __init__(self, message, smallest_eigenvalue=None):
        super().__init__(message)
        self.smallest_eigenvalue = smallest_eigenvalue


class ShapeMismatch(FrameToolError):
    """Operands have incompatible shapes or index structure."""


class NotBiGFrame(FrameToolError):
    """An operation requiring a bi-g-frame was called on a pair that is not one.

    Carries the ``report`` (a :class:`bgframes.kernel.ClassifyReport`) that
    triggered the rejection, when available.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class ConstraintViolated(FrameToolError):
    """A coefficient sequence does not satisfy its synthesis constraint."""


class SchemaError(FrameToolError):
    """A JSON interchange file failed validation; message carries the field path."""
