"""Exception types shared across the package."""


class FrameToolError(ValueError):
    """Base class for all errors raised by this package."""


class NotSquare(FrameToolError):
    """A square matrix was required."""


class NotBiGFrame(FrameToolError):
    """An operator failed the frame gate, Hermitian positive definite within ``tol``; each
    subclass names one gate. Carries the ``report`` (a :class:`bgframes.kernel.ClassifyReport`)
    that decided."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class NotHermitian(NotBiGFrame):
    """The Hermitian deviation exceeded ``tol``: not even Bessel."""


class NotPositiveDefinite(NotBiGFrame):
    """Hermitian within ``tol``, but ``smallest_eigenvalue`` fails the spectrum gate."""

    @property
    def smallest_eigenvalue(self) -> float:
        return self.report._edges[0]


class ShapeMismatch(FrameToolError):
    """Operands have incompatible shapes or index structure."""


class ConstraintViolated(FrameToolError):
    """A coefficient sequence does not satisfy its synthesis constraint."""


class SchemaError(FrameToolError):
    """A JSON interchange file failed validation; message carries the field path."""
