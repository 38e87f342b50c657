"""Exception hierarchy shared by all normetry modules."""


class NormetryError(Exception):
    """Base class for all errors raised by this package."""


class ConvergenceFailure(NormetryError):
    """An eigen/singular value iteration failed to meet its residual target."""


class DomainError(NormetryError):
    """A scalar function was evaluated outside its domain."""


class DimensionMismatch(NormetryError):
    """Operands have incompatible shapes."""


class BadSpec(NormetryError):
    """A norm or generator specification is invalid (e.g. Ky Fan k > n)."""


class MixedClass(NormetryError):
    """Cone combination of scalar functions from different classes."""


class ShapeValidationFailed(NormetryError):
    """A scalar function does not satisfy its declared shape class."""


class NotAContraction(NormetryError):
    """Operator required to be a contraction is not one."""


class NotExpansive(NormetryError):
    """Operator required to be expansive is not one."""


class NotPositiveDefinite(NormetryError):
    """Operand required to be positive definite is not."""


class NotNormal(NormetryError):
    """Operand required to be normal is not."""


class IndexOutOfRange(NormetryError):
    """Eigenvalue index outside the matrix dimension."""


class UnknownCheck(NormetryError):
    """Check id not present in the registry."""


class MalformedCertificate(NormetryError):
    """A replay certificate lacks a field or holds one of the wrong type."""


class WorkerLost(NormetryError):
    """A worker process ended without sending its outcome."""
