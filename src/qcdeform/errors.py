"""Exception types shared across the package."""


class QcdeformError(Exception):
    """Base class for all package-specific errors."""


class EvaluationDomainError(QcdeformError):
    """Point lies outside the region where a series evaluation is trusted."""


class SingularDivisionError(QcdeformError):
    """Series division by a series whose constant term vanishes."""


class ResolutionError(QcdeformError):
    """Sampling resolution too low: aliasing bound above tolerance."""


class SingularKernelError(QcdeformError):
    """Kernel pole touches the integration domain."""


class IllConditionedBasisError(QcdeformError):
    """Gram system condition number beyond the usable range."""


class DivergenceError(QcdeformError):
    """Iteration terms stopped contracting."""


class ConvergenceError(QcdeformError):
    """Iteration exhausted its budget, or the target has no admissible solution."""


class DilatationBoundError(QcdeformError):
    """Dilatation sup-norm violates the quasiconformality ceiling."""
