"""Exception types shared across the toolkit."""


class DegenerateInputError(ValueError):
    """Inputs collapse a strict inequality (e.g. equal vectors in the gap)."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class NonConvergenceError(RuntimeError):
    """Iteration budget exhausted before the tolerance was met."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class SingularJacobianError(NonConvergenceError):
    """Regularized Jacobian produced non-finite values: the Newton solve
    cannot go on."""


class StepFailureError(RuntimeError):
    """ODE step controller failed (should not occur for Lipschitz fields)."""


class DryBallError(ValueError):
    """The rescale ball reaches outside the discrete wet set."""


class DomainExitError(ValueError):
    """Requested flow time lies outside the orbit's existence interval."""


class ConfigError(ValueError):
    """Malformed, unknown, or inconsistent run configuration."""
