"""Exception hierarchy shared across the package.

Exit-code mapping used by the CLI:
  ConfigError / ParameterError        -> 2
  any other OptocorrError             -> 3
  OSError                             -> 4
"""


class OptocorrError(Exception):
    """Base class for all package errors."""


class ConfigError(OptocorrError):
    """Malformed config file, unknown key, or bad override."""


class ParameterError(OptocorrError):
    """Physical parameter outside its allowed domain."""


class NonConvergenceError(OptocorrError):
    """No mean-field steady state: no real root of the mean-field polynomial
    passes the residual test, or the polynomial overflowed."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class UnstableDriftError(OptocorrError):
    """A steady state asked of an unstable point.  `measure`, `matrix --with-cm` and
    `--unstable error` apply the point rule, max Re lambda >= -1e-9 omega_m;
    `solve_lyapunov`'s own check, a drift spectrum with max Re lambda >= 0."""


class SingularSystemError(OptocorrError):
    """The half-vectorized Lyapunov system (36 unknowns for an 8x8 drift) is singular."""


class NumericDomainError(OptocorrError):
    """A numeric stage left its domain: an unphysical or overflowing covariance in a
    measure, a non-finite drift, a failed eigenvalue iteration or a negative n_th."""
