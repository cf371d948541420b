"""Exception types shared across the toolkit."""


class TorusposError(Exception):
    """Base class for all toolkit errors."""


class GeometryMismatchError(TorusposError, ValueError):
    """Two fields do not live on the same discretized torus."""


class MeanNotZeroError(TorusposError, ValueError):
    """Right-hand side of the constant-coefficient elliptic solve has a
    nonzero grid mean, so no periodic solution exists."""


class NonConstantMetricError(TorusposError, ValueError):
    """An operation that requires a constant base metric received a metric
    field that varies over the grid."""


class NotQPositiveError(TorusposError, ValueError):
    """The curvature field is not q-positive on the grid, so the exponential
    rescaling transform is undefined."""


class UniformizationRangeError(TorusposError):
    """The uniformizing transform of a valid q-positive instance leaves the
    float64 range: ``exp(rate * lambda_max)`` overflows, or the transformed
    metric is so ill-conditioned that its computed values are not positive
    definite, so it cannot be represented. Not a configuration problem."""


class ConfigError(TorusposError, ValueError):
    """Command-line configuration is missing, unparseable, or inconsistent."""


class InternalInvariantError(TorusposError, RuntimeError):
    """A quantity the implementation guarantees was violated at runtime.

    This always indicates a bug or a numerically hostile input, never a
    negative verdict.
    """
