"""Constant-scalar-curvature normalization and trace-positivity certificates.

Given a bundle metric with curvature R = r_const + Hessian(phi) and a
constant base metric Omega, the average of trace(Omega^{-1} R) over the
torus is a class invariant

    c = n * degree_integral / volume_integral = trace(Omega^{-1} r_const).

Subtracting c leaves a mean-zero field, so the periodic trace equation

    trace(Omega^{-1} Hessian(f)) = trace(Omega^{-1} R) - c

is solvable; replacing the weight phi by phi - f then makes the scalar
curvature identically c. Whether c can be made positive by choosing Omega
is a property of r_const alone: trace(Omega^{-1} r_const) is linear in
Omega^{-1}, so positive trace is achievable exactly when r_const has a
strictly positive eigenvalue, and a metric aligned with the eigenbasis of
r_const (weight 1 on positive directions, a small weight elsewhere)
realizes it. certify_n_minus_1_positive performs that search and returns
the witness metric and weight.
"""

from __future__ import annotations

import numpy as np

from .curvature import (
    LineBundleMetric,
    PositivityCertificate,
    _degree_of_trace,
    _eigenpairs,
    _scalar_curvature,
    class_spectrum,
    degree_integral,
    volume_integral,
)
from .lattice import (
    MetricField,
    ScalarField,
    _check_mean_zero,
    _checked_symbol,
    _compact,
    _from_core,
    _hessian_multiplier,
    _known_constant,
    _max_abs,
    _solve,
    _Spectrum,
    _spectrum_shape,
    _sum,
    constant_metric,
)
from .planes import _congruence, _descending_eigenvalues
from .qpositivity import _operand, _resolve_eps

#: Default relative weight put on non-positive eigendirections of r_const
#: when assembling an aligned witness metric.
DEFAULT_DELTA = 1e-3


def target_constant(L: LineBundleMetric, omega: MetricField) -> float:
    """The unique constant the scalar curvature can be normalized to."""
    n = L.geometry.complex_dim
    return n * degree_integral(L, omega) / volume_integral(omega)


def _class_scale(L: LineBundleMetric, omega: MetricField) -> float:
    """Largest |pencil eigenvalue| of (r_const, Omega) for a constant
    metric, whitened by its kept factor: the scale of c."""
    _, inverse = omega._factor
    mu = _descending_eigenvalues(_congruence(inverse, _operand(L.r_const)))
    return float(np.abs(mu).max()) if mu.size else 0.0


def _trace_multiplier(symbols: tuple[np.ndarray, ...], W: np.ndarray) -> np.ndarray:
    """The real multiplier of ``f -> trace(W . complex_hessian(f))`` from
    the Hessian's own entries, on ``symbols``: the d/dz symbols at a
    spectrum's bins.

    Entry ``(j, k)`` of the upper triangle has the real multiplier
    ``Re(c W_kj m_jk)``, with ``m_jk`` the Hessian multiplier and
    ``c = 1`` on the diagonal, 2 off it. It deliberately avoids the trace
    symbol that poisson_solve divides by, so the solver residual can
    expose a wrong symbol.
    """
    multiplier = np.zeros(_spectrum_shape(symbols))
    for j in range(len(symbols)):
        for k in range(j, len(symbols)):
            weight = W[j, j].real if j == k else 2.0 * W[k, j]
            multiplier += (weight * _hessian_multiplier(symbols, j, k)).real
    return multiplier


def _hessian_trace(spectrum: _Spectrum, W: np.ndarray) -> np.ndarray:
    """``trace(W . complex_hessian(f))`` of the field f with ``spectrum``,
    from the Hessian's own entries (``_trace_multiplier``); the n x n
    field is never assembled. ``spectrum`` is overwritten."""
    return spectrum.times(_trace_multiplier(spectrum.symbols, W)).grid()


def normalize_scalar_curvature(
    L: LineBundleMetric,
    omega: MetricField,
    eps: float | None = None,
) -> tuple[ScalarField, PositivityCertificate]:
    """Flatten the scalar curvature to its class constant c.

    Returns the mean-zero conformal exponent f (the new weight is
    phi - f, i.e. the metric is multiplied by exp(f)) together with a
    certificate recording the solver residual, the deviation of the
    achieved scalar curvature from c, and the verdict c > eps. A
    constant weight gives the constant zero exponent, with no transform.
    f is read-only (``poisson_solve``).

    The right-hand side has zero mean by construction; a MeanNotZeroError
    out of the solver checks therefore signals an internal quadrature bug,
    not a property of the input.
    """
    geom = L.geometry
    grid = geom.grid_shape
    W = omega._inverse  # NonConstantMetricError if it varies
    # The class scale sets only the default; a given tolerance is checked.
    scale = _class_scale(L, omega) if eps is None else 0.0
    eps = _resolve_eps(scale, eps)
    # At most one trace symbol per call, built only where it is used: the
    # scalar curvature filters a varying weight with it, at the bins of the
    # weight's spectrum, and the solver divides by the same one. A constant weight
    # leaves nothing to filter or solve.
    s, spectrum, symbol = _scalar_curvature(L, omega, checked=True)
    # The expression target_constant evaluates, on the s already at hand.
    degree = _degree_of_trace(s, omega._determinant)
    c = geom.complex_dim * degree / volume_integral(omega)
    rhs = _compact(s) - c
    # c is the exact mean of s in exact arithmetic, so anything left in the
    # mean is quadrature round-off; remove it so the solvability check
    # compares against genuinely oscillatory content. A right-hand side
    # that is nothing but that round-off (constant scalar curvature
    # already) is snapped to exact zero.
    if _max_abs(rhs) <= 1e-12 * (abs(c) + s.max_abs()):
        rhs = np.float64(0.0)
    else:
        rhs = rhs - _sum(rhs, grid) / geom.num_points
    rhs = _from_core(geom, rhs)
    rhs_inf = _check_mean_zero(rhs)
    if _known_constant(rhs):  # zero, by the mean check
        f, achieved = ScalarField.constant(geom, 0.0), np.float64(0.0)
    else:
        # On every active mode the spectrum s was built from is the
        # right-hand side's (c and the mean sit on the constant mode). A
        # grid copy of a constant metric gave s pointwise, with no spectrum.
        # The spectrum becomes f's in place; it and the symbol are dropped
        # as soon as they are used, since they set the call's peak memory.
        if spectrum is None:
            spectrum = _Spectrum.of(rhs)
            symbol = _checked_symbol(spectrum, W)
        f = _solve(spectrum, symbol)
        del symbol
        achieved = _hessian_trace(spectrum, W)
        del spectrum

    if rhs_inf > 0.0:
        poisson_residual = _max_abs(achieved - _compact(rhs)) / rhs_inf
    else:
        poisson_residual = 0.0
    scalar_deviation = _max_abs(_compact(s) - achieved - c)

    cert = PositivityCertificate(
        verdict=c > eps,
        margin=c,
        tolerance=eps,
        witness_metric=omega,
        witness_weight=f,
        residuals={
            "poisson_rel": poisson_residual,
            "scalar_deviation": scalar_deviation,
        },
        details={
            "constant": c,
            "grid": list(geom.grid_shape),
        },
    )
    return f, cert


def aligned_inverse_weights(mu: np.ndarray, delta: float) -> np.ndarray:
    """Inverse-metric weights on the eigendirections of r_const.

    Weight 1 on strictly positive directions. A direction with eigenvalue
    -|mu_j| gets at most delta * (sum of positive mu) / (count of negative
    directions) / |mu_j|, capped at 1, so the negative directions eat at
    most a delta fraction of the positive trace:

        trace = sum w_j mu_j >= (1 - delta) * sum of positive mu,

    which is positive for 0 < delta < 1 only; any other delta raises
    ValueError.
    """
    _check_delta(delta)
    mu = np.asarray(mu, dtype=np.float64)
    positive = mu > 0.0
    negative = mu < 0.0
    pos_sum = float(mu[positive].sum())
    w = np.ones_like(mu)
    m_neg = int(np.count_nonzero(negative))
    if m_neg and pos_sum > 0.0:
        w[negative] = np.minimum(
            1.0, delta * pos_sum / (m_neg * np.abs(mu[negative]))
        )
    return w


def _check_delta(delta: float) -> None:
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta!r}")


def aligned_metric_matrix(
    r_const: np.ndarray, delta: float = DEFAULT_DELTA
) -> np.ndarray | None:
    """Constant PD metric aligned with r_const's eigenbasis, or None.

    None when r_const has no strictly positive eigenvalue (no aligned
    choice can make the trace positive; nothing can, by linearity).
    """
    mu, U = _eigenpairs(r_const)
    if not (mu > 0.0).any():
        return None
    return _aligned_matrix(U, aligned_inverse_weights(mu, delta))


def _aligned_matrix(U: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The metric ``U diag(1/w) U*`` on the eigenbasis U of r_const."""
    omega = (U / w) @ U.conj().T
    return 0.5 * (omega + omega.conj().T)


def certify_n_minus_1_positive(
    L: LineBundleMetric,
    delta: float = DEFAULT_DELTA,
    eps: float | None = None,
) -> PositivityCertificate:
    """Search for a constant metric whose normalized scalar curvature is > 0.

    Eigen-aligned candidates suffice: the normalized constant is
    trace(Omega^{-1} r_const), linear in Omega^{-1}, so it can be made
    positive iff r_const has a strictly positive eigenvalue. On success the
    certificate carries the witness metric and conformal exponent; when
    r_const is negative semidefinite the verdict is false with reason
    DualPseudoEffective and no solve is attempted. A delta outside (0, 1)
    raises ValueError on every class.
    """
    geom = L.geometry
    _check_delta(delta)
    mu, U = class_spectrum(L)
    eps = _resolve_eps(float(np.abs(mu).max()), eps)

    if not (mu > 0.0).any():
        return PositivityCertificate(
            verdict=False,
            margin=float(mu.max()),
            tolerance=eps,
            details={
                "reason": "DualPseudoEffective",
                "delta": delta,
                "grid": list(geom.grid_shape),
            },
        )

    matrix = _aligned_matrix(U, aligned_inverse_weights(mu, delta))
    omega = constant_metric(geom, matrix)
    f, inner = normalize_scalar_curvature(L, omega, eps=eps)
    c = inner.margin
    return PositivityCertificate(
        verdict=c > eps,
        margin=c,
        tolerance=eps,
        witness_metric=omega,
        witness_weight=f,
        residuals=dict(inner.residuals),
        details={
            "constant": c,
            "delta": delta,
            "grid": list(geom.grid_shape),
        },
    )
