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
    _degree,
    _eigenpairs,
    _traces,
    _volume,
    class_spectrum,
    degree_integral,
    volume_integral,
)
from .lattice import (
    MetricField,
    ScalarField,
    _check_mean_zero,
    _hessian_multiplier,
    _require_same_geometry,
    _solution,
    _spectrum_shape,
)
from .planes import (
    _check_finite,
    _congruence,
    _descending_eigenvalues,
    _positive_definite,
    _split,
)
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
    spectrum's bins. ``W`` is one matrix, or one per bin (a stack's joined
    table rows).

    Entry ``(j, k)`` of the upper triangle has the real multiplier
    ``Re(c W_kj m_jk)``, with ``m_jk`` the Hessian multiplier and
    ``c = 1`` on the diagonal, 2 off it. It deliberately avoids the trace
    symbol that poisson_solve divides by, so the solver residual can
    expose a wrong symbol.
    """
    multiplier = np.zeros(_spectrum_shape(symbols))
    for j in range(len(symbols)):
        for k in range(j, len(symbols)):
            weight = W[..., j, j].real if j == k else 2.0 * W[..., k, j]
            multiplier += (weight * _hessian_multiplier(symbols, j, k)).real
    return multiplier


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
    f is read-only (``poisson_solve``). The count-1 case of the stacked
    normalize (``_normalized``) that certificates take.

    The right-hand side has zero mean by construction; a MeanNotZeroError
    out of the solver checks therefore signals an internal quadrature bug,
    not a property of the input.
    """
    W = omega._inverse  # NonConstantMetricError if it varies
    # The class scale sets only the default; a given tolerance is checked.
    scale = _class_scale(L, omega) if eps is None else 0.0
    eps = _resolve_eps(scale, eps)
    geom = _require_same_geometry(L, omega)
    ((f, c, residuals),) = _normalized([L], W[None], [omega._determinant])
    cert = PositivityCertificate(
        verdict=c > eps,
        margin=c,
        tolerance=eps,
        witness_metric=omega,
        witness_weight=f,
        residuals=residuals,
        details={
            "constant": c,
            "grid": list(geom.grid_shape),
        },
    )
    return f, cert


def _normalized(
    bundles: list[LineBundleMetric], W: np.ndarray, determinants: list[float]
) -> list[tuple[ScalarField, float, dict]]:
    """``normalize_scalar_curvature`` of each bundle against the constant
    metric with inverse ``W[i]`` and determinant ``determinants[i]``, on
    one stack (``stacks._Stack``): the exponent f, the class constant c
    and the residuals of each.

    The scalar curvatures come from ``curvature._traces``, with their
    symbol guarded for the solve; c is the degree over the volume.
    Subtracting c and the right-hand side's round-off mean leaves the
    Poisson right-hand side, solved where it is not zero; one that is
    nothing but round-off (constant scalar curvature already) is snapped
    to zero. The spectrum of the scalar curvature's varying part is the
    right-hand side's on every active mode, so it becomes f's in place,
    and then the spectrum of f's trace (``_trace_multiplier``), which the
    residual reads: one solve and one check serve the stack.
    """
    geom = bundles[0].geometry
    n, points = geom.complex_dim, geom.num_points
    s, table, waves, symbol = _traces(bundles, W)
    stack = waves.stack
    # The expression target_constant evaluates, on the s at hand.
    c = [
        n * _degree(geom, det, total) / _volume(geom, det)
        for det, total in zip(determinants, stack.sums(s))
    ]
    c_on = stack.repeat(np.array(c))
    rhs = s - c_on
    # c is the exact mean of s in exact arithmetic, so anything left in the
    # mean is quadrature round-off; it is removed so the solvability check
    # compares against genuinely oscillatory content.
    snapped = [
        r <= 1e-12 * (abs(ci) + m)
        for r, ci, m in zip(stack.max_abs(rhs), c, stack.max_abs(s))
    ]
    kept = [not snap for snap in snapped]
    totals = stack.sums(rhs, kept)
    rhs -= stack.repeat(np.array(totals) / points)
    for part, snap in zip(stack.split(rhs), snapped):
        if snap:
            part[...] = 0.0
    rhs_inf = stack.max_abs(rhs)
    # A snapped right-hand side is zeros, whose mean passes the check.
    for g_inf, total in zip(rhs_inf, stack.sums(rhs, kept)):
        _check_mean_zero(total / points, g_inf)
    # A right-hand side of one entry is zero by the mean check, as is one
    # of zeros: neither is solved, and f is the constant zero. A constant
    # weight's is snapped, so a stack with one solved has a symbol.
    solved = [g_inf > 0.0 for g_inf in rhs_inf]
    exponents = [None if solve else ScalarField.constant(geom, 0.0) for solve in solved]
    achieved = np.float64(0.0)
    if any(solved):
        table.over(symbol)
        f = waves.grid()
        for i, (part, total) in enumerate(zip(stack.split(f), stack.sums(f, solved))):
            if solved[i]:
                exponents[i] = _solution(table, part, waves.rows(i), total)
        table.times(_trace_multiplier(table.symbols, waves.on_rows(W)))
        achieved = waves.grid()
        for part, solve in zip(stack.split(achieved), solved):
            if not solve:
                part[...] = 0.0

    # Where nothing is solved, every right-hand side is zero.
    misses = stack.max_abs(achieved - rhs) if any(solved) else rhs_inf
    poisson = [d / g_inf if g_inf > 0.0 else 0.0 for d, g_inf in zip(misses, rhs_inf)]
    deviation = stack.max_abs(s - achieved - c_on)
    return [
        (f_i, c_i, {"poisson_rel": p, "scalar_deviation": d})
        for f_i, c_i, p, d in zip(exponents, c, poisson, deviation)
    ]


def aligned_inverse_weights(mu: np.ndarray, delta: float) -> np.ndarray:
    """Inverse-metric weights on the eigendirections of r_const.

    Weight 1 on strictly positive directions. A direction with eigenvalue
    -|mu_j| gets at most delta * (sum of positive mu) / (count of negative
    directions) / |mu_j|, capped at 1, so the negative directions eat at
    most a delta fraction of the positive trace:

        trace = sum w_j mu_j >= (1 - delta) * sum of positive mu,

    which is positive for 0 < delta < 1 only; any other delta raises
    ValueError. ``mu`` is one class's eigenvalues or a stack of them
    (classes on the leading axes), each row weighed alone.
    """
    _check_delta(delta)
    mu = np.asarray(mu, dtype=np.float64)
    negative = mu < 0.0
    # Adding the zeros leaves the sum of the positive entries, in order.
    pos_sum = np.where(mu > 0.0, mu, 0.0).sum(axis=-1, keepdims=True)
    m_neg = np.count_nonzero(negative, axis=-1, keepdims=True)
    w = np.ones_like(mu)
    np.divide(
        delta * pos_sum, m_neg * np.abs(mu), out=w, where=negative & (pos_sum > 0.0)
    )
    return np.minimum(1.0, w, out=w)


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
    """The metric ``U diag(1/w) U*`` on the eigenbasis U of r_const, or the
    stack of them of stacks of U and w."""
    omega = (U / w[..., None, :]) @ np.conj(np.swapaxes(U, -1, -2))
    return 0.5 * (omega + np.conj(np.swapaxes(omega, -1, -2)))


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
    raises ValueError on every class. The count-1 case of the stacked
    certificates (``_certificates``).
    """
    (cert,), (matrix,) = _certificates([L], delta, eps)
    if matrix is not None:
        cert.witness_metric = MetricField._gated(L.geometry, matrix)
    return cert


def _certificates(
    bundles: list[LineBundleMetric], delta: float, eps: float | None
) -> tuple[list[PositivityCertificate], list]:
    """``certify_n_minus_1_positive`` of each bundle, on one stack: the
    certificates (with no witness metric), and each bundle's witness
    matrix, or None for a class with no positive eigenvalue.

    The witness metrics are built, gated and inverted as one stack; the
    gate is ``MetricField``'s (``planes._positive_definite``) on matrices
    Hermitian by construction. The normalization is ``_normalized``.
    """
    _check_delta(delta)
    geom = bundles[0].geometry
    spectra = [class_spectrum(L) for L in bundles]
    tolerances = [_resolve_eps(float(np.abs(mu).max()), eps) for mu, _ in spectra]
    details = {"delta": delta, "grid": list(geom.grid_shape)}
    found = [bool((mu > 0.0).any()) for mu, _ in spectra]
    positive = [i for i, has in enumerate(found) if has]
    # The certificates of the others; the positive ones are filled below.
    certs = [
        None if has else PositivityCertificate(
            verdict=False,
            margin=float(mu.max()),
            tolerance=tol,
            details={"reason": "DualPseudoEffective", **details},
        )
        for (mu, _), tol, has in zip(spectra, tolerances, found)
    ]
    matrices = [None] * len(bundles)
    if not positive:
        return certs, matrices
    mu = np.stack([spectra[i][0] for i in positive])
    U = np.stack([spectra[i][1] for i in positive])
    witnesses = _aligned_matrix(U, aligned_inverse_weights(mu, delta))
    planes = _split(witnesses)
    _check_finite(planes)
    _positive_definite(planes)
    W = np.linalg.inv(witnesses)
    determinants = np.linalg.det(witnesses).real.tolist()
    normalized = _normalized([bundles[i] for i in positive], W, determinants)
    for k, (i, (f, c, residuals)) in enumerate(zip(positive, normalized)):
        certs[i] = PositivityCertificate(
            verdict=c > tolerances[i],
            margin=c,
            tolerance=tolerances[i],
            witness_weight=f,
            residuals=residuals,
            details={"constant": c, **details},
        )
        matrices[i] = witnesses[k]
    return certs, matrices
