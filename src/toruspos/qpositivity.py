"""Pointwise partial positivity of curvature and the uniformizing transform.

Positivity of a curvature field R relative to a base metric Omega is read
off the eigenvalues of the Hermitian pencil (R, Omega) at every grid
point. A bundle is q-positive when the (n-q)-th largest eigenvalue stays
positive across the torus, and uniformly q-positive when every sum of q+1
distinct eigenvalues does; the smallest such sum is the sum of the q+1
smallest eigenvalues, so only that one needs checking.

q-positivity alone already implies uniform q-positivity after replacing
the base metric: with

    t = log(n+1) / min_grid lambda_{n-q}      (positive by assumption)

the transformed metric

    new_Omega^{-1} = Omega^{-1/2} V diag(psi(t * lambda)) V* Omega^{-1/2},
    psi(x) = (exp(x) - 1) / x,  psi(0) = 1,

(V, lambda the pencil eigensystem) has pencil eigenvalues exactly
kappa_i = (exp(t * lambda_i) - 1) / t, and the sum of the q+1 smallest
kappa is bounded below by (exp(t * lambda_{n-q}) - (q+1)) / t > 0. The
transform is evaluated through the pencil eigensystem, which keeps the
output positive definite for any eigenvalue spread; the equivalent
truncated power series is retained only as a cross-check oracle. For
n <= 2 eigenvalues, matrix functions and the Omega^{-1/2} sandwiches are
closed-form elementwise formulas over the grid (see CONVENTIONS.md);
larger n uses batched LAPACK.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curvature import LineBundleMetric, PositivityCertificate, chern_curvature
from .errors import NotQPositiveError
from .lattice import (
    HermitianMatrixField,
    MetricField,
    TorusGeometry,
    _small_eigvalsh,
    _small_matrix_function,
)

#: Default positivity tolerance, relative to the largest |eigenvalue|.
DEFAULT_EPS_REL = 1e-9

#: Truncation order of the power-series oracle.
SERIES_TERMS = 30


@dataclass
class EigenvalueField:
    """Real pencil eigenvalues per grid point, sorted descending."""

    geometry: TorusGeometry
    values: np.ndarray

    def __post_init__(self) -> None:
        n = self.geometry.complex_dim
        vals = np.asarray(self.values, dtype=np.float64)
        expected = (*self.geometry.grid_shape, n)
        if vals.shape != expected:
            raise ValueError(f"eigenvalue field shape {vals.shape} != {expected}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("eigenvalue field contains non-finite values")
        if n > 1 and not np.all(vals[..., :-1] >= vals[..., 1:]):
            raise ValueError("eigenvalues must be sorted descending at every point")
        self.values = vals

    def at_rank(self, rank: int) -> np.ndarray:
        """Eigenvalue array at 1-based rank from the largest."""
        n = self.geometry.complex_dim
        if not 1 <= rank <= n:
            raise ValueError(f"rank must be in 1..{n}, got {rank}")
        return self.values[..., rank - 1]

    def smallest_sum(self, count: int) -> np.ndarray:
        """Pointwise sum of the ``count`` smallest eigenvalues."""
        n = self.geometry.complex_dim
        if not 1 <= count <= n:
            raise ValueError(f"count must be in 1..{n}, got {count}")
        return np.sum(self.values[..., n - count :], axis=-1)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))


def _base_matrix(omega: MetricField) -> np.ndarray:
    """The n x n matrix of a constant metric, else the whole field."""
    const = omega.matrix
    return omega.values if const is None else const


def _inverse_sqrt(x: np.ndarray) -> np.ndarray:
    return 1.0 / np.sqrt(x)


def _spectral_functions(base: np.ndarray, *fns) -> list[np.ndarray]:
    """``f(Base)`` for each ``f``, of a constant matrix or a field of them.

    n <= 2 uses the closed-form spectral calculus; larger n one batched
    Hermitian eigendecomposition shared by every ``f``.
    """
    if base.shape[-1] <= 2:
        return _small_matrix_function(base, *fns)
    d, Q = np.linalg.eigh(base)
    if base.ndim == 2:
        return [(Q * fn(d)) @ Q.conj().T for fn in fns]
    return [np.einsum("...ij,...j,...kj->...ik", Q, fn(d), Q.conj()) for fn in fns]


def _inverse_root(base: np.ndarray) -> np.ndarray:
    """Base^{-1/2} of a constant matrix or a field of them."""
    (inv_root,) = _spectral_functions(base, _inverse_sqrt)
    return inv_root


def _sandwich(P: np.ndarray, M: np.ndarray) -> np.ndarray:
    """``P M P`` for Hermitian P and M, each a constant matrix or a field.

    For n <= 2 the product is expanded entry by entry over the grid (only
    the real diagonal and lower triangle are read) and is exactly Hermitian.
    """
    if M.shape[-1] == 1:
        return P[..., :1, :1].real ** 2 * M[..., :1, :1].real
    if M.shape[-1] == 2:
        p, s, t = P[..., 0, 0].real, P[..., 1, 1].real, P[..., 1, 0]
        a, d, w = M[..., 0, 0].real, M[..., 1, 1].real, M[..., 1, 0]
        cross = t.real * w.real + t.imag * w.imag  # Re(conj(t) w)
        tt = t.real * t.real + t.imag * t.imag
        out = np.empty(np.broadcast_shapes(P.shape, M.shape), dtype=np.complex128)
        out[..., 0, 0] = p * p * a + 2.0 * p * cross + tt * d
        out[..., 1, 1] = tt * a + 2.0 * s * cross + s * s * d
        out[..., 1, 0] = t * (p * a + s * d) + p * s * w + t * t * np.conj(w)
        out[..., 0, 1] = np.conj(out[..., 1, 0])
        return out
    if P.ndim == 2 and M.ndim > 2:
        return np.einsum("ij,...jk,kl->...il", P, M, P)
    return P @ M @ P


def _descending_eigenvalues(B: np.ndarray) -> np.ndarray:
    """Eigenvalues of Hermitian B (one matrix or a field), descending."""
    if B.shape[-1] <= 2:
        return _small_eigvalsh(B)
    return np.ascontiguousarray(np.linalg.eigvalsh(B)[..., ::-1])


def generalized_eigenvalues(
    R: HermitianMatrixField, omega: MetricField
) -> EigenvalueField:
    """Eigenvalues of the pencil (R, Omega) at every grid point.

    These are the eigenvalues of the Hermitian matrix
    Omega^{-1/2} R Omega^{-1/2}; real, base-point orthonormal-frame
    independent, and returned sorted descending.
    """
    if R.geometry != omega.geometry:
        raise ValueError("curvature and base metric live on different grids")
    B = _sandwich(_inverse_root(_base_matrix(omega)), R.values)
    return EigenvalueField(R.geometry, _descending_eigenvalues(B))


def _resolve_eps(ev_scale: float, eps: float | None) -> float:
    if eps is not None:
        if not eps >= 0:
            raise ValueError(f"tolerance must be nonnegative, got {eps}")
        return float(eps)
    return DEFAULT_EPS_REL * ev_scale


def _certificate_details(ev: EigenvalueField, q: int, mode: str) -> dict:
    return {
        "q": q,
        "mode": mode,
        "eigenvalue_min": float(np.min(ev.values)),
        "eigenvalue_max": float(np.max(ev.values)),
        "grid": list(ev.geometry.grid_shape),
    }


def _validate_q(n: int, q: int) -> None:
    if not 0 <= q <= n - 1:
        raise ValueError(f"q must satisfy 0 <= q <= {n - 1}, got {q}")


def check_q_positive(
    L: LineBundleMetric,
    omega: MetricField,
    q: int,
    eps: float | None = None,
) -> PositivityCertificate:
    """Does the curvature keep at least n-q positive eigenvalues everywhere?

    The margin is the grid minimum of the (n-q)-th largest pencil
    eigenvalue; the verdict requires it to clear ``eps`` (default
    1e-9 times the largest |eigenvalue|, so the check is scale invariant).
    """
    n = L.geometry.complex_dim
    _validate_q(n, q)
    ev = generalized_eigenvalues(chern_curvature(L), omega)
    margin = float(np.min(ev.at_rank(n - q)))
    eps = _resolve_eps(ev.max_abs(), eps)
    return PositivityCertificate(
        verdict=margin > eps,
        margin=margin,
        tolerance=eps,
        details=_certificate_details(ev, q, "pointwise"),
    )


def check_uniform_q_positive(
    L: LineBundleMetric,
    omega: MetricField,
    q: int,
    eps: float | None = None,
) -> PositivityCertificate:
    """Is every sum of q+1 distinct pencil eigenvalues positive everywhere?

    Eigenvalues are sorted, so the minimal sum is that of the q+1 smallest;
    the margin is its grid minimum.
    """
    n = L.geometry.complex_dim
    _validate_q(n, q)
    ev = generalized_eigenvalues(chern_curvature(L), omega)
    margin = float(np.min(ev.smallest_sum(q + 1)))
    eps = _resolve_eps(ev.max_abs(), eps)
    return PositivityCertificate(
        verdict=margin > eps,
        margin=margin,
        tolerance=eps,
        details=_certificate_details(ev, q, "uniform"),
    )


def growth_rate(ev: EigenvalueField, q: int, eps: float | None = None) -> float:
    """Exponent ``log(n+1) / min_grid lambda_{n-q}`` of the uniformizer.

    Raises NotQPositiveError when the minimum does not clear ``eps``: the
    transform is only defined for q-positive curvature.
    """
    n = ev.geometry.complex_dim
    _validate_q(n, q)
    floor = float(np.min(ev.at_rank(n - q)))
    eps = _resolve_eps(ev.max_abs(), eps)
    if not floor > eps:
        raise NotQPositiveError(
            f"rank-{n - q} eigenvalue minimum {floor:.6e} does not exceed "
            f"tolerance {eps:.6e}; curvature is not q-positive for q = {q}"
        )
    return math.log(n + 1) / floor


def expm1_over_x(x: np.ndarray) -> np.ndarray:
    """psi(x) = (exp(x) - 1)/x extended by psi(0) = 1; positive for all x."""
    x = np.asarray(x, dtype=np.float64)
    out = np.ones_like(x)
    nz = x != 0.0
    out[nz] = np.expm1(x[nz]) / x[nz]
    return out


def uniform_margin_bound(rate: float, lam_floor: float, q: int) -> float:
    """Guaranteed lower bound for the transformed (q+1)-smallest sum.

    Equals (exp(rate * lam_floor) - (q+1)) / rate, which is positive
    because rate * lam_floor >= log(n+1) >= log(q+2).
    """
    return (math.exp(rate * lam_floor) - (q + 1)) / rate


def uniformize_metric(
    L: LineBundleMetric,
    omega: MetricField,
    q: int,
    eps: float | None = None,
) -> MetricField:
    """Base-metric transform turning q-positivity into uniform q-positivity.

    Evaluated pointwise through the pencil eigensystem: with eigenpairs
    (lambda, V) of Omega^{-1/2} R Omega^{-1/2} and t the growth_rate, the
    new metric is Omega^{1/2} V diag(1/psi(t*lambda)) V* Omega^{1/2}.
    psi > 0 everywhere keeps the result positive definite, and the pencil
    eigenvalues of R against the output equal (exp(t*lambda_i) - 1)/t.

    Raises NotQPositiveError (via growth_rate) when the input curvature is
    not q-positive against ``omega``.
    """
    n = L.geometry.complex_dim
    _validate_q(n, q)
    R = chern_curvature(L)
    if R.geometry != omega.geometry:
        raise ValueError("curvature and base metric live on different grids")
    root, inv_root = _spectral_functions(_base_matrix(omega), np.sqrt, _inverse_sqrt)
    B = _sandwich(inv_root, R.values)
    if n <= 2:
        ev = EigenvalueField(L.geometry, _small_eigvalsh(B))
        rate = growth_rate(ev, q, eps)
        (middle,) = _small_matrix_function(
            B, lambda x: 1.0 / expm1_over_x(rate * x)
        )
        return MetricField(L.geometry, _sandwich(root, middle))
    lam, V = np.linalg.eigh(B)  # ascending
    ev = EigenvalueField(L.geometry, np.ascontiguousarray(lam[..., ::-1]))
    rate = growth_rate(ev, q, eps)

    shrink = 1.0 / expm1_over_x(rate * lam)
    middle = np.einsum("...ij,...j,...kj->...ik", V, shrink, V.conj())
    new = _sandwich(root, middle)
    new = 0.5 * (new + np.conj(np.swapaxes(new, -1, -2)))
    return MetricField(L.geometry, new)


def uniformized_metric_series(
    L: LineBundleMetric,
    omega: MetricField,
    q: int,
    terms: int = SERIES_TERMS,
    eps: float | None = None,
) -> MetricField:
    """Truncated power-series route to the same transform (test oracle).

    Builds new_Omega^{-1} = Omega^{-1} (Id + sum_{k=1}^{terms}
    t^k (R Omega^{-1})^k / (k+1)!) and inverts pointwise. Truncation error
    decays like the tail of exp, so agreement with the eigendecomposition
    route to 1e-10 needs |t * lambda| moderate (roughly below 7 for the
    default 30 terms); the eigensystem route has no such restriction and
    is the one production code paths use.
    """
    n = L.geometry.complex_dim
    _validate_q(n, q)
    R = chern_curvature(L)
    ev = generalized_eigenvalues(R, omega)
    rate = growth_rate(ev, q, eps)

    const = omega.matrix
    if const is not None:
        W = np.broadcast_to(np.linalg.inv(const), R.values.shape)
    else:
        W = np.linalg.inv(omega.values)
    M = rate * (R.values @ W)
    eye = np.broadcast_to(np.eye(n, dtype=np.complex128), R.values.shape)
    acc = eye.copy()
    power = eye.copy()
    for k in range(1, terms + 1):
        power = power @ M
        acc = acc + power / math.factorial(k + 1)
    new_inverse = W @ acc
    new = np.linalg.inv(new_inverse)
    new = 0.5 * (new + np.conj(np.swapaxes(new, -1, -2)))
    return MetricField(L.geometry, new)
