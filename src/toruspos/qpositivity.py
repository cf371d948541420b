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
output positive definite for any eigenvalue spread; the tests keep the
equivalent truncated power series as a cross-check oracle.

The pencil eigenvalues and the transform take one path for every n. Each
field or matrix becomes a kernel operand (``_operand``), a constant base
is factored once, and the kernels run one L2-sized tile of the grid at a
time. The operand selects the kernels: for n <= 2 eigenvalues, matrix
functions and the Omega^{-1/2} sandwiches are closed-form elementwise
formulas on component planes (see CONVENTIONS.md); larger n uses batched
LAPACK on one n x n matrix or on the whole, untiled stack. A pencil whose
two fields are read-only is solved once: its eigenvalues are remembered
on the curvature field. The transform takes its rate from that solve and
returns a read-only metric, so the checks and the transform share one
solve per (R, Omega) pair.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .curvature import LineBundleMetric, PositivityCertificate, chern_curvature
from .errors import NotQPositiveError, UniformizationRangeError
from .lattice import (
    HermitianMatrixField,
    MetricField,
    TorusGeometry,
    _freeze,
    _frozen,
    _join,
    _max_abs,
    _small_eigvalsh,
    _small_matrix_function,
    _split,
    _tiled,
)

#: Default positivity tolerance, relative to the largest |eigenvalue|.
DEFAULT_EPS_REL = 1e-9

#: Largest argument of ``exp`` with a finite float64 result.
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class EigenvalueField:
    """Real pencil eigenvalues per grid point, sorted descending.

    Frozen, because a solved pencil hands one field to every caller.
    """

    geometry: TorusGeometry
    values: np.ndarray

    def __post_init__(self) -> None:
        self._validate(check_order=True)

    @classmethod
    def _descending(cls, geometry: TorusGeometry, values) -> "EigenvalueField":
        """A field of ``_descending_eigenvalues`` output. That is sorted by
        construction, so only the shape and finiteness are checked."""
        field = cls.__new__(cls)
        object.__setattr__(field, "geometry", geometry)
        object.__setattr__(field, "values", values)
        field._validate(check_order=False)
        return field

    def _validate(self, check_order: bool) -> None:
        n = self.geometry.complex_dim
        vals = np.asarray(self.values, dtype=np.float64)
        expected = (*self.geometry.grid_shape, n)
        if vals.shape != expected:
            raise ValueError(f"eigenvalue field shape {vals.shape} != {expected}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("eigenvalue field contains non-finite values")
        if check_order and n > 1 and not np.all(vals[..., :-1] >= vals[..., 1:]):
            raise ValueError("eigenvalues must be sorted descending at every point")
        object.__setattr__(self, "values", vals)

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
        return _max_abs(self.values)


def _operand(x):
    """Kernel operand of an n x n matrix, a stack of them, or a field.

    The component planes for n <= 2 (0-d for one matrix or a constant
    field); for larger n the matrix itself, a constant field's ``matrix``,
    or else the field's ``values``.
    """
    if isinstance(x, HermitianMatrixField):
        if x._planes is not None:
            return x._planes
        const = x.matrix
        return x.values if const is None else const
    return _split(x) if x.shape[-1] <= 2 else x


def _inverse_sqrt(x: np.ndarray) -> np.ndarray:
    return 1.0 / np.sqrt(x)


def _spectral_functions(base, *fns) -> list:
    """``f(Base)`` for each ``f``, of a constant matrix or a field of them.

    Planes (n <= 2) take the closed-form spectral calculus and give
    planes; larger n one batched Hermitian eigendecomposition shared by
    every ``f``.
    """
    if isinstance(base, tuple):
        return _small_matrix_function(base, *fns)
    d, Q = np.linalg.eigh(base)
    if base.ndim == 2:
        return [(Q * fn(d)) @ Q.conj().T for fn in fns]
    return [np.einsum("...ij,...j,...kj->...ik", Q, fn(d), Q.conj()) for fn in fns]


def _sandwich(P, M):
    """``P M P`` for Hermitian P and M, each a constant matrix or a field.

    On planes (n <= 2) the product is expanded entry by entry over the
    grid and is exactly Hermitian.
    """
    if isinstance(M, tuple):
        if len(M) == 1:
            return (P[0] ** 2 * M[0],)
        p, s, t = P
        a, d, w = M
        cross = t.real * w.real + t.imag * w.imag  # Re(conj(t) w)
        tt = t.real * t.real + t.imag * t.imag
        return (
            p * p * a + 2.0 * p * cross + tt * d,
            tt * a + 2.0 * s * cross + s * s * d,
            t * (p * a + s * d) + p * s * w + t * t * np.conj(w),
        )
    return P @ M @ P


def _descending_eigenvalues(B) -> np.ndarray:
    """Eigenvalues of Hermitian B (one matrix or a field), descending.

    The order holds by construction: the closed form puts ``max(a, d) + t``
    above ``min(a, d) - t`` with ``t >= 0``, and LAPACK returns its
    eigenvalues ascending.
    """
    if isinstance(B, tuple):
        return np.stack(_small_eigvalsh(B), axis=-1)
    return np.ascontiguousarray(np.linalg.eigvalsh(B)[..., ::-1])


def _base_factors(base, *fns):
    """Tile kernel giving ``[f(Base) for f in fns]`` on a tile of the base
    operand: a constant base (0-d planes or one matrix) is factored once,
    here, and a varying one tile by tile."""
    varying = any(p.ndim for p in base) if isinstance(base, tuple) else base.ndim > 2
    if varying:
        return lambda tile: _spectral_functions(tile, *fns)
    factors = _spectral_functions(base, *fns)
    return lambda tile: factors


def _pencil_eigenvalues(geom: TorusGeometry, field, base) -> EigenvalueField:
    """Descending eigenvalues of the pencil of two operands (see
    ``_operand``); a constant pencil is solved once and broadcast over
    the grid.

    Planes (n <= 2) are whitened and solved one tile at a time, so no
    grid-sized Base^{-1/2} or Base^{-1/2} R Base^{-1/2} is formed.
    """
    inverse_root = _base_factors(base, _inverse_sqrt)

    def eigenvalues(f, w):
        (inv_root,) = inverse_root(w)
        return (_descending_eigenvalues(_sandwich(inv_root, f)),)

    (lam,) = _tiled(eigenvalues, geom.grid_shape, field, base)
    if lam.ndim == 1:
        lam = np.broadcast_to(lam, (*geom.grid_shape, lam.size))
    return EigenvalueField._descending(geom, lam)


def _solve_pencil(R: HermitianMatrixField, omega: MetricField) -> EigenvalueField:
    """Read-only pencil eigenvalues of (R, omega), solved once per frozen pair.

    When neither field can change (``_frozen``), ``R`` keeps one entry:
    the last ``omega`` it was solved against and the result. The same
    ``omega`` object (``is``) gets the same field back; any other metric
    is solved and replaces the entry.
    """
    cached = R._pencil
    if cached is not None and cached[0] is omega:
        return cached[1]
    ev = _pencil_eigenvalues(R.geometry, _operand(R), _operand(omega))
    ev.values.setflags(write=False)
    if _frozen(R) and _frozen(omega):
        R._pencil = (omega, ev)
    return ev


def generalized_eigenvalues(
    R: HermitianMatrixField, omega: MetricField
) -> EigenvalueField:
    """Eigenvalues of the pencil (R, Omega) at every grid point.

    These are the eigenvalues of the Hermitian matrix
    Omega^{-1/2} R Omega^{-1/2}; real, base-point orthonormal-frame
    independent, and returned sorted descending in a read-only array.
    When both fields are read-only the result is remembered on ``R``:
    asking again with the same ``omega`` object returns the same field
    without solving the pencil again.
    """
    if R.geometry != omega.geometry:
        raise ValueError("curvature and base metric live on different grids")
    return _solve_pencil(R, omega)


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
    The pencil is solved by ``generalized_eigenvalues``, so a repeated
    (curvature, ``omega``) pair is solved once.
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
    the margin is its grid minimum. The pencil is solved by
    ``generalized_eigenvalues``, so a repeated (curvature, ``omega``) pair
    is solved once.
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
    return np.divide(np.expm1(x), x, out=np.ones_like(x), where=x != 0.0)


def uniform_margin_bound(rate: float, lam_floor: float, q: int) -> float:
    """Guaranteed lower bound for the transformed (q+1)-smallest sum.

    Equals (exp(rate * lam_floor) - (q+1)) / rate, which is positive
    because rate * lam_floor >= log(n+1) >= log(q+2).
    """
    return (math.exp(rate * lam_floor) - (q + 1)) / rate


def _uniformizing_rate(ev: EigenvalueField, q: int, eps: float | None) -> float:
    """``growth_rate``, refused when ``exp(rate * lambda_max)`` overflows.

    The shrink ``1/psi(rate * lambda)`` then underflows to 0 and float64
    cannot hold the transformed metric.
    """
    rate = growth_rate(ev, q, eps)
    top = rate * float(ev.values.max())
    if top > _LOG_FLOAT_MAX:
        raise UniformizationRangeError(
            f"rate * largest eigenvalue = {top:.6e} exceeds log(float max) = "
            f"{_LOG_FLOAT_MAX:.6e}; the uniformized metric is not representable"
        )
    return rate


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

    The rate comes from the shared pencil solve of (R, omega), and every
    array behind the output is read-only, so the checks run against it
    share one pencil solve, as they do against ``omega``.

    Raises NotQPositiveError (via growth_rate) when the input curvature is
    not q-positive against ``omega``, and UniformizationRangeError when
    ``exp(rate * lambda_max)`` leaves the float64 range or the computed
    metric fails its finiteness or positive-definite gate.
    """
    n = L.geometry.complex_dim
    _validate_q(n, q)
    R = chern_curvature(L)
    if R.geometry != omega.geometry:
        raise ValueError("curvature and base metric live on different grids")
    # Pass 1 finds the rate from the pencil eigenvalues, solved once per
    # (R, omega) pair and shared with the checks; pass 2 whitens R again,
    # tile by tile, and maps it through the shrink and the root sandwich.
    rate = _uniformizing_rate(_solve_pencil(R, omega), q, eps)
    base = _operand(omega)
    roots = _base_factors(base, np.sqrt, _inverse_sqrt)

    def shrink(x):
        return 1.0 / expm1_over_x(rate * x)

    def transform(f, w):
        root, inv_root = roots(w)
        (middle,) = _spectral_functions(_sandwich(inv_root, f), shrink)
        return _sandwich(root, middle)

    new = _tiled(transform, L.geometry.grid_shape, _operand(R), base)
    try:
        if isinstance(new, tuple):
            if np.ndim(new[0]):
                return _freeze(MetricField._from_planes(L.geometry, new))
            new = _join(new)
        else:
            new = 0.5 * (new + np.conj(np.swapaxes(new, -1, -2)))
        # A constant pencil gives one matrix, kept once as a constant metric.
        shape = (*L.geometry.grid_shape, n, n)
        return _freeze(MetricField(L.geometry, np.broadcast_to(new, shape)))
    except ValueError as exc:
        # Positive definite and finite in exact arithmetic: float64 lost
        # the metric's small eigen-part, as it does once its condition
        # number passes about 1e16.
        raise UniformizationRangeError(
            f"the uniformized metric is not representable in float64: {exc}"
        ) from exc
