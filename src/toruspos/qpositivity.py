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

    new_Omega = L V diag(1 / psi(t * lambda)) V* L*,
    psi(x) = (exp(x) - 1) / x,  psi(0) = 1,

(Omega = L L* with L its lower Cholesky factor; V, lambda the eigensystem
of L^{-1} R L^{-*}, whose eigenvalues are the pencil's) has pencil
eigenvalues exactly kappa_i = (exp(t * lambda_i) - 1) / t, and the sum of
the q+1 smallest kappa is bounded below by
(exp(t * lambda_{n-q}) - (q+1)) / t > 0. The transform is evaluated
through the pencil eigensystem, which keeps the output positive definite
for any eigenvalue spread; the tests keep the equivalent truncated power
series as a cross-check oracle. Any X with X X* = Omega is Omega^{1/2} U
for a unitary U, so in exact arithmetic the Cholesky factor gives the
same eigenvalues and metric as the symmetric root Omega^{1/2}.

The pencil eigenvalues and the transform take one path for every n. Each
field or matrix becomes a kernel operand (``_operand``), a constant base
is factored once, and the kernels run one L2-sized tile of the grid at a
time. The operand selects the kernels: for n <= 2 eigenvalues, matrix
functions, the Cholesky factor and the congruences by it are closed-form
elementwise formulas on component planes (see CONVENTIONS.md); larger n
uses batched LAPACK on one n x n matrix or on the whole, untiled stack.
A pencil whose two fields are read-only is solved once: its eigenvalues
are remembered on the curvature field. The transform takes its rate from
that solve and returns a read-only metric, so the checks and the
transform share one solve per (R, Omega) pair.
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
    _tiles,
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
        # Column by column: np.sum over a last axis of n <= 3 entries costs
        # about 20 ns per point. The values are np.sum's, -0.0 included.
        columns = [self.values[..., k] for k in range(n - count, n)]
        if count == 1:
            return columns[0] + 0.0
        total = columns[0] + columns[1]
        for column in columns[2:]:
            total += column
        return total

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


def _spectral_functions(M, *fns) -> list:
    """``f(M)`` for each ``f``, of a Hermitian matrix or a field of them.

    Planes (n <= 2) take the closed-form spectral calculus and give
    planes; larger n one batched Hermitian eigendecomposition shared by
    every ``f``.
    """
    if isinstance(M, tuple):
        return _small_matrix_function(M, *fns)
    d, Q = np.linalg.eigh(M)
    if M.ndim == 2:
        return [(Q * fn(d)) @ Q.conj().T for fn in fns]
    return [np.einsum("...ij,...j,...kj->...ik", Q, fn(d), Q.conj()) for fn in fns]


def _cholesky(base):
    """Lower Cholesky factor ``L`` of ``Base = L L*`` and ``L^{-1}``, of a
    positive definite matrix or a field of them.

    On planes (n <= 2) both are closed form and come as the planes of a
    lower triangular matrix, diagonal first: ``(l11, l22, l21)`` with
    ``l11 = sqrt(a)``, ``l21 = c / l11``, ``l22 = sqrt(d - |l21|^2)``, and
    ``L^{-1}`` has diagonal ``1/l11``, ``1/l22`` and lower entry
    ``-l21 / (l11 l22)``. Larger n uses LAPACK ``cholesky`` and the
    inverse of its factor.
    """
    if not isinstance(base, tuple):
        L = np.linalg.cholesky(base)
        return L, np.linalg.inv(L)
    l11 = np.sqrt(base[0])
    inv11 = 1.0 / l11
    if len(base) == 1:
        return (l11,), (inv11,)
    _, d, c = base
    l21 = c * inv11
    l22 = np.sqrt(d - (l21.real * l21.real + l21.imag * l21.imag))
    inv22 = 1.0 / l22
    return (l11, l22, l21), (inv11, inv22, l21 * -(inv11 * inv22))


def _require_factor(metric: MetricField) -> MetricField:
    """``metric``, when float64 forms its Cholesky factor; else ValueError.

    The positive-definite gate reads the smallest eigenvalue, the pencil
    route whitens by the factor. Their pivots stay positive once that
    eigenvalue clears the factorization's rounding, well inside
    ``64 n^2 u`` times the largest diagonal entry (u = 2.2e-16). A metric
    below that margin is factored here, as the pencil route factors it.
    """
    n = metric.geometry.complex_dim
    planes = metric._planes
    if planes is not None:
        top = max(float(np.max(p)) for p in planes[:2])
    else:
        const = metric.matrix
        values = metric.values if const is None else const
        top = float(np.max(np.diagonal(values, axis1=-2, axis2=-1).real))
    if metric.min_eigenvalue > 64 * n * n * np.finfo(np.float64).eps * top:
        return metric
    if planes is None:
        np.linalg.cholesky(values)  # LinAlgError, a ValueError, if it fails
    elif n == 2:  # for n = 1 the factor is sqrt(a), a > 0
        with np.errstate(invalid="ignore", divide="ignore"):
            for _, (tile,) in _tiles(planes):
                (_, l22, _), _ = _cholesky(tile)
                if not np.all(l22 > 0.0):
                    raise ValueError("metric field has no Cholesky factor in float64")
    return metric


def _congruence(T, M):
    """``T M T*`` for lower triangular T and Hermitian M, each one matrix
    or a field (``_cholesky`` gives T).

    On planes (n <= 2) the product is expanded entry by entry over the
    grid and is exactly Hermitian.
    """
    if not isinstance(M, tuple):
        return T @ M @ np.conj(np.swapaxes(T, -1, -2))
    if len(M) == 1:
        # Squared by pow, not t * t, for a 0-d T: n = 1 keeps its former bits.
        return (T[0] ** 2 * M[0],)
    t1, t2, t = T
    a, d, c = M
    cross = t.real * c.real + t.imag * c.imag  # Re(conj(t) c)
    tt = t.real * t.real + t.imag * t.imag
    return (
        t1 * t1 * a,
        tt * a + 2.0 * t2 * cross + t2 * t2 * d,
        (t1 * t) * a + (t1 * t2) * c,
    )


def _descending_eigenvalues(B) -> np.ndarray:
    """Eigenvalues of Hermitian B (one matrix or a field), descending.

    The order holds by construction: the closed form puts ``max(a, d) + t``
    above ``min(a, d) - t`` with ``t >= 0``, and LAPACK returns its
    eigenvalues ascending.
    """
    if isinstance(B, tuple):
        return np.stack(_small_eigvalsh(B), axis=-1)
    return np.ascontiguousarray(np.linalg.eigvalsh(B)[..., ::-1])


def _base_factor(base):
    """Tile kernel giving ``_cholesky`` of a tile of the base operand: a
    constant base (0-d planes or one matrix) is factored once, here, and
    a varying one tile by tile."""
    varying = any(p.ndim for p in base) if isinstance(base, tuple) else base.ndim > 2
    if varying:
        return _cholesky
    factors = _cholesky(base)
    return lambda tile: factors


def _pencil_eigenvalues(geom: TorusGeometry, field, base) -> EigenvalueField:
    """Descending eigenvalues of the pencil of two operands (see
    ``_operand``): those of ``L^{-1} R L^{-*}``, with ``L`` the base's
    Cholesky factor. A constant pencil is solved once and broadcast over
    the grid.

    Planes (n <= 2) are whitened and solved one tile at a time, so no
    grid-sized L^{-1} or L^{-1} R L^{-*} is formed.
    """
    factor = _base_factor(base)

    def eigenvalues(f, w):
        _, inverse = factor(w)
        return (_descending_eigenvalues(_congruence(inverse, f)),)

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

    These are the eigenvalues of the Hermitian matrix L^{-1} R L^{-*},
    with Omega = L L* the Cholesky factorization; real, base-point frame
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

    Evaluated pointwise through the pencil eigensystem: with Omega = L L*
    (L the Cholesky factor), eigenpairs (lambda, V) of L^{-1} R L^{-*}
    and t the growth_rate, the new metric is
    L V diag(1/psi(t*lambda)) V* L*. psi > 0 everywhere keeps the result
    positive definite, and the pencil eigenvalues of R against the output
    equal (exp(t*lambda_i) - 1)/t.

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
    # tile by tile, maps it through the shrink and back by the factor L.
    rate = _uniformizing_rate(_solve_pencil(R, omega), q, eps)
    base = _operand(omega)
    factor = _base_factor(base)

    def shrink(x):
        return 1.0 / expm1_over_x(rate * x)

    def transform(f, w):
        root, inverse = factor(w)
        (middle,) = _spectral_functions(_congruence(inverse, f), shrink)
        return _congruence(root, middle)

    new = _tiled(transform, L.geometry.grid_shape, _operand(R), base)
    try:
        if not isinstance(new, tuple):
            new = 0.5 * (new + np.conj(np.swapaxes(new, -1, -2)))
        elif not np.ndim(new[0]):
            new = _join(new)
        if isinstance(new, tuple) or new.ndim > 2:
            metric = MetricField._computed(L.geometry, new)
        else:
            # A constant pencil gives one matrix, kept once as a constant metric.
            shape = (*L.geometry.grid_shape, n, n)
            metric = MetricField(L.geometry, np.broadcast_to(new, shape))
        return _freeze(_require_factor(metric))
    except ValueError as exc:
        # Positive definite and finite in exact arithmetic: float64 lost
        # the metric's small eigen-part, as it does once its condition
        # number passes about 1e16. The checks whiten by its Cholesky
        # factor, so a metric float64 cannot factor is refused here too.
        raise UniformizationRangeError(
            f"the uniformized metric is not representable in float64: {exc}"
        ) from exc
