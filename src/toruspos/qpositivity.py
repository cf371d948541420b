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
field or matrix becomes a kernel operand, its component planes
(``_operand``), each on the axes it varies along; a constant base is
factored once, and the kernels run one L2-sized tile of the operands'
common core at a time, so the results live on that core too. For n <= 2
eigenvalues, matrix functions, the Cholesky factor and the congruences
by it are closed-form elementwise formulas on the planes (see
CONVENTIONS.md); larger n joins each tile's planes into a stack and
uses batched LAPACK on it.
Every field owns read-only arrays, so a pencil is solved once: its
eigenvalues are remembered on the curvature field. The transform takes
its rate from that solve, so the checks and the transform share one solve
per (R, Omega) pair.
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
    _caller_core,
    _max_abs,
    _owned,
    _require_same_geometry,
)
from .planes import (
    _cholesky,
    _congruence,
    _descending_eigenvalues,
    _small,
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

    Frozen, because a solved pencil hands one field to every caller. The
    eigenvalues are kept on their core (``lattice._core``; the entry axis
    is kept whole), a private read-only array: the constructor copies the
    core of the caller's array once (``lattice._caller_core``, the axes it
    varies along bit for bit), ``values`` views it on the grid, and
    the checks' reductions read the core. A field of solved eigenvalues
    (``_descending``) builds ``values`` on first read.
    """

    geometry: TorusGeometry
    values: np.ndarray

    def __post_init__(self) -> None:
        n = self.geometry.complex_dim
        vals = np.asarray(self.values)
        expected = (*self.geometry.grid_shape, n)
        if vals.shape != expected:
            raise ValueError(f"eigenvalue field shape {vals.shape} != {expected}")
        self._keep(_caller_core(vals, np.float64, trailing=1), check_order=True)
        self._view()

    @classmethod
    def _descending(cls, geometry: TorusGeometry, core) -> "EigenvalueField":
        """A field of ``_descending_eigenvalues`` output on a core, which
        it keeps without a copy. That is sorted by construction, so only
        the finiteness is checked."""
        field = cls.__new__(cls)
        object.__setattr__(field, "geometry", geometry)
        field._keep(core, check_order=False)
        return field

    def _keep(self, core: np.ndarray, check_order: bool) -> None:
        """Own ``core``, once checked."""
        n = self.geometry.complex_dim
        if not np.isfinite(core).all():
            raise ValueError("eigenvalue field contains non-finite values")
        if check_order and n > 1 and not (core[..., :-1] >= core[..., 1:]).all():
            raise ValueError("eigenvalues must be sorted descending at every point")
        object.__setattr__(self, "_kept", _owned(core))

    def _view(self) -> np.ndarray:
        """View the core on the grid as ``values``."""
        grid = (*self.geometry.grid_shape, self.geometry.complex_dim)
        object.__setattr__(self, "values", np.broadcast_to(self._kept, grid))
        return self.values

    def __getattr__(self, name: str):
        # Reached only when ``values`` was never set: a field of solved
        # eigenvalues views its core on the grid on first read.
        if name != "values" or "_kept" not in vars(self):
            raise AttributeError(name)
        return self._view()

    def at_rank(self, rank: int) -> np.ndarray:
        """Eigenvalue array at 1-based rank from the largest."""
        n = self.geometry.complex_dim
        if not 1 <= rank <= n:
            raise ValueError(f"rank must be in 1..{n}, got {rank}")
        return self.values[..., rank - 1]

    def smallest_sum(self, count: int) -> np.ndarray:
        """Pointwise sum of the ``count`` smallest eigenvalues, formed on
        the core and viewed on the grid."""
        return np.broadcast_to(self._smallest_sum(count), self.geometry.grid_shape)

    def _smallest_sum(self, count: int) -> np.ndarray:
        """``smallest_sum`` on the core."""
        n = self.geometry.complex_dim
        if not 1 <= count <= n:
            raise ValueError(f"count must be in 1..{n}, got {count}")
        # Column by column: np.sum over a last axis of n <= 3 entries costs
        # about 20 ns per point. The values are np.sum's, -0.0 included.
        columns = [self._kept[..., k] for k in range(n - count, n)]
        if count == 1:
            total = columns[0] + 0.0
        else:
            total = columns[0] + columns[1]
            for column in columns[2:]:
                total += column
        return total

    def max_abs(self) -> float:
        return _max_abs(self._kept)


def _operand(x):
    """Kernel operand of an n x n matrix or a field: its component planes
    (one entry each for a constant field, 0-d for one matrix)."""
    return x._planes if isinstance(x, HermitianMatrixField) else _split(x)


def _spectral_functions(M, *fns) -> list:
    """``f(M)`` for each ``f``, of a Hermitian congruence result.

    Planes (n <= 2) take the closed-form spectral calculus and give
    planes; a stack (n >= 3) one batched Hermitian eigendecomposition
    shared by every ``f``, giving stacks.
    """
    if _small(M):
        return _small_matrix_function(M, *fns)
    d, Q = np.linalg.eigh(M)
    if d.ndim == 1:
        return [(Q * fn(d)) @ Q.conj().T for fn in fns]
    return [np.einsum("...ij,...j,...kj->...ik", Q, fn(d), Q.conj()) for fn in fns]


def _hermitian_planes(X) -> tuple:
    """The planes of the Hermitian part of a kernel result: planes are
    exactly Hermitian already, and a stack is averaged with its conjugate
    transpose and split."""
    if _small(X):
        return X
    return _split(0.5 * (X + np.conj(np.swapaxes(X, -1, -2))))


def _base_factor(omega: MetricField):
    """Tile kernel giving ``_cholesky`` of a tile of ``omega``'s planes: a
    constant metric (one entry per plane) hands over the factor it keeps
    (``MetricField._factor``), taken once per metric, and a varying one is
    factored tile by tile."""
    if any(p.size != 1 for p in omega._planes):
        return _cholesky
    factors = omega._factor
    return lambda tile: factors


def _pencil_eigenvalues(
    geom: TorusGeometry, field, omega: MetricField
) -> EigenvalueField:
    """Descending eigenvalues of the pencil of an operand (see
    ``_operand``) and a metric: those of ``L^{-1} R L^{-*}``, with ``L``
    the metric's Cholesky factor (``_base_factor``), on their common core
    (one point for a constant pencil).

    The pencil is whitened and solved one tile at a time, so no core-sized
    L^{-1} or L^{-1} R L^{-*} is formed.
    """
    factor = _base_factor(omega)

    def eigenvalues(f, w):
        _, inverse = factor(w)
        return (_descending_eigenvalues(_congruence(inverse, f)),)

    (lam,) = _tiled(eigenvalues, field, omega._planes)
    return EigenvalueField._descending(geom, lam)


def _solve_pencil(R: HermitianMatrixField, omega: MetricField) -> EigenvalueField:
    """Read-only pencil eigenvalues of (R, omega), solved once per pair.

    ``R`` keeps one entry: the last ``omega`` it was solved against and
    the result. Fields own read-only arrays, so the entry cannot go stale.
    The same ``omega`` object (``is``) gets the same field back; any other
    metric is solved and replaces the entry.
    """
    cached = R._pencil
    if cached is None or cached[0] is not omega:
        ev = _pencil_eigenvalues(R.geometry, _operand(R), omega)
        R._pencil = cached = (omega, ev)
    return cached[1]


def generalized_eigenvalues(
    R: HermitianMatrixField, omega: MetricField
) -> EigenvalueField:
    """Eigenvalues of the pencil (R, Omega) at every grid point.

    These are the eigenvalues of the Hermitian matrix L^{-1} R L^{-*},
    with Omega = L L* the Cholesky factorization; real, base-point frame
    independent, and returned sorted descending in a read-only array.
    The result is remembered on ``R``: asking again with the same
    ``omega`` object returns the same field without solving the pencil
    again.
    """
    _require_same_geometry(R, omega)
    return _solve_pencil(R, omega)


def _resolve_eps(ev_scale: float, eps: float | None) -> float:
    if eps is not None:
        if not 0 <= eps < math.inf:
            raise ValueError(f"tolerance must be nonnegative and finite, got {eps}")
        return float(eps)
    return DEFAULT_EPS_REL * ev_scale


def _certificate_details(ev: EigenvalueField, q: int, mode: str) -> dict:
    return {
        "q": q,
        "mode": mode,
        "eigenvalue_min": float(ev._kept.min()),
        "eigenvalue_max": float(ev._kept.max()),
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
    margin = float(ev._kept[..., n - q - 1].min())
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
    margin = float(ev._smallest_sum(q + 1).min())
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
    floor = float(ev._kept[..., n - q - 1].min())
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
    top = rate * float(ev._kept.max())
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

    The rate comes from the shared pencil solve of (R, omega), and the
    checks run against the output share one pencil solve, as they do
    against ``omega``.

    Raises NotQPositiveError (via growth_rate) when the input curvature is
    not q-positive against ``omega``, and UniformizationRangeError when
    ``exp(rate * lambda_max)`` leaves the float64 range or the computed
    metric fails its finiteness or positive-definite gate (``MetricField``,
    which also asks for a Cholesky factor in float64).
    """
    n = L.geometry.complex_dim
    _validate_q(n, q)
    R = chern_curvature(L)
    _require_same_geometry(R, omega)
    # Pass 1 finds the rate from the pencil eigenvalues, solved once per
    # (R, omega) pair and shared with the checks; pass 2 whitens R again,
    # tile by tile, maps it through the shrink and back by the factor L.
    rate = _uniformizing_rate(_solve_pencil(R, omega), q, eps)
    factor = _base_factor(omega)

    def shrink(x):
        return 1.0 / expm1_over_x(rate * x)

    def transform(f, w):
        root, inverse = factor(w)
        (middle,) = _spectral_functions(_congruence(inverse, f), shrink)
        return _hermitian_planes(_congruence(root, middle))

    new = _tiled(transform, _operand(R), omega._planes)
    try:
        return MetricField._computed(L.geometry, new)
    except ValueError as exc:
        # Positive definite and finite in exact arithmetic: float64 lost
        # the metric's small eigen-part, as it does once its condition
        # number passes about 1e16. The checks whiten by its Cholesky
        # factor, so the gate refuses a metric float64 cannot factor too.
        raise UniformizationRangeError(
            f"the uniformized metric is not representable in float64: {exc}"
        ) from exc
