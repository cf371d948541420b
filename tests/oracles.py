"""Independent reference routes the tests compare the package against.

None of these runs in the package itself. The power series of the
uniformizing transform, the explicit wedge expansion of the degree and the
Gauduchon defect read the materialized ``(..., n, n)`` ``values`` of their
fields, so they stay independent of the component-plane kernels.

``integrate`` (trapezoid quadrature of a product),
``is_constant_field`` and the full-spectrum ``reference_symbols`` are
small helpers only the tests use, and
``UnsupportedDimensionError`` is what the n <= 2 oracles raise for larger
n. The symmetric-root whitening is the pencil route the package used
before its Cholesky factor, kept here as a reference for it. The
array-form views at the end run the n <= 2 plane kernels on stacked
``(..., n, n)`` matrices: split into planes, apply the kernel, join.
``materialized_weight`` and ``synthesized_on_the_grid`` rebuild the
storage the package kept before fields were stored on their cores: every
weight and every field written from a mode table on the whole grid.
"""

import contextlib
import math
from unittest import mock

import numpy as np

from toruspos import (
    HermitianMatrixField,
    LineBundleMetric,
    MetricField,
    NonConstantMetricError,
    ScalarField,
    TorusposError,
    chern_curvature,
    compensated_sum,
    constant_representative,
    generalized_eigenvalues,
    growth_rate,
)
from toruspos import lattice, planes, qpositivity
from toruspos.errors import InternalInvariantError
from toruspos.lattice import (
    TorusGeometry,
    _freeze,
    _join,
    _require_same_geometry,
    _split,
)
from toruspos.qpositivity import _validate_q

#: Truncation order of the power-series oracle.
SERIES_TERMS = 30


class UnsupportedDimensionError(TorusposError, ValueError):
    """Oracle only implemented for complex dimension n <= 2."""


def uniformized_metric_series(
    L: LineBundleMetric,
    omega: MetricField,
    q: int,
    terms: int = SERIES_TERMS,
    eps: float | None = None,
) -> MetricField:
    """Truncated power-series route to the uniformizing transform.

    Builds new_Omega^{-1} = Omega^{-1} (Id + sum_{k=1}^{terms}
    t^k (R Omega^{-1})^k / (k+1)!) and inverts pointwise. Truncation error
    decays like the tail of exp, so agreement with the eigendecomposition
    route to 1e-10 needs |t * lambda| moderate (roughly below 7 for the
    default 30 terms); the eigensystem route has no such restriction and
    is the one the package uses.
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


def wedge_degree_check(L: LineBundleMetric, omega: MetricField) -> float:
    """Same pairing as degree_integral via explicit exterior algebra.

    For n = 1 the pairing is the plain integral of R_11; for n = 2 it is
    half the integral of the (2,2)-coefficient of R wedge omega, expanded
    entry by entry. Dimension three and up is not supported.
    """
    geom = L.geometry
    n = geom.complex_dim
    if n > 2:
        raise UnsupportedDimensionError(
            f"wedge expansion implemented for n <= 2, got n = {n}"
        )
    const = constant_representative(omega)
    R = chern_curvature(L).values
    if n == 1:
        return geom.cell_volume * compensated_sum(R[..., 0, 0].real)
    coeff = (
        R[..., 0, 0] * const[1, 1]
        + R[..., 1, 1] * const[0, 0]
        - R[..., 0, 1] * const[1, 0]
        - R[..., 1, 0] * const[0, 1]
    )
    return 0.5 * geom.cell_volume * compensated_sum(coeff.real)


def reference_symbols(geom: TorusGeometry) -> np.ndarray:
    """Full-grid d/dz_j symbols, Nyquist derivative zeroed, shape (n, *grid):
    the textbook full spectrum, built apart from the package's own."""
    n = geom.complex_dim
    freqs = []
    for s, period in zip(geom.grid_shape, geom.periods):
        k = 2.0 * math.pi * np.fft.fftfreq(s, d=period / s)
        k[s // 2] = 0.0
        freqs.append(k)
    kk = np.meshgrid(*freqs, indexing="ij")
    return np.stack([0.5j * (kk[2 * j] - 1j * kk[2 * j + 1]) for j in range(n)])


def complex_hessian_entry_of_complex(
    geom: TorusGeometry, values: np.ndarray, j: int, k: int
) -> np.ndarray:
    """Mixed Wirtinger derivative d^2 / (dz_j dzbar_k) of a complex grid array.

    No Hermitian symmetry is implied for complex input.
    """
    symbols = reference_symbols(geom)
    vhat = np.fft.fftn(np.asarray(values, dtype=np.complex128))
    return np.fft.ifftn(-symbols[j] * np.conj(symbols[k]) * vhat)


def gauduchon_defect(omega: MetricField) -> float:
    """Sup-norm of the obstruction to omega being Gauduchon.

    The obstruction is the mixed-second-derivative coefficient of the
    (n-1)-st wedge power of omega; it vanishes identically for constant
    metrics. For n = 1 that power is the constant function 1, so the
    defect is 0 by convention. Not implemented for n >= 3.
    """
    geom = omega.geometry
    n = geom.complex_dim
    if n == 1:
        return 0.0
    if n > 2:
        raise UnsupportedDimensionError(
            f"defect coefficient implemented for n <= 2, got n = {n}"
        )
    vals = omega.values
    coeff = (
        complex_hessian_entry_of_complex(geom, vals[..., 1, 1], 0, 0)
        + complex_hessian_entry_of_complex(geom, vals[..., 0, 0], 1, 1)
        - complex_hessian_entry_of_complex(geom, vals[..., 1, 0], 0, 1)
        - complex_hessian_entry_of_complex(geom, vals[..., 0, 1], 1, 0)
    )
    # Hermitian symmetry of omega makes the coefficient real up to round-off.
    imag = float(np.max(np.abs(coeff.imag)))
    if imag > 1e-10 * (1.0 + float(np.max(np.abs(coeff.real)))):
        raise InternalInvariantError(
            f"defect coefficient has imaginary part {imag:.3e}"
        )
    return float(np.max(np.abs(coeff.real)))


def integrate(g: ScalarField, vol: ScalarField) -> float:
    """Quadrature ``sum g * vol * cell_volume`` over the grid.

    The periodic trapezoid rule; exact for integrands band-limited below
    the Nyquist frequency.
    """
    geom = _require_same_geometry(g, vol)
    if not np.all(vol.values > 0):
        raise ValueError("volume weight must be positive at every grid point")
    return geom.cell_volume * compensated_sum(g.values * vol.values)


def is_constant_field(field: HermitianMatrixField) -> bool:
    try:
        constant_representative(field)
    except NonConstantMetricError:
        return False
    return True


# -- symmetric-root whitening -----------------------------------------------


def _symmetric_sandwich(P: tuple, M: tuple) -> tuple:
    """Planes of ``P M P`` for Hermitian planes P and M, n <= 2, expanded
    entry by entry (exactly Hermitian)."""
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


def symmetric_root_whitening(
    R: np.ndarray, omega: np.ndarray, shrink=None
) -> np.ndarray:
    """Descending eigenvalues of ``Omega^{-1/2} R Omega^{-1/2}``, or with
    ``shrink`` the metric ``Omega^{1/2} shrink(Omega^{-1/2} R Omega^{-1/2})
    Omega^{1/2}``, of n x n matrices or stacks of them.

    The roots are the base's symmetric ones: for n <= 2 the projector-form
    plane kernels and the entrywise sandwich, for larger n ``eigh`` and
    matrix products. In exact arithmetic this is the package's
    ``L^{-1} R L^{-*}`` route, since ``L = Omega^{1/2} U`` for a unitary U.
    """
    R, omega = (np.asarray(x, dtype=np.complex128) for x in (R, omega))
    n = R.shape[-1]
    fns = (np.sqrt, lambda x: 1.0 / np.sqrt(x))
    if n <= 2:
        root, inv_root = planes._small_matrix_function(_split(omega), *fns)
        B = _symmetric_sandwich(inv_root, _split(R))
        if shrink is None:
            return np.stack(np.broadcast_arrays(*planes._small_eigvalsh(B)), axis=-1)
        (middle,) = planes._small_matrix_function(B, shrink)
        return _join(_symmetric_sandwich(root, middle))
    d, Q = np.linalg.eigh(omega)
    root, inv_root = (
        np.einsum("...ij,...j,...kj->...ik", Q, fn(d), Q.conj()) for fn in fns
    )
    B = inv_root @ R @ inv_root
    if shrink is None:
        return np.linalg.eigvalsh(B)[..., ::-1]
    d, Q = np.linalg.eigh(B)
    return root @ np.einsum("...ij,...j,...kj->...ik", Q, shrink(d), Q.conj()) @ root


# -- array-form views of the n <= 2 plane kernels ---------------------------


def _small_eigvalsh(stack: np.ndarray) -> np.ndarray:
    """Descending eigenvalues of stacked n x n Hermitian matrices, n <= 2."""
    return np.stack(planes._small_eigvalsh(_split(stack)), axis=-1)


def _small_matrix_function(stack: np.ndarray, *fns) -> list[np.ndarray]:
    """``f(M)`` of stacked n x n Hermitian matrices, n <= 2, one per f."""
    return [_join(f) for f in planes._small_matrix_function(_split(stack), *fns)]


def _cholesky(stack: np.ndarray) -> list[np.ndarray]:
    """``[L, L^{-1}]`` of stacked n x n positive definite matrices, n <= 2,
    with ``stack = L L*`` and L lower triangular."""
    out = []
    for factor in planes._cholesky(_split(stack)):
        T = _join(factor)
        if T.shape[-1] == 2:
            T[..., 0, 1] = 0.0
        out.append(T)
    return out


def _congruence(T: np.ndarray, M: np.ndarray) -> np.ndarray:
    """``T M T*`` of lower triangular T and Hermitian M, n <= 2, one matrix
    or a stack each."""
    return _join(qpositivity._congruence(_split(T), _split(M)))


# -- fields on the whole grid, as stored before cores ------------------------


def materialized_weight(L: LineBundleMetric) -> LineBundleMetric:
    """``L`` with its weight rebuilt as a frozen, contiguous grid array that
    keeps the weight's mode table; a constant weight stays one number."""
    phi = L.phi
    if phi.value is not None:
        return L
    grid = _freeze(ScalarField(L.geometry, np.ascontiguousarray(phi.values)))
    grid._modes = phi._modes
    return LineBundleMetric(L.geometry, L.r_const, grid, L.phi_expression)


@contextlib.contextmanager
def synthesized_on_the_grid():
    """Within the block every field written from a mode table
    (``lattice._synthesize``) fills the whole grid, so each field computed
    from a weight is a full array, as before fields kept their cores."""
    original = lattice._synthesize

    def whole_grid(geom, constant, waves, dtype=np.float64):
        core = original(geom, constant, waves, dtype)
        return np.broadcast_to(core, geom.grid_shape).copy()

    with mock.patch.object(lattice, "_synthesize", whole_grid):
        yield
