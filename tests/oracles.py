"""Independent reference routes the tests compare the package against.

None of these runs in the package itself. The power series of the
uniformizing transform, the explicit wedge expansion of the degree and the
Gauduchon defect read the materialized ``(..., n, n)`` ``values`` of their
fields, so they stay independent of the component-plane kernels.

``integrate`` (trapezoid quadrature of a product) and
``is_constant_field`` are small helpers only the tests use, and
``UnsupportedDimensionError`` is what the n <= 2 oracles raise for larger
n. The
array-form views at the end run the n <= 2 plane kernels on stacked
``(..., n, n)`` matrices: split into planes, apply the kernel, join.
"""

import math

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
from toruspos import lattice, qpositivity
from toruspos.errors import InternalInvariantError
from toruspos.lattice import (
    TorusGeometry,
    _dz_symbols,
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


def complex_hessian_entry_of_complex(
    geom: TorusGeometry, values: np.ndarray, j: int, k: int
) -> np.ndarray:
    """Mixed Wirtinger derivative d^2 / (dz_j dzbar_k) of a complex grid array.

    No Hermitian symmetry is implied for complex input.
    """
    symbols = _dz_symbols(geom)
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


# -- array-form views of the n <= 2 plane kernels ---------------------------


def _small_eigvalsh(stack: np.ndarray) -> np.ndarray:
    """Descending eigenvalues of stacked n x n Hermitian matrices, n <= 2."""
    return np.stack(lattice._small_eigvalsh(_split(stack)), axis=-1)


def _small_matrix_function(stack: np.ndarray, *fns) -> list[np.ndarray]:
    """``f(M)`` of stacked n x n Hermitian matrices, n <= 2, one per f."""
    return [_join(planes) for planes in lattice._small_matrix_function(_split(stack), *fns)]


def _sandwich(P: np.ndarray, M: np.ndarray) -> np.ndarray:
    """``P M P`` of n x n Hermitian matrices or stacks of them, n <= 2."""
    return _join(qpositivity._sandwich(_split(P), _split(M)))
