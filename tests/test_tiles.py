"""Tile-by-tile evaluation of the pencil kernels.

For n <= 2 the reference applies the same elementwise kernels to whole
planes, as the package did before it cut the grid into tiles; every
tiled result must equal it bit for bit. For n = 3 the reference is the
whole-stack LAPACK route the package took before n >= 3 fields were
stored as planes: ``cholesky``, ``inv``, ``eigvalsh``, ``eigh`` and the
Hermitian average, each on the joined grid. The eigenvalues must equal
it bit for bit and the metric's planes as numbers (``np.array_equal``;
the sign of a zero may differ).
"""

import tracemalloc

import numpy as np
import pytest

from toruspos import (
    LineBundleMetric,
    MetricField,
    TorusGeometry,
    chern_curvature,
    check_q_positive,
    check_uniform_q_positive,
    constant_metric,
    expm1_over_x,
    generalized_eigenvalues,
    growth_rate,
    uniformize_metric,
)
from toruspos.planes import (
    _TILE,
    _cholesky,
    _join,
    _small_eigvalsh,
    _small_matrix_function,
    _split,
    _tiles,
)
from toruspos.qpositivity import EigenvalueField, _congruence

# (n, samples): many tiles, a partial last tile, below one tile, n = 1,
# and n = 3 (46 656 points: six tiles, the last one partial).
_GRIDS = [(2, 16), (2, 12), (2, 6), (1, 256), (3, 6)]


def _varying_values(g: TorusGeometry) -> np.ndarray:
    n = g.complex_dim
    x = g.coordinate_arrays()
    vals = np.zeros((*g.grid_shape, n, n), dtype=complex)
    vals[..., 0, 0] = 1.5 + 0.4 * np.sin(x[0])
    if n >= 2:
        vals[..., 1, 1] = 0.8 + 0.3 * np.cos(x[3])
        vals[..., 1, 0] = 0.2 * np.cos(x[1]) + 0.1j * np.sin(x[2])
    if n == 3:
        vals[..., 2, 2] = 1.1 + 0.2 * np.sin(x[4])
        vals[..., 2, 0] = 0.1 * np.cos(x[5])
        vals[..., 2, 1] = 0.05j * np.sin(x[0])
    for j in range(n):
        for k in range(j):
            vals[..., k, j] = np.conj(vals[..., j, k])
    return vals


def _varying_metric(g: TorusGeometry) -> MetricField:
    return MetricField._computed(g, tuple(p.copy() for p in _split(_varying_values(g))))


def _constant_metric(g: TorusGeometry) -> MetricField:
    matrix = [[1.3, -0.2j, 0.1], [0.2j, 1.1, 0.05j], [0.1, -0.05j, 0.9]]
    n = g.complex_dim
    return constant_metric(g, np.array(matrix)[:n, :n])


def _bundle(g: TorusGeometry, q: int, weight: str) -> LineBundleMetric:
    n = g.complex_dim
    r_const = np.array(
        [[1.5, 0.3 + 0.1j, 0.1], [0.3 - 0.1j, 0.8, 0.05j], [0.1, -0.05j, 0.7]]
    )[:n, :n]
    # q negative diagonal entries: (n - q)-positive against these bases.
    for j in range(n - q, n):
        r_const[j, j] = -0.6
    return LineBundleMetric.from_expression(g, r_const, weight)


def _shrink(rate):
    return lambda x: 1.0 / expm1_over_x(rate * x)


def _whole_plane_reference(L, omega, q):
    """Eigenvalues and uniformized planes with every kernel on whole planes."""
    g = L.geometry
    if g.complex_dim == 3:
        return _whole_stack_reference(L, omega, q)
    R, base = chern_curvature(L)._planes, omega._planes
    root, inverse = _cholesky(base)
    B = _congruence(inverse, R)
    lam = np.stack(np.broadcast_arrays(*_small_eigvalsh(B)), axis=-1)
    ev = np.broadcast_to(lam, (*g.grid_shape, g.complex_dim))
    rate = growth_rate(EigenvalueField(g, ev), q)
    (middle,) = _small_matrix_function(B, _shrink(rate))
    return ev, _congruence(root, middle)


def _matrix_or_values(field) -> np.ndarray:
    return field.values if field.matrix is None else field.matrix


def _whole_stack_eigenvalues(R, omega):
    """Pencil eigenvalues by LAPACK on whole stacks (one matrix for a
    constant pencil), with the base's factor and the whitened pencil."""
    L = np.linalg.cholesky(_matrix_or_values(omega))
    inverse = np.linalg.inv(L)
    B = inverse @ _matrix_or_values(R) @ np.conj(np.swapaxes(inverse, -1, -2))
    lam = np.ascontiguousarray(np.linalg.eigvalsh(B)[..., ::-1])
    return np.broadcast_to(lam, (*R.geometry.grid_shape, lam.shape[-1])), L, B


def _whole_stack_reference(L, omega, q):
    """The n >= 3 route before planes: LAPACK on the joined grid stacks."""
    ev, root, B = _whole_stack_eigenvalues(chern_curvature(L), omega)
    rate = growth_rate(EigenvalueField(L.geometry, ev), q)
    d, Q = np.linalg.eigh(B)
    if B.ndim == 2:
        middle = (Q * _shrink(rate)(d)) @ Q.conj().T
    else:
        middle = np.einsum("...ij,...j,...kj->...ik", Q, _shrink(rate)(d), Q.conj())
    new = root @ middle @ np.conj(np.swapaxes(root, -1, -2))
    return ev, _split(0.5 * (new + np.conj(np.swapaxes(new, -1, -2))))


def _smallest_eigenvalue(planes) -> float:
    if len(planes) > 3:
        return float(np.min(np.linalg.eigvalsh(_join(planes))))
    return float(np.min(_small_eigvalsh(planes)[-1]))


def _bits_equal(a, b) -> bool:
    """Equal as float64/complex128 bit patterns (so -0.0 != 0.0)."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint8), b.view(np.uint8))


# The kernels do not depend on q, which sets only the rate; n = 3 runs
# q = 1 alone, the first q that is neither full positivity nor the trace
# case, since each of its whole-grid LAPACK references takes 0.1 s or so.
@pytest.mark.parametrize(
    "n,samples,q",
    [(n, samples, q) for n, samples in _GRIDS for q in (range(n) if n <= 2 else [1])],
)
@pytest.mark.parametrize("base", ["constant", "varying"])
@pytest.mark.parametrize("weight", ["0.02*cos(x1) + 0.01*sin(y1)", "0"])
def test_tiled_pipeline_equals_whole_planes(n, samples, q, base, weight):
    g = TorusGeometry.regular(n, samples)
    L = _bundle(g, q, weight)
    omega = (_constant_metric if base == "constant" else _varying_metric)(g)
    R = chern_curvature(L)
    assert check_q_positive(L, omega, q).verdict
    new = uniformize_metric(L, omega, q)
    assert check_uniform_q_positive(L, new, q).verdict
    # The check-uniformize-check pipeline reads planes only.
    assert all("values" not in vars(f) for f in (R, new, omega) if f.matrix is None)
    ev = generalized_eigenvalues(R, omega).values
    ev_new = generalized_eigenvalues(R, new).values

    ev_ref, new_ref = _whole_plane_reference(L, omega, q)
    assert _bits_equal(ev, ev_ref)
    # A constant pencil gives one matrix, whose planes hold one entry each.
    constant = base == "constant" and weight == "0"
    assert (new.matrix is not None) is constant
    assert all((p.size == 1) is constant for p in new._planes)
    assert len(new._planes) == len(new_ref)
    same = _bits_equal if n <= 2 else np.array_equal
    for got, ref in zip(new._planes, new_ref):
        # Planes are cores: compared on the grid they stand for.
        assert same(*(np.broadcast_to(p, g.grid_shape) for p in (got, ref)))
    assert new.min_eigenvalue == _smallest_eigenvalue(new._planes)
    assert omega.min_eigenvalue == _smallest_eigenvalue(omega._planes)
    # Against the uniformized base, too: the check's own route.
    if n == 3:
        lam, _, _ = _whole_stack_eigenvalues(R, new)
    else:
        _, inverse = _cholesky(new._planes)
        B = _congruence(inverse, R._planes)
        lam = np.stack(np.broadcast_arrays(*_small_eigvalsh(B)), axis=-1)
    assert _bits_equal(ev_new, np.broadcast_to(lam, (*g.grid_shape, n)))


@pytest.mark.parametrize("n,samples", _GRIDS)
def test_tile_walk_covers_the_grid_once(n, samples):
    g = TorusGeometry.regular(n, samples)
    planes = _varying_metric(g)._planes
    spans = [span for span, _ in _tiles(planes)]
    size = g.num_points
    if size <= _TILE:
        assert spans == [slice(None)]
        return
    covered = np.zeros(size, dtype=int)
    for span, (tile,) in _tiles(planes):
        covered[span] += 1
        assert all(np.shares_memory(t, p) for t, p in zip(tile, planes))
    assert np.all(covered == 1)
    assert len(spans) == -(-size // _TILE)


def test_one_tile_grid_returns_kernel_planes_uncopied():
    g = TorusGeometry.regular(2, 6)
    assert g.num_points <= _TILE
    L = _bundle(g, 1, "0.02*cos(x1)")
    new = uniformize_metric(L, _constant_metric(g), 1)
    # The planes come straight from the congruence: C-contiguous, owning.
    assert all(p.flags.c_contiguous and p.base is None for p in new._planes)


def _pencil_peaks(L, omega):
    """Traced peaks of the pencil eigenvalues of (R, omega) and, from a
    fresh start, of the uniformized metric (q = 1), with that metric."""
    R = chern_curvature(L)
    tracemalloc.start()
    try:
        ev = generalized_eigenvalues(R, omega)
        _, eig_peak = tracemalloc.get_traced_memory()
        del ev
        tracemalloc.reset_peak()
        start, _ = tracemalloc.get_traced_memory()
        new = uniformize_metric(L, omega, 1)
        _, uni_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return eig_peak, uni_peak - start, new


def test_pencil_peak_memory_is_output_plus_tiles():
    """Against a varying base no grid-sized factor, B or parts array is
    formed: the traced peak stays within the outputs plus a fixed number
    of tile-sized arrays.

    At n = 2, 16^4, that is sixteen complex tile planes (whole-plane
    evaluation peaks near 9 MB for the eigenvalues and 15 MB for the
    transform). At n = 3, 6^6, against a base of caller values, it is
    eight joined 3 x 3 tile stacks of 1.2 MB: the peaks measure about
    7.2 and 12.0 MB, where the whole-stack route peaked at 33.6 and
    42.6 MB."""
    g = TorusGeometry.regular(2, 16)
    L = _bundle(g, 1, "0.02*cos(x1) + 0.01*sin(y2)")
    eig_peak, uni_peak, new = _pencil_peaks(L, _varying_metric(g))
    tiles = 16 * 16 * _TILE
    eigenvalue_bytes = g.num_points * 2 * 8
    plane_bytes = sum(p.nbytes for p in new._planes)
    assert eig_peak <= eigenvalue_bytes + tiles
    assert uni_peak <= plane_bytes + eigenvalue_bytes + tiles

    g = TorusGeometry.regular(3, 6)
    L = _bundle(g, 1, "0.02*cos(x1) + 0.01*sin(y3)")
    eig_peak, uni_peak, new = _pencil_peaks(L, MetricField(g, _varying_values(g)))
    tiles = 8 * _TILE * 9 * 16
    eigenvalue_bytes = g.num_points * 3 * 8
    plane_bytes = g.num_points * (3 * 8 + 3 * 16)  # three real, three complex
    assert eig_peak <= eigenvalue_bytes + tiles
    assert uni_peak <= plane_bytes + eigenvalue_bytes + tiles
