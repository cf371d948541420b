"""Tile-by-tile evaluation of the n <= 2 pencil kernels.

The reference applies the same elementwise kernels to whole planes, as
the package did before it cut the grid into tiles; every tiled result
must equal it bit for bit.
"""

import tracemalloc

import numpy as np
import pytest

from toruspos import (
    LineBundleMetric,
    MetricField,
    TorusGeometry,
    chern_curvature,
    constant_metric,
    expm1_over_x,
    generalized_eigenvalues,
    growth_rate,
    uniformize_metric,
)
from toruspos.lattice import (
    _TILE,
    _small_eigvalsh,
    _small_matrix_function,
    _split,
    _tiles,
)
from toruspos.qpositivity import EigenvalueField, _cholesky, _congruence

# (n, samples): many tiles, a partial last tile, below one tile, n = 1.
_GRIDS = [(2, 16), (2, 12), (2, 6), (1, 256)]


def _varying_metric(g: TorusGeometry) -> MetricField:
    n = g.complex_dim
    x = g.coordinate_arrays()
    vals = np.zeros((*g.grid_shape, n, n), dtype=complex)
    vals[..., 0, 0] = 1.5 + 0.4 * np.sin(x[0])
    if n == 2:
        vals[..., 1, 1] = 0.8 + 0.3 * np.cos(x[3])
        vals[..., 1, 0] = 0.2 * np.cos(x[1]) + 0.1j * np.sin(x[2])
        vals[..., 0, 1] = np.conj(vals[..., 1, 0])
    return MetricField._computed(g, tuple(p.copy() for p in _split(vals)))


def _constant_metric(g: TorusGeometry) -> MetricField:
    if g.complex_dim == 1:
        return constant_metric(g, np.array([[1.3]]))
    return constant_metric(g, np.array([[1.3, -0.2j], [0.2j, 1.1]]))


def _bundle(g: TorusGeometry, q: int, weight: str) -> LineBundleMetric:
    if g.complex_dim == 1:
        r_const = np.array([[1.5]])
    elif q == 0:
        r_const = np.array([[1.5, 0.3 + 0.1j], [0.3 - 0.1j, 0.8]])
    else:
        r_const = np.array([[1.5, 0.3 + 0.1j], [0.3 - 0.1j, -0.6]])
    return LineBundleMetric.from_expression(g, r_const, weight)


def _whole_plane_reference(L, omega, q):
    """Eigenvalues and uniformized planes with every kernel on whole planes."""
    g = L.geometry
    R, base = chern_curvature(L)._planes, omega._planes
    root, inverse = _cholesky(base)
    B = _congruence(inverse, R)
    lam = np.stack(np.broadcast_arrays(*_small_eigvalsh(B)), axis=-1)
    ev = np.broadcast_to(lam, (*g.grid_shape, g.complex_dim))
    rate = growth_rate(EigenvalueField(g, ev), q)
    (middle,) = _small_matrix_function(B, lambda x: 1.0 / expm1_over_x(rate * x))
    return ev, _congruence(root, middle)


def _smallest_eigenvalue(planes) -> float:
    return float(np.min(_small_eigvalsh(planes)[-1]))


def _bits_equal(a, b) -> bool:
    """Equal as float64/complex128 bit patterns (so -0.0 != 0.0)."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint8), b.view(np.uint8))


@pytest.mark.parametrize(
    "n,samples,q", [(n, samples, q) for n, samples in _GRIDS for q in range(n)]
)
@pytest.mark.parametrize("base", ["constant", "varying"])
@pytest.mark.parametrize("weight", ["0.02*cos(x1) + 0.01*sin(y1)", "0"])
def test_tiled_pipeline_equals_whole_planes(n, samples, q, base, weight):
    g = TorusGeometry.regular(n, samples)
    L = _bundle(g, q, weight)
    omega = (_constant_metric if base == "constant" else _varying_metric)(g)
    ev_ref, new_ref = _whole_plane_reference(L, omega, q)

    ev = generalized_eigenvalues(chern_curvature(L), omega).values
    assert _bits_equal(ev, ev_ref)
    new = uniformize_metric(L, omega, q)
    # A constant pencil gives one matrix, whose planes are 0-d.
    constant = base == "constant" and weight == "0"
    assert (new.matrix is not None) is constant
    assert len(new._planes) == len(new_ref)
    for got, ref in zip(new._planes, new_ref):
        assert _bits_equal(got, ref if constant else np.broadcast_to(ref, g.grid_shape))
    assert new.min_eigenvalue == _smallest_eigenvalue(new._planes)
    assert omega.min_eigenvalue == _smallest_eigenvalue(omega._planes)
    # Against the uniformized base, too: the check's own route.
    ev_new = generalized_eigenvalues(chern_curvature(L), new).values
    _, inverse = _cholesky(new._planes)
    B = _congruence(inverse, chern_curvature(L)._planes)
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


def test_pencil_peak_memory_is_output_plus_tiles():
    """At 16^4 against a varying base no grid-sized factor, B or parts
    plane is formed: traced peak stays within the outputs plus
    sixteen complex tile planes (whole-plane evaluation peaks near 9 MB
    for the eigenvalues and 15 MB for the transform)."""
    g = TorusGeometry.regular(2, 16)
    L = _bundle(g, 1, "0.02*cos(x1) + 0.01*sin(y2)")
    R = chern_curvature(L)
    omega = _varying_metric(g)
    tiles = 16 * 16 * _TILE
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
    eigenvalue_bytes = g.num_points * 2 * 8
    plane_bytes = sum(p.nbytes for p in new._planes)
    assert eig_peak <= eigenvalue_bytes + tiles
    assert uni_peak - start <= plane_bytes + eigenvalue_bytes + tiles
