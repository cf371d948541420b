"""Fields stored on their cores (the axes they vary along).

Every field the package computes keeps an array of the grid's rank with
length 1 on each axis it does not vary along, and its ``values`` is that
core viewed on the grid with zero strides. Kernels, gates and sums run on
the core, with the same float operations per grid point as on the whole
grid, so every output must equal, bit for bit, the pipeline on fields
written out on the whole grid (``oracles.synthesized_on_the_grid``).
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import materialized_weight, synthesized_on_the_grid
from toruspos import (
    LineBundleMetric,
    ScalarField,
    TorusGeometry,
    certify_n_minus_1_positive,
    check_q_positive,
    check_uniform_q_positive,
    chern_curvature,
    compensated_sum,
    complex_hessian,
    constant_metric,
    equivalence_suite,
    generalized_eigenvalues,
    identity_metric,
    normalize_scalar_curvature,
    scalar_field_from_expression,
    uniformize_metric,
)
from toruspos.lattice import _core
from toruspos.planes import _TILE, _tiles

# n: samples per axis (16^2, 8^4 and 4^6 points).
_SAMPLES = {1: 16, 2: 8, 3: 4}
_ROTATED = np.array([[1.3, 0.2j, 0.1], [-0.2j, 1.1, 0.05], [0.1, 0.05, 0.9]])


def _bits(x) -> bytes:
    """The float bit patterns of an array on the grid (so -0.0 != 0.0)."""
    return np.ascontiguousarray(x).tobytes()


def _weight_text(draw, n: int, samples: int) -> str:
    """A weight varying along a drawn set of axes, from none to all: a
    term per axis, and sometimes a product over all of them or extra
    terms that take it past the four pairs of a mode table."""
    axes = draw(st.lists(st.integers(0, 2 * n - 1), unique=True, max_size=2 * n))
    top = min(2, samples // 2 - 1)
    terms = []
    for axis in axes:
        fn = draw(st.sampled_from(["sin", "cos"]))
        freq = draw(st.integers(1, top))
        coord = f"{'xy'[axis % 2]}{axis // 2 + 1}"
        terms.append(f"0.01*{fn}({freq}*{coord})")
    if len(axes) > 1 and draw(st.booleans()):
        coords = [f"{'xy'[a % 2]}{a // 2 + 1}" for a in axes]
        terms.append("0.003*" + "*".join(f"cos({c})" for c in coords))
    return " + ".join(terms) or draw(st.sampled_from(["0", "0.25"]))


def _outputs(L: LineBundleMetric, omega, q: int) -> dict:
    """Every output the core storage must keep bit for bit."""
    n = L.geometry.complex_dim
    R = chern_curvature(L)
    out = {"hessian": _bits(complex_hessian(L.phi).values)}
    out["curvature"] = _bits(R.values)
    out["eigenvalues"] = _bits(generalized_eigenvalues(R, omega).values)
    first = check_q_positive(L, omega, q)
    out["check"] = repr(first.to_json_dict())
    if first.verdict:
        new = uniformize_metric(L, omega, q)
        out["uniformized"] = _bits(new.values)
        out["uniform"] = repr(check_uniform_q_positive(L, new, q).to_json_dict())
    if omega.matrix is not None:
        f, cert = normalize_scalar_curvature(L, omega)
        out["normalized"] = _bits(f.values) + repr(cert.to_json_dict()).encode()
    suite = equivalence_suite(L)
    out["suite"] = repr(suite.to_json_dict()["margins"])
    out["certify"] = repr(certify_n_minus_1_positive(L).to_json_dict())
    return out


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_cores_give_the_whole_grid_pipeline_bit_for_bit(data):
    n = data.draw(st.sampled_from([1, 2, 3]))
    samples = _SAMPLES[n]
    g = TorusGeometry.regular(n, samples)
    text = _weight_text(data.draw, n, samples)
    q = data.draw(st.integers(0, n - 1))
    r_const = np.diag([1.5, 0.9, 0.7][:n]).astype(complex)
    if n > 1:
        r_const[1, 0] = 0.1 + 0.05j
        r_const[0, 1] = np.conj(r_const[1, 0])
    for j in range(n - q, n):
        r_const[j, j] = -0.6
    base = data.draw(st.sampled_from(["identity", "rotated"]))
    if base == "identity":
        omega = identity_metric(g)
    else:
        omega = constant_metric(g, _ROTATED[:n, :n])
    L = LineBundleMetric.from_expression(g, r_const, text)
    got = _outputs(L, omega, q)
    with synthesized_on_the_grid():
        want = _outputs(materialized_weight(L), omega, q)
    assert got.keys() == want.keys()
    for key in got:
        assert got[key] == want[key], (key, text)


def test_a_weight_is_stored_on_the_axes_it_varies_along():
    g = TorusGeometry.regular(2, 8)
    L = LineBundleMetric.from_expression(g, np.eye(2), "0.1*sin(x1) + 0.2*cos(y2)")
    assert _core(L.phi.values).shape == (8, 1, 1, 8)
    assert L.phi.values.strides[1:3] == (0, 0) and not L.phi.values.flags.writeable
    R = chern_curvature(L)
    # d^2/dz1 dz1-bar sees only x1, d^2/dz2 dz2-bar only y2, and the mixed
    # entry neither.
    assert [p.shape for p in R._planes] == [(8, 1, 1, 1), (1, 1, 1, 8), (1, 1, 1, 1)]
    ev = generalized_eigenvalues(R, identity_metric(g))
    assert ev._kept.shape == (8, 1, 1, 8, 2) and ev.values.shape == (8, 8, 8, 8, 2)
    # A caller's grid array is its own core.
    full = ScalarField(g, np.array(L.phi.values))
    assert _core(full.values).shape == g.grid_shape


def test_tile_walk_broadcasts_planes_on_fewer_axes():
    """Planes on different axes are walked on their common core (8^5 of
    an 8^6 grid, four tiles), each tile holding exactly that span of
    every plane, a plane of one entry 0-d."""
    a = np.arange(8.0).reshape(8, 1, 1, 1, 1, 1)
    b = np.arange(8.0**4).reshape(1, 8, 8, 8, 8, 1)
    c = np.full((1,) * 6, 2.0)
    want = (a + b + c).reshape(-1)
    assert want.size == 8**5 > _TILE
    seen = np.zeros(want.size, dtype=int)
    for span, ((ta, tb, tc),) in _tiles((a, b, c)):
        assert tc.ndim == 0 and ta.shape == tb.shape == (span.stop - span.start,)
        assert np.array_equal(ta + tb + tc, want[span])
        seen[span] += 1
    assert np.all(seen == 1)


_MULTIPLICITY_AXES = st.lists(st.sampled_from([6, 12]), min_size=1, max_size=4)
_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-1e-300, max_value=1e-300),
    st.sampled_from([0.0, -0.0, 5e-324, 1.0, 2.0**1000, -(2.0**1000), 1.7e308,
                     -1.7e308, math.nan, math.inf, -math.inf]),
)


def _fsum_outcome(fn, vals):
    """``repr`` of the result (sign of zero and NaN included) or the error type."""
    try:
        return repr(fn(vals))
    except (ValueError, OverflowError) as exc:
        return type(exc)


@settings(max_examples=200, deadline=None)
@given(_MULTIPLICITY_AXES, st.data())
def test_compensated_sum_of_a_core_view_is_fsum_of_the_grid(grid, data):
    """A core viewed on the grid sums as math.fsum of every grid entry,
    for multiplicities that are not powers of two (6- and 12-point axes)
    and for zeros of either sign, NaN, inf and sigma overflow."""
    kept = data.draw(st.lists(st.booleans(), min_size=len(grid), max_size=len(grid)))
    shape = tuple(s if keep else 1 for s, keep in zip(grid, kept))
    values = data.draw(st.lists(_VALUES, min_size=1, max_size=40))
    if data.draw(st.booleans()):  # all zeros of one sign
        values = [data.draw(st.sampled_from([0.0, -0.0]))]
    # The drawn values repeated over the core.
    core = np.resize(np.array(values), math.prod(shape)).reshape(shape)
    view = np.broadcast_to(core, grid)
    assert _fsum_outcome(compensated_sum, view) == _fsum_outcome(
        math.fsum, view.ravel().tolist()
    )


@pytest.mark.parametrize("grid", [(6, 6), (6, 12), (6, 8), (48, 6), (48, 12)])
def test_compensated_sum_rounds_the_core_product_once(grid):
    """The core sum S = 1 + 2^-53 + 2^-80 rounds up to 1 + 2^-52, and 6 or
    12 times that lies on a tie that rounds to even, one ulp past the
    correctly rounded m * S: the product must be rounded once, as
    math.fsum of the grid does (m = 8 scales exactly either way). A core
    of 6 entries is its own partials, one of 48 is extracted."""
    core = np.zeros((grid[0], 1))
    core[:3, 0] = [1.0, 2.0**-53, 2.0**-80]
    view = np.broadcast_to(core, grid)
    assert compensated_sum(view) == math.fsum(view.ravel().tolist())


def _peak(fn) -> int:
    """Traced peak of ``fn()`` in bytes, after one untraced call."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_one_axis_uniformize_never_writes_a_grid_plane():
    """check -> uniformize -> check on a weight along one axis of 16^4
    stays below one float64 grid plane (512 KB): no field is written out
    on the grid."""
    g = TorusGeometry.regular(2, 16)
    r_const = np.array([[1.2, 0.1j], [-0.1j, -0.5]])

    def sequence():
        text = "0.01*sin(x1) + 0.02*cos(2*x1)"
        L = LineBundleMetric.from_expression(g, r_const, text)
        omega = identity_metric(g)
        assert check_q_positive(L, omega, 1).verdict
        new = uniformize_metric(L, omega, 1)
        assert check_uniform_q_positive(L, new, 1).verdict

    assert _peak(sequence) < g.num_points * 8


def test_one_axis_normalize_and_certify_stay_off_the_grid():
    """A weighted normalize and certify at n = 3 on 8^6 with a weight
    along one axis peak below 2 MB (one float64 grid takes 2 MB)."""
    g = TorusGeometry.regular(3, 8)
    r_const = np.diag([1.0, -0.5, 0.8]).astype(complex)
    omega = constant_metric(g, _ROTATED)

    def sequence():
        L = LineBundleMetric.from_expression(g, r_const, "0.2*cos(y2) - 0.1*sin(2*y2)")
        f, cert = normalize_scalar_curvature(L, omega)
        assert cert.residuals["poisson_rel"] <= 1e-8
        assert certify_n_minus_1_positive(L).verdict

    assert _peak(sequence) < 2 * 2**20


def test_expression_fields_are_read_only_cores():
    """scalar_field_from_expression gives the field a bundle keeps: on its
    core, read-only, with its mode table; a caller's grid copy of it is a
    new field on the whole grid, with no table."""
    g = TorusGeometry.regular(1, 8)
    field = scalar_field_from_expression(g, "0.5*sin(x1)")
    assert _core(field.values).shape == (8, 1) and field.values.shape == g.grid_shape
    assert not field.values.flags.writeable and field._modes is not None
    L = LineBundleMetric(g, np.eye(1), field)
    assert L.phi is field
    assert np.array_equal(
        LineBundleMetric.from_expression(g, np.eye(1), "0.5*sin(x1)").phi.values,
        field.values,
    )
    grid = ScalarField(g, np.array(field.values))
    assert _core(grid.values).shape == g.grid_shape and grid._modes is None
