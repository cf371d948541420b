"""Fields stored on their cores (the axes they vary along).

Every field the package computes keeps an array of the grid's rank with
length 1 on each axis it does not vary along, and its ``values`` is that
core viewed on the grid with zero strides. Kernels, gates and sums run on
the core, with the same float operations per grid point as on the whole
grid, so every output must equal, bit for bit, the pipeline on fields
written out on the whole grid (``oracles.synthesized_on_the_grid``).
The one exception is a transform: a half spectrum taken on a core runs
fewer float operations than on the grid, so it is held to a bound.

A caller's array is stored on its core too: the constructors scan it
once for the axes it equals its first slice along, bit for bit.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import materialized_weight, on_the_whole_grid, synthesized_on_the_grid
from toruspos import (
    LineBundleMetric,
    MetricField,
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
from toruspos.lattice import (
    _core,
    _sum,
    _sum_bound,
    scalar_field_from_csv,
    scalar_field_to_csv,
)
from toruspos.planes import _TILE, _tiles
from toruspos.stacks import _Stack

# n: samples per axis (16^2, 8^4 and 4^6 points).
_SAMPLES = {1: 16, 2: 8, 3: 4}
_ROTATED = np.array([[1.3, 0.2j, 0.1], [-0.2j, 1.1, 0.05], [0.1, 0.05, 0.9]])


def _bits(x) -> bytes:
    """The float bit patterns of an array on the grid (so -0.0 != 0.0)."""
    return np.ascontiguousarray(x).tobytes()


def _transform_bound(geom: TorusGeometry) -> float:
    """Relative bound on what a half spectrum taken on a core instead of
    the whole grid may move an output, ``8 sum(s) u``: each of the forward
    and the inverse transform sums at most ``s`` rounded products per axis
    of ``s`` points, so each moves an output by at most ``sum(s) u`` of its
    scale, and an output reads the transforms' results a few times (4)."""
    return 8 * sum(geom.grid_shape) * np.finfo(float).eps


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
    """Every output the core storage must keep: arrays on the grid, and
    each certificate and report in its JSON form."""
    R = chern_curvature(L)
    out = {"hessian": complex_hessian(L.phi).values, "curvature": R.values}
    out["eigenvalues"] = generalized_eigenvalues(R, omega).values
    first = check_q_positive(L, omega, q)
    out["check"] = first.to_json_dict()
    if first.verdict:
        new = uniformize_metric(L, omega, q)
        out["uniformized"] = new.values
        out["uniform"] = check_uniform_q_positive(L, new, q).to_json_dict()
    if omega.matrix is not None:
        f, cert = normalize_scalar_curvature(L, omega)
        out["normalized"] = f.values
        out["normalize"] = cert.to_json_dict()
    out["suite"] = equivalence_suite(L).to_json_dict()
    out["certify"] = certify_n_minus_1_positive(L).to_json_dict()
    return out


def _assert_agree(got, want, bound: float, key: str) -> None:
    """``got`` equals ``want`` bit for bit when ``bound`` is 0; else every
    array within ``bound`` of its largest entry, every number within
    ``bound`` times ``max(1, |want|)``, and every decision, name and count
    equal."""
    if isinstance(want, dict):
        assert got.keys() == want.keys(), key
        for k in want:
            _assert_agree(got[k], want[k], bound, f"{key}.{k}")
    elif isinstance(want, list):
        assert len(got) == len(want), key
        for i, (a, b) in enumerate(zip(got, want)):
            _assert_agree(a, b, bound, f"{key}[{i}]")
    elif isinstance(want, np.ndarray):
        assert got.shape == want.shape, key
        if bound == 0.0:
            assert _bits(got) == _bits(want), key
        else:
            scale = float(np.max(np.abs(want)))
            assert float(np.max(np.abs(got - want))) <= bound * scale, key
    elif isinstance(want, float) and bound > 0.0:
        assert abs(got - want) <= bound * max(1.0, abs(want)), key
    else:  # a decision, a name, a count, or a number compared bit for bit
        assert repr(got) == repr(want), key


def _assert_core_pipeline(g: TorusGeometry, text: str, q: int, base: str) -> None:
    """Every output of a weight with a mode table, or of one that varies
    along every axis, equals the whole-grid pipeline's bit for bit. A
    weight past the table's pairs on fewer axes takes its half spectrum on
    its core, which moves the transforms' last bits only
    (``_transform_bound``), with every decision equal; the pointwise
    kernels on its curvature stay bit for bit."""
    n = g.complex_dim
    r_const = np.diag([1.5, 0.9, 0.7][:n]).astype(complex)
    if n > 1:
        r_const[1, 0] = 0.1 + 0.05j
        r_const[0, 1] = np.conj(r_const[1, 0])
    for j in range(n - q, n):
        r_const[j, j] = -0.6
    if base == "identity":
        omega = identity_metric(g)
    else:
        omega = constant_metric(g, _ROTATED[:n, :n])
    L = LineBundleMetric.from_expression(g, r_const, text)
    got = _outputs(L, omega, q)
    with synthesized_on_the_grid():
        want = _outputs(materialized_weight(L), omega, q)
    transformed_core = L.phi._modes is None and L.phi._data.shape != g.grid_shape
    _assert_agree(got, want, _transform_bound(g) if transformed_core else 0.0, text)
    if transformed_core:
        R = chern_curvature(L)
        assert _bits(generalized_eigenvalues(R, omega).values) == _bits(
            generalized_eigenvalues(on_the_whole_grid(R), omega).values
        )


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_cores_give_the_whole_grid_pipeline_bit_for_bit(data):
    n = data.draw(st.sampled_from([1, 2, 3]))
    g = TorusGeometry.regular(n, _SAMPLES[n])
    text = _weight_text(data.draw, n, _SAMPLES[n])
    q = data.draw(st.integers(0, n - 1))
    _assert_core_pipeline(g, text, q, data.draw(st.sampled_from(["identity", "rotated"])))


#: Weights past the four pairs of a mode table on fewer than all axes, so
#: their half spectrum is taken on a core, with the grid's last axis in it
#: or not.
_TRANSFORMED_CORES = [
    (2, "0.01*sin(x1) + 0.003*cos(x1)*cos(y1)*cos(x2)"),
    (2, "0.003*cos(y1)*sin(x2)*cos(y2) - 0.01*cos(2*y1)"),
    (3, "0.003*cos(x1)*cos(y1)*cos(x2)*cos(x3) + 0.01*sin(y1)"),
    (3, "0.003*sin(y1)*cos(x2)*cos(y2)*sin(y3)"),
]


@pytest.mark.parametrize("n,text", _TRANSFORMED_CORES)
@pytest.mark.parametrize("base", ["identity", "rotated"])
def test_a_transformed_core_gives_the_whole_grid_pipeline(n, text, base):
    g = TorusGeometry.regular(n, _SAMPLES[n])
    phi = LineBundleMetric.from_expression(g, np.eye(n), text).phi
    assert phi._modes is None and phi._data.shape != g.grid_shape
    _assert_core_pipeline(g, text, n - 1, base)


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
    # A caller's grid array is stored on the axes it varies along.
    full = ScalarField(g, np.array(L.phi.values))
    assert _core(full.values).shape == (8, 1, 1, 8)


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


def _ragged_cores(rng, geom: TorusGeometry) -> list:
    """Two to eight random cores of ``geom``'s grid, each on a random set
    of one to all axes, each of its own scale between 1e-300 and 1e300,
    with one instance spanning that range, one of +0.0 only, one of -0.0
    only, one holding a NaN and an infinity, and one past ``sigma``'s
    overflow bound, each put at a random place."""
    grid = geom.grid_shape

    def core():
        axes = rng.permutation(len(grid))[: rng.integers(1, len(grid) + 1)]
        return rng.standard_normal(tuple(s if a in axes else 1 for a, s in enumerate(grid)))

    cores = [core() * 10.0 ** rng.uniform(-300, 300) for _ in range(rng.integers(2, 9))]
    spanning = core()
    spanning *= 10.0 ** rng.uniform(-300, 300, spanning.shape)
    non_finite = core()
    non_finite.flat[[0, -1]] = np.nan, np.inf
    # Twice the bound at one entry: handed to math.fsum whole, which still
    # sums it without overflow.
    overflow = core()
    overflow.flat[0] = 2.0 * _sum_bound(geom.num_points)
    special = [spanning, np.zeros_like(core()), -np.zeros_like(core()), non_finite, overflow]
    for values in special:
        cores.insert(rng.integers(0, len(cores) + 1), values)
    return cores


@pytest.mark.parametrize("n", [1, 2, 3])
def test_stacked_sums_equal_lone_sums(n):
    """A stack's sums (``stacks._Stack.sums``) extract all its instances at
    once, each with its own ``sigma`` and the ``k`` of the largest core,
    and hand an instance that is not finite, past the overflow bound or
    all zeros to ``lattice._sum`` alone: each must be ``_sum`` of its
    part, bit for bit, with and without ``among``, on random ragged
    stacks (``_ragged_cores``) and on a lone instance."""
    g = TorusGeometry.regular(n, _SAMPLES[n])
    grid = g.grid_shape
    rng = np.random.default_rng(40 + n)
    for _ in range(40):
        cores = _ragged_cores(rng, g)
        among = rng.random(len(cores)) < 0.6
        for stacked in (cores, cores[:1]):
            stack = _Stack(g, [c.shape for c in stacked])
            # A lone instance's array stays on its core.
            x = stacked[0] if stack.lone else np.concatenate([c.ravel() for c in stacked])
            lone = [_sum(c, grid) for c in stacked]
            assert list(map(float.hex, stack.sums(x))) == list(map(float.hex, lone))
            got = stack.sums(x, among[: len(stacked)])
            expected = [total if a else 0.0 for total, a in zip(lone, among)]
            assert list(map(float.hex, got)) == list(map(float.hex, expected))


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
    new field on the same core, with no table."""
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
    assert _core(grid.values).shape == (8, 1) and grid._modes is None


# -- caller arrays on their cores -------------------------------------------


def test_a_csv_weight_is_stored_on_its_core_and_transformed_there(
    tmp_path, transform_calls, monkeypatch
):
    """A weight on 2 of the 6 axes of 8^6, written to CSV and read back, is
    stored on those axes; its half spectrum is taken on that core (the
    grid's last axis whole), and normalize agrees with the expression
    weight, which takes its mode table, within the transforms' bound."""
    import toruspos.lattice as lattice_module

    g = TorusGeometry.regular(3, 8)
    text = "0.1*sin(x1)*cos(2*y2) - 0.05*cos(3*y2)"
    L = LineBundleMetric.from_expression(
        g, np.diag([1.2, -0.4, 0.9]).astype(complex), text
    )
    path = scalar_field_to_csv(L.phi, tmp_path / "phi.csv")
    phi = scalar_field_from_csv(g, path)
    assert phi._modes is None and phi._data.shape == (8, 1, 1, 8, 1, 1)
    assert phi.values.tobytes() == L.phi.values.tobytes()

    shapes = []
    rfftn = lattice_module._rfftn

    def spying(values):
        shapes.append(values.shape)
        return rfftn(values)

    monkeypatch.setattr(lattice_module, "_rfftn", spying)
    omega = constant_metric(g, _ROTATED)
    f, cert = normalize_scalar_curvature(L, omega)
    assert transform_calls == []
    f_csv, cert_csv = normalize_scalar_curvature(L.with_weight(phi), omega)
    assert shapes == [(8, 1, 1, 8, 1, 8)]
    assert cert_csv.verdict == cert.verdict
    bound = _transform_bound(g)
    assert abs(cert_csv.margin - cert.margin) <= bound * abs(cert.margin)
    assert cert_csv.residuals["poisson_rel"] <= 1e-13
    assert float(np.max(np.abs(f_csv.values - f.values))) <= bound * f.max_abs()


def test_the_scan_keeps_a_signed_zero_and_a_nan():
    """Axes are compared bit for bit: a -0.0 on an axis that is otherwise
    constant keeps that axis (and its sign), and a NaN stays in the core,
    so the finiteness gate still sees it."""
    g = TorusGeometry.regular(2, 4)
    a = np.zeros(g.grid_shape)
    a[:, :, :, :] = np.arange(4.0).reshape(4, 1, 1, 1)
    a[0, 2, 0, 0] = -0.0  # equal to 0.0, but not its bits
    field = ScalarField(g, a)
    assert _core(field.values).shape[:2] == (4, 4)
    assert field.values.tobytes() == a.tobytes()
    a[0, 2, 0, 0] = 0.0
    assert _core(ScalarField(g, a).values).shape == (4, 1, 1, 1)
    a[2, 3, 1, 0] = math.nan
    with pytest.raises(ValueError, match="non-finite"):
        ScalarField(g, a)
    with pytest.raises(ValueError, match="non-finite"):
        ScalarField(g, np.full(g.grid_shape, math.nan))


def test_a_caller_write_after_construction_reaches_no_field():
    g = TorusGeometry.regular(2, 4)
    a = np.broadcast_to(np.arange(4.0).reshape(1, 4, 1, 1), g.grid_shape).copy()
    m = np.broadcast_to(np.eye(2, dtype=complex), (*g.grid_shape, 2, 2)).copy()
    field, metric = ScalarField(g, a), MetricField(g, m)
    assert _core(field.values).shape == (1, 4, 1, 1) and metric.matrix is not None
    a[...] = 7.0
    m[...] = 0.0
    assert field.values[0, 3, 2, 1] == 3.0 and field.max_abs() == 3.0
    assert np.array_equal(metric.matrix, np.eye(2))


@pytest.mark.parametrize("n,samples", [(1, 16), (2, 8), (3, 4)])
def test_an_array_varying_along_every_axis_keeps_the_whole_grid(n, samples):
    """Random entries vary along every axis; so does a product whose probe
    entries next to the first repeat (sin is 0 there), which only the full
    comparison tells."""
    g = TorusGeometry.regular(n, samples)
    noise = np.random.default_rng(n).standard_normal(g.grid_shape)
    coords = g.coordinate_arrays()
    product = np.prod([np.sin(c) for c in coords], axis=0) + coords[0]
    for values in (noise, product):
        field = ScalarField(g, values)
        assert field._data.shape == g.grid_shape
        assert field.values.tobytes() == values.tobytes()
        assert not field.values.flags.writeable
