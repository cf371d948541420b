"""Grid geometry, spectral calculus, and the elliptic solve."""

import math

import numpy as np
import pytest
from conftest import random_pd_metric
from oracles import (
    _small_eigvalsh,
    _small_matrix_function,
    integrate,
    is_constant_field,
    on_the_whole_grid,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from toruspos import (
    EigenvalueField,
    GeometryMismatchError,
    HermitianMatrixField,
    InternalInvariantError,
    MeanNotZeroError,
    MetricField,
    NonConstantMetricError,
    ScalarField,
    TorusGeometry,
    compensated_sum,
    complex_hessian,
    constant_metric,
    constant_representative,
    identity_metric,
    poisson_solve,
    scalar_field_from_expression,
)
from toruspos.lattice import (
    _SUM_BLOCK,
    scalar_field_from_csv,
    scalar_field_to_csv,
)

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------- geometry


def test_geometry_basic_properties():
    g = TorusGeometry(1, (8, 4), (TWO_PI, TWO_PI))
    assert g.num_points == 32
    assert g.volume == pytest.approx(TWO_PI**2)
    assert g.cell_volume == pytest.approx(TWO_PI**2 / 32)
    x = g.axis_coordinates(0)
    assert x[0] == 0.0
    assert x[-1] == pytest.approx(TWO_PI * 7 / 8)


@pytest.mark.parametrize(
    "geom",
    [
        TorusGeometry(1, (8, 4), (TWO_PI, TWO_PI)),
        TorusGeometry.regular(2, 8),
        TorusGeometry.regular(2, (16, 8, 12, 6), (1.0, 0.3, 7.1, math.e)),
        TorusGeometry.regular(3, (4, 6, 8, 10, 12, 14), (0.7, 1.9, 2.3, 3.1, 5.3, 0.1)),
        TorusGeometry.regular(3, 256, 1e-3),
    ],
)
def test_geometry_sizes_equal_the_array_products(geom):
    """The sizes, products taken once per geometry, are bit-identical to
    numpy's products of the same factors."""
    cell = np.prod([p / s for p, s in zip(geom.periods, geom.grid_shape)])
    assert geom.num_points == int(np.prod(geom.grid_shape))
    assert geom.cell_volume == float(cell)
    assert geom.volume == float(np.prod(geom.periods))
    assert type(geom.num_points) is int
    assert type(geom.cell_volume) is float and type(geom.volume) is float
    assert geom.cell_volume is geom.cell_volume


def test_geometry_regular_constructor():
    g = TorusGeometry.regular(2, 8, period=1.0)
    assert g.grid_shape == (8, 8, 8, 8)
    assert g.periods == (1.0,) * 4
    assert g.volume == pytest.approx(1.0)


@pytest.mark.parametrize(
    "n,grid,periods",
    [
        (1, (7, 8), (TWO_PI, TWO_PI)),  # odd axis
        (1, (2, 8), (TWO_PI, TWO_PI)),  # below minimum
        (1, (8,), (TWO_PI, TWO_PI)),  # wrong axis count
        (1, (8, 8), (TWO_PI,)),  # wrong period count
        (1, (8, 8), (TWO_PI, -1.0)),  # negative period
        (0, (), ()),  # no dimensions
    ],
)
def test_geometry_rejects_bad_input(n, grid, periods):
    with pytest.raises(ValueError):
        TorusGeometry(n, grid, periods)


def test_field_shape_and_finiteness_validation():
    g = TorusGeometry.regular(1, 8)
    with pytest.raises(ValueError):
        ScalarField(g, np.zeros((8, 4)))
    bad = np.zeros(g.grid_shape)
    bad[0, 0] = np.inf
    with pytest.raises(ValueError):
        ScalarField(g, bad)


def test_hermitian_field_validation():
    g = TorusGeometry.regular(1, 8)
    vals = np.zeros((*g.grid_shape, 1, 1), dtype=complex)
    vals[..., 0, 0] = 1j  # not Hermitian for a 1x1 block
    with pytest.raises(ValueError, match="Hermitian"):
        HermitianMatrixField(g, vals)


def test_computed_planes_are_gated_for_finiteness_only(monkeypatch):
    """A counter, no timing: an n = 3 Hessian is Hermitian by construction
    (its lower planes take the conjugate multipliers of the upper
    entries), so neither spectrum form runs the Hermitian gate on it; a
    stack of caller values does, and a computed field with a non-finite
    plane is still refused."""
    import toruspos.lattice as lattice_module

    gates = []
    original = lattice_module._check_hermitian

    def counting(vals):
        gates.append(np.shape(vals))
        original(vals)

    monkeypatch.setattr(lattice_module, "_check_hermitian", counting)
    g = TorusGeometry.regular(3, 4)
    phi = scalar_field_from_expression(g, "0.3*sin(x1)*cos(y2) + 0.1*cos(y3)")
    # The mode table writes the planes on the axes of x1, y2 and y3, and
    # so does the half spectrum of a grid copy, on the copy's core.
    for weight, core in (
        (phi, (4, 1, 1, 4, 1, 4)),
        (ScalarField(g, phi.values.copy()), (4, 1, 1, 4, 1, 4)),
    ):
        H = complex_hessian(weight)
        assert len(H._planes) == 6 and "values" not in vars(H)
        assert np.broadcast_shapes(*(p.shape for p in H._planes)) == core
        assert np.array_equal(H.values, np.conj(np.swapaxes(H.values, -1, -2)))
    assert gates == []
    HermitianMatrixField(g, H.values.copy())
    assert gates == [(4, 1, 1, 4, 1, 4, 3, 3)]
    planes = [p.copy() for p in H._planes]
    planes[4][0, 0, 0, 0, 0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        HermitianMatrixField._computed(g, tuple(planes))


@pytest.mark.parametrize("cls", [HermitianMatrixField, MetricField])
def test_caller_stack_that_is_not_hermitian_still_raises(cls):
    g = TorusGeometry.regular(3, 4)
    stack = np.broadcast_to(np.eye(3, dtype=complex), (*g.grid_shape, 3, 3)).copy()
    stack[1, 2, 3, 0, 1, 2, 0, 2] = 0.5j  # its mirror entry stays 0
    with pytest.raises(ValueError, match="not Hermitian"):
        cls(g, stack)


def test_metric_field_requires_positive_definite():
    g = TorusGeometry.regular(2, 4)
    mat = np.diag([1.0, -0.5])
    with pytest.raises(ValueError, match="positive definite"):
        constant_metric(g, mat)
    m = identity_metric(g)
    assert m.min_eigenvalue == pytest.approx(1.0)


@pytest.mark.parametrize(
    "mat",
    [
        [[1.0, 1.0], [1.0, 1.0]],  # singular, off-diagonal coupling
        [[1.0, 0.0], [0.0, 0.0]],  # singular, diagonal
        [[1.0, 2.0j], [-2.0j, 1.0]],  # eigenvalues 3 and -1
        [[0.0, 0.0], [0.0, 0.0]],
    ],
)
def test_metric_field_rejects_2x2_without_positive_minimum(mat):
    g = TorusGeometry.regular(2, 4)
    vals = np.broadcast_to(np.eye(2, dtype=complex), (*g.grid_shape, 2, 2)).copy()
    vals[1, 2, 3, 0] = np.asarray(mat)
    with pytest.raises(ValueError, match="positive definite"):
        MetricField(g, vals)


def test_metric_field_rejects_1x1_zero():
    g = TorusGeometry.regular(1, 4)
    vals = np.ones((*g.grid_shape, 1, 1), dtype=complex)
    vals[2, 1] = 0.0
    with pytest.raises(ValueError, match="positive definite"):
        MetricField(g, vals)


# ------------------------------------------------ closed-form n <= 2 kernels


def _unitary_2x2(theta: float, phase: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    e = complex(math.cos(phase), math.sin(phase))
    return np.array([[c, -e * s], [np.conj(e) * s, c]])


@st.composite
def hermitian_2x2(draw, positive=False):
    """2 x 2 Hermitian matrices with degenerate, clustered and spread spectra."""
    kinds = ["generic", "degenerate", "near", "spread"]
    kind = draw(st.sampled_from(kinds if positive else kinds + ["floor"]))
    scale = draw(st.floats(min_value=1e-6, max_value=1e6))
    sign = 1.0 if positive else draw(st.sampled_from([-1.0, 1.0]))
    x = draw(st.floats(min_value=0.5, max_value=2.0))
    y = draw(st.floats(min_value=0.5, max_value=2.0))
    if kind == "degenerate":  # a = d, b = 0 exactly
        return np.diag([sign * scale * x, sign * scale * x]).astype(complex)
    if kind == "generic":
        other = y if positive else draw(st.floats(min_value=-2.0, max_value=2.0))
        eigs = [sign * x, other]
    elif kind == "near":
        eigs = [sign * x, sign * x * (1.0 + 1e-13)]
    elif kind == "spread":
        eigs = [sign * x, y * 1e-12]
    else:  # an eigenvalue at the floor, either side of zero
        eigs = [sign * x, draw(st.sampled_from([-1e-15, 1e-15]))]
    theta = draw(st.floats(min_value=0.0, max_value=math.pi))
    phase = draw(st.floats(min_value=0.0, max_value=2.0 * math.pi))
    U = _unitary_2x2(theta, phase)
    mat = (U * (scale * np.asarray(eigs))) @ U.conj().T
    return 0.5 * (mat + mat.conj().T)


@settings(max_examples=300, deadline=None)
@given(st.lists(hermitian_2x2(), min_size=1, max_size=5))
def test_small_eigvalsh_matches_lapack_2x2(mats):
    stack = np.stack(mats)
    got = _small_eigvalsh(stack)
    ref = np.linalg.eigvalsh(stack)[..., ::-1]
    scale = np.max(np.abs(ref), axis=-1, keepdims=True)
    assert np.all(np.abs(got - ref) <= 1e-13 * scale)
    assert np.all(got[..., 0] >= got[..., 1])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=5))
def test_small_eigvalsh_matches_lapack_1x1(diag):
    stack = np.asarray(diag, dtype=complex)[:, None, None]
    assert np.array_equal(_small_eigvalsh(stack), np.linalg.eigvalsh(stack))


def _eigh_function(stack: np.ndarray, fn) -> np.ndarray:
    d, Q = np.linalg.eigh(stack)
    return np.einsum("...ij,...j,...kj->...ik", Q, fn(d), Q.conj())


@settings(max_examples=200, deadline=None)
@given(st.lists(hermitian_2x2(positive=True), min_size=1, max_size=5))
def test_small_matrix_function_square_roots_match_eigh(mats):
    stack = np.stack(mats)
    ratio = np.linalg.cond(stack)
    stack = stack[ratio < 1e3]  # well conditioned only
    if stack.shape[0] == 0:
        return
    fns = (np.sqrt, lambda x: 1.0 / np.sqrt(x))
    got = _small_matrix_function(stack, *fns)
    for fn, value in zip(fns, got):
        ref = _eigh_function(stack, fn)
        scale = np.max(np.abs(ref), axis=(-2, -1), keepdims=True)
        assert np.all(np.abs(value - ref) <= 1e-12 * scale)
        assert np.array_equal(value, np.conj(np.swapaxes(value, -1, -2)))


def test_small_matrix_function_of_scalar_matrix_is_exact():
    stack = np.array([np.eye(2) * 4.0, np.eye(2) * 0.25], dtype=complex)
    (root,) = _small_matrix_function(stack, np.sqrt)
    assert np.array_equal(root, np.array([np.eye(2) * 2.0, np.eye(2) * 0.5]))
    one = np.array([[[9.0]], [[0.25]]], dtype=complex)
    (inv_root,) = _small_matrix_function(one, lambda x: 1.0 / np.sqrt(x))
    assert np.array_equal(inv_root, np.array([[[1.0 / 3.0]], [[2.0]]]))


def test_constant_representative_detects_variation():
    g = TorusGeometry.regular(1, 8)
    m = identity_metric(g)
    assert constant_representative(m) == pytest.approx(np.eye(1))
    vals = m.values.copy()
    vals[0, 0, 0, 0] = 2.0
    varying = MetricField(g, vals)
    with pytest.raises(NonConstantMetricError):
        constant_representative(varying)


def test_constant_field_stores_one_read_only_matrix():
    g = TorusGeometry.regular(2, 6)
    mat = np.array([[2.0, 0.5 - 0.25j], [0.5 + 0.25j, 1.0]])
    omega = constant_metric(g, mat)
    assert omega.values.shape == (*g.grid_shape, 2, 2)
    assert omega.values.strides[:4] == (0, 0, 0, 0)
    assert np.array_equal(omega.matrix, mat)
    assert np.array_equal(constant_representative(omega), mat)
    with pytest.raises(ValueError):
        omega.values[0, 0, 0, 0, 0, 0] = 5.0
    with pytest.raises(ValueError):
        omega.matrix[0, 0] = 5.0
    mat[0, 0] = 5.0  # the field keeps its own copy
    assert omega.matrix[0, 0] == 2.0
    # A caller's grid copy is stored as its one matrix; a copy kept on the
    # whole grid is stored as varying, and constancy is read off storage.
    copy = MetricField(g, omega.values.copy())
    assert copy.matrix.tobytes() == omega.matrix.tobytes()
    materialized = on_the_whole_grid(omega)
    assert materialized.matrix is None
    with pytest.raises(NonConstantMetricError):
        constant_representative(materialized)
    assert is_constant_field(omega) and not is_constant_field(materialized)


def test_a_constant_field_views_its_matrix_on_the_grid_once(monkeypatch):
    """A counter, no timing: a constant metric copies and gates its one
    matrix, and views it on the grid once, not the caller's matrix too."""
    calls = []
    original = np.broadcast_to

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(np, "broadcast_to", counting)
    g = TorusGeometry.regular(2, 6)
    omega = constant_metric(g, np.array([[2.0, 0.5j], [-0.5j, 1.0]]))
    assert len(calls) == 1 and omega.values.strides[:4] == (0, 0, 0, 0)
    with pytest.raises(ValueError, match=r"matrix field shape \(6, 6, 6, 6, 3\)"):
        HermitianMatrixField.constant(g, np.ones(3))


@pytest.mark.parametrize("n,samples", [(1, 10), (2, 6), (3, 4)])
def test_constant_metric_min_eigenvalue_matches_materialized(n, samples):
    g = TorusGeometry.regular(n, samples)
    omega = random_pd_metric(np.random.default_rng(n), g)
    materialized = on_the_whole_grid(omega)
    assert omega.min_eigenvalue == pytest.approx(materialized.min_eigenvalue, rel=1e-13)


def _rejection_message(factory) -> str:
    with pytest.raises(ValueError) as info:
        factory()
    return str(info.value)


@pytest.mark.parametrize(
    "mat,match",
    [
        ([[1.0, np.nan], [np.nan, 1.0]], "non-finite"),
        ([[1.0, 0.5j], [0.5j, 1.0]], "not Hermitian"),
        ([[1.0, 2.0j], [-2.0j, 1.0]], "positive definite"),
        ([[2.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -1.0]], "positive definite"),
    ],
)
def test_constant_metric_rejections_match_materialized(mat, match):
    mat = np.asarray(mat, dtype=complex)
    g = TorusGeometry.regular(mat.shape[0], 4)
    full = np.broadcast_to(mat, (*g.grid_shape, *mat.shape)).copy()
    message = _rejection_message(lambda: constant_metric(g, mat))
    assert match in message
    assert message == _rejection_message(lambda: MetricField(g, full))


def test_constant_metric_validates_one_matrix(monkeypatch):
    """Counters on the kernels, no timing: one 3x3 eigvalsh, no grid det."""
    seen = {"eigvalsh": [], "det": []}
    for name in seen:
        original = getattr(np.linalg, name)

        def counting(a, *args, _name=name, _original=original, **kwargs):
            seen[_name].append(np.shape(a))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    g = TorusGeometry.regular(3, 8)
    A = np.diag([1.0, 2.0, 3.0]) + 0.1 * np.ones((3, 3))
    omega = constant_metric(g, A)
    assert seen["eigvalsh"] == [(3, 3)]
    assert seen["det"] == []
    assert omega.min_eigenvalue == pytest.approx(min(np.linalg.eigvalsh(A)))


def test_identity_metric_is_built_once_per_geometry():
    """Equal geometries share one identity metric, gated once: a field
    cannot change, so the suite's fourth route and the CLI's default base
    reuse it."""
    g = TorusGeometry.regular(2, 8)
    omega = identity_metric(g)
    assert identity_metric(TorusGeometry.regular(2, 8)) is omega
    assert identity_metric(TorusGeometry.regular(2, 4)) is not omega
    assert np.array_equal(omega.matrix, np.eye(2))


# ------------------------------------------------------------ differentiation


def test_hessian_annihilates_constants():
    g = TorusGeometry.regular(2, 8)
    H = complex_hessian(ScalarField.constant(g, 3.7))
    assert np.max(np.abs(H.values)) == 0.0


def test_hessian_matches_analytic_cosine():
    g = TorusGeometry.regular(1, 32)
    phi = scalar_field_from_expression(g, "cos(x1)")
    H = complex_hessian(phi)
    x = g.coordinate_arrays()[0]
    assert np.max(np.abs(H.values[..., 0, 0] + 0.25 * np.cos(x))) < 1e-13


def test_hessian_off_diagonal_analytic():
    g = TorusGeometry.regular(2, 8)
    phi = scalar_field_from_expression(g, "sin(x1)*sin(y2)")
    H = complex_hessian(phi)
    xs = g.coordinate_arrays()
    expected = 0.25j * np.cos(xs[0]) * np.cos(xs[3])
    assert np.max(np.abs(H.values[..., 0, 1] - expected)) < 1e-13
    # conjugate entry
    assert np.max(np.abs(H.values[..., 1, 0] - np.conj(expected))) < 1e-13


def _central_mixed_derivative(fn, point, a, b, h):
    """Second partial d_a d_b of fn at one point, central differences."""
    p = np.asarray(point, dtype=np.float64)
    ea = np.zeros_like(p)
    ea[a] = h
    eb = np.zeros_like(p)
    eb[b] = h
    if a == b:
        return (fn(p + ea) - 2.0 * fn(p) + fn(p - ea)) / h**2
    return (
        fn(p + ea + eb) - fn(p + ea - eb) - fn(p - ea + eb) + fn(p - ea - eb)
    ) / (4.0 * h**2)


def test_hessian_matches_finite_differences():
    """Independent oracle: stencil derivatives of the closed form."""
    g = TorusGeometry.regular(2, 12)
    text = "0.7*sin(x1)*cos(y2) + 0.3*cos(2*y1) - 0.5*sin(x2)"
    phi = scalar_field_from_expression(g, text)
    H = complex_hessian(phi)

    def fn(p):
        return (
            0.7 * math.sin(p[0]) * math.cos(p[3])
            + 0.3 * math.cos(2 * p[1])
            - 0.5 * math.sin(p[2])
        )

    h = 1e-3
    rng = np.random.default_rng(11)
    for _ in range(12):
        idx = tuple(rng.integers(0, s) for s in g.grid_shape)
        point = [g.axis_coordinates(a)[idx[a]] for a in range(4)]
        for j in range(2):
            for k in range(2):
                xx = _central_mixed_derivative(fn, point, 2 * j, 2 * k, h)
                yy = _central_mixed_derivative(fn, point, 2 * j + 1, 2 * k + 1, h)
                xy = _central_mixed_derivative(fn, point, 2 * j, 2 * k + 1, h)
                yx = _central_mixed_derivative(fn, point, 2 * j + 1, 2 * k, h)
                expected = 0.25 * ((xx + yy) + 1j * (xy - yx))
                assert H.values[idx][j, k] == pytest.approx(expected, abs=1e-6)


def test_hessian_is_hermitian_and_linear():
    g = TorusGeometry.regular(2, 8)
    rng = np.random.default_rng(5)
    phi = scalar_field_from_expression(g, "sin(x1) + 0.4*cos(2*x2)*sin(y1)")
    psi = scalar_field_from_expression(g, "cos(y2) - 0.2*sin(x1)*sin(x2)")
    a, b = rng.uniform(-2, 2, size=2)
    combo = ScalarField(g, a * phi.values + b * psi.values)
    Hc = complex_hessian(combo)
    Hsum = a * complex_hessian(phi).values + b * complex_hessian(psi).values
    assert np.max(np.abs(Hc.values - Hsum)) < 1e-13
    dev = np.abs(Hc.values - np.conj(np.swapaxes(Hc.values, -1, -2)))
    assert np.max(dev) < 1e-12 * max(1.0, np.max(np.abs(Hc.values)))


# ---------------------------------------------------------------- quadrature


def test_integrate_unit_field_gives_torus_volume():
    g = TorusGeometry.regular(1, 16)
    one = ScalarField.constant(g, 1.0)
    assert integrate(one, one) == pytest.approx(TWO_PI**2, rel=1e-14)


def test_integrate_mean_zero_harmonic():
    g = TorusGeometry.regular(1, 16)
    gfield = scalar_field_from_expression(g, "cos(x1)")
    one = ScalarField.constant(g, 1.0)
    assert abs(integrate(gfield, one)) < 1e-12


def test_integrate_matches_refined_grid():
    text = "0.3*sin(2*x1)*cos(y1) + 1.5 - 0.8*cos(x1)*cos(x1)"
    coarse = TorusGeometry.regular(1, 16)
    fine = TorusGeometry.regular(1, 64)
    vals = []
    for g in (coarse, fine):
        field = scalar_field_from_expression(g, text)
        vals.append(integrate(field, ScalarField.constant(g, 1.0)))
    assert vals[0] == pytest.approx(vals[1], rel=1e-10)


def test_integrate_rejects_geometry_mismatch():
    a = TorusGeometry.regular(1, 8)
    b = TorusGeometry.regular(1, 16)
    with pytest.raises(GeometryMismatchError):
        integrate(ScalarField.constant(a, 1.0), ScalarField.constant(b, 1.0))


def test_compensated_sum_matches_fsum():
    rng = np.random.default_rng(2)
    vals = rng.standard_normal((64, 64)) * 10.0 ** rng.uniform(-6, 6, (64, 64))
    assert compensated_sum(vals) == math.fsum(vals.ravel())


def _fsum_outcome(fn, vals):
    """``repr`` of the result (sign of zero and NaN included) or the error type."""
    try:
        return repr(fn(vals))
    except (ValueError, OverflowError) as exc:
        return type(exc)


_SPECIAL_FLOATS = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1.0, -1.0, 2.0**1000, -(2.0**1000),
     1.7e308, -1.7e308, 2.0**-1000]
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.floats(min_value=-1e-300, max_value=1e-300),
            _SPECIAL_FLOATS,
        ),
        max_size=40,
    ),
    st.booleans(),
)
def test_compensated_sum_is_fsum_bit_for_bit(floats, cancel):
    vals = np.array(floats + [-v for v in floats[::-1]] if cancel else floats)
    assert _fsum_outcome(compensated_sum, vals) == _fsum_outcome(
        math.fsum, vals.ravel().tolist()
    )


@pytest.mark.parametrize(
    "vals",
    [
        [],
        [-0.0],
        [-0.0, -0.0],
        [0.0, -0.0],
        [5e-324],
        [3.5],
        [1.0, -1.0],
        [1e308, 1e308],                    # intermediate overflow
        [1e308, 1e308, -1e308],            # overflow although the sum fits
        [1.7e308, -1.7e308, 1.0],
        [np.inf, -np.inf],                 # inf - inf
        [np.inf, 1.0],
        [np.nan, 1.0],
        [2.0**1023, 2.0**-1074, -(2.0**1023)],
    ],
)
def test_compensated_sum_edge_cases_match_fsum(vals):
    arr = np.array(vals, dtype=np.float64)
    assert _fsum_outcome(compensated_sum, arr) == _fsum_outcome(math.fsum, vals)


def test_compensated_sum_on_a_grid_field_matches_fsum():
    rng = np.random.default_rng(8)
    vals = rng.standard_normal((8,) * 6) * 10.0 ** rng.uniform(-20, 20, (8,) * 6)
    vals[0, 0] = 1e200
    vals[1, 1] = -1e200
    assert compensated_sum(vals) == math.fsum(vals.ravel())


def _multi_block_case(size: int, case: str) -> np.ndarray:
    rng = np.random.default_rng(size)
    vals = rng.standard_normal(size) * 10.0 ** rng.uniform(-20, 20, size)
    if case == "huge_pair":  # +-1e200 at the two ends: different blocks
        vals[0], vals[-1] = 1e200, -1e200
    elif case == "zero_block":  # the second block all zero, the others not
        vals[_SUM_BLOCK : 2 * _SUM_BLOCK] = 0.0
    elif case == "subnormal_block":  # subnormals in the first block only
        head = min(size, _SUM_BLOCK)
        vals[:head] = rng.integers(-(2**40), 2**40, head) * 5e-324
    elif case == "negative_zeros":
        vals[:] = -0.0
    elif case == "nan_last":
        vals[-1] = np.nan
    elif case == "inf_last":
        vals[-1] = np.inf
    elif case == "inf_minus_inf":  # fsum raises ValueError
        vals[0], vals[-1] = -np.inf, np.inf
    return vals


@pytest.mark.parametrize(
    "case",
    ["plain", "huge_pair", "zero_block", "subnormal_block", "negative_zeros",
     "nan_last", "inf_last", "inf_minus_inf"],
)
@pytest.mark.parametrize(
    "size", [_SUM_BLOCK - 1, _SUM_BLOCK, _SUM_BLOCK + 1, 3 * _SUM_BLOCK + 7, 8**6]
)
def test_compensated_sum_across_blocks_is_fsum_bit_for_bit(size, case):
    vals = _multi_block_case(size, case)
    assert _fsum_outcome(compensated_sum, vals) == _fsum_outcome(
        math.fsum, vals.tolist()
    )


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.floats(min_value=-1e-300, max_value=1e-300),
            _SPECIAL_FLOATS,
        ),
        min_size=1,
        max_size=40,
    ),
    st.integers(min_value=0, max_value=_SUM_BLOCK),
)
def test_compensated_sum_tiled_past_two_blocks_is_fsum(floats, shift):
    """A drawn list repeated past two blocks, started at a drawn offset."""
    reps = (2 * _SUM_BLOCK + shift) // len(floats) + 1
    vals = np.tile(np.array(floats), reps)[shift:]
    assert vals.size > 2 * _SUM_BLOCK
    assert _fsum_outcome(compensated_sum, vals) == _fsum_outcome(
        math.fsum, vals.tolist()
    )


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.floats(),
        st.floats(min_value=-1e-300, max_value=1e-300),
        _SPECIAL_FLOATS,
    ),
    st.lists(st.integers(min_value=0, max_value=9), max_size=6),
)
def test_compensated_sum_of_a_zero_stride_array_is_fsum(value, shape):
    """A constant field's values: one number N times, summed as ``v * N``."""
    vals = np.broadcast_to(np.float64(value), shape)
    assert not any(vals.strides)
    assert _fsum_outcome(compensated_sum, vals) == _fsum_outcome(
        math.fsum, [value] * vals.size
    )


@pytest.mark.parametrize(
    "value,size",
    [(-0.0, 8**6), (0.0, 8**6), (5e-324, 8**6), (-5e-324, 3), (1e308, 2),
     (-1.7e308, 8**6), (math.nan, 4), (math.inf, 4), (-math.inf, 4)],
)
def test_compensated_sum_of_a_constant_grid_edge_cases(value, size):
    vals = np.broadcast_to(np.float64(value), (size,))
    assert _fsum_outcome(compensated_sum, vals) == _fsum_outcome(
        math.fsum, [value] * size
    )


def test_constant_scalar_field_stores_one_read_only_number():
    g = TorusGeometry.regular(2, 6)
    field = ScalarField.constant(g, -2.5)
    assert field.values.shape == g.grid_shape
    assert field.values.strides == (0, 0, 0, 0)
    assert field.value == -2.5
    assert field.max_abs() == 2.5 and field.mean() == -2.5
    with pytest.raises(ValueError):
        field.values[0, 0, 0, 0] = 1.0
    copy = ScalarField(g, field.values.copy())
    assert copy.value == -2.5 and copy.max_abs() == 2.5
    with pytest.raises(ValueError, match="non-finite"):
        ScalarField.constant(g, math.inf)
    assert scalar_field_from_expression(g, "0.5 - 2").value == -1.5
    assert scalar_field_from_expression(g, "0.5*sin(x1)").value is None


@pytest.mark.parametrize("value", [1 + 1j, 1 + 0j])
def test_scalar_field_rejects_complex_values(value):
    """A complex array used to pass as its real part, with only a
    ComplexWarning; a real field is built from real values."""
    g = TorusGeometry.regular(1, 4)
    with pytest.raises(ValueError, match="must be real"):
        ScalarField(g, np.ones((4, 4)) * value)
    with pytest.raises(ValueError, match="must be real"):
        ScalarField(g, np.broadcast_to(np.complex128(value), (4, 4)))


@pytest.mark.parametrize("field_type", [ScalarField, EigenvalueField])
def test_every_real_field_type_rejects_a_complex_caller_array(field_type):
    """``EigenvalueField`` used to keep a complex array's real part with
    only a ComplexWarning: ``lattice._caller_core`` refuses a complex array
    for every real field type, even one of zero imaginary part."""
    g = TorusGeometry.regular(1, 4)
    shape = (4, 4) if field_type is ScalarField else (4, 4, 1)
    for value in (1 + 2j, 1 + 0j):
        with pytest.raises(ValueError, match="must be real"):
            field_type(g, np.full(shape, value))
    assert np.array_equal(field_type(g, np.ones(shape)).values, np.ones(shape))


# ------------------------------------------------------------- elliptic solve


def test_poisson_zero_rhs():
    g = TorusGeometry.regular(1, 8)
    f = poisson_solve(ScalarField.constant(g, 0.0), identity_metric(g))
    assert np.max(np.abs(f.values)) == 0.0


def test_poisson_constant_zero_rhs_still_runs_its_checks(monkeypatch):
    """The constant zero solution comes after the precondition and guard."""
    import toruspos.lattice as lattice_module

    g = TorusGeometry.regular(2, 6)
    f = poisson_solve(ScalarField.constant(g, 0.0), identity_metric(g))
    assert f.value == 0.0
    with pytest.raises(MeanNotZeroError):
        poisson_solve(ScalarField.constant(g, 1e-300), identity_metric(g))
    monkeypatch.setattr(
        lattice_module,
        "_trace_symbol",
        lambda symbols, W: np.zeros(lattice_module._spectrum_shape(symbols)),
    )
    with pytest.raises(InternalInvariantError):
        poisson_solve(ScalarField.constant(g, 0.0), identity_metric(g))


def test_poisson_analytic_cosine():
    g = TorusGeometry.regular(1, 64)
    rhs = scalar_field_from_expression(g, "cos(x1)")
    f = poisson_solve(rhs, identity_metric(g))
    x = g.coordinate_arrays()[0]
    assert np.max(np.abs(f.values + 4.0 * np.cos(x))) < 1e-12
    assert abs(f.mean()) < 1e-15


def test_poisson_rejects_nonzero_mean():
    g = TorusGeometry.regular(1, 8)
    rhs = scalar_field_from_expression(g, "1 + cos(x1)")
    with pytest.raises(MeanNotZeroError):
        poisson_solve(rhs, identity_metric(g))


def test_poisson_requires_constant_metric():
    g = TorusGeometry.regular(1, 8)
    vals = np.ones((*g.grid_shape, 1, 1), dtype=complex)
    vals[..., 0, 0] += 0.5 * np.sin(g.coordinate_arrays()[0])
    omega = MetricField(g, vals)
    rhs = scalar_field_from_expression(g, "cos(x1)")
    with pytest.raises(NonConstantMetricError):
        poisson_solve(rhs, omega)


def test_poisson_singular_symbol_is_an_internal_invariant_error():
    """A non-PD metric that skipped validation trips a typed error, not assert."""
    g = TorusGeometry.regular(2, 4)
    bad = object.__new__(MetricField)
    bad.geometry = g
    # One matrix past the positive-definite gate: the Hermitian gate only.
    bad._own(np.diag([1.0, -1.0]).astype(complex).reshape(1, 1, 1, 1, 2, 2))
    assert bad.matrix is not None
    rhs = scalar_field_from_expression(g, "cos(x1) + sin(y2)")
    with pytest.raises(InternalInvariantError):
        poisson_solve(rhs, bad)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_poisson_round_trip_random_metric(seed):
    """Substitution check: trace of the Hessian of f reproduces the rhs."""
    rng = np.random.default_rng(seed)
    g = TorusGeometry.regular(2, 12)
    omega = random_pd_metric(rng, g)
    rhs = scalar_field_from_expression(
        g, "0.8*sin(x1)*cos(y2) - 0.3*cos(2*x2) + 0.5*sin(y1)"
    )
    f = poisson_solve(rhs, omega)
    W = np.linalg.inv(constant_representative(omega))
    achieved = np.einsum("ij,...ji->...", W, complex_hessian(f).values).real
    assert np.max(np.abs(achieved - rhs.values)) <= 1e-8 * rhs.max_abs()
    assert abs(f.mean()) <= 1e-14 * max(1.0, f.max_abs())


def test_exact_form_integral_vanishes():
    g = TorusGeometry.regular(2, 8)
    rng = np.random.default_rng(9)
    omega = random_pd_metric(rng, g)
    phi = scalar_field_from_expression(g, "0.6*sin(x1)*sin(x2) + cos(y1)")
    W = np.linalg.inv(constant_representative(omega))
    tr = np.einsum("ij,...ji->...", W, complex_hessian(phi).values).real
    total = integrate(ScalarField(g, tr), ScalarField.constant(g, 1.0))
    scale = max(1.0, float(np.max(np.abs(tr))) * g.volume)
    assert abs(total) <= 1e-9 * scale


# ----------------------------------------------------------------- CSV export


def test_scalar_field_csv_round_trip(tmp_path):
    g = TorusGeometry.regular(1, 8)
    field = scalar_field_from_expression(g, "0.25*sin(2*x1) - cos(y1)")
    path = scalar_field_to_csv(field, tmp_path / "field.csv", "v")
    header = path.read_text().splitlines()[0]
    assert header == "x1,y1,v"
    back = scalar_field_from_csv(g, path)
    assert np.max(np.abs(back.values - field.values)) < 1e-15
