"""Curvature assembly, degree pairings, and the Gauduchon defect."""

import math

import numpy as np
import pytest
from conftest import hermitian_with_eigs, random_hermitian, random_pd_metric
from oracles import (
    UnsupportedDimensionError,
    gauduchon_defect,
    integrate,
    on_the_whole_grid,
    wedge_degree_check,
)

from toruspos import (
    GeometryMismatchError,
    LineBundleMetric,
    MetricField,
    NonConstantMetricError,
    PositivityCertificate,
    ScalarField,
    TorusGeometry,
    bundle_from_json_dict,
    bundle_to_json_dict,
    check_q_positive,
    chern_curvature,
    complex_hessian,
    constant_metric,
    degree_integral,
    generalized_eigenvalues,
    identity_metric,
    normalize_scalar_curvature,
    poisson_solve,
    scalar_curvature,
    scalar_field_from_expression,
    uniformize_metric,
    volume_integral,
)
from toruspos.curvature import complex_matrix_from_json, complex_matrix_to_json
from toruspos.lattice import scalar_field_to_csv


# ------------------------------------------------------------- curvature


def test_chern_curvature_zero_weight_is_constant():
    g = TorusGeometry.regular(2, 8)
    mat = np.array([[1.0, 0.5j], [-0.5j, -2.0]])
    L = LineBundleMetric.from_constant(g, mat)
    R = chern_curvature(L)
    assert np.max(np.abs(R.values - mat)) == 0.0


def test_chern_curvature_pure_weight():
    g = TorusGeometry.regular(1, 32)
    L = LineBundleMetric.from_expression(g, np.zeros((1, 1)), "cos(x1)")
    R = chern_curvature(L)
    x = g.coordinate_arrays()[0]
    assert np.max(np.abs(R.values[..., 0, 0] + 0.25 * np.cos(x))) < 1e-13


def test_weight_shift_subtracts_hessian():
    g = TorusGeometry.regular(2, 8)
    rng = np.random.default_rng(1)
    L = LineBundleMetric.from_expression(
        g, random_hermitian(rng, 2), "0.4*sin(x1)*cos(y2)"
    )
    f = scalar_field_from_expression(g, "0.3*cos(x2) - sin(y1)")
    shifted = L.with_weight(ScalarField(g, L.phi.values - f.values))
    diff = chern_curvature(shifted).values - chern_curvature(L).values
    assert np.max(np.abs(diff + complex_hessian(f).values)) < 1e-13


def test_bundle_requires_hermitian_constant_part():
    g = TorusGeometry.regular(2, 8)
    bad = np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="Hermitian"):
        LineBundleMetric.from_constant(g, bad)


def test_dual_flips_curvature():
    g = TorusGeometry.regular(1, 16)
    L = LineBundleMetric.from_expression(g, np.array([[2.0]]), "0.5*sin(x1)")
    total = chern_curvature(L).values + chern_curvature(L.dual()).values
    assert np.max(np.abs(total)) < 1e-15


# -------------------------------------------------------- scalar curvature


def test_scalar_curvature_of_metric_itself():
    g = TorusGeometry.regular(2, 8)
    rng = np.random.default_rng(2)
    omega = random_pd_metric(rng, g)
    const = omega.values.reshape(-1, 2, 2)[0]
    L = LineBundleMetric.from_constant(g, const)
    s = scalar_curvature(L, omega)
    assert np.max(np.abs(s.values - 2.0)) < 1e-12


def test_scalar_curvature_diagonal_arithmetic():
    g = TorusGeometry.regular(2, 8)
    L = LineBundleMetric.from_constant(g, np.diag([1.0, -5.0]))
    omega = constant_metric(g, np.diag([0.1, 10.0]))
    s = scalar_curvature(L, omega)
    assert s.values == pytest.approx(np.full(g.grid_shape, 9.5))


def test_scalar_curvature_conformal_law():
    g = TorusGeometry.regular(2, 8)
    rng = np.random.default_rng(3)
    L = LineBundleMetric.from_expression(
        g, random_hermitian(rng, 2), "0.5*sin(x1) + 0.2*cos(y2)"
    )
    omega = random_pd_metric(rng, g)
    u = scalar_field_from_expression(g, "0.3*cos(x2)*sin(y1)")
    scaled = MetricField(g, np.exp(u.values)[..., None, None] * omega.values)
    s_base = scalar_curvature(L, omega)
    s_scaled = scalar_curvature(L, scaled)
    expected = np.exp(-u.values) * s_base.values
    tol = 1e-10 * max(1.0, s_base.max_abs())
    assert np.max(np.abs(s_scaled.values - expected)) <= tol


# ------------------------------------------------------------------ degree


def test_degree_of_flat_class_vanishes():
    g = TorusGeometry.regular(2, 8)
    L = LineBundleMetric.from_expression(
        g, np.zeros((2, 2)), "0.7*sin(x1)*cos(x2)"
    )
    omega = identity_metric(g)
    assert abs(degree_integral(L, omega)) < 1e-12


def test_degree_unit_volume_arithmetic():
    g = TorusGeometry.regular(2, 4, period=1.0)  # unit-volume torus
    L = LineBundleMetric.from_constant(g, np.diag([1.0, -2.0]))
    omega = identity_metric(g)
    assert degree_integral(L, omega) == pytest.approx(-0.5, rel=1e-13)
    assert wedge_degree_check(L, omega) == pytest.approx(-0.5, rel=1e-13)


def test_degree_invariant_under_weight():
    g = TorusGeometry.regular(2, 8)
    rng = np.random.default_rng(4)
    mat = random_hermitian(rng, 2)
    omega = random_pd_metric(rng, g)
    flat = LineBundleMetric.from_constant(g, mat)
    wavy = LineBundleMetric.from_expression(g, mat, "0.6*cos(2*x1) - sin(y2)")
    d0 = degree_integral(flat, omega)
    d1 = degree_integral(wavy, omega)
    assert abs(d1 - d0) <= 1e-9 * max(1.0, abs(d0))


def test_degree_linear_in_class():
    g = TorusGeometry.regular(2, 4)
    rng = np.random.default_rng(5)
    a_mat, b_mat = random_hermitian(rng, 2), random_hermitian(rng, 2)
    omega = random_pd_metric(rng, g)
    da = degree_integral(LineBundleMetric.from_constant(g, a_mat), omega)
    db = degree_integral(LineBundleMetric.from_constant(g, b_mat), omega)
    dsum = degree_integral(
        LineBundleMetric.from_constant(g, 2.0 * a_mat + b_mat), omega
    )
    assert dsum == pytest.approx(2.0 * da + db, rel=1e-12, abs=1e-12)


def test_degree_rejects_varying_metric():
    g = TorusGeometry.regular(1, 16)
    vals = np.ones((*g.grid_shape, 1, 1), dtype=complex)
    vals[..., 0, 0] += 0.5 * np.sin(g.coordinate_arrays()[0])
    omega = MetricField(g, vals)
    L = LineBundleMetric.from_constant(g, np.array([[1.0]]))
    with pytest.raises(NonConstantMetricError):
        degree_integral(L, omega)


def test_wedge_check_n1_is_plain_integral():
    g = TorusGeometry.regular(1, 32)
    L = LineBundleMetric.from_expression(g, np.array([[1.5]]), "0.3*sin(x1)")
    omega = constant_metric(g, np.array([[4.0]]))
    # the base metric drops out entirely in one complex dimension
    assert wedge_degree_check(L, omega) == pytest.approx(
        1.5 * g.volume, rel=1e-12
    )
    assert degree_integral(L, omega) == pytest.approx(
        wedge_degree_check(L, omega), rel=1e-12
    )


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_wedge_check_agrees_with_trace_route(seed):
    g = TorusGeometry.regular(2, 8)
    rng = np.random.default_rng(seed)
    L = LineBundleMetric.from_expression(
        g, random_hermitian(rng, 2, scale=3.0), "0.4*sin(x1)*cos(y2) + 0.2*cos(x2)"
    )
    omega = random_pd_metric(rng, g)
    d_trace = degree_integral(L, omega)
    d_wedge = wedge_degree_check(L, omega)
    assert abs(d_trace - d_wedge) <= 1e-9 * max(1.0, abs(d_trace))


def test_wedge_check_unsupported_in_higher_dimension():
    g = TorusGeometry.regular(3, 4)
    L = LineBundleMetric.from_constant(g, np.eye(3))
    with pytest.raises(UnsupportedDimensionError):
        wedge_degree_check(L, identity_metric(g))


def test_scalar_integral_equals_n_times_degree():
    g = TorusGeometry.regular(2, 8)
    rng = np.random.default_rng(6)
    L = LineBundleMetric.from_expression(
        g, random_hermitian(rng, 2), "0.5*cos(x1)*sin(x2)"
    )
    omega = random_pd_metric(rng, g)
    s = scalar_curvature(L, omega)
    det = float(np.linalg.det(omega.values.reshape(-1, 2, 2)[0]).real)
    total = integrate(s, ScalarField.constant(g, det))
    assert total == pytest.approx(2.0 * degree_integral(L, omega), rel=1e-9)


def test_volume_integral_scales_with_determinant():
    g = TorusGeometry.regular(2, 4)
    assert volume_integral(identity_metric(g)) == pytest.approx(g.volume)
    omega = constant_metric(g, np.diag([2.0, 3.0]))
    assert volume_integral(omega) == pytest.approx(6.0 * g.volume, rel=1e-14)


# -------------------------------------------------------- Gauduchon defect


def test_defect_zero_for_constant_metric():
    g = TorusGeometry.regular(2, 8)
    rng = np.random.default_rng(7)
    assert gauduchon_defect(random_pd_metric(rng, g)) < 1e-14


def test_defect_zero_by_convention_in_dim_one():
    g = TorusGeometry.regular(1, 16)
    vals = np.ones((*g.grid_shape, 1, 1), dtype=complex)
    vals[..., 0, 0] += 0.5 * np.sin(g.coordinate_arrays()[0])
    assert gauduchon_defect(MetricField(g, vals)) == 0.0


def _oscillating_metric(g: TorusGeometry) -> MetricField:
    """diag(1 + sin(x2)/2, 1): varies along z2, curving the (1,1) block."""
    xs = g.coordinate_arrays()
    vals = np.zeros((*g.grid_shape, 2, 2), dtype=complex)
    vals[..., 0, 0] = 1.0 + 0.5 * np.sin(xs[2])
    vals[..., 1, 1] = 1.0
    return MetricField(g, vals)


def test_defect_detects_non_gauduchon_metric():
    g = TorusGeometry.regular(2, 8)
    defect = gauduchon_defect(_oscillating_metric(g))
    # mixed second derivative of sin(x2)/2 has amplitude exactly 1/8
    assert defect == pytest.approx(0.125, abs=1e-12)


def test_defect_consistent_under_refinement():
    coarse = gauduchon_defect(_oscillating_metric(TorusGeometry.regular(2, 8)))
    fine = gauduchon_defect(_oscillating_metric(TorusGeometry.regular(2, 16)))
    assert coarse == pytest.approx(fine, abs=1e-12)


def test_defect_unsupported_in_higher_dimension():
    g = TorusGeometry.regular(3, 4)
    with pytest.raises(UnsupportedDimensionError):
        gauduchon_defect(identity_metric(g))


# ------------------------------------------------------------ serialization


def test_complex_matrix_json_round_trip():
    rng = np.random.default_rng(8)
    mat = random_hermitian(rng, 3)
    back = complex_matrix_from_json(complex_matrix_to_json(mat))
    assert np.max(np.abs(back - mat)) == 0.0


def test_bundle_json_round_trip():
    g = TorusGeometry.regular(2, 8)
    L = LineBundleMetric.from_expression(
        g, np.diag([1.0, -2.0]), "0.25*sin(x1) - cos(2*y2)"
    )
    back = bundle_from_json_dict(g, bundle_to_json_dict(L))
    assert np.max(np.abs(back.r_const - L.r_const)) == 0.0
    assert np.max(np.abs(back.phi.values - L.phi.values)) == 0.0


def test_bundle_json_weight_by_csv_reference(tmp_path):
    g = TorusGeometry.regular(1, 8)
    phi = scalar_field_from_expression(g, "0.5*cos(x1)")
    path = scalar_field_to_csv(phi, tmp_path / "phi.csv")
    data = {"r_const": [[[1.0, 0.0]]], "phi": {"csv": str(path)}}
    L = bundle_from_json_dict(g, data)
    assert np.max(np.abs(L.phi.values - phi.values)) < 1e-15


def test_bundle_serialization_needs_expression():
    g = TorusGeometry.regular(1, 8)
    L = LineBundleMetric(
        g, np.array([[1.0]]), scalar_field_from_expression(g, "sin(x1)"), None
    )
    with pytest.raises(ValueError, match="expression"):
        bundle_to_json_dict(L)


def test_certificate_rejects_inconsistent_verdict():
    with pytest.raises(ValueError, match="inconsistent"):
        PositivityCertificate(verdict=True, margin=0.0, tolerance=1e-9)


def test_certificate_json_shape():
    g = TorusGeometry.regular(1, 8)
    cert = PositivityCertificate(
        verdict=True,
        margin=2.0,
        tolerance=1e-9,
        witness_metric=identity_metric(g),
        residuals={"poisson_rel": 1e-12},
        details={"q": 0},
    )
    out = cert.to_json_dict()
    assert out["verdict"] is True
    assert out["q"] == 0
    assert out["witness_metric"] == [[[1.0, 0.0]]]
    assert out["residuals"]["poisson_rel"] == 1e-12


# ------------------------------------- constant metrics and the curvature cache


def _close(a, b, rtol=1e-13) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    return float(np.max(np.abs(a - b))) <= rtol * scale


@pytest.mark.parametrize("n,samples", [(1, 10), (2, 6), (3, 4)])
def test_constant_metric_matches_materialized_copy(n, samples):
    """The stored n x n matrix and a copy of it on the whole grid give the
    same numbers on every route that takes a varying metric; the copy's
    storage varies, so the constant-only routes refuse it."""
    g = TorusGeometry.regular(n, samples)
    rng = np.random.default_rng(10 + n)
    omega = random_pd_metric(rng, g)
    copy = on_the_whole_grid(omega)
    assert omega.matrix is not None and copy.matrix is None
    assert volume_integral(omega) == volume_integral(copy)

    r_const = hermitian_with_eigs(rng, rng.uniform(0.5, 2.0, n))
    L = LineBundleMetric.from_expression(g, r_const, "0.05*cos(x1) + 0.03*sin(y1)")
    with pytest.raises(NonConstantMetricError):
        degree_integral(L, copy)
    with pytest.raises(NonConstantMetricError):
        normalize_scalar_curvature(L, copy)
    assert _close(scalar_curvature(L, omega).values, scalar_curvature(L, copy).values)
    R = chern_curvature(L)
    ev, ev_copy = generalized_eigenvalues(R, omega), generalized_eigenvalues(R, copy)
    assert _close(ev.values, ev_copy.values)
    q = n - 1
    pos, pos_copy = check_q_positive(L, omega, q), check_q_positive(L, copy, q)
    assert pos.verdict and pos.verdict == pos_copy.verdict
    assert _close(pos.margin, pos_copy.margin)


@pytest.mark.parametrize("scale", [1.0, 1e-6])
def test_a_metric_varying_in_one_point_is_varying_at_every_scale(scale):
    """A relative change of 1e-7 at one grid point makes a metric varying,
    whatever its scale: each constant-only route refuses it. A tolerance
    floored at 1 once read the metric at scale 1e-6 as constant and
    solved against its first point's matrix."""
    g = TorusGeometry.regular(2, 8)
    rng = np.random.default_rng(21)
    vals = np.broadcast_to(
        scale * random_pd_metric(rng, g).matrix, (*g.grid_shape, 2, 2)
    ).copy()
    vals[3, 1, 4, 2] *= 1.0 + 1e-7
    omega = MetricField(g, vals)
    assert omega.matrix is None
    L = LineBundleMetric.from_expression(g, np.diag([1.0, 0.5]), "0.2*cos(x1)")
    rhs = scalar_field_from_expression(g, "cos(x1) + sin(y2)")
    with pytest.raises(NonConstantMetricError):
        normalize_scalar_curvature(L, omega)
    with pytest.raises(NonConstantMetricError):
        poisson_solve(rhs, omega)
    with pytest.raises(NonConstantMetricError):
        degree_integral(L, omega)


def test_a_geometry_mismatch_is_typed_on_every_route():
    """Every route that pairs a bundle or curvature with a base metric, and
    a bundle with its weight, raises GeometryMismatchError on two grids."""
    g, other = TorusGeometry.regular(1, 8), TorusGeometry.regular(1, 6)
    with pytest.raises(GeometryMismatchError):
        LineBundleMetric(g, np.eye(1), ScalarField.constant(other, 0.0))
    L = LineBundleMetric.from_expression(g, np.eye(1), "0.1*cos(x1)")
    omega = identity_metric(other)
    routes = [
        lambda: scalar_curvature(L, omega),
        lambda: generalized_eigenvalues(chern_curvature(L), omega),
        lambda: check_q_positive(L, omega, 0),
        lambda: uniformize_metric(L, omega, 0),
        lambda: normalize_scalar_curvature(L, omega),
        lambda: degree_integral(L, omega),
    ]
    for route in routes:
        with pytest.raises(GeometryMismatchError):
            route()


def test_chern_curvature_is_computed_once_per_bundle(monkeypatch):
    """A counter on the Hessian's planes, no timing: two calls, one Hessian."""
    import toruspos.curvature as curvature_module

    calls = []
    original = curvature_module._hessian_planes

    def counting(phi):
        calls.append(phi)
        return original(phi)

    monkeypatch.setattr(curvature_module, "_hessian_planes", counting)
    g = TorusGeometry.regular(2, 8)
    L = LineBundleMetric.from_expression(g, np.eye(2), "0.2*cos(x1)*sin(y2)")
    first = chern_curvature(L)
    assert chern_curvature(L) is first
    assert len(calls) == 1


def test_weighted_chern_curvature_gates_the_grid_once(monkeypatch):
    """A counter, no timing: one Hermitian gate per weighted curvature."""
    from toruspos.lattice import HermitianMatrixField

    gates = []
    original = HermitianMatrixField.__post_init__

    def counting(self):
        gates.append(type(self).__name__)
        original(self)

    monkeypatch.setattr(HermitianMatrixField, "__post_init__", counting)
    g = TorusGeometry.regular(2, 8)
    r_const = np.array([[1.0, 0.3 - 0.2j], [0.3 + 0.2j, -0.5]])
    L = LineBundleMetric.from_expression(g, r_const, "0.2*cos(x1)*sin(y2)")
    R = chern_curvature(L)
    assert gates == ["HermitianMatrixField"]
    expected = r_const + complex_hessian(L.phi).values
    assert np.max(np.abs(R.values - expected)) == 0.0
    assert not R.values.flags.writeable


def test_derived_bundles_get_their_own_curvature():
    g = TorusGeometry.regular(2, 8)
    r_const = np.diag([1.0, -2.0])
    L = LineBundleMetric.from_expression(g, r_const, "0.2*cos(x1)")
    R = chern_curvature(L)
    twin = LineBundleMetric.from_expression(g, r_const, "0.2*cos(x1)")
    assert chern_curvature(twin) is not R
    assert np.array_equal(chern_curvature(twin).values, R.values)
    assert np.array_equal(chern_curvature(L.dual()).values, -R.values)
    f = scalar_field_from_expression(g, "0.1*sin(y1)")
    moved = L.with_weight(f)
    expected = r_const + complex_hessian(f).values
    assert np.max(np.abs(chern_curvature(moved).values - expected)) == 0.0
    assert chern_curvature(L) is R


def test_bundle_data_and_curvature_are_read_only():
    g = TorusGeometry.regular(1, 8)
    r_const = np.array([[2.0]])
    phi = scalar_field_from_expression(g, "0.5*sin(x1)")
    L = LineBundleMetric(g, r_const, phi)
    R = chern_curvature(L)
    with pytest.raises(ValueError):
        L.phi.values[0, 0] = 1.0
    with pytest.raises(ValueError):
        L.r_const[0, 0] = 1.0
    with pytest.raises(ValueError):
        R.values[0, 0, 0, 0] = 1.0
    # The caller's read-only weight is kept as it is; its r_const is copied.
    assert L.phi is phi
    r_const[0, 0] = 1.0
    assert chern_curvature(L) is R and L.r_const[0, 0] == 2.0
    with pytest.raises(ValueError):
        constant_metric(g, np.eye(1)).values[0, 0, 0, 0] = 2.0
    with pytest.raises(ValueError):
        chern_curvature(LineBundleMetric.from_constant(g, r_const)).values[0, 0] = 0.0


def test_constant_weights_stay_one_number():
    """A constant weight is never copied to the grid: the bundle, its dual,
    its curvature and its scalar curvature keep one number or matrix."""
    g = TorusGeometry.regular(2, 6)
    r_const = np.array([[1.0, 0.3 - 0.2j], [0.3 + 0.2j, -0.5]])
    omega = random_pd_metric(np.random.default_rng(70), g)
    L = LineBundleMetric.from_expression(g, r_const, "1.5")
    assert L.phi.value == 1.5 and L.dual().phi.value == -1.5
    assert L.with_weight(ScalarField.constant(g, 0.0)).phi.value == 0.0
    assert np.array_equal(chern_curvature(L).matrix, r_const)
    s = scalar_curvature(L, omega)
    assert s.value == np.einsum("ij,ji->", np.linalg.inv(omega.matrix), r_const).real
    # A field over a writeable number copies it as one number.
    number = np.array(2.0)
    shared = ScalarField(g, np.broadcast_to(number, g.grid_shape))
    kept = LineBundleMetric(g, r_const, shared)
    number[()] = 3.0
    assert kept.phi.value == 2.0


def test_frozen_weights_are_kept_without_a_copy():
    g = TorusGeometry.regular(2, 6)
    L = LineBundleMetric.from_expression(g, np.diag([1.0, -2.0]), "0.2*cos(x1)")
    dual = L.dual()
    assert LineBundleMetric(g, dual.r_const, dual.phi).phi.values is dual.phi.values
    assert L.with_weight(L.phi).phi.values is L.phi.values
    assert np.array_equal(dual.phi.values, -L.phi.values)
    with pytest.raises(ValueError):
        dual.phi.values[0, 0, 0, 0] = 1.0


def test_derived_bundles_keep_the_gated_class(monkeypatch):
    """A counter, no timing: ``with_weight`` and ``dual`` hand over the
    bundle's read-only, already gated class (negated for ``dual``) with no
    second Hermitian gate; the public constructor still gates."""
    import toruspos.curvature as curvature_module

    g = TorusGeometry.regular(2, 6)
    L = LineBundleMetric.from_expression(g, np.diag([1.0, -2.0]), "0.2*cos(x1)")
    gates = []
    original = curvature_module._check_hermitian

    def counting(vals):
        gates.append(vals)
        return original(vals)

    monkeypatch.setattr(curvature_module, "_check_hermitian", counting)
    moved = L.with_weight(ScalarField.constant(g, 0.5))
    dual = L.dual()
    assert gates == []
    assert moved.r_const is L.r_const
    assert np.array_equal(dual.r_const, -L.r_const)
    assert not dual.r_const.flags.writeable
    with pytest.raises(ValueError):
        L.with_weight(ScalarField.constant(TorusGeometry.regular(2, 4), 0.5))
    LineBundleMetric(g, dual.r_const, dual.phi)
    assert len(gates) == 1


# ---------------------------------------------- trace of the curvature


@pytest.mark.parametrize("n,samples", [(1, 64), (2, 8), (3, 4)])
def test_spectral_scalar_curvature_matches_matrix_route(n, samples):
    """The trace symbol route equals the trace of the curvature field."""
    g = TorusGeometry.regular(n, samples)
    rng = np.random.default_rng(40 + n)
    omega = random_pd_metric(rng, g)
    W = np.linalg.inv(omega.matrix)
    r_const = hermitian_with_eigs(rng, [1.5] + [-0.7] * (n - 1))
    L = LineBundleMetric.from_expression(
        g, r_const, f"0.3*sin(x1)*cos(y{n}) - 0.2*cos(x{n})"
    )
    noise = ScalarField(g, rng.standard_normal(g.grid_shape))
    bundles = [
        L,
        L.with_weight(noise),
        LineBundleMetric.from_constant(g, r_const),
        L.dual(),
    ]
    for bundle in bundles:
        s = scalar_curvature(bundle, omega).values
        R = chern_curvature(bundle).values
        matrix_route = np.einsum("ij,...ji->...", W, R).real
        assert np.max(np.abs(s - matrix_route)) <= 1e-13 * np.max(np.abs(s))

    f, cert = normalize_scalar_curvature(L, omega)
    moved = L.with_weight(ScalarField(g, L.phi.values - f.values))
    flattened = np.einsum("ij,...ji->...", W, chern_curvature(moved).values).real
    c = cert.margin
    assert np.max(np.abs(flattened - c)) <= 1e-10 * (1.0 + abs(c))
