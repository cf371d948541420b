"""Constant-scalar-curvature normalization and the trace certificate."""

import math

import numpy as np
import pytest
from conftest import hermitian_with_eigs, random_hermitian, random_pd_metric

from toruspos import (
    LineBundleMetric,
    MetricField,
    ScalarField,
    TorusGeometry,
    certify_n_minus_1_positive,
    constant_metric,
    degree_integral,
    dual_not_pseudo_effective,
    equivalence_suite,
    identity_metric,
    is_pseudo_effective,
    scalar_curvature,
    target_constant,
)
from toruspos.normalizer import (
    aligned_inverse_weights,
    aligned_metric_matrix,
    normalize_scalar_curvature,
)


# ------------------------------------------------------------ target constant


def test_target_constant_zero_class():
    g = TorusGeometry.regular(2, 4)
    L = LineBundleMetric.from_constant(g, np.zeros((2, 2)))
    assert target_constant(L, identity_metric(g)) == pytest.approx(0.0, abs=1e-15)


def test_target_constant_is_trace_of_pencil():
    g = TorusGeometry.regular(2, 4)
    L = LineBundleMetric.from_constant(g, np.diag([1.0, -2.0]))
    assert target_constant(L, identity_metric(g)) == pytest.approx(-1.0, rel=1e-12)
    # the constant does not depend on the torus volume
    g_small = TorusGeometry.regular(2, 4, period=1.0)
    L_small = LineBundleMetric.from_constant(g_small, np.diag([1.0, -2.0]))
    c = target_constant(L_small, identity_metric(g_small))
    assert c == pytest.approx(-1.0, rel=1e-12)


def test_target_constant_invariant_under_weight():
    g = TorusGeometry.regular(2, 8)
    rng = np.random.default_rng(0)
    mat = random_hermitian(rng, 2)
    omega = random_pd_metric(rng, g)
    c0 = target_constant(LineBundleMetric.from_constant(g, mat), omega)
    c1 = target_constant(
        LineBundleMetric.from_expression(g, mat, "0.4*sin(x1)*cos(y2)"), omega
    )
    assert abs(c1 - c0) <= 1e-9 * max(1.0, abs(c0))


# ---------------------------------------------------------------- normalize


def test_normalize_trivial_weight_gives_zero_exponent():
    g = TorusGeometry.regular(2, 8)
    rng = np.random.default_rng(1)
    L = LineBundleMetric.from_constant(g, random_hermitian(rng, 2))
    f, cert = normalize_scalar_curvature(L, random_pd_metric(rng, g))
    assert np.max(np.abs(f.values)) == 0.0
    assert cert.residuals["poisson_rel"] == 0.0


def test_normalize_analytic_instance():
    """One-dimensional closed form: the exponent is exactly the weight."""
    g = TorusGeometry.regular(1, 64)
    L = LineBundleMetric.from_expression(g, np.array([[1.0]]), "cos(x1)")
    f, cert = normalize_scalar_curvature(L, identity_metric(g))
    x = g.coordinate_arrays()[0]
    assert np.max(np.abs(f.values - np.cos(x))) < 1e-8
    assert cert.margin == pytest.approx(1.0, rel=1e-12)
    assert cert.verdict is True


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_normalize_flattens_scalar_curvature(seed):
    rng = np.random.default_rng(seed)
    g = TorusGeometry.regular(2, 8)
    L = LineBundleMetric.from_expression(
        g,
        random_hermitian(rng, 2, scale=2.0),
        "0.5*sin(x1)*cos(y2) - 0.3*cos(2*x2)",
    )
    omega = random_pd_metric(rng, g)
    f, cert = normalize_scalar_curvature(L, omega)
    c = cert.margin
    assert c == pytest.approx(target_constant(L, omega), rel=1e-9, abs=1e-12)
    modified = L.with_weight(ScalarField(g, L.phi.values - f.values))
    s = scalar_curvature(modified, omega)
    assert np.max(np.abs(s.values - c)) <= 1e-7 * (1.0 + abs(c))
    assert cert.residuals["poisson_rel"] <= 1e-8
    assert abs(f.mean()) <= 1e-13 * max(1.0, f.max_abs())


def test_normalize_negative_class_reports_false():
    g = TorusGeometry.regular(2, 8)
    L = LineBundleMetric.from_expression(
        g, np.diag([1.0, -2.0]), "0.2*sin(x1)"
    )
    f, cert = normalize_scalar_curvature(L, identity_metric(g))
    assert cert.verdict is False
    assert cert.margin == pytest.approx(-1.0, rel=1e-9)
    # the flattening itself still works for diagnostic use
    modified = L.with_weight(ScalarField(g, L.phi.values - f.values))
    s = scalar_curvature(modified, identity_metric(g))
    assert np.max(s.values) - np.min(s.values) <= 1e-7 * 2.0


# ------------------------------------------------------------ aligned metrics


def test_aligned_weights_cap_negative_contribution():
    mu = np.array([-4.0, -0.5, 1.0, 3.0])
    delta = 1e-3
    w = aligned_inverse_weights(mu, delta)
    assert np.all(w[mu > 0] == 1.0)
    assert np.all(w <= 1.0) and np.all(w > 0.0)
    trace = float(np.sum(w * mu))
    assert trace >= (1.0 - delta) * 4.0


@pytest.mark.parametrize("delta", [0.0, -0.1, 1.0, 10.0, math.inf, math.nan])
def test_aligned_weights_need_delta_below_one(delta):
    """The trace bound (1 - delta) * sum of positive mu is positive only
    for 0 < delta < 1: at diag(2, -5) a delta of 1 gives trace 0 and one
    of 10 a trace of -3."""
    with pytest.raises(ValueError, match="delta must lie in"):
        aligned_inverse_weights(np.array([-5.0, 2.0]), delta)


@pytest.mark.parametrize("delta", [0.0, 1.0, 10.0, math.nan])
@pytest.mark.parametrize("eigs", [[2.0, -5.0], [-2.0, -5.0]], ids=["mixed", "negative"])
def test_certify_and_suite_refuse_delta_outside_unit_interval(eigs, delta):
    """A class with no positive eigenvalue has no aligned metric to weigh,
    but the delta is refused all the same, as on a mixed class."""
    g = TorusGeometry.regular(2, 8)
    L = LineBundleMetric.from_constant(g, np.diag(eigs))
    with pytest.raises(ValueError, match="delta must lie in"):
        certify_n_minus_1_positive(L, delta=delta)
    with pytest.raises(ValueError, match="delta must lie in"):
        equivalence_suite(L, delta=delta)


def test_aligned_matrix_none_for_semi_negative():
    assert aligned_metric_matrix(-np.eye(2)) is None
    assert aligned_metric_matrix(np.zeros((2, 2))) is None
    assert aligned_metric_matrix(np.diag([0.0, -1.0])) is None


def test_aligned_matrix_concentrates_trace():
    rng = np.random.default_rng(2)
    mat = hermitian_with_eigs(rng, [1.0, -5.0])
    omega = aligned_metric_matrix(mat, delta=1e-3)
    trace = float(np.trace(np.linalg.inv(omega) @ mat).real)
    assert trace >= (1.0 - 1e-3) * 1.0
    assert np.min(np.linalg.eigvalsh(omega)) > 0.0


# -------------------------------------------------------------- certificates


def test_certify_mixed_signature():
    g = TorusGeometry.regular(2, 8)
    L = LineBundleMetric.from_constant(g, np.diag([1.0, -5.0]))
    cert = certify_n_minus_1_positive(L)
    assert cert.verdict is True
    assert cert.margin >= 0.999 - 1e-9
    assert cert.witness_metric is not None
    # witness is a genuine certificate: constant positive scalar curvature
    modified = L.with_weight(
        ScalarField(g, L.phi.values - cert.witness_weight.values)
    )
    s = scalar_curvature(modified, cert.witness_metric)
    assert np.min(s.values) > 0.0
    assert np.max(s.values) - np.min(s.values) <= 1e-7 * (1.0 + cert.margin)


def test_certify_negative_definite_class():
    g = TorusGeometry.regular(2, 8)
    cert = certify_n_minus_1_positive(
        LineBundleMetric.from_constant(g, -np.eye(2))
    )
    assert cert.verdict is False
    assert cert.details["reason"] == "DualPseudoEffective"
    assert cert.witness_metric is None


def test_certify_zero_class_is_borderline_false():
    g = TorusGeometry.regular(2, 8)
    cert = certify_n_minus_1_positive(
        LineBundleMetric.from_constant(g, np.zeros((2, 2)))
    )
    assert cert.verdict is False


@pytest.mark.parametrize("seed", range(6))
def test_certify_agrees_with_signature(seed):
    rng = np.random.default_rng(seed)
    g = TorusGeometry.regular(2, 8)
    eigs = rng.choice([-1.0, 1.0], size=2) * 10.0 ** rng.uniform(-1, 1, size=2)
    L = LineBundleMetric.from_expression(
        g,
        hermitian_with_eigs(rng, eigs),
        "0.01*sin(x1) - 0.02*cos(y2)",
    )
    cert = certify_n_minus_1_positive(L)
    assert cert.verdict == bool(np.max(eigs) > 0.0)
    # The certificate must agree with the dual pseudo-effectivity oracle
    assert cert.verdict == (not is_pseudo_effective(L.dual()))


def test_certified_witness_has_positive_degree():
    rng = np.random.default_rng(11)
    g = TorusGeometry.regular(2, 8)
    L = LineBundleMetric.from_expression(
        g, hermitian_with_eigs(rng, [2.0, -0.7]), "0.05*cos(x1)*cos(x2)"
    )
    cert = certify_n_minus_1_positive(L)
    assert cert.verdict is True
    assert degree_integral(L, cert.witness_metric) > 0.0


def test_certify_delta_controls_leakage():
    g = TorusGeometry.regular(2, 4)
    L = LineBundleMetric.from_constant(g, np.diag([1.0, -100.0]))
    loose = certify_n_minus_1_positive(L, delta=0.5)
    tight = certify_n_minus_1_positive(L, delta=1e-6)
    assert tight.margin > loose.margin
    assert tight.margin >= (1.0 - 1e-6) * 1.0


# ------------------------------------------- trace routes and the residual


@pytest.mark.parametrize(
    "n,phi_text", [(1, "0.3*sin(x1)"), (2, "0"), (3, "0.2*cos(y3)")]
)
def test_normalize_constant_is_target_constant_exactly(n, phi_text):
    """normalize reuses its scalar curvature for c; the value is unchanged."""
    rng = np.random.default_rng(50 + n)
    g = TorusGeometry.regular(n, 4)
    omega = random_pd_metric(rng, g)
    L = LineBundleMetric.from_expression(g, random_hermitian(rng, n, 2.0), phi_text)
    _, cert = normalize_scalar_curvature(L, omega)
    assert cert.margin == target_constant(L, omega)


def test_poisson_residual_does_not_trust_the_trace_symbol(monkeypatch):
    """A wrong but definite symbol (W transposed) must show in poisson_rel.

    poisson_solve divides by the trace symbol, so a residual computed with
    that symbol would be round-off whatever the symbol; the residual reads
    the Hessian entries instead.
    """
    import toruspos.lattice as lattice_module

    original = lattice_module._trace_symbol
    monkeypatch.setattr(
        lattice_module, "_trace_symbol", lambda geom, W: original(geom, W.T)
    )
    g = TorusGeometry.regular(2, 8)
    omega = constant_metric(g, np.array([[1.0, 0.4 + 0.3j], [0.4 - 0.3j, 1.5]]))
    L = LineBundleMetric.from_expression(
        g, np.diag([1.0, -0.5]), "0.3*sin(x1)*cos(y2) + 0.2*cos(x2)"
    )
    _, cert = normalize_scalar_curvature(L, omega)
    assert cert.residuals["poisson_rel"] > 1e-8


def test_poisson_residual_does_not_trust_the_trace_symbol_on_the_grid(monkeypatch):
    """The grid-route twin of the test above: the same weight as a grid
    field, which takes the transforms instead of the modes."""
    import toruspos.lattice as lattice_module

    original = lattice_module._trace_symbol
    monkeypatch.setattr(
        lattice_module, "_trace_symbol", lambda geom, W: original(geom, W.T)
    )
    g = TorusGeometry.regular(2, 8)
    omega = constant_metric(g, np.array([[1.0, 0.4 + 0.3j], [0.4 - 0.3j, 1.5]]))
    L = LineBundleMetric.from_expression(
        g, np.diag([1.0, -0.5]), "0.3*sin(x1)*cos(y2) + 0.2*cos(x2)"
    )
    _, cert = normalize_scalar_curvature(_grid_weight(L), omega)
    assert cert.residuals["poisson_rel"] > 1e-8


def test_trace_routes_build_no_curvature_field(monkeypatch):
    """A counter, no timing: a constant base never needs the n x n field."""
    import toruspos.curvature as curvature_module
    import toruspos.lattice as lattice_module
    import toruspos.normalizer as normalizer_module

    calls = []

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return wrapper

    for module in (curvature_module, lattice_module, normalizer_module):
        for name in ("chern_curvature", "complex_hessian", "_hessian_planes"):
            if hasattr(module, name):
                monkeypatch.setattr(
                    module, name, counting(name, getattr(module, name))
                )
    g = TorusGeometry.regular(3, 4)
    rng = np.random.default_rng(31)
    omega = random_pd_metric(rng, g)
    L = LineBundleMetric.from_expression(
        g, hermitian_with_eigs(rng, [1.5, -0.5, 0.8]), "0.2*sin(x1)*cos(y3)"
    )
    _, cert = normalize_scalar_curvature(L, omega)
    certified = certify_n_minus_1_positive(L)
    degree_integral(L, omega)
    assert cert.verdict and certified.verdict
    assert calls == []
    # The counters are live: the field route does call them.
    curvature_module.chern_curvature(L)
    assert calls == ["chern_curvature", "_hessian_planes"]


def _grid_weight(L: LineBundleMetric) -> LineBundleMetric:
    """The bundle with the same weight values loaded as a grid field: a
    copy of them, with no mode table."""
    return L.with_weight(ScalarField(L.geometry, L.phi.values.copy()))


@pytest.mark.parametrize(
    "phi_text,grid,forward,inverse",
    [
        pytest.param("0.2*sin(x1)*cos(y3)", False, 0, 0, id="0.2*sin(x1)*cos(y3)-0"),
        pytest.param("0.2*sin(x1)*cos(y3)", True, 1, 3, id="0.2*sin(x1)*cos(y3)-3"),
        pytest.param("0", False, 0, 0, id="0-0"),
    ],
)
def test_normalize_transform_count(transform_calls, phi_text, grid, forward, inverse):
    """A counter, no timing. An expression weight takes the mode route and
    runs no transform. The same values as a grid field take one forward
    transform, of the weight, and one inverse transform each for the
    scalar curvature, the solve and the residual; a zero weight takes
    none. On a 4^6 grid the helpers run as matrix products, never np.fft."""
    g = TorusGeometry.regular(3, 4)
    rng = np.random.default_rng(32)
    omega = random_pd_metric(rng, g)
    L = LineBundleMetric.from_expression(
        g, hermitian_with_eigs(rng, [1.5, -0.5, 0.8]), phi_text
    )
    if grid:
        L = _grid_weight(L)
    _, cert = normalize_scalar_curvature(L, omega)
    assert cert.residuals["poisson_rel"] < 1e-8
    assert sorted(transform_calls) == ["_irfftn"] * inverse + ["_rfftn"] * forward


@pytest.mark.parametrize(
    "phi_text,grid_copy,symbols",
    [
        ("0.2*sin(x1)*cos(y3)", False, 1),
        ("0", False, 0),
        ("0.2*sin(x1)*cos(y3)", True, 1),
    ],
    ids=["weighted", "zero-weight", "weighted-grid-copy"],
)
def test_normalize_builds_the_trace_symbol_only_where_used(
    monkeypatch, phi_text, grid_copy, symbols
):
    """A counter, no timing: a weighted normalize builds one trace symbol,
    which filters the weight and divides its spectrum (only the latter
    against a grid copy of the metric); a zero weight neither filters nor
    solves, so it builds none."""
    import toruspos.curvature as curvature_module
    import toruspos.lattice as lattice_module

    calls = []
    original = lattice_module._trace_symbol

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(lattice_module, "_trace_symbol", counting)
    monkeypatch.setattr(curvature_module, "_trace_symbol", counting)
    g = TorusGeometry.regular(3, 4)
    rng = np.random.default_rng(32)
    omega = random_pd_metric(rng, g)
    if grid_copy:
        omega = MetricField(g, omega.values.copy())
    L = LineBundleMetric.from_expression(
        g, hermitian_with_eigs(rng, [1.5, -0.5, 0.8]), phi_text
    )
    _, cert = normalize_scalar_curvature(L, omega)
    assert cert.residuals["poisson_rel"] < 1e-8
    assert len(calls) == symbols


def test_normalize_inverts_a_constant_metric_once(monkeypatch):
    """Counters, no timing: normalize against a constant metric takes one
    inverse and one determinant of its matrix, kept on the metric, so a
    second normalize against the same metric takes neither."""
    g = TorusGeometry.regular(2, 8)
    rng = np.random.default_rng(36)
    omega = random_pd_metric(rng, g)
    L = LineBundleMetric.from_expression(
        g, hermitian_with_eigs(rng, [1.5, -0.5]), "0.3*sin(x1)*cos(y2)"
    )
    seen = {"inv": 0, "det": 0}
    for name in seen:
        original = getattr(np.linalg, name)

        def counting(a, *args, _name=name, _original=original, **kwargs):
            if np.shape(a) == omega.matrix.shape and np.array_equal(a, omega.matrix):
                seen[_name] += 1
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    first = normalize_scalar_curvature(L, omega)[1].margin
    assert seen == {"inv": 1, "det": 1}
    assert normalize_scalar_curvature(L, omega)[1].margin == first
    assert seen == {"inv": 1, "det": 1}


def test_normalize_gathers_the_weight_symbols_once(monkeypatch):
    """A counter, no timing: a weight's mode table is filtered, solved and
    checked on one spectrum, whose symbols are gathered at its bins once
    (``_Spectrum.symbols``); the solve leaves the bins alone."""
    import toruspos.lattice as lattice_module

    g = TorusGeometry.regular(2, 8)
    rng = np.random.default_rng(37)
    omega = random_pd_metric(rng, g)
    L = LineBundleMetric.from_expression(
        g, hermitian_with_eigs(rng, [1.5, -0.5]), "0.3*sin(x1)*cos(y2)"
    )
    calls = []
    original = lattice_module._dz_symbols

    def counting(geometry):
        calls.append(geometry)
        return original(geometry)

    monkeypatch.setattr(lattice_module, "_dz_symbols", counting)
    _, cert = normalize_scalar_curvature(L, omega)
    assert cert.residuals["poisson_rel"] < 1e-8
    assert calls == [g]


def test_zero_weight_n3_normalize_returns_the_constant_zero_exponent():
    g = TorusGeometry.regular(3, 4)
    rng = np.random.default_rng(33)
    L = LineBundleMetric.from_expression(
        g, hermitian_with_eigs(rng, [1.5, -0.5, 0.8]), "0"
    )
    f, cert = normalize_scalar_curvature(L, random_pd_metric(rng, g))
    assert f.value == 0.0
    assert f.values.shape == g.grid_shape and not any(f.values.strides)
    assert cert.residuals["poisson_rel"] == 0.0
    assert cert.residuals["scalar_deviation"] <= 1e-15 * abs(cert.margin)


def test_grid_copy_metric_solves_the_same_exponent():
    """A grid copy of a constant metric gives s pointwise, with no spectrum
    to reuse, so its right-hand side is transformed instead."""
    g = TorusGeometry.regular(2, 8)
    rng = np.random.default_rng(34)
    omega = random_pd_metric(rng, g)
    L = LineBundleMetric.from_expression(
        g, hermitian_with_eigs(rng, [1.5, -0.5]), "0.3*sin(x1)*cos(y2)"
    )
    f, cert = normalize_scalar_curvature(L, omega)
    f_copy, cert_copy = normalize_scalar_curvature(
        L, MetricField(g, omega.values.copy())
    )
    assert np.max(np.abs(f.values - f_copy.values)) <= 1e-14 * f.max_abs()
    assert cert.residuals["poisson_rel"] < 1e-13
    assert cert_copy.residuals["poisson_rel"] < 1e-13


# -------------------------------------------------------------- tolerances


@pytest.mark.parametrize("eps", [-10.0, math.nan, math.inf])
@pytest.mark.parametrize(
    "entry",
    [
        lambda L, eps: normalize_scalar_curvature(
            L, identity_metric(L.geometry), eps=eps
        ),
        lambda L, eps: certify_n_minus_1_positive(L, eps=eps),
        lambda L, eps: dual_not_pseudo_effective(L, eps=eps),
    ],
    ids=["normalize", "certify", "search"],
)
def test_negative_or_nan_eps_is_rejected(entry, eps):
    """A negative tolerance used to certify diag(-1, -2) with margin -3;
    an infinite one refutes every class, and the suite then disagreed with
    its own oracle."""
    g = TorusGeometry.regular(2, 4)
    L = LineBundleMetric.from_constant(g, np.diag([-1.0, -2.0]))
    with pytest.raises(ValueError, match="tolerance must be nonnegative"):
        entry(L, eps)


def test_normalize_views_no_core_on_the_grid(monkeypatch):
    """A counter, no timing: against a constant metric that has served a
    normalize already, a normalize of a weight with a mode table reads
    every reduction and symbol gather on cores, with no
    ``np.broadcast_to`` grid view."""
    g = TorusGeometry.regular(2, 8)
    rng = np.random.default_rng(41)
    omega = random_pd_metric(rng, g)
    L = LineBundleMetric.from_expression(
        g, hermitian_with_eigs(rng, [1.5, -0.5]), "0.3*sin(x1)*cos(y2) + 0.1*cos(x2)"
    )
    assert L.phi._modes is not None
    normalize_scalar_curvature(L, omega)
    calls = []
    original = np.broadcast_to

    def counting(*args, **kwargs):
        calls.append(args[1:])
        return original(*args, **kwargs)

    monkeypatch.setattr(np, "broadcast_to", counting)
    _, cert = normalize_scalar_curvature(L, omega)
    assert cert.residuals["poisson_rel"] < 1e-8
    assert calls == []
