"""Pencil eigenvalues, q-positivity checks, and the uniformizing transform."""

import dataclasses
import itertools
import json
import math

import numpy as np
import pytest
from conftest import (
    bundle_with_pencil_eigs,
    hermitian_with_eigs,
    random_hermitian,
    random_pd_matrix,
    random_pd_metric,
    random_unitary,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    _cholesky,
    _congruence,
    _small_matrix_function,
    symmetric_root_whitening,
    uniformized_metric_series,
)

import toruspos.qpositivity as qpositivity_module
from toruspos import (
    HermitianMatrixField,
    LineBundleMetric,
    MetricField,
    NotQPositiveError,
    ScalarField,
    TorusGeometry,
    UniformizationRangeError,
    check_q_positive,
    check_uniform_q_positive,
    chern_curvature,
    constant_metric,
    expm1_over_x,
    generalized_eigenvalues,
    growth_rate,
    identity_metric,
    uniform_margin_bound,
    uniformize_metric,
)
from toruspos import cli
from toruspos.qpositivity import EigenvalueField


# ------------------------------------------------------- pencil eigenvalues


def test_pencil_identity_case():
    g = TorusGeometry.regular(2, 4)
    rng = np.random.default_rng(0)
    omega = random_pd_metric(rng, g)
    R = HermitianMatrixField(g, omega.values.copy())
    ev = generalized_eigenvalues(R, omega)
    assert np.max(np.abs(ev.values - 1.0)) < 1e-12


def test_pencil_diagonal_case():
    g = TorusGeometry.regular(2, 4)
    R = HermitianMatrixField.constant(g, np.diag([2.0, -1.0]))
    ev = generalized_eigenvalues(R, identity_metric(g))
    assert np.allclose(ev.values[..., 0], 2.0)
    assert np.allclose(ev.values[..., 1], -1.0)


def _det_pencil(R, omega, lam):
    """det(R - lam*Omega), real for Hermitian pencils, via LU not eigh."""
    return float(np.linalg.det(R - lam * omega).real)


def _bisect_root(fn, lo, hi, iterations=80):
    flo = fn(lo)
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        fmid = fn(mid)
        if flo * fmid <= 0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def test_pencil_matches_characteristic_roots():
    """Scalar root-bracketing on det(R - lam*Omega) as an independent oracle."""
    rng = np.random.default_rng(42)
    g = TorusGeometry.regular(3, 4)
    for _ in range(5):
        R_mat = random_hermitian(rng, 3, scale=2.0)
        O_mat = random_pd_matrix(rng, 3)
        ev = generalized_eigenvalues(
            HermitianMatrixField.constant(g, R_mat), constant_metric(g, O_mat)
        )
        roots = sorted(ev.values.reshape(-1, 3)[0])
        gaps = np.diff(roots)
        if np.min(gaps) < 1e-3:  # oracle needs sign changes between roots
            continue
        brackets = (
            [roots[0] - 1.0]
            + [0.5 * (roots[i] + roots[i + 1]) for i in range(2)]
            + [roots[2] + 1.0]
        )
        for i in range(3):
            fn = lambda lam: _det_pencil(R_mat, O_mat, lam)
            assert fn(brackets[i]) * fn(brackets[i + 1]) < 0
            root = _bisect_root(fn, brackets[i], brackets[i + 1])
            assert root == pytest.approx(roots[i], abs=1e-10)


@pytest.mark.parametrize("n", [1, 2])
def test_cholesky_congruences_match_matrix_products(n):
    """The plane factor is LAPACK's Cholesky factor and its inverse, and
    the congruences ``L^{-1} M L^{-*}`` and ``L M L*`` by it are the
    matrix products."""
    rng = np.random.default_rng(11)
    points = 6
    fields = [
        np.stack([random_hermitian(rng, n, scale=3.0) for _ in range(points)])
        for _ in range(2)
    ]
    bases = np.stack([random_pd_matrix(rng, n) for _ in range(points)])
    base_const = random_pd_matrix(rng, n)
    eye = np.eye(n)
    for base, M in (
        (base_const, fields[0]),
        (bases, fields[1]),
        (bases, random_hermitian(rng, n)),
        (base_const, random_hermitian(rng, n)),
    ):
        L, inverse = _cholesky(base)
        assert np.max(np.abs(L - np.linalg.cholesky(base))) <= 1e-15 * np.max(np.abs(L))
        assert np.max(np.abs(inverse @ L - eye)) <= 1e-15
        for T in (inverse, L):
            ref = T @ M @ np.conj(np.swapaxes(T, -1, -2))
            got = _congruence(T, M)
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def _rotated_base(rng, n, log_cond):
    """A Haar-rotated positive definite n x n matrix of condition number
    ``10**log_cond`` (both extremes among its eigenvalues)."""
    logs = np.concatenate([[0.0, log_cond], rng.uniform(0.0, log_cond, n)])[:n]
    return hermitian_with_eigs(rng, 10.0 ** (logs - 0.5 * log_cond))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    log_cond=st.floats(0.0, 6.0),
    varying=st.booleans(),
)
def test_cholesky_pencil_matches_symmetric_root_oracle(n, seed, log_cond, varying):
    """Eigenvalues of ``L^{-1} R L^{-*}`` against those of the symmetric
    root whitening, for rotated bases of condition number up to 1e6: within
    1e-13 of the largest |eigenvalue| up to condition number 5, and within
    2e-14 times the condition number of it above. That is the pencil's own
    sensitivity: a 40-digit solve puts either route about u * cond from
    the exact eigenvalues (u = 2.2e-16). Diagonal bases give equal
    values, and the identity the same bits."""
    rng = np.random.default_rng(seed)
    g = TorusGeometry.regular(n, 4)
    shape = (*g.grid_shape, n, n)
    Z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    R = _field(g, Z if varying else Z[(0,) * (2 * n)])  # _field symmetrizes
    base = _rotated_base(rng, n, log_cond)
    diagonal = np.diag(np.diag(base).real)
    R_values = R.values if varying else R.matrix
    for matrix, compare in (
        (base, "close"),
        (diagonal, "equal"),
        (np.eye(n), "bits"),
    ):
        got = _ev(R, _field(g, matrix, MetricField))
        ref = np.broadcast_to(symmetric_root_whitening(R_values, matrix), got.shape)
        if compare == "close":
            tolerance = max(1e-13, 2e-14 * 10.0**log_cond) * np.max(np.abs(ref))
            assert np.max(np.abs(got - ref)) <= tolerance
        elif compare == "equal":
            assert np.array_equal(got, ref)
        else:
            assert got.tobytes() == np.ascontiguousarray(ref).tobytes()


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    log_cond=st.floats(0.0, 6.0),
)
def test_cholesky_transform_matches_symmetric_root_oracle(n, seed, log_cond):
    """``L f(L^{-1} R L^{-*}) L*`` against ``Omega^{1/2} f(Omega^{-1/2} R
    Omega^{-1/2}) Omega^{1/2}``, the same metric in exact arithmetic:
    within the eigenvalue property's bound, relative to the largest entry,
    and equal values on the identity base for n <= 2."""
    rng = np.random.default_rng(seed)
    g = TorusGeometry.regular(n, 4)
    base = _rotated_base(rng, n, log_cond)
    # Pencil eigenvalues in [0.5, 2] against each base, so the transform
    # stays in float64's range; a weight small against the base's scale.
    weight = f"{0.01 * float(np.min(np.linalg.eigvalsh(base)))!r}*cos(x1)"
    for matrix in (base, np.eye(n)):
        omega = constant_metric(g, matrix)
        eigs = rng.uniform(0.5, 2.0, n)
        L = bundle_with_pencil_eigs(rng, g, omega, eigs, weight)
        R = chern_curvature(L)
        new = uniformize_metric(L, omega, 0).values
        rate = growth_rate(generalized_eigenvalues(R, omega), 0)
        shrink = lambda x: 1.0 / expm1_over_x(rate * x)
        ref = symmetric_root_whitening(R.values, matrix, shrink)
        tolerance = max(1e-13, 2e-14 * 10.0**log_cond) * np.max(np.abs(ref))
        assert np.max(np.abs(new - ref)) <= tolerance
    assert n == 3 or np.array_equal(new, ref)  # the identity base, last


def test_pencil_invariant_under_congruence():
    rng = np.random.default_rng(1)
    g = TorusGeometry.regular(2, 4)
    R_mat = random_hermitian(rng, 2)
    O_mat = random_pd_matrix(rng, 2)
    A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    ev = generalized_eigenvalues(
        HermitianMatrixField.constant(g, R_mat), constant_metric(g, O_mat)
    )
    Rc = A.conj().T @ R_mat @ A
    Oc = A.conj().T @ O_mat @ A
    evc = generalized_eigenvalues(
        HermitianMatrixField.constant(g, 0.5 * (Rc + Rc.conj().T)),
        constant_metric(g, 0.5 * (Oc + Oc.conj().T)),
    )
    assert np.max(np.abs(ev.values - evc.values)) < 1e-9


def test_eigenvalue_field_requires_descending_order():
    g = TorusGeometry.regular(2, 4)
    vals = np.zeros((*g.grid_shape, 2))
    vals[..., 1] = 1.0  # ascending, invalid
    with pytest.raises(ValueError, match="descending"):
        EigenvalueField(g, vals)


def _descending_cases(rng, n):
    """Degenerate, clustered and widely spread Hermitian n x n matrices."""
    eig_lists = [
        [0.0] * n,
        [1.0] * n,
        [-3.0] * n,
        [5e-324] * n,
        [1.0 + k * 2.2e-16 for k in range(n)],
        [1.0 - k * 1e-15 for k in range(n)],
        [1e12] + [1.0] * (n - 1),
        [1e12, -1e12, 1e-12][:n],
        [1e-12, 1e12, -1.0][:n],
    ]
    mats = [np.diag(np.asarray(eigs, dtype=complex)) for eigs in eig_lists]
    mats += [hermitian_with_eigs(rng, eigs) for eigs in eig_lists for _ in range(20)]
    return np.stack(mats)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_kernel_eigenvalues_are_descending_by_construction(n):
    """Kernel-built eigenvalue fields skip the order check; both routes
    (closed form for n <= 2, LAPACK for any n) must then be descending."""
    stack = _descending_cases(np.random.default_rng(80 + n), n)
    routes = [stack] + ([qpositivity_module._operand(stack)] if n <= 2 else [])
    for operand in routes:
        vals = qpositivity_module._descending_eigenvalues(operand)
        assert vals.shape == (len(stack), n)
        assert np.all(vals[:, :-1] >= vals[:, 1:])
        want = np.linalg.eigvalsh(stack)[:, ::-1]
        scale = np.max(np.abs(want), axis=-1, keepdims=True)
        assert np.all(np.abs(vals - want) <= 1e-14 * scale)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_smallest_sum_is_numpy_sum_bit_for_bit(n):
    """The column-by-column sum gives np.sum's bits, signed zeros included."""
    g = TorusGeometry.regular(n, 4)
    rng = np.random.default_rng(n)
    values = rng.standard_normal((*g.grid_shape, n)) * 10.0 ** rng.integers(
        -300, 300, (*g.grid_shape, n)
    )
    flat = values.reshape(-1)
    flat[::5], flat[::7] = 0.0, -0.0
    values = np.sort(values, axis=-1)[..., ::-1]
    ev = EigenvalueField(g, values)
    for count in range(1, n + 1):
        want = np.sum(values[..., n - count :], axis=-1)
        assert ev.smallest_sum(count).tobytes() == want.tobytes()


def test_only_the_public_eigenvalue_constructor_checks_the_order():
    g = TorusGeometry.regular(2, 4)
    ascending = np.zeros((*g.grid_shape, 2))
    ascending[..., 1] = 1.0
    with pytest.raises(ValueError, match="descending"):
        EigenvalueField(g, ascending)
    # _descending takes over the array it is handed, so it gets a copy.
    assert EigenvalueField._descending(g, ascending.copy()).values is not None
    ascending[0, 0, 0, 0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        EigenvalueField._descending(g, ascending)


# --------------------------------------------------------------- q checks


def test_q_positive_diagonal_examples():
    g = TorusGeometry.regular(2, 8)
    L = LineBundleMetric.from_constant(g, np.diag([1.0, -5.0]))
    omega = identity_metric(g)
    top = check_q_positive(L, omega, q=1)
    assert top.verdict is True
    assert top.margin == pytest.approx(1.0)
    both = check_q_positive(L, omega, q=0)
    assert both.verdict is False
    assert both.margin == pytest.approx(-5.0)


def test_q_positive_margin_matches_per_point_solver():
    """Cross-check against the general (non-Hermitian) eigensolver per point."""
    g = TorusGeometry.regular(1, 64)
    L = LineBundleMetric.from_expression(g, np.array([[1.0]]), "2*cos(x1)")
    omega = constant_metric(g, np.array([[1.7]]))
    cert = check_q_positive(L, omega, q=0)
    R = chern_curvature(L).values.reshape(-1, 1, 1)
    W = np.linalg.inv(np.array([[1.7]]))
    mins = min(
        sorted(np.linalg.eigvals(W @ R[i]).real)[-1] for i in range(R.shape[0])
    )
    assert cert.margin == pytest.approx(mins, rel=1e-8)
    assert cert.verdict == bool(mins > cert.tolerance)


def test_q_positive_margin_matches_per_point_solver_2d():
    g = TorusGeometry.regular(2, 6)
    rng = np.random.default_rng(3)
    L = LineBundleMetric.from_expression(
        g, hermitian_with_eigs(rng, [1.0, -5.0]), "0.4*sin(x1)*cos(y2)"
    )
    omega = random_pd_metric(rng, g)
    cert = check_q_positive(L, omega, q=1)
    R = chern_curvature(L).values.reshape(-1, 2, 2)
    W = np.linalg.inv(omega.values.reshape(-1, 2, 2)[0])
    largest = [
        sorted(np.linalg.eigvals(W @ R[i]).real)[-1] for i in range(R.shape[0])
    ]
    assert cert.margin == pytest.approx(min(largest), rel=1e-8)


def test_uniform_check_small_sums():
    g = TorusGeometry.regular(2, 4)
    omega = identity_metric(g)
    ok = LineBundleMetric.from_constant(g, np.diag([3.0, -1.0]))
    cert = check_uniform_q_positive(ok, omega, q=1)
    assert cert.verdict is True and cert.margin == pytest.approx(2.0)
    bad = LineBundleMetric.from_constant(g, np.diag([1.0, -5.0]))
    cert = check_uniform_q_positive(bad, omega, q=1)
    assert cert.verdict is False and cert.margin == pytest.approx(-4.0)


def test_uniform_margin_matches_subset_enumeration():
    rng = np.random.default_rng(4)
    g = TorusGeometry.regular(3, 4)
    L = LineBundleMetric.from_expression(
        g, random_hermitian(rng, 3, scale=2.0), "0.2*sin(x1) - 0.3*cos(y3)"
    )
    omega = random_pd_metric(rng, g)
    ev = generalized_eigenvalues(chern_curvature(L), omega)
    flat = ev.values.reshape(-1, 3)
    points = rng.integers(0, flat.shape[0], size=100)
    for q in (0, 1, 2):
        cert = check_uniform_q_positive(L, omega, q=q)
        for p in points:
            brute = min(
                sum(combo)
                for combo in itertools.combinations(flat[p], q + 1)
            )
            assert ev.smallest_sum(q + 1).reshape(-1)[p] == pytest.approx(brute)
        assert cert.margin <= np.min(ev.smallest_sum(q + 1)) + 1e-15


def test_q_out_of_range():
    g = TorusGeometry.regular(2, 4)
    L = LineBundleMetric.from_constant(g, np.eye(2))
    with pytest.raises(ValueError, match="q must"):
        check_q_positive(L, identity_metric(g), q=2)
    with pytest.raises(ValueError, match="q must"):
        check_q_positive(L, identity_metric(g), q=-1)


# -------------------------------------------------------------- growth rate


def test_growth_rate_direct_substitution():
    g = TorusGeometry.regular(2, 4)
    L = LineBundleMetric.from_constant(g, math.log(3.0) * np.eye(2))
    ev = generalized_eigenvalues(chern_curvature(L), identity_metric(g))
    assert growth_rate(ev, q=1) == pytest.approx(1.0, rel=1e-14)


def test_growth_rate_half_floor():
    g = TorusGeometry.regular(3, 4)
    L = LineBundleMetric.from_constant(g, np.diag([0.5, 0.2, 0.1]))
    ev = generalized_eigenvalues(chern_curvature(L), identity_metric(g))
    # q = 2 reads the largest eigenvalue, constant 0.5
    assert growth_rate(ev, q=2) == pytest.approx(2.0 * math.log(4.0), rel=1e-13)


def test_growth_rate_rejects_touching_zero():
    g = TorusGeometry.regular(2, 4)
    L = LineBundleMetric.from_constant(g, np.diag([0.0, -1.0]))
    ev = generalized_eigenvalues(chern_curvature(L), identity_metric(g))
    with pytest.raises(NotQPositiveError):
        growth_rate(ev, q=1)


# ---------------------------------------------------------------- psi helper


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=2),
    st.floats(min_value=0.1, max_value=2.0),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_inverse_psi_matrix_function_matches_eigh(n, rate, seed):
    rng = np.random.default_rng(seed)
    stack = np.stack([random_hermitian(rng, n, scale=3.0) for _ in range(4)])
    stack[0] = 1.5 * np.eye(n)  # degenerate spectrum
    fn = lambda x: 1.0 / expm1_over_x(rate * x)
    (got,) = _small_matrix_function(stack, fn)
    d, Q = np.linalg.eigh(stack)
    ref = np.einsum("...ij,...j,...kj->...ik", Q, fn(d), Q.conj())
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(fn(d)))


def test_psi_value_at_zero_and_signs():
    x = np.array([-50.0, -1.0, 0.0, 1.0, 50.0])
    psi = expm1_over_x(x)
    assert psi[2] == 1.0
    assert np.all(psi > 0.0)
    assert psi[3] == pytest.approx(math.e - 1.0)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-200.0, max_value=200.0, allow_nan=False))
def test_psi_positive_everywhere(x):
    val = float(expm1_over_x(np.array([x]))[0])
    assert val > 0.0


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=-50.0, max_value=50.0),
    st.floats(min_value=1e-6, max_value=10.0),
)
def test_psi_is_increasing(x, step):
    lo, hi = expm1_over_x(np.array([x, x + step]))
    assert hi > lo


# ----------------------------------------------------------- uniformization


def test_uniformize_flat_bundle_rejected():
    g = TorusGeometry.regular(2, 4)
    L = LineBundleMetric.from_constant(g, np.zeros((2, 2)))
    with pytest.raises(NotQPositiveError):
        uniformize_metric(L, identity_metric(g), q=1)


def test_uniformize_out_of_float_range_is_a_typed_error():
    """diag(1000, 1), q = 0: t * lambda_max = 1000 log 3 > log(float max),
    so 1/psi underflows to 0; the refusal is not a ValueError (the input
    is valid). diag(300, 1) stays inside the range."""
    g = TorusGeometry.regular(2, 4)
    L = LineBundleMetric.from_constant(g, np.diag([1000.0, 1.0]))
    with pytest.raises(UniformizationRangeError, match="log\\(float max\\)"):
        uniformize_metric(L, identity_metric(g), q=0)
    assert not issubclass(UniformizationRangeError, ValueError)
    assert uniformize_metric(L, identity_metric(g), q=1).min_eigenvalue > 0.0
    L = LineBundleMetric.from_constant(g, np.diag([300.0, 1.0]))
    assert uniformize_metric(L, identity_metric(g), q=0).min_eigenvalue > 0.0


@pytest.mark.parametrize("top", [40.0, 100.0])
def test_uniformize_ill_conditioned_rotated_class_is_a_typed_error(top):
    """n = 3, 4^6, U diag(top, 2, 1) U* with a fixed U, q = 0: the exact
    transform is positive definite, but in a rotated basis float64 loses
    its small eigen-part, and the computed metric fails its gate. That is
    a range error (exit 4), not a ValueError (exit 3)."""
    g = TorusGeometry.regular(3, 4)
    U = random_unitary(np.random.default_rng(0), 3)
    r_const = (U * np.array([top, 2.0, 1.0])) @ U.conj().T
    L = LineBundleMetric.from_constant(g, 0.5 * (r_const + r_const.conj().T))
    with pytest.raises(UniformizationRangeError, match="not positive definite"):
        uniformize_metric(L, identity_metric(g), q=0)


def test_uniformize_closed_form_example():
    g = TorusGeometry.regular(2, 4)
    L = LineBundleMetric.from_constant(
        g, np.diag([math.log(3.0), -math.log(3.0)])
    )
    omega = identity_metric(g)
    new = uniformize_metric(L, omega, q=1)
    kappa = generalized_eigenvalues(chern_curvature(L), new)
    flat = kappa.values.reshape(-1, 2)
    assert flat[:, 0] == pytest.approx(2.0, rel=1e-12)
    assert flat[:, 1] == pytest.approx(-2.0 / 3.0, rel=1e-12)
    after = check_uniform_q_positive(L, new, q=1)
    assert after.verdict is True
    assert after.margin == pytest.approx(4.0 / 3.0, rel=1e-12)


@pytest.mark.parametrize("seed,q", [(0, 0), (1, 1), (2, 1), (3, 0)])
def test_uniformize_eigenvalue_map_random(seed, q):
    rng = np.random.default_rng(seed)
    g = TorusGeometry.regular(2, 8)
    omega = random_pd_metric(rng, g)
    floor = 0.3 if q == 1 else 0.5
    eigs = sorted(rng.uniform(floor, 4.0, size=2), reverse=True)
    if q == 1:
        eigs[1] = rng.uniform(-3.0, eigs[1])  # bottom eigenvalue free
    L = bundle_with_pencil_eigs(
        rng, g, omega, eigs, phi_text="0.01*sin(x1) + 0.01*cos(y2)"
    )
    ev = generalized_eigenvalues(chern_curvature(L), omega)
    rate = growth_rate(ev, q)
    new = uniformize_metric(L, omega, q)
    kappa = generalized_eigenvalues(chern_curvature(L), new)
    predicted = np.expm1(rate * ev.values) / rate
    scale = float(np.max(np.abs(kappa.values)))
    assert np.max(np.abs(kappa.values - predicted)) <= 1e-8 * scale
    # ordering is preserved by monotonicity of the eigenvalue map
    assert np.all(kappa.values[..., :-1] >= kappa.values[..., 1:] - 1e-12)


def test_uniformize_guaranteed_margin_bound():
    rng = np.random.default_rng(7)
    g = TorusGeometry.regular(2, 8)
    omega = random_pd_metric(rng, g)
    L = bundle_with_pencil_eigs(
        rng, g, omega, [2.5, -1.5], phi_text="0.05*sin(x1)*cos(x2)"
    )
    q = 1
    ev = generalized_eigenvalues(chern_curvature(L), omega)
    rate = growth_rate(ev, q)
    new = uniformize_metric(L, omega, q)
    after = check_uniform_q_positive(L, new, q)
    floor = float(np.min(ev.at_rank(1)))
    bound = uniform_margin_bound(rate, floor, q)
    assert bound > 0.0
    assert after.verdict is True
    assert after.margin >= bound - 1e-7


def test_uniform_positivity_implies_pointwise():
    g = TorusGeometry.regular(2, 8)
    for seed in range(6):
        inner = np.random.default_rng(seed)
        omega = random_pd_metric(inner, g)
        eigs = inner.uniform(-2.0, 3.0, size=2)
        L = bundle_with_pencil_eigs(
            inner, g, omega, eigs, phi_text="0.02*sin(x1)"
        )
        for q in (0, 1):
            uniform = check_uniform_q_positive(L, omega, q)
            pointwise = check_q_positive(L, omega, q)
            if uniform.verdict:
                assert pointwise.verdict


def test_series_route_agrees_on_varying_base():
    """Feed the uniformizer its own (varying) output as the base metric."""
    g = TorusGeometry.regular(2, 8)
    for seed, q in ((0, 0), (1, 1), (2, 0)):
        inner = np.random.default_rng(seed)
        omega = random_pd_metric(inner, g)
        eigs = sorted(inner.uniform(1.0, 1.2, size=2), reverse=True)
        if q == 1:
            eigs[1] = -0.5
        L = bundle_with_pencil_eigs(
            inner, g, omega, eigs, phi_text="0.02*cos(x1)*sin(y2)"
        )
        varying = uniformize_metric(L, omega, q)
        assert np.ptp(varying.values[..., 0, 0].real) > 1e-3
        direct = uniformize_metric(L, varying, q)
        series = uniformized_metric_series(L, varying, q, terms=30)
        scale = float(np.max(np.abs(direct.values)))
        assert np.max(np.abs(direct.values - series.values)) <= 1e-10 * scale


def test_series_route_agrees_with_eigendecomposition():
    g = TorusGeometry.regular(2, 8)
    for seed in range(4):
        inner = np.random.default_rng(seed)
        omega = random_pd_metric(inner, g)
        eigs = sorted(inner.uniform(0.5, 2.0, size=2), reverse=True)
        L = bundle_with_pencil_eigs(
            inner, g, omega, eigs, phi_text="0.02*cos(x1)*sin(y2)"
        )
        direct = uniformize_metric(L, omega, q=1)
        series = uniformized_metric_series(L, omega, q=1, terms=30)
        scale = float(np.max(np.abs(direct.values)))
        assert np.max(np.abs(direct.values - series.values)) <= 1e-10 * scale


# ------------------------------------------------------------ pencil cache


@pytest.fixture
def pencil_solves(monkeypatch):
    """List that grows by one per pencil solve (``_pencil_eigenvalues``)."""
    solves = []
    original = qpositivity_module._pencil_eigenvalues

    def counting(*args):
        solves.append(args[0])
        return original(*args)

    monkeypatch.setattr(qpositivity_module, "_pencil_eigenvalues", counting)
    return solves


def _weighted_bundle(g, q=1):
    """A weighted bundle that is q-positive (n = 2) or 1-positive (n = 3)."""
    if g.complex_dim == 3:
        return LineBundleMetric.from_expression(
            g, np.diag([2.0, 1.5, -0.5]), "0.01*cos(x1)*sin(y3)"
        )
    r_const = (
        np.array([[1.5, 0.2j], [-0.2j, -0.4]])
        if q == 1
        else np.array([[1.5, 0.2j], [-0.2j, 0.9]])
    )
    return LineBundleMetric.from_expression(g, r_const, "0.01*cos(x1)*sin(y2)")


@pytest.mark.parametrize(
    "n, q, base",
    [
        pytest.param(2, q, base, id=f"{base}-{q}")
        for base in ("identity", "constant")
        for q in (0, 1)
    ]
    + [pytest.param(3, 1, "identity", id="n3-identity-1")],
)
def test_uniformize_and_check_solves_two_pencils(pencil_solves, n, q, base):
    """The acceptance-1 sequence: (R, omega) and (R, new omega) are each
    solved once, where five solves used to be made at n = 2 and three at
    n = 3."""
    g = TorusGeometry.regular(n, 8 if n == 2 else 4)
    L = _weighted_bundle(g, q)
    omega = (
        identity_metric(g)
        if base == "identity"
        else constant_metric(g, np.array([[1.2, 0.1], [0.1, 0.9]]))
    )
    assert check_q_positive(L, omega, q).verdict
    R = chern_curvature(L)
    ev = generalized_eigenvalues(R, omega)
    growth_rate(ev, q)
    new = uniformize_metric(L, omega, q)
    assert check_uniform_q_positive(L, new, q).verdict
    generalized_eigenvalues(R, new)
    assert len(pencil_solves) == 2


def test_cli_check_qpos_solves_one_pencil(pencil_solves, tmp_path):
    payload = {
        "geometry": {"complex_dim": 2, "grid": 8},
        "instance": {"r_const": [[2.0, 0.0], [0.0, -0.5]], "phi": "0.01*cos(x1)"},
        "q": 1,
        "output": {"dir": str(tmp_path / "out")},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(payload))
    assert cli.main(["check-qpos", "--config", str(cfg)]) == 0
    assert len(pencil_solves) == 1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pencil_hit_equals_cold_solve(pencil_solves, n):
    g = TorusGeometry.regular(n, 4)
    rng = np.random.default_rng(n)
    r_const = hermitian_with_eigs(rng, rng.uniform(0.5, 2.0, n))
    omega = constant_metric(g, random_pd_matrix(rng, n))
    R, fresh = (
        chern_curvature(LineBundleMetric.from_expression(g, r_const, "0.02*sin(x1)"))
        for _ in range(2)
    )
    first = generalized_eigenvalues(R, omega)
    assert generalized_eigenvalues(R, omega) is first
    assert len(pencil_solves) == 1
    assert np.array_equal(generalized_eigenvalues(fresh, omega).values, first.values)
    assert len(pencil_solves) == 2


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pencil_values_are_read_only(n):
    g = TorusGeometry.regular(n, 4)
    L = LineBundleMetric.from_expression(g, np.eye(n), "0.02*cos(x1)")
    varying = HermitianMatrixField(g, chern_curvature(L).values.copy())
    for R in (chern_curvature(L), varying):
        ev = generalized_eigenvalues(R, identity_metric(g))
        assert not ev.values.flags.writeable
        with pytest.raises(ValueError):
            ev.values[(0,) * ev.values.ndim] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            ev.values = np.zeros_like(ev.values)


def test_uniformized_metric_planes_are_read_only():
    for samples in (16, 6):  # many tiles; one tile
        g = TorusGeometry.regular(2, samples)
        new = uniformize_metric(_weighted_bundle(g), identity_metric(g), 1)
        for plane in new._planes:
            with pytest.raises(ValueError):
                plane[(0,) * plane.ndim] = 0.0
            assert plane.base is None or not plane.base.flags.writeable


@pytest.mark.parametrize("handed", ["grid", "broadcast"])
def test_caller_writes_after_construction_reach_no_field(pencil_solves, handed):
    """Every field constructor copies the core of the caller's array once:
    a later write into that array changes no field, no cached curvature,
    no pencil entry and no verdict, and a caller-built metric is solved
    once."""
    g = TorusGeometry.regular(2, 4)
    grid = g.grid_shape
    x = g.axis_coordinates(0).reshape(-1, 1, 1, 1)
    # Each caller array at its smallest, and the shape of the field's values.
    small = {
        "weight": (0.01 * np.cos(x), grid),
        "metric": (np.array([[1.2, 0.1j], [-0.1j, 0.9]]), (*grid, 2, 2)),
        "matrix": (np.array([[1.5, 0.2], [0.2, -0.4]], dtype=complex), (*grid, 2, 2)),
        "eigenvalues": (np.array([2.0, -1.0]), (*grid, 2)),
    }
    if handed == "grid":  # a grid array the caller owns
        owners = {k: np.broadcast_to(v, shape).copy() for k, (v, shape) in small.items()}
        values = owners
    else:  # a read-only broadcast view of a small array the caller owns
        owners = {k: v for k, (v, _) in small.items()}
        values = {k: np.broadcast_to(v, shape) for k, (v, shape) in small.items()}
    phi = ScalarField(g, values["weight"])
    omega = MetricField(g, values["metric"])
    M = HermitianMatrixField(g, values["matrix"])
    ev = EigenvalueField(g, values["eigenvalues"])
    L = LineBundleMetric(g, np.diag([1.5, -0.4]), phi)
    R = chern_curvature(L)
    before = check_q_positive(L, omega, 1)
    solved = generalized_eigenvalues(R, omega)
    assert before.verdict and len(pencil_solves) == 1
    solved_M = generalized_eigenvalues(M, omega)
    fields = (phi, omega, M, ev, R, solved, solved_M)
    snapshot = [f.values.copy() for f in fields]

    for owner in owners.values():
        owner *= -3.0  # the metric indefinite, the eigenvalues ascending

    assert all(np.array_equal(f.values, s) for f, s in zip(fields, snapshot))
    assert L.phi is phi and chern_curvature(L) is R
    assert generalized_eigenvalues(R, omega) is solved
    assert generalized_eigenvalues(M, omega) is solved_M
    after = check_q_positive(L, omega, 1)
    assert (after.verdict, after.margin) == (before.verdict, before.margin)
    assert len(pencil_solves) == 2


def test_equal_metric_object_misses(pencil_solves):
    g = TorusGeometry.regular(2, 8)
    R = chern_curvature(_weighted_bundle(g))
    matrix = np.array([[1.2, 0.1], [0.1, 0.9]])
    first, second = constant_metric(g, matrix), constant_metric(g, matrix)
    ev = generalized_eigenvalues(R, first)
    other = generalized_eigenvalues(R, second)
    assert other is not ev
    assert np.array_equal(other.values, ev.values)
    assert R._pencil[0] is second  # the new metric replaced the entry
    assert len(pencil_solves) == 2


def test_n3_uniformize_seeds_the_cache_and_freezes_its_output(pencil_solves):
    g = TorusGeometry.regular(3, 4)
    L = LineBundleMetric.from_expression(g, np.diag([2.0, 1.5, 1.0]), "0.01*cos(x1)")
    R = chern_curvature(L)
    omega = identity_metric(g)
    new = uniformize_metric(L, omega, 0)
    assert len(pencil_solves) == 1
    assert R._pencil[0] is omega
    assert generalized_eigenvalues(R, omega) is R._pencil[1]
    assert not new.values.flags.writeable
    with pytest.raises(ValueError):
        new.values[(0,) * new.values.ndim] = 0.0
    assert generalized_eigenvalues(R, new) is generalized_eigenvalues(R, new)
    assert len(pencil_solves) == 2


def test_n3_acceptance_sequence_lapack_calls(monkeypatch):
    """Counters, no timing: at n = 3 each whitening factors its base with
    one ``cholesky`` and inverts the factor (no eigendecomposition of the
    base), once per metric: the transform whitens by the factor the
    constant base kept from the first check. Each pencil is solved by one
    ``eigvalsh``, and the transform maps the solved pair through one
    ``eigh``; the remaining ``eigvalsh`` is the new metric's
    positive-definite gate."""
    calls = []

    def counting(name):
        original = getattr(np.linalg, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, wrapper)

    for name in ("cholesky", "inv", "eigh", "eigvalsh"):
        counting(name)
    g = TorusGeometry.regular(3, 4)
    L = _weighted_bundle(g)
    omega = constant_metric(g, np.diag([1.2, 0.9, 1.1]))
    R = chern_curvature(L)
    calls.clear()
    assert check_q_positive(L, omega, 1).verdict
    assert calls == ["cholesky", "inv", "eigvalsh"]
    calls.clear()
    new = uniformize_metric(L, omega, 1)
    assert calls == ["eigh", "eigvalsh"]
    calls.clear()
    assert check_uniform_q_positive(L, new, 1).verdict
    assert generalized_eigenvalues(R, new) is R._pencil[1]
    assert calls == ["cholesky", "inv", "eigvalsh"]


def test_a_constant_metric_is_factored_once(monkeypatch):
    """A counter, no timing: check, uniformize, check against the output
    and the pencil against the first base again whiten by one Cholesky
    factor of the constant n = 2 base, which the metric keeps; the
    uniformized metric varies and is factored tile by tile."""
    import toruspos.lattice as lattice_module
    import toruspos.planes as planes_module

    constant = []

    def counting(base):
        if all(np.size(p) == 1 for p in base):
            constant.append(base)
        return planes_module._cholesky(base)

    for module in (lattice_module, qpositivity_module):
        monkeypatch.setattr(module, "_cholesky", counting)
    g = TorusGeometry.regular(2, 8)
    L = _weighted_bundle(g)
    omega = constant_metric(g, np.array([[1.2, 0.1j], [-0.1j, 0.9]]))
    assert check_q_positive(L, omega, 1).verdict
    new = uniformize_metric(L, omega, 1)
    assert new.matrix is None
    assert check_uniform_q_positive(L, new, 1).verdict
    generalized_eigenvalues(chern_curvature(L), omega)
    assert len(constant) == 1


def test_n3_uniformize_uses_the_reported_rate(monkeypatch):
    """The transform is built with the rate ``growth_rate`` reads off
    ``generalized_eigenvalues``. On this instance a rate from a separate
    ``eigh`` of the pencil differs from it by one ulp."""
    rates = []
    original = qpositivity_module._uniformizing_rate

    def recording(*args):
        rates.append(original(*args))
        return rates[-1]

    monkeypatch.setattr(qpositivity_module, "_uniformizing_rate", recording)
    g = TorusGeometry.regular(3, 4)
    rng = np.random.default_rng(0)
    r_const = hermitian_with_eigs(rng, rng.uniform(0.5, 2.0, 3))
    L = LineBundleMetric.from_expression(g, r_const, "0.02*cos(x1)*sin(y3)")
    omega = identity_metric(g)
    new = uniformize_metric(L, omega, 0, eps=1e-6)
    R = chern_curvature(L)
    ev = generalized_eigenvalues(R, omega)
    rate = growth_rate(ev, 0, 1e-6)
    assert rates == [rate]
    predicted = np.expm1(rate * ev.values) / rate
    kappa = generalized_eigenvalues(R, new).values
    assert np.max(np.abs(kappa - predicted)) <= 1e-12 * np.max(np.abs(predicted))


def test_constant_n3_pencil_is_solved_on_one_matrix(monkeypatch):
    g = TorusGeometry.regular(3, 4)
    rng = np.random.default_rng(3)
    L = LineBundleMetric.from_constant(g, hermitian_with_eigs(rng, [2.0, 1.0, 0.5]))
    R = chern_curvature(L)
    omega = constant_metric(g, random_pd_matrix(rng, 3))
    shapes = []
    original = np.linalg.eigvalsh

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    ev = generalized_eigenvalues(R, omega)
    assert shapes == [(3, 3)]
    assert ev.values.shape == (*g.grid_shape, 3)
    # Its uniformized metric is one matrix too, kept as a constant metric.
    new = uniformize_metric(L, omega, 0)
    assert new.matrix is not None and not new.matrix.flags.writeable
    rate = growth_rate(ev, 0)
    predicted = np.expm1(rate * ev.values) / rate
    kappa = generalized_eigenvalues(R, new).values
    assert np.max(np.abs(kappa - predicted)) <= 1e-12 * np.max(np.abs(predicted))
    # So is a constant pencil's at n = 1 and 2, where the kernels run on planes.
    for n, eigs in ((1, [1.5]), (2, [2.0, 0.5])):
        g = TorusGeometry.regular(n, 4)
        L = LineBundleMetric.from_constant(g, hermitian_with_eigs(rng, eigs))
        omega = constant_metric(g, random_pd_matrix(rng, n))
        new = uniformize_metric(L, omega, 0)
        assert new.matrix is not None and not new.matrix.flags.writeable
        ev = generalized_eigenvalues(chern_curvature(L), omega)
        rate = growth_rate(ev, 0)
        predicted = np.expm1(rate * ev.values) / rate
        kappa = generalized_eigenvalues(chern_curvature(L), new).values
        assert np.max(np.abs(kappa - predicted)) <= 1e-12 * np.max(np.abs(predicted))


# ------------------------------------------------------ pencil properties
# Each pair below is two distinct field objects, so a cache hit returning
# another pencil's eigenvalues would break the property.

_PENCIL_KINDS = [(1, False), (2, False), (1, True), (2, True), (3, False)]


def _field(g, values, cls=HermitianMatrixField):
    """A constant field of one n x n matrix, or a grid field."""
    values = np.array(values, dtype=np.complex128)
    values = 0.5 * (values + np.conj(np.swapaxes(values, -1, -2)))
    if values.ndim == 2:
        return cls.constant(g, values)
    return cls(g, values)


def _pencil(seed, n, varying):
    """(R, omega) of one constant pencil (n x n matrices) or of per-point
    random ones (grid stacks); omega has eigenvalues in [0.5, 2]."""
    rng = np.random.default_rng(seed)
    g = TorusGeometry.regular(n, 4)
    if not varying:
        return g, random_hermitian(rng, n, scale=3.0), random_pd_matrix(rng, n)
    shape = (*g.grid_shape, n, n)
    R = np.stack([random_hermitian(rng, n, scale=3.0) for _ in range(g.num_points)])
    O = np.stack([random_pd_matrix(rng, n) for _ in range(g.num_points)])
    return g, R.reshape(shape), O.reshape(shape)


def _ev(R, O):
    return generalized_eigenvalues(R, O).values


def _close(a, b, scale):
    return np.max(np.abs(a - b)) <= 1e-12 * scale


@pytest.mark.parametrize("n,varying", _PENCIL_KINDS)
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), c=st.floats(1e-3, 1e3))
def test_pencil_scale_invariance(n, varying, seed, c):
    g, R, O = _pencil(seed, n, varying)
    R_field, O_field = _field(g, R), _field(g, O, MetricField)
    ev = _ev(R_field, O_field)
    scale = float(np.max(np.abs(ev)))
    assert _close(_ev(_field(g, c * R), O_field), c * ev, c * scale)
    assert _close(_ev(R_field, _field(g, c * O, MetricField)), ev / c, scale / c)


@pytest.mark.parametrize("n,varying", _PENCIL_KINDS)
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_pencil_unitary_invariance(n, varying, seed):
    g, R, O = _pencil(seed, n, varying)
    U = random_unitary(np.random.default_rng(seed + 1), n)
    Uh = U.conj().T
    ev = _ev(_field(g, R), _field(g, O, MetricField))
    rotated = _ev(_field(g, Uh @ R @ U), _field(g, Uh @ O @ U, MetricField))
    assert _close(rotated, ev, float(np.max(np.abs(ev))))


@pytest.mark.parametrize("n,varying", _PENCIL_KINDS)
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_pencil_dual_involution(n, varying, seed):
    g, R, O = _pencil(seed, n, varying)
    O_field = _field(g, O, MetricField)
    ev = _ev(_field(g, R), O_field)
    assert _close(_ev(_field(g, -R), O_field), -ev[..., ::-1], float(np.max(np.abs(ev))))


@pytest.mark.parametrize("n,varying", _PENCIL_KINDS)
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), q=st.integers(0, 2))
def test_margin_equal_to_eps_is_not_positive(n, varying, seed, q):
    """Eps set to the margin itself, on a second equal metric object:
    the margin is the same bit for bit and the verdict is False."""
    q %= n
    rng = np.random.default_rng(seed)
    g = TorusGeometry.regular(n, 4)
    r_const = hermitian_with_eigs(rng, rng.uniform(0.5, 2.0, n))
    weight = "0.01*cos(x1)" if varying else "0"
    L = LineBundleMetric.from_expression(g, r_const, weight)
    _, _, O = _pencil(seed, n, varying)
    omegas = [_field(g, O, MetricField) for _ in range(2)]
    for check in (check_q_positive, check_uniform_q_positive):
        cert = check(L, omegas[0], q)
        assert cert.margin > 0.0
        at_eps = check(L, omegas[1], q, eps=cert.margin)
        assert at_eps.margin == at_eps.tolerance == cert.margin
        assert at_eps.verdict is False
