"""Component-plane storage of n <= 2 matrix fields and the projector form."""

import itertools
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toruspos import (
    HermitianMatrixField,
    LineBundleMetric,
    MetricField,
    TorusGeometry,
    check_q_positive,
    check_uniform_q_positive,
    chern_curvature,
    constant_metric,
    expm1_over_x,
    generalized_eigenvalues,
    scalar_curvature,
    uniformize_metric,
    volume_integral,
)
from toruspos.lattice import (
    _hermitian_2x2_parts,
    _join,
    _small_matrix_function,
    _split,
)

# ------------------------------------------------------- projector form

# Each family: float f, the same f on Decimals, and the exponent range
# L of the diagonal entries 10^[-L, L]; over that range f spans up to
# 1e300 and stays inside the float64 range.
_FAMILIES = {
    "sqrt": (np.sqrt, lambda x: x.sqrt(), 300.0),
    "inv_sqrt": (lambda x: 1.0 / np.sqrt(x), lambda x: 1 / x.sqrt(), 300.0),
    "square": (lambda x: x * x, lambda x: x * x, 75.0),
    "inv_square": (lambda x: 1.0 / (x * x), lambda x: 1 / (x * x), 75.0),
}


def _masked_parts(a, d, c):
    """``_hermitian_2x2_parts`` with the masked divide it used before its
    plain one: ``t = 0`` written where ``|h| + r = 0``."""
    h = (a - d) * 0.5
    abs_c = np.abs(c)
    z = np.empty(np.shape(h), dtype=np.complex128)
    z.real, z.imag = h, abs_c
    r = np.abs(z)
    s = np.abs(h) + r
    t = np.divide(abs_c, s, out=np.zeros_like(s), where=s > 0.0) * abs_c
    return h, t, r


def _masked_function(a, d, c, fn):
    """``_small_matrix_function`` with its former masked divides."""
    h, t, r = _masked_parts(a, d, c)
    at_a = np.copysign(t, h)
    at_d = d - at_a
    at_a = at_a + a
    two_r = r + r
    nonzero = two_r > 0.0
    tau = np.divide(t, two_r, out=np.zeros_like(two_r), where=nonzero)
    two_r = np.copysign(two_r, h)
    unit = np.zeros_like(c)
    np.divide(c.real, two_r, out=unit.real, where=nonzero)
    np.divide(c.imag, two_r, out=unit.imag, where=nonzero)
    f_a, f_d = fn(at_a), fn(at_d)
    diff = f_a - f_d
    share = diff * tau
    return f_a - share, f_d + share, diff * unit


def test_plain_divides_equal_the_masked_ones():
    """Dividing by the denominator with its exact zeros replaced by 1
    gives the values the masked divide did (zeros of either sign count as
    equal): r = 0, a = d, c = +-0 and subnormal r, on grid planes and on
    0-d ones."""
    tiny = 5e-324
    diagonal = [1.0, 2.0, tiny, 3 * tiny, 1e-300, 0.0, -1.5]
    lower = [
        0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
        complex(tiny, 0.0), complex(0.0, -tiny), complex(-tiny, tiny),
        complex(1e-310, 1e-310), complex(0.25, -0.5),
    ]
    a, d, c = (np.array(v) for v in zip(*itertools.product(diagonal, diagonal, lower)))
    shrink = lambda x: 1.0 / expm1_over_x(x)
    points = [tuple(p[i, ...] for p in (a, d, c)) for i in range(0, a.size, 7)]
    for planes in [(a, d, c)] + points:
        for got, want in zip(_hermitian_2x2_parts(*planes), _masked_parts(*planes)):
            assert np.array_equal(got, want)
        for fn in (np.exp, shrink):
            (got,) = _small_matrix_function(planes, fn)
            for got_plane, want in zip(got, _masked_function(*planes, fn)):
                assert np.array_equal(got_plane, want)


def _decimal_function(a: float, d: float, c: complex, f) -> tuple:
    """Entries of f(M) by the spectral formula in 700-digit arithmetic.

    ``(f1 + f2)/2 +- (f1 - f2)/(2r) h`` cancels by up to the spread of f
    (at most 300 digits here), which 700 digits absorb.
    """
    with localcontext() as ctx:
        ctx.prec = 700
        A, D = Decimal(a), Decimal(d)
        cr, ci = Decimal(c.real), Decimal(c.imag)
        h, m = (A - D) / 2, (A + D) / 2
        r = (h * h + cr * cr + ci * ci).sqrt()
        f1, f2 = f(m + r), f(m - r)
        mean = (f1 + f2) / 2
        slope = (f1 - f2) / (2 * r) if r else Decimal(0)
        return (
            float(mean + slope * h),
            float(mean - slope * h),
            complex(float(slope * cr), float(slope * ci)),
        )


@st.composite
def _scaled_diagonally_dominant(draw):
    """Planes (a, d, c) of a 2 x 2 positive definite matrix with diagonal
    entries 10^u, 10^v and |c| = rho sqrt(a d), rho <= 1/2. Both
    eigenvalues are then within a factor 2 of a diagonal entry, so they
    are determined to high relative accuracy by the entries."""
    family = draw(st.sampled_from(sorted(_FAMILIES)))
    span = _FAMILIES[family][2]
    u = draw(st.floats(min_value=-span, max_value=span))
    v = draw(st.floats(min_value=-span, max_value=span))
    rho = draw(st.one_of(st.just(0.0), st.floats(min_value=1e-30, max_value=0.5)))
    phase = draw(st.floats(min_value=0.0, max_value=2.0 * math.pi))
    c = rho * 10.0 ** (0.5 * (u + v)) * complex(math.cos(phase), math.sin(phase))
    return family, 10.0**u, 10.0**v, c


@settings(max_examples=300, deadline=None)
@given(_scaled_diagonally_dominant())
def test_matrix_function_entries_are_accurate_relative_to_themselves(case):
    """Each diagonal entry of f(M) to 1e-13 relative to itself, even when
    f1 and f2 differ by up to 1e300; the off-diagonal entry to 1e-13 of
    sqrt(f00 f11), which bounds it for positive f."""
    family, a, d, c = case
    fn, exact_fn, _ = _FAMILIES[family]
    planes = (np.array([a]), np.array([d]), np.array([c]))
    ((got_a, got_d, got_c),) = _small_matrix_function(planes, fn)
    ref_a, ref_d, ref_c = _decimal_function(a, d, c, exact_fn)
    assert abs(got_a[0] - ref_a) <= 1e-13 * ref_a
    assert abs(got_d[0] - ref_d) <= 1e-13 * ref_d
    assert abs(got_c[0] - ref_c) <= 1e-13 * math.sqrt(ref_a * ref_d)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(sorted(_FAMILIES)),
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=-1.0, max_value=1.0),
)
def test_matrix_function_of_diagonal_input_is_exact(family, u, v):
    """Diagonal input gives exactly diag(f(a), f(d)), with spreads of f
    up to 1e300."""
    fn, _, span = _FAMILIES[family]
    a, d = np.array([10.0 ** (u * span)]), np.array([10.0 ** (v * span)])
    ((got_a, got_d, got_c),) = _small_matrix_function((a, d, np.zeros(1, complex)), fn)
    assert np.array_equal(got_a, fn(a)) and np.array_equal(got_d, fn(d))
    assert not np.any(got_c)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=700.0),
    st.floats(min_value=0.0, max_value=700.0),
    st.floats(min_value=0.1, max_value=10.0),
)
def test_shrink_of_diagonal_input_is_exact(x, y, rate):
    """The uniformizer's shrink 1/psi(t x) spans 1 down to 1e-301 at t x = 700."""
    fn = lambda v: 1.0 / expm1_over_x(rate * v)
    a, d = np.array([x / rate]), np.array([y / rate])
    ((got_a, got_d, got_c),) = _small_matrix_function((a, d, np.zeros(1, complex)), fn)
    assert np.array_equal(got_a, fn(a)) and np.array_equal(got_d, fn(d))
    assert not np.any(got_c)


@pytest.mark.parametrize("c", [0.0, 1e-9, 1e-3])
def test_shrink_keeps_the_small_eigen_part(c):
    """diag(100, 1) plus a coupling c at the uniformizer's rate log 3: the
    top eigenvalue's shrink is about 109.86 exp(-109.86) = 2.13e-46."""
    rate = math.log(3.0)
    planes = (np.array([100.0]), np.array([1.0]), np.array([complex(c, 0.0)]))
    ((a, d, off),) = _small_matrix_function(
        planes, lambda x: 1.0 / expm1_over_x(rate * x)
    )
    exact = lambda x: Decimal(rate) * x / ((Decimal(rate) * x).exp() - 1)
    ref_a, ref_d, ref_c = _decimal_function(100.0, 1.0, complex(c, 0.0), exact)
    assert abs(a[0] - ref_a) <= 1e-13 * ref_a
    assert abs(d[0] - ref_d) <= 1e-13 * ref_d
    assert abs(off[0] - ref_c) <= 1e-13 * math.sqrt(ref_a * ref_d)
    if c == 0.0:
        assert 2.1e-46 < a[0] < 2.2e-46


# ------------------------------------------- plane-built vs values-built


def _varying_metric_values(g: TorusGeometry) -> np.ndarray:
    """An exactly Hermitian, positive definite, varying metric array."""
    n = g.complex_dim
    x = g.coordinate_arrays()
    vals = np.zeros((*g.grid_shape, n, n), dtype=complex)
    vals[..., 0, 0] = 1.5 + 0.4 * np.sin(x[0])
    if n == 2:
        vals[..., 1, 1] = 0.8 + 0.3 * np.cos(x[3])
        vals[..., 1, 0] = 0.2 * np.cos(x[1]) + 0.1j * np.sin(x[2])
        vals[..., 0, 1] = np.conj(vals[..., 1, 0])
    return vals


def _close(a, b, rel=1e-13):
    a, b = np.asarray(a), np.asarray(b)
    return np.max(np.abs(a - b), initial=0.0) <= rel * max(np.max(np.abs(b)), 1e-300)


@pytest.mark.parametrize(
    "n,samples,r_const,q",
    [
        (1, 16, [[2.0]], 0),
        (2, 6, [[2.0, 0.3 - 0.2j], [0.3 + 0.2j, -0.5]], 1),
    ],
)
def test_plane_fields_match_values_fields(n, samples, r_const, q):
    g = TorusGeometry.regular(n, samples)
    L = LineBundleMetric.from_expression(
        g, np.asarray(r_const), "0.05*cos(x1)" + (" + 0.04*sin(y2)" if n == 2 else "")
    )
    R = chern_curvature(L)
    R_values = HermitianMatrixField(g, R.values.copy())
    vals = _varying_metric_values(g)
    omega = MetricField._computed(g, _split(vals))
    omega_values = MetricField(g, vals)
    assert "values" not in vars(omega)
    assert omega.min_eigenvalue == pytest.approx(omega_values.min_eigenvalue, rel=1e-13)

    ev = generalized_eigenvalues(R, omega).values
    assert _close(ev, generalized_eigenvalues(R_values, omega_values).values)
    # LAPACK on the assembled arrays, an independent route
    d, Q = np.linalg.eigh(vals)
    inv_root = np.einsum("...ij,...j,...kj->...ik", Q, 1.0 / np.sqrt(d), Q.conj())
    lapack = np.linalg.eigvalsh(inv_root @ R.values @ inv_root)[..., ::-1]
    assert _close(ev, lapack, rel=1e-12)

    assert check_q_positive(L, omega, q).verdict
    for check in (check_q_positive, check_uniform_q_positive):
        got, ref = check(L, omega, q), check(L, omega_values, q)
        assert got.verdict is ref.verdict
        assert got.margin == pytest.approx(ref.margin, rel=1e-13)
        assert got.tolerance == pytest.approx(ref.tolerance, rel=1e-13)
    new, new_ref = uniformize_metric(L, omega, q), uniformize_metric(L, omega_values, q)
    assert _close(new.values, new_ref.values)
    assert _close(
        scalar_curvature(L, omega).values, scalar_curvature(L, omega_values).values
    )
    assert volume_integral(omega) == pytest.approx(volume_integral(omega_values), rel=1e-13)


def _rejection_message(factory) -> str:
    with pytest.raises(ValueError) as info:
        factory()
    return str(info.value)


@pytest.mark.parametrize(
    "n,plane,value,cls,match",
    [
        (1, 0, np.nan, HermitianMatrixField, "non-finite"),
        (2, 0, np.inf, HermitianMatrixField, "non-finite"),
        (2, 2, complex(0.0, np.nan), MetricField, "non-finite"),
        (1, 0, -0.5, MetricField, "positive definite"),
        (2, 2, 2.0j, MetricField, "positive definite"),
        (2, 1, 0.0, MetricField, "positive definite"),
    ],
)
def test_plane_rejections_match_values_route(n, plane, value, cls, match):
    g = TorusGeometry.regular(n, 4)
    planes = [p.copy() for p in _split(np.broadcast_to(np.eye(n, dtype=complex),
                                                       (*g.grid_shape, n, n)))]
    planes[plane][(1,) * (2 * n)] = value
    message = _rejection_message(lambda: cls._computed(g, tuple(planes)))
    assert match in message
    assert message == _rejection_message(lambda: cls(g, _join(tuple(planes))))


def test_uniformize_pipeline_never_assembles_values(monkeypatch):
    """A counter, no timing: the n = 2 uniformize-and-check pipeline on a
    weighted bundle runs on planes; values is assembled on first read only."""
    import toruspos.lattice as lattice_module

    joins = []
    original = lattice_module._join

    def counting(planes):
        joins.append(len(planes))
        return original(planes)

    monkeypatch.setattr(lattice_module, "_join", counting)
    g = TorusGeometry.regular(2, 8)
    r_const = np.array([[1.5, 0.2j], [-0.2j, -0.4]])
    L = LineBundleMetric.from_expression(g, r_const, "0.01*cos(x1)*sin(y2)")
    base = constant_metric(g, np.array([[1.2, 0.1], [0.1, 0.9]]))
    assert check_q_positive(L, base, 1).verdict
    new = uniformize_metric(L, base, 1)
    assert check_uniform_q_positive(L, new, 1).verdict
    generalized_eigenvalues(chern_curvature(L), new)
    assert joins == []
    values = new.values
    assert joins == [3] and new.values is values
    with pytest.raises(ValueError):
        values[0, 0, 0, 0, 0, 0] = 1.0
