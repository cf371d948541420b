"""The mode route: spectral operators on a weight's exact Fourier modes.

A weight evaluated from an expression carries its exact Fourier modes,
and the spectral operators read them instead of transforming the grid.
The grid route stays the reference: every result on the modes must equal
the one for the same values loaded as a grid field, which has no table.
"""

import json
import math

import numpy as np
import pytest
from conftest import hermitian_with_eigs, random_hermitian, random_pd_matrix
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import toruspos.curvature as curvature_module
from toruspos import (
    LineBundleMetric,
    ScalarField,
    TorusGeometry,
    check_q_positive,
    check_uniform_q_positive,
    cli,
    complex_hessian,
    constant_metric,
    equivalence_suite,
    generalized_eigenvalues,
    poisson_solve,
    scalar_curvature,
    scalar_field_from_expression,
    uniformize_metric,
)
from toruspos.lattice import (
    _difference,
    _Modes,
    _synthesize,
    _waves,
    scalar_field_to_csv,
)
from toruspos.normalizer import normalize_scalar_curvature

RTOL = 1e-12

# ------------------------------------------------------------ the property


@st.composite
def _instances(draw):
    """A geometry and a resolved expression on it: 1-4 terms of 1-3
    factors, with repeated coordinates, frequency 0 and constant terms.
    Coefficients are dyadic, so a sum of terms that cancels cancels
    exactly. Periods are 2 pi or pi per axis; on a pi axis a term's
    frequencies there sum to an even number (``sin(x1)*cos(x1)``).
    Frequencies are drawn within what the grid resolves: a term's doubled
    modes on an axis of N points sum to at most N - 2."""
    n = draw(st.sampled_from([1, 2, 3]))
    axes = 2 * n
    grid = [draw(st.sampled_from([4, 6, 8, 10, 12, 14, 16])) for _ in range(axes)]
    while math.prod(grid) > 1 << 15:  # keeps an n = 3 grid small
        grid[grid.index(max(grid))] = 4
    periods = [draw(st.sampled_from([2.0 * math.pi, math.pi])) for _ in range(axes)]
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        coefficient = draw(st.integers(1, 16)) / 8.0
        factors = [f"{coefficient!r}"]
        doubled = [0] * axes
        for _ in range(draw(st.integers(1, 3))):
            if draw(st.integers(0, 5)) == 0:
                factors.append(f"{draw(st.integers(1, 8)) / 4.0!r}")
                continue
            axis = draw(st.integers(0, axes - 1))
            per = 2 if periods[axis] == 2.0 * math.pi else 1
            freq = draw(st.integers(0, min(3, (grid[axis] - 2 - doubled[axis]) // per)))
            fn = draw(st.sampled_from(["sin", "cos"]))
            factors.append(f"{fn}({freq}*{'xy'[axis % 2]}{axis // 2 + 1})")
            doubled[axis] += per * freq
        for axis, total in enumerate(doubled):
            if total % 2:  # on a pi axis, and at most N - 3
                factors.append(f"cos({'xy'[axis % 2]}{axis // 2 + 1})")
        sign = draw(st.sampled_from(["+", "-"]))
        terms.append(f"{sign} {'*'.join(factors)}")
    text = " ".join(terms).removeprefix("+ ")  # the grammar has no unary plus
    return TorusGeometry(n, tuple(grid), tuple(periods)), text


def _assert_agree(got, want, scale):
    assert float(np.max(np.abs(np.asarray(got) - np.asarray(want)))) <= RTOL * scale


#: Always-run instances whose modes span an x and a y axis of two complex
#: coordinates, where a Hessian off-diagonal multiplier is not real: the
#: lower plane (n = 2) and the mirrored entries (n = 3) take its conjugate.
_CROSS_TERMS = [
    (TorusGeometry.regular(2, 8), "0.5*sin(x1)*cos(y2) - 0.25*cos(2*y1)"),
    (TorusGeometry.regular(3, 4), "0.5*sin(x1)*cos(y3) + 0.25*cos(y1)*sin(x2)"),
]


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(instance=_instances(), seed=st.integers(0, 2**32 - 1))
@example(instance=_CROSS_TERMS[0], seed=5)
@example(instance=_CROSS_TERMS[1], seed=6)
def test_mode_route_agrees_with_grid_route(instance, seed):
    geom, text = instance
    n = geom.complex_dim
    rng = np.random.default_rng(seed)
    L = LineBundleMetric.from_expression(geom, random_hermitian(rng, n, 2.0), text)
    phi = L.phi
    assume(phi.value is None)
    table = phi._modes
    # A weight of more than _Modes.MAX_PAIRS pairs has no table and takes
    # the grid route (test_a_weight_past_the_pair_limit_takes_the_grid_route).
    assume(table is not None)
    grid_L = L.with_weight(ScalarField(geom, phi.values.copy()))
    assert grid_L.phi._modes is None
    scale = phi.max_abs()
    # The table is the weight.
    waves = _waves(geom, table, table.coefficients)
    _assert_agree(_synthesize(geom, table.constant, waves), phi.values, scale)
    omega = constant_metric(geom, random_pd_matrix(rng, n))

    hessian = complex_hessian(phi).values
    s = scalar_curvature(L, omega).values
    g = _difference(phi, ScalarField.constant(geom, phi.mean()))
    assert g._modes is not None
    f_poisson = poisson_solve(g, omega).values
    f, cert = normalize_scalar_curvature(L, omega)
    assert f.value is not None or f._modes is not None
    grid_g = ScalarField(geom, g.values.copy())
    grid_f, grid_cert = normalize_scalar_curvature(grid_L, omega)

    _assert_agree(hessian, complex_hessian(grid_L.phi).values, scale)
    _assert_agree(s, scalar_curvature(grid_L, omega).values, scale)
    _assert_agree(f_poisson, poisson_solve(grid_g, omega).values, scale)
    _assert_agree(f.values, grid_f.values, scale)
    _assert_agree(cert.margin, grid_cert.margin, scale)
    for name in ("poisson_rel", "scalar_deviation"):
        _assert_agree(cert.residuals[name], grid_cert.residuals[name], scale)


# ------------------------------------------------------------------ tables


def test_expression_tables_expand_products_in_doubled_modes():
    """On a period of pi, sin(x1) carries the half mode 1/2; its product
    with cos(x1) is sin(2 x1)/2, the integer mode 1 with no constant."""
    g = TorusGeometry.regular(1, 8, period=math.pi)
    table = scalar_field_from_expression(g, "sin(x1)*cos(x1)")._modes
    assert table.constant == 0.0
    assert table.wavevectors.tolist() == [[1, 0]]
    assert table.coefficients.tolist() == [-0.25j]
    g = TorusGeometry.regular(2, 8)
    table = scalar_field_from_expression(g, "2 - 0.5*cos(y2) + sin(0*x1)")._modes
    assert table.constant == 2.0
    assert table.wavevectors.tolist() == [[0, 0, 0, 1]]
    assert table.coefficients.tolist() == [-0.25]
    assert not table.coefficients.flags.writeable


def test_a_period_off_a_multiple_of_pi_has_no_table():
    """A frequency whose doubled mode is not an exact integer gives no
    table (the grid route), even where the resolution check passes."""
    g = TorusGeometry.regular(1, 8, period=2.0 * math.pi * (1.0 + 1e-12))
    field = scalar_field_from_expression(g, "cos(x1)")
    assert field.value is None and field._modes is None


def test_a_product_past_the_pair_limit_has_no_table(monkeypatch):
    """A product term that expands to more than ``_Modes.MAX_PAIRS`` pairs
    gives up on the table (the grid route) instead of growing without
    bound."""
    g = TorusGeometry.regular(2, 8)
    text = "sin(x1)*sin(y1)*sin(x2)"  # 8 modes, 4 pairs
    assert scalar_field_from_expression(g, text)._modes.pairs == 4
    monkeypatch.setattr(_Modes, "MAX_PAIRS", 3)
    assert scalar_field_from_expression(g, text)._modes is None


def test_a_table_stays_with_the_values_it_was_made_from():
    """An evaluated field cannot be written into, so its table holds; a
    caller who changes a copy of its values builds a new field, which has
    no table. A bundle keeps its weight, table and all."""
    g = TorusGeometry.regular(1, 8)
    field = scalar_field_from_expression(g, "0.5*sin(x1)")
    assert field._modes is not None and not field.values.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        field.values[0, 0] = 1.0
    values = np.array(field.values)
    values[0, 0] = 1.0
    copied = LineBundleMetric(g, np.array([[1.0]]), ScalarField(g, values))
    assert copied.phi._modes is None
    kept = LineBundleMetric.from_expression(g, np.array([[1.0]]), "0.5*sin(x1)")
    assert kept.phi._modes is not None
    assert LineBundleMetric(g, kept.r_const, kept.phi).phi is kept.phi


def test_solutions_are_read_only_on_both_routes():
    """poisson_solve and normalize hand back a read-only f whichever route
    solved for it: the same call cannot be writeable on one route and not
    on the other."""
    g = TorusGeometry.regular(2, 8)
    omega = constant_metric(g, np.array([[1.2, 0.1], [0.1, 0.9]]))
    L = LineBundleMetric.from_expression(
        g, np.diag([1.0, 0.5]), "0.3*sin(x1)*cos(y2) - 0.1*cos(x2)"
    )
    grid_L = L.with_weight(ScalarField(g, L.phi.values.copy()))
    assert L.phi._modes is not None and grid_L.phi._modes is None
    for bundle in (L, grid_L):
        for f in (poisson_solve(bundle.phi, omega),
                  normalize_scalar_curvature(bundle, omega)[0]):
            assert f.value is None and not f.values.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                f.values[0, 0, 0, 0] = 1.0


def test_negation_and_difference_keep_the_tables():
    g = TorusGeometry.regular(2, 8)
    L = LineBundleMetric.from_expression(g, np.eye(2), "0.5*sin(x1) + 0.25*cos(y2)")
    other = LineBundleMetric.from_expression(g, np.eye(2), "0.5*sin(x1) - cos(x2)")
    table = L.phi._modes
    dual = L.dual().phi._modes
    assert dual.constant == 0.0
    assert np.array_equal(dual.coefficients, -table.coefficients)
    difference = _difference(L.phi, other.phi)._modes
    assert difference.wavevectors.tolist() == [[0, 0, 0, 1], [0, 0, 1, 0]]
    assert difference.coefficients.tolist() == [0.125, 0.5]
    shifted = _difference(L.phi, ScalarField.constant(g, 1.5))._modes
    assert shifted.constant == -1.5
    assert np.array_equal(shifted.coefficients, table.coefficients)
    # A grid field has no table, so neither has a difference with one.
    grid = ScalarField(g, other.phi.values.copy())
    assert _difference(L.phi, grid)._modes is None


# ---------------------------------------------------------------- counters


@pytest.mark.parametrize("n,samples", [(1, 16), (2, 8), (3, 4)])
def test_complex_hessian_of_an_expression_makes_no_transform(
    transform_calls, n, samples
):
    """A counter, no timing; the grid copy of the weight is the reference."""
    g = TorusGeometry.regular(n, samples)
    text = f"0.3*sin(x1)*cos(y{n}) - 0.2*cos(x{n}) + 0.1*sin(y1)"
    phi = LineBundleMetric.from_expression(g, np.eye(n), text).phi
    H = complex_hessian(phi)
    assert transform_calls == []
    reference = complex_hessian(ScalarField(g, phi.values.copy()))
    assert transform_calls
    _assert_agree(H.values, reference.values, phi.max_abs())


def test_a_weight_past_the_pair_limit_takes_the_grid_route(transform_calls):
    """A weight of ``_Modes.MAX_PAIRS`` pairs takes the mode route; with one
    more pair it has no table, so every operator transforms the grid, and
    the two routes agree."""
    g = TorusGeometry.regular(1, 16)
    waves = [f"0.01*sin({k}*{x})" for k in range(1, 8) for x in ("x1", "y1")]
    limit = _Modes.MAX_PAIRS
    assert len(waves) > limit
    omega = constant_metric(g, np.array([[1.5]]))
    for text, calls in ((" + ".join(waves[:limit]), False),
                        (" + ".join(waves[: limit + 1]), True)):
        L = LineBundleMetric.from_expression(g, np.eye(1), text)
        assert (L.phi._modes is None) == calls
        transform_calls.clear()
        complex_hessian(L.phi)
        assert bool(transform_calls) == calls
        transform_calls.clear()
        scalar_curvature(L, omega)
        normalize_scalar_curvature(L, omega)
        assert bool(transform_calls) == calls
        grid_L = L.with_weight(ScalarField(g, L.phi.values.copy()))
        scale = L.phi.max_abs()
        _assert_agree(complex_hessian(L.phi).values,
                      complex_hessian(grid_L.phi).values, scale)
        _assert_agree(normalize_scalar_curvature(L, omega)[0].values,
                      normalize_scalar_curvature(grid_L, omega)[0].values, scale)


def test_n2_uniformize_and_check_makes_no_transform(transform_calls):
    g = TorusGeometry.regular(2, 8)
    r_const = np.array([[1.5, 0.2j], [-0.2j, -0.4]])
    L = LineBundleMetric.from_expression(g, r_const, "0.01*cos(x1)*sin(y2)")
    base = constant_metric(g, np.array([[1.2, 0.1], [0.1, 0.9]]))
    assert check_q_positive(L, base, 1).verdict
    new = uniformize_metric(L, base, 1)
    assert check_uniform_q_positive(L, new, 1).verdict
    generalized_eigenvalues(curvature_module.chern_curvature(L), new)
    assert transform_calls == []


def test_weighted_suite_instance_makes_no_transform(transform_calls):
    """The witness weight phi - f keeps its table, and routes 1 and 2 read
    only the class, so no route of the suite transforms the grid. The same
    values as a grid field run 2 forward and 7 inverse transforms, all in
    routes 3 and 4: the off-diagonal Hessian entry takes two, one for each
    part of its complex multiplier."""
    g = TorusGeometry.regular(2, 8)
    L = LineBundleMetric.from_expression(
        g, hermitian_with_eigs(np.random.default_rng(9), [2.0, -0.7]),
        "0.05*cos(x1) + 0.02*sin(x2)*cos(y1)",
    )
    report = equivalence_suite(L)
    assert report.passed and report.dual_not_psef_oracle
    assert transform_calls == []
    grid = equivalence_suite(L.with_weight(ScalarField(g, L.phi.values.copy())))
    assert grid.verdicts == report.verdicts
    counts = {name: transform_calls.count(name) for name in set(transform_calls)}
    assert counts == {"_rfftn": 2, "_irfftn": 7}


# -------------------------------------------------------- CSV weights, CLI


def test_csv_weight_keeps_the_grid_route_through_the_cli(tmp_path, transform_calls):
    """A weight read from CSV has no table and runs the transforms; its
    verdicts equal those of the expression it was written from, and its
    margins agree to 1e-12 relative."""
    g = TorusGeometry.regular(2, 8)
    text = "0.05*sin(x1)*cos(y2) - 0.03*cos(2*x2)"
    phi = scalar_field_from_expression(g, text)
    csv = scalar_field_to_csv(phi, tmp_path / "phi.csv")
    r_const = [[[1.0, 0.0], [0.2, 0.1]], [[0.2, -0.1], [-0.5, 0.0]]]

    def run(task, weight, name):
        out = tmp_path / name
        payload = {
            "geometry": {"complex_dim": 2, "grid": 8},
            "instance": {"r_const": r_const, "phi": weight},
            "q": 1,
            "output": {"dir": str(out)},
        }
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps(payload))
        transform_calls.clear()
        assert cli.main([task, "--config", str(config)]) == 0
        result = json.loads((out / "report.json").read_text())["result"]
        return result, list(transform_calls)

    def margins(result):
        if "margin" in result:
            yield result["margin"]
        for value in result.values():
            if isinstance(value, dict):
                yield from margins(value)

    def verdicts(result):
        out = {k: v for k, v in result.items() if isinstance(v, bool)}
        for key, value in result.items():
            if isinstance(value, dict) and "verdict" in value:
                out[key] = value["verdict"]
        return out

    for task in ("check-qpos", "certify", "equivalence-suite"):
        expression, expression_calls = run(task, text, f"{task}-expression")
        grid, grid_calls = run(task, {"csv": str(csv)}, f"{task}-csv")
        assert expression_calls == [] and grid_calls
        assert verdicts(grid) == verdicts(expression)
        pairs = list(zip(margins(grid), margins(expression), strict=True))
        pairs += list(zip(grid.get("margins", {}).values(),
                          expression.get("margins", {}).values(), strict=True))
        assert pairs
        for got, want in pairs:
            assert got == pytest.approx(want, rel=1e-12, abs=1e-300)
