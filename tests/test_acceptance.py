"""Acceptance gate: seven end-to-end checks, one printed verdict line each.

Every test accumulates a pass flag over randomized instances, prints a
single "acceptance N <label>: PASS|FAIL" line, and then asserts the flag.
Running pytest with output passthrough therefore shows exactly one line
per criterion.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np

from conftest import (
    bundle_with_pencil_eigs,
    hermitian_with_eigs,
    random_hermitian,
    random_pd_metric,
)
from oracles import uniformized_metric_series, wedge_degree_check
from toruspos import (
    LineBundleMetric,
    MetricField,
    ScalarField,
    TorusGeometry,
    certify_n_minus_1_positive,
    check_q_positive,
    check_uniform_q_positive,
    chern_curvature,
    cli,
    constant_representative,
    degree_integral,
    generalized_eigenvalues,
    growth_rate,
    identity_metric,
    is_pseudo_effective,
    normalize_scalar_curvature,
    scalar_curvature,
    target_constant,
    uniformize_metric,
)
from toruspos.expressions import random_expression, scalar_field_from_expression

TWO_PI = 2.0 * math.pi


def _verdict_line(index: int, label: str, ok: bool) -> None:
    print(f"acceptance {index} {label}: {'PASS' if ok else 'FAIL'}")


def _geometry(n: int, per_axis: int) -> TorusGeometry:
    return TorusGeometry(n, (per_axis,) * (2 * n), (TWO_PI,) * (2 * n))


def _draw_q_positive(rng, geom, q, base) -> LineBundleMetric:
    """Random instance with a comfortable pointwise q-positivity margin.

    The weight amplitude is kept well below the smallest constant-part
    eigenvalue so the Hessian cannot overturn the signature; the explicit
    check guards against unlucky draws anyway.
    """
    n = geom.complex_dim
    for _ in range(20):
        if n > 1 and q == n - 1:
            eigs = np.concatenate([
                rng.uniform(1.0, 2.0, size=1),
                -rng.uniform(0.1, 1.0, size=n - 1),
            ])
        else:
            eigs = rng.uniform(0.5, 2.0, size=n)
        r_const = hermitian_with_eigs(rng, eigs)
        amplitude = 0.005 * float(np.min(np.abs(eigs)))
        text = random_expression(rng, n, amplitude=amplitude)
        bundle = LineBundleMetric.from_expression(geom, r_const, text)
        if check_q_positive(bundle, base, q).verdict:
            return bundle
    raise AssertionError("could not draw a q-positive instance")


def test_uniformization_yields_uniform_q_positivity():
    rng = np.random.default_rng(20260814)
    total = 0
    bad = 0
    plans = (
        (_geometry(1, 256), (0,), 250),
        (_geometry(2, 16), (0, 1), 250),
    )
    for geom, q_choices, runs in plans:
        n = geom.complex_dim
        for k in range(runs):
            q = q_choices[k % len(q_choices)]
            base = (
                identity_metric(geom)
                if k % 2 == 0
                else random_pd_metric(rng, geom)
            )
            bundle = _draw_q_positive(rng, geom, q, base)
            R = chern_curvature(bundle)
            ev = generalized_eigenvalues(R, base)
            rate = growth_rate(ev, q)
            new_base = uniformize_metric(bundle, base, q)
            uniform = check_uniform_q_positive(bundle, new_base, q)
            new_ev = generalized_eigenvalues(R, new_base)

            predicted = np.expm1(rate * ev.values) / rate
            map_ok = float(np.max(np.abs(new_ev.values - predicted))) <= (
                1e-8 * float(np.max(np.abs(predicted)))
            )
            local_floor = ev.at_rank(n - q)
            bound = (np.exp(rate * local_floor) - (q + 1)) / rate
            margin_ok = bool(
                np.all(new_ev.smallest_sum(q + 1) >= bound - 1e-7)
            )
            total += 1
            if not (uniform.verdict and map_ok and margin_ok):
                bad += 1
    ok = bad == 0 and total >= 500
    _verdict_line(1, "uniform q-positivity on 500 random instances", ok)
    assert ok, f"{bad} of {total} instances broke the uniformization contract"


def test_scalar_normalization_reaches_class_constant():
    rng = np.random.default_rng(314159)
    checks = []

    geom = _geometry(1, 64)
    bundle = LineBundleMetric.from_expression(
        geom, np.array([[1.0]]), "cos(x1)"
    )
    omega = identity_metric(geom)
    f, cert = normalize_scalar_curvature(bundle, omega)
    xs = geom.coordinate_arrays()[0]
    checks.append(float(np.max(np.abs(f.values - np.cos(xs)))) <= 1e-8)
    checks.append(abs(cert.margin - 1.0) <= 1e-9)

    plans = ((_geometry(1, 64), 12), (_geometry(2, 16), 12))
    for geom, runs in plans:
        n = geom.complex_dim
        for k in range(runs):
            r_const = random_hermitian(rng, n, scale=2.0)
            text = random_expression(rng, n, amplitude=0.4)
            bundle = LineBundleMetric.from_expression(geom, r_const, text)
            omega = (
                identity_metric(geom)
                if k % 2 == 0
                else random_pd_metric(rng, geom)
            )
            f, cert = normalize_scalar_curvature(bundle, omega)
            c = cert.margin

            new_weight = ScalarField(geom, bundle.phi.values - f.values)
            flattened = scalar_curvature(bundle.with_weight(new_weight), omega)
            deviation = float(np.max(np.abs(flattened.values - c)))
            checks.append(deviation <= 1e-7 * (1.0 + abs(c)))

            algebraic = float(np.trace(
                np.linalg.inv(constant_representative(omega)) @ bundle.r_const
            ).real)
            checks.append(abs(c - algebraic) <= 1e-9 * (1.0 + abs(c)))
            checks.append(
                abs(c - target_constant(bundle, omega)) <= 1e-9 * (1.0 + abs(c))
            )
            checks.append(cert.residuals["poisson_rel"] <= 1e-8)
    ok = all(checks)
    _verdict_line(2, "scalar curvature normalization", ok)
    assert ok, f"{checks.count(False)} of {len(checks)} normalization checks failed"


def test_equivalence_corpus_has_full_agreement(tmp_path):
    out = tmp_path / "corpus"
    start = time.perf_counter()
    rc = cli.main([
        "equivalence-suite", "--corpus", "1000", "--seed", "42",
        "--out-dir", str(out),
    ])
    elapsed = time.perf_counter() - start
    report = json.loads((out / "report.json").read_text())
    ok = (
        rc == 0
        and report["result"]["count"] == 1000
        and report["result"]["fails"] == 0
        and report["config"]["geometry"]["grid"] == [8, 8, 8, 8]
        and elapsed < 300.0
    )
    _verdict_line(3, "equivalence corpus full agreement", ok)
    assert ok, (
        f"rc={rc} fails={report['result'].get('fails')} elapsed={elapsed:.1f}s"
    )


def test_conformal_scaling_of_scalar_curvature():
    rng = np.random.default_rng(2718)
    checks = []
    for geom in (_geometry(1, 32), _geometry(2, 8)):
        n = geom.complex_dim
        for _ in range(6):
            r_const = random_hermitian(rng, n, scale=1.5)
            bundle = LineBundleMetric.from_expression(
                geom, r_const, random_expression(rng, n, amplitude=0.5)
            )
            omega = random_pd_metric(rng, geom)
            u = scalar_field_from_expression(
                geom, random_expression(rng, n, amplitude=0.7)
            )
            scaled = MetricField(
                geom, omega.values * np.exp(u.values)[..., None, None]
            )
            lhs = scalar_curvature(bundle, scaled).values
            rhs = np.exp(-u.values) * scalar_curvature(bundle, omega).values
            scale = max(1.0, float(np.max(np.abs(rhs))))
            checks.append(float(np.max(np.abs(lhs - rhs))) <= 1e-10 * scale)
    ok = all(checks)
    _verdict_line(4, "conformal trace scaling", ok)
    assert ok


def test_degree_routes_agree_and_weights_do_not_matter():
    rng = np.random.default_rng(9099)
    checks = []
    for geom in (_geometry(1, 32), _geometry(2, 8)):
        n = geom.complex_dim
        for _ in range(8):
            r_const = random_hermitian(rng, n, scale=1.5)
            text_a = random_expression(rng, n, amplitude=0.5)
            text_b = random_expression(rng, n, amplitude=0.5)
            bundle = LineBundleMetric.from_expression(geom, r_const, text_a)
            omega = random_pd_metric(rng, geom)
            deg = degree_integral(bundle, omega)
            scale = max(1.0, abs(deg))

            wedge = wedge_degree_check(bundle, omega)
            checks.append(abs(deg - wedge) <= 1e-9 * scale)

            other = LineBundleMetric.from_expression(geom, r_const, text_b)
            checks.append(abs(deg - degree_integral(other, omega)) <= 1e-9 * scale)

            exact = LineBundleMetric.from_expression(
                geom, np.zeros((n, n)), text_a
            )
            checks.append(abs(degree_integral(exact, omega)) <= 1e-9)
    ok = all(checks)
    _verdict_line(5, "degree route consistency", ok)
    assert ok


def test_oracle_and_certificate_agree():
    from toruspos.suite import random_hermitian_class

    rng = np.random.default_rng(6060)
    disagreements = 0
    total = 0
    for geom in (_geometry(1, 32), _geometry(2, 8)):
        n = geom.complex_dim
        matrices = [random_hermitian_class(rng, n)[0] for _ in range(146)]
        matrices += [
            np.zeros((n, n)),
            -np.eye(n),
            np.eye(n),
            np.diag([1.0] + [0.0] * (n - 1)),
        ]
        for matrix in matrices:
            bundle = LineBundleMetric.from_expression(geom, matrix, "0")
            cert = certify_n_minus_1_positive(bundle)
            dual_psef = is_pseudo_effective(bundle.dual())
            total += 1
            if cert.verdict == dual_psef:
                disagreements += 1

    series_checks = []
    for geom in (_geometry(1, 16), _geometry(2, 8)):
        n = geom.complex_dim
        for k in range(25):
            omega = (
                identity_metric(geom)
                if k % 2 == 0
                else random_pd_metric(rng, geom)
            )
            eigs = rng.uniform(0.5, 2.0, size=n)
            bundle = bundle_with_pencil_eigs(
                rng, geom, omega, eigs,
                phi_text=random_expression(rng, n, amplitude=0.01),
            )
            direct = uniformize_metric(bundle, omega, n - 1)
            series = uniformized_metric_series(bundle, omega, n - 1)
            scale = float(np.max(np.abs(direct.values)))
            gap = float(np.max(np.abs(direct.values - series.values)))
            series_checks.append(gap <= 1e-10 * scale)

    ok = disagreements == 0 and total >= 300 and all(series_checks)
    _verdict_line(6, "pseudo-effectivity oracle agreement", ok)
    assert ok, (
        f"disagreements={disagreements}/{total}, "
        f"series failures={series_checks.count(False)}"
    )


def test_reports_are_deterministic_modulo_timestamp(tmp_path):
    out = tmp_path / "repeat"
    args = [
        "equivalence-suite", "--corpus", "60", "--seed", "9",
        "--out-dir", str(out),
    ]
    rc_first = cli.main(args)
    first_report = (out / "report.json").read_text()
    first_csv = (out / "corpus.csv").read_bytes()
    rc_second = cli.main(args)
    second_report = (out / "report.json").read_text()
    second_csv = (out / "corpus.csv").read_bytes()

    def strip_timestamp(text: str) -> str:
        return "\n".join(
            line for line in text.splitlines() if '"timestamp"' not in line
        )

    in_process = (
        rc_first == 0
        and rc_second == 0
        and first_csv == second_csv
        and strip_timestamp(first_report) == strip_timestamp(second_report)
    )

    proc_out = tmp_path / "proc"
    proc = subprocess.run(
        [
            sys.executable, "-m", "toruspos.cli", "equivalence-suite",
            "--corpus", "60", "--seed", "9", "--out-dir", str(proc_out),
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    across_processes = (
        proc.returncode == 0
        and (proc_out / "corpus.csv").read_bytes() == first_csv
    )

    ok = in_process and across_processes
    _verdict_line(7, "deterministic reports", ok)
    assert ok, f"in_process={in_process} across_processes={across_processes}"
