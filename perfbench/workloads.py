"""Workload definitions: seeded inputs, one op per workload, and its checks.

Every input is drawn from ``numpy.random.default_rng((seed, op_index))``,
so op ``i`` sees the same input whatever ran before it, in any process.
The cost-relevant class of each op (q, base metric, weight, curvature
class) is fixed by the op index through a short schedule, never by a
draw; only the values inside a class are random. Inputs are plain
numbers and expression text generated here, so a change to the package
cannot change what the benchmark feeds it.

An op returns ``(ok, verdicts)``: ``ok`` is the correctness gate, with no
tolerance looser than the acceptance tests use, and ``verdicts`` is the
tuple of boolean decisions that feeds the verdict digest.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

import toruspos
import toruspos.cli
from spec import CORPUS_SIZE, WORKLOADS, Workload

TWO_PI = 2.0 * math.pi


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng((seed, index))


def _haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _hermitian_with_eigs(rng: np.random.Generator, eigs) -> np.ndarray:
    eigs = np.asarray(eigs, dtype=np.float64)
    u = _haar_unitary(rng, eigs.size)
    mat = (u * eigs) @ u.conj().T
    return 0.5 * (mat + mat.conj().T)


def _weight_text(rng: np.random.Generator, n: int, amplitude: float) -> str:
    """One to three sin/cos terms of frequency 1 or 2; never the zero weight."""
    parts = []
    for _ in range(int(rng.integers(1, 4))):
        coeff = round(float(rng.uniform(0.2, 1.0)) * amplitude, 4)
        fn = "sin" if rng.random() < 0.5 else "cos"
        freq = int(rng.integers(1, 3))
        coord = f"{'x' if rng.random() < 0.5 else 'y'}{int(rng.integers(1, n + 1))}"
        parts.append(f"{coeff}*{fn}({coord if freq == 1 else f'{freq}*{coord}'})")
    return " + ".join(parts)


def geometry(w: Workload) -> toruspos.TorusGeometry:
    axes = 2 * w.complex_dim
    return toruspos.TorusGeometry(w.complex_dim, (w.samples,) * axes, (TWO_PI,) * axes)


def _base_metric(geom, matrix):
    if matrix is None:
        return toruspos.identity_metric(geom)
    return toruspos.constant_metric(geom, matrix)


# -- uniformize_n2_16 -------------------------------------------------------
# Schedule (period 4): q = i % 2, base = identity if (i // 2) % 2 == 0
# else a random constant PD metric. The weight is never zero.


def uniformize_input(seed: int, index: int, n: int):
    rng = _rng(seed, index)
    q = index % 2
    if q == n - 1 and n > 1:
        eigs = np.concatenate([rng.uniform(1.0, 2.0, 1), -rng.uniform(0.1, 1.0, n - 1)])
    else:
        eigs = rng.uniform(0.5, 2.0, n)
    r_const = _hermitian_with_eigs(rng, eigs)
    base = None if (index // 2) % 2 == 0 else _hermitian_with_eigs(rng, rng.uniform(0.5, 2.0, n))
    # Small amplitude keeps the Hessian from overturning the signature, so
    # every instance is pointwise q-positive and the pipeline cannot refuse it.
    text = _weight_text(rng, n, 0.005 * float(np.min(np.abs(eigs))))
    return q, base, r_const, text


def uniformize_op(geom, inp, out_dir):
    q, base_matrix, r_const, text = inp
    n = geom.complex_dim
    base = _base_metric(geom, base_matrix)
    bundle = toruspos.LineBundleMetric.from_expression(geom, r_const, text)
    pointwise = toruspos.check_q_positive(bundle, base, q)
    R = toruspos.chern_curvature(bundle)
    ev = toruspos.generalized_eigenvalues(R, base)
    rate = toruspos.growth_rate(ev, q)
    new_base = toruspos.uniformize_metric(bundle, base, q)
    uniform = toruspos.check_uniform_q_positive(bundle, new_base, q)
    new_ev = toruspos.generalized_eigenvalues(R, new_base)

    predicted = np.expm1(rate * ev.values) / rate
    map_ok = float(np.max(np.abs(new_ev.values - predicted))) <= 1e-8 * float(
        np.max(np.abs(predicted))
    )
    local_floor = ev.at_rank(n - q)
    bound = (np.exp(rate * local_floor) - (q + 1)) / rate
    margin_ok = bool(np.all(new_ev.smallest_sum(q + 1) >= bound - 1e-7))
    ok = pointwise.verdict and uniform.verdict and map_ok and margin_ok
    return ok, (pointwise.verdict, uniform.verdict)


# -- corpus_n2_8 ------------------------------------------------------------
# One op is one in-process CLI corpus run of CORPUS_SIZE instances. The
# class mix is drawn by the package's corpus generator; at 20 instances
# per op and dozens of ops per run it averages out.


def corpus_input(seed: int, index: int, n: int):
    return int(np.random.SeedSequence((seed, index)).generate_state(1)[0] % 2**31)


def corpus_op(geom, inp, out_dir):
    argv = [
        "equivalence-suite", "--corpus", str(CORPUS_SIZE), "--seed", str(inp),
        "--out-dir", str(out_dir),
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        rc = toruspos.cli.main(argv)
    result = json.loads((out_dir / "report.json").read_text())["result"]
    ok = rc == 0 and result["fails"] == 0 and result["count"] == CORPUS_SIZE
    rows = (out_dir / "corpus.csv").read_text().splitlines()[1:]
    header = toruspos.suite.CORPUS_CSV_HEADER.split(",")
    # The phi column is quoted text with no commas, so a plain split holds.
    column = header.index("dual_not_psef_oracle")
    verdicts = tuple(row.split(",")[column] == "1" for row in rows)
    return ok and len(verdicts) == CORPUS_SIZE, verdicts


# -- normalize_n3_8 ---------------------------------------------------------
# Schedule (period 4), with the shares it fixes:
#   i % 4 == 0: indefinite class, random weight, identity base
#   i % 4 == 1: negative definite class, random weight, random base
#   i % 4 == 2: indefinite class, zero weight, random base
#   i % 4 == 3: positive definite class, zero weight, identity base
# A zero weight skips the weight's Hessian, and a negative definite class
# makes certify return before any solve. Sorted by cost the slots read
# (1, 2 or 3, 2 or 3, 0), so the median op lies inside the zero-weight
# class instead of in the gap between two classes.

_NORMALIZE_SCHEDULE = (
    ("indefinite", True, False),
    ("negative", True, True),
    ("indefinite", False, True),
    ("positive", False, False),
)


def normalize_input(seed: int, index: int, n: int):
    rng = _rng(seed, index)
    kind, weighted, random_base = _NORMALIZE_SCHEDULE[index % 4]
    mags = rng.uniform(0.5, 2.0, n)
    if kind == "positive":
        signs = np.ones(n)
    elif kind == "negative":
        signs = -np.ones(n)
    else:  # 1, then 2, ..., then n - 1 positive directions, period by period
        signs = np.where(np.arange(n) < 1 + (index // 4) % (n - 1), 1.0, -1.0)
    r_const = _hermitian_with_eigs(rng, signs * mags)
    base = _hermitian_with_eigs(rng, rng.uniform(0.5, 2.0, n)) if random_base else None
    text = _weight_text(rng, n, 0.4) if weighted else "0"
    return base, r_const, text


def normalize_op(geom, inp, out_dir):
    base_matrix, r_const, text = inp
    n = geom.complex_dim
    base = _base_metric(geom, base_matrix)
    bundle = toruspos.LineBundleMetric.from_expression(geom, r_const, text)
    f, cert = toruspos.normalize_scalar_curvature(bundle, base)
    c = cert.margin
    moved = bundle.with_weight(toruspos.ScalarField(geom, bundle.phi.values - f.values))
    flattened = toruspos.scalar_curvature(moved, base)
    deviation_ok = float(np.max(np.abs(flattened.values - c))) <= 1e-7 * (1.0 + abs(c))
    inverse = np.linalg.inv(np.eye(n) if base_matrix is None else base_matrix)
    algebraic = float(np.trace(inverse @ r_const).real)
    constant_ok = abs(c - algebraic) <= 1e-9 * (1.0 + abs(c))
    poisson_ok = cert.residuals["poisson_rel"] <= 1e-8

    certified = toruspos.certify_n_minus_1_positive(bundle)
    expected = not toruspos.is_pseudo_effective(bundle.dual())
    ok = deviation_ok and constant_ok and poisson_ok and certified.verdict == expected
    return ok, (cert.verdict, certified.verdict)


OPS = {
    "uniformize_n2_16": (uniformize_input, uniformize_op),
    "corpus_n2_8": (corpus_input, corpus_op),
    "normalize_n3_8": (normalize_input, normalize_op),
}


def make_input(w: Workload, seed: int, index: int):
    return OPS[w.name][0](seed, index, w.complex_dim)


def run_op(w: Workload, geom, inp, out_dir: Path):
    return OPS[w.name][1](geom, inp, out_dir)
