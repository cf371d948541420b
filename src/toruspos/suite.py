"""Pseudo-effectivity decisions and the four-way positivity equivalence.

On a flat torus every curvature class has a constant representative, and
averaging any weight over the torus shows the class is pseudo-effective
exactly when that constant matrix is positive semidefinite. This makes an
exact oracle possible, and the following four statements about a bundle
metric L are all equivalent:

  1. the dual class of L is not pseudo-effective (oracle on -r_const);
  2. some constant positive-definite metric pairs positively with the
     class (the eigen-aligned family, paired in closed form from r_const);
  3. some conformal rescaling of L has constant positive scalar curvature
     against some constant metric (certify_n_minus_1_positive);
  4. the witness pair from 3 has at least one positive curvature
     eigenvalue at every grid point (q = n-1 pointwise positivity).

equivalence_suite evaluates all four on one instance and flags PASS only
when they agree; a disagreement means an implementation bug, never a
property of the input. run_equivalence_corpus repeats this over a seeded
random family of instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .curvature import (
    LineBundleMetric,
    _chern_planes,
    _class_spectra,
    class_spectrum,
    complex_matrix_to_json,
)
from .expressions import _draw_expression, _field_of_tree
from .lattice import TorusGeometry, _check_each_hermitian, _difference
from .normalizer import (
    DEFAULT_DELTA,
    _aligned_matrix,
    _certificates,
    aligned_inverse_weights,
)
from .planes import _cholesky, _split
from .qpositivity import _floors, _resolve_eps, _whitened_eigenvalues
from .stacks import _joins, chunk_size

#: Oracle slack: eigenvalues this far below zero (relative) still count as
#: semidefinite, absorbing round-off in the eigensolve.
PSEF_EIG_RTOL = 1e-12

#: Fallback weights tried by the degree search after the default delta.
SEARCH_DELTAS = (DEFAULT_DELTA, DEFAULT_DELTA / 10.0, DEFAULT_DELTA / 100.0)

#: A route's margin within this many times its tolerance of zero counts
#: its instance as near the decision boundary (the corpus summary's
#: ``near_boundary``).
NEAR_BOUNDARY = 10.0


def is_pseudo_effective(L: LineBundleMetric) -> bool:
    """Exact pseudo-effectivity decision for a torus curvature class.

    True iff the constant representative is positive semidefinite up to a
    1e-12 relative eigenvalue slack. The weight plays no role: averaging
    it over the torus removes the Hessian part without leaving the class.
    """
    return bool(_semidefinite(class_spectrum(L)[0]))


def _semidefinite(mu: np.ndarray) -> np.ndarray:
    """The oracle of ``is_pseudo_effective`` on a class's eigenvalues, or
    on each row of a stack of them."""
    scale = np.abs(mu).max(axis=-1)
    return mu.min(axis=-1) >= -PSEF_EIG_RTOL * scale


@dataclass
class DegreeSearchResult:
    """Outcome of the positive-pairing search over aligned metrics."""

    found: bool
    witness: np.ndarray | None  # the winning candidate's n x n metric
    constant: float  # best volume-normalized pairing seen
    tolerance: float = 0.0  # the pairing must exceed it


def dual_not_pseudo_effective(
    L: LineBundleMetric,
    eps: float | None = None,
) -> DegreeSearchResult:
    """Search constant metrics for a strictly positive degree pairing.

    A positive pairing with any Gauduchon metric obstructs
    pseudo-effectivity of the dual class; on the torus the eigen-aligned
    family is enough to find one whenever it exists. The volume-normalized
    pairing is scale invariant; with an aligned constant metric it is
    ``sum_j w_j mu_j`` on the eigenpairs of r_const (CONVENTIONS.md). The
    count-1 case of the stacked search (``_searches``).
    """
    return _searches([L], eps)[0]


def _searches(bundles: list[LineBundleMetric], eps: float | None) -> list:
    """``dual_not_pseudo_effective`` of each bundle, on the stack of their
    class spectra: each candidate weight is tried on every class still
    searching at once, and each pairing is an exactly rounded sum."""
    spectra = [class_spectrum(L) for L in bundles]
    mu = np.stack([m for m, _ in spectra])
    U = np.stack([u for _, u in spectra])
    tolerances = [_resolve_eps(scale, eps) for scale in np.abs(mu).max(axis=1).tolist()]
    # No aligned candidate exists without a positive eigenvalue; report
    # the identity's pairing, trace(r_const).
    results = [
        DegreeSearchResult(False, None, math.fsum(np.diagonal(L.r_const).real), tol)
        for L, tol in zip(bundles, tolerances)
    ]
    searching = np.flatnonzero((mu > 0.0).any(axis=1))
    for delta in SEARCH_DELTAS:
        if not searching.size:
            break
        w = aligned_inverse_weights(mu[searching], delta)
        pairings = [math.fsum(row) for row in (w * mu[searching]).tolist()]
        found = np.array([c > tolerances[i] for c, i in zip(pairings, searching)], bool)
        witnesses = iter(_aligned_matrix(U[searching[found]], w[found]))
        for i, c, hit in zip(searching.tolist(), pairings, found.tolist()):
            witness = next(witnesses) if hit else None
            results[i] = DegreeSearchResult(hit, witness, c, tolerances[i])
        # w falls with delta on the negative directions only, so the last
        # pairing is the largest.
        searching = searching[~found]
    return results


@dataclass
class SuiteReport:
    """Verdicts and margins of the four-way equivalence on one instance.

    ``tolerances`` holds the tolerance each margin's verdict was judged
    against, under the margin's key."""

    dual_not_psef_oracle: bool
    positive_pairing_search: bool
    constant_scalar_certificate: bool
    witness_q_positivity: bool
    passed: bool
    margins: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)

    @property
    def verdicts(self) -> tuple[bool, bool, bool, bool]:
        return (
            self.dual_not_psef_oracle,
            self.positive_pairing_search,
            self.constant_scalar_certificate,
            self.witness_q_positivity,
        )

    @property
    def near_boundary(self) -> bool:
        """Does some route's margin lie within ``NEAR_BOUNDARY`` times its
        tolerance of zero?"""
        return any(
            abs(self.margins[key]) <= NEAR_BOUNDARY * tol
            for key, tol in self.tolerances.items()
        )

    def to_json_dict(self) -> dict:
        return {
            "dual_not_psef_oracle": self.dual_not_psef_oracle,
            "positive_pairing_search": self.positive_pairing_search,
            "constant_scalar_certificate": self.constant_scalar_certificate,
            "witness_q_positivity": self.witness_q_positivity,
            "passed": self.passed,
            "margins": {k: float(v) for k, v in sorted(self.margins.items())},
            "tolerances": {k: float(v) for k, v in sorted(self.tolerances.items())},
            "details": self.details,
        }


CORPUS_CSV_HEADER = (
    "index,mu,phi,dual_not_psef_oracle,positive_pairing_search,"
    "constant_scalar_certificate,witness_q_positivity,passed,"
    "pairing_constant,witness_eigenvalue_floor"
)


def equivalence_suite(
    L: LineBundleMetric,
    delta: float = DEFAULT_DELTA,
    eps: float | None = None,
) -> SuiteReport:
    """Evaluate the four equivalent positivity statements on one instance.

    ``passed`` is True iff all four verdicts coincide (in either
    direction: uniformly true or uniformly false). The fourth item runs
    on the certificate's witness pair when one exists, otherwise on the
    unmodified bundle against the identity metric, where theory predicts
    a negative verdict whenever the first three are negative. The count-1
    case of the stacked suite (``_suites``).
    """
    return _suites([L], delta, eps)[0]


def _suites(
    bundles: list[LineBundleMetric],
    delta: float = DEFAULT_DELTA,
    eps: float | None = None,
) -> list[SuiteReport]:
    """``equivalence_suite`` of each bundle (all on one geometry), every
    route on one stack of the instances:

    1. the oracle on the ``(count, n)`` class spectra;
    2. the search, on them too (``_searches``);
    3. the certificates (``normalizer._certificates``), whose witness
       metrics are built, gated and inverted as one stack;
    4. the witness check (``_witness_floors``) on the instances' joined
       cores, whose metrics are factored as one stack.

    Only weights that ``stacks._joins`` share a stack; any other instance
    runs as a stack of its own.
    """
    if not bundles:
        return []
    alone = [not _joins(L.phi) for L in bundles]
    if len(bundles) > 1 and any(alone):
        joined = iter(_suites([L for L, a in zip(bundles, alone) if not a], delta, eps))
        return [
            _suites([L], delta, eps)[0] if a else next(joined)
            for L, a in zip(bundles, alone)
        ]
    geom = bundles[0].geometry
    n = geom.complex_dim
    mu = np.stack([class_spectrum(L)[0] for L in bundles])
    oracle = ~_semidefinite(-mu)
    searches = _searches(bundles, eps)
    certs, witnesses = _certificates(bundles, delta, eps)
    floors = _witness_floors(bundles, certs, witnesses, eps)
    reports = []
    for L, item1, search, cert, witness, qpos in zip(
        bundles, oracle.tolist(), searches, certs, witnesses, floors
    ):
        verdicts = (item1, search.found, cert.verdict, qpos.verdict)
        reports.append(
            SuiteReport(
                dual_not_psef_oracle=item1,
                positive_pairing_search=search.found,
                constant_scalar_certificate=cert.verdict,
                witness_q_positivity=qpos.verdict,
                passed=len(set(verdicts)) == 1,
                margins={
                    "pairing_constant": search.constant,
                    "certificate_constant": cert.margin,
                    "witness_eigenvalue_floor": qpos.margin,
                },
                tolerances={
                    "pairing_constant": search.tolerance,
                    "certificate_constant": cert.tolerance,
                    "witness_eigenvalue_floor": qpos.tolerance,
                },
                details={
                    "grid": list(geom.grid_shape),
                    "phi": L.phi_expression,
                    "witness_metric": (
                        None if witness is None else complex_matrix_to_json(witness)
                    ),
                },
            )
        )
    return reports


def _witness_floors(bundles, certs, witnesses, eps) -> list:
    """Route 4 of each instance (``check_q_positive`` at q = n - 1): on a
    certified instance, the bundle with the weight phi - f against the
    witness metric, else the bundle itself against the identity. The
    curvatures are built on one stack (``curvature._chern_planes``), and
    whitened by each instance's metric's inverse Cholesky factor
    (``planes._cholesky``, as ``MetricField._factor`` takes it), factored
    as one stack and repeated over its points."""
    geom = bundles[0].geometry
    identity = np.eye(geom.complex_dim, dtype=np.complex128)  # identity_metric's
    weights, metrics = [], []
    for L, cert, witness in zip(bundles, certs, witnesses):
        certified = cert.verdict
        weights.append(_difference(L.phi, cert.witness_weight) if certified else L.phi)
        metrics.append(witness if certified else identity)
    stack, planes = _chern_planes(geom, weights, np.stack([L.r_const for L in bundles]))
    _, inverse = _cholesky(_split(np.stack(metrics)))
    if isinstance(inverse, tuple):
        inverse = tuple(map(stack.repeat, inverse))
    else:
        inverse = stack.repeat(inverse)
    ev = _whitened_eigenvalues(planes, inverse)
    return _floors(stack, ev, geom.complex_dim - 1, eps)


def random_hermitian_class(
    rng: np.random.Generator, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Random constant curvature class with log-uniform eigenvalue sizes.

    Magnitudes are 10**uniform(-2, 2) with independent random signs, so
    mixed signatures and strongly scaled classes both appear. The
    eigenbasis is a Haar unitary (QR of a complex Gaussian with the phase
    ambiguity fixed). Returns (matrix, eigenvalues). The count-1 case of
    the corpus drawer's classes (``_class_draw``, ``_hermitian_classes``).
    """
    mu, z = _class_draw(rng, n)
    return _hermitian_classes(mu[None], z[None])[0], np.sort(mu)


def _class_draw(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """One class's draws, in stream order: its eigenvalues (magnitudes,
    then signs) and the complex Gaussian ``z`` of its eigenbasis."""
    mu = 10.0 ** rng.uniform(-2.0, 2.0, size=n)
    # rng.choice's draw by its own index: the same values and generator
    # state, at a fraction of its cost.
    mu *= np.array([-1.0, 1.0])[rng.integers(0, 2, size=n)]
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return mu, z


def _hermitian_classes(mu: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The class matrices ``(Q * mu) Q*``, Hermitian-symmetrized, of a
    stack of eigenvalues ``(count, n)`` in the Haar unitaries ``Q`` of a
    stack of Gaussians ``(count, n, n)``: one stacked QR, whose rows are
    the bits of lone calls."""
    Q, R = np.linalg.qr(z)
    d = np.diagonal(R, axis1=-2, axis2=-1)
    Q = Q * (d / np.abs(d))[:, None, :]
    matrices = (Q * mu[:, None, :]) @ Q.conj().swapaxes(-1, -2)
    return 0.5 * (matrices + matrices.conj().swapaxes(-1, -2))


def random_bundles(
    rng: np.random.Generator, geometry: TorusGeometry, count: int
) -> list[LineBundleMetric]:
    """``count`` random instances for corpus runs: random class,
    subordinate weight.

    The weight amplitude is tied to the smallest |eigenvalue| of the class
    so the Hessian perturbation never overturns the sign structure of
    r_const; the equivalence verdicts are then stable at corpus grid
    resolutions. (Three terms of frequency <= 2 bound the Hessian norm by
    three times the amplitude.) Frequencies stay below the Nyquist mode
    of the coarsest axis, so a 4-point axis draws frequency 1 only. The
    weight's text is ``random_expression``'s, and the weight is built from
    the syntax tree drawn with it, so the text is not parsed back.

    Each instance's draws come from ``rng`` in stream order (its class,
    then its weight), so the first k of ``count`` instances are the k
    instances of a shorter draw. The class matrices are then made in one
    stacked pass (``_hermitian_classes``) and pass the constructor's
    Hermitian gate as one stack (``lattice._check_each_hermitian``), each
    at its own scale; each bundle keeps its row of the read-only stack.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    n = geometry.complex_dim
    max_frequency = min(2, min(geometry.grid_shape) // 2 - 1)
    mu = np.empty((count, n))
    z = np.empty((count, n, n), dtype=np.complex128)
    drawn = []
    for index in range(count):
        mu[index], z[index] = _class_draw(rng, n)
        amplitude = 0.1 * float(np.abs(mu[index]).min())
        drawn.append(
            _draw_expression(rng, n, amplitude=amplitude, max_frequency=max_frequency)
        )
    classes = _hermitian_classes(mu, z)
    _check_each_hermitian(classes)
    classes.setflags(write=False)
    return [
        LineBundleMetric._derived(
            geometry, matrix, _field_of_tree(geometry, tree), phi_text
        )
        for matrix, (tree, phi_text) in zip(classes, drawn)
    ]


def random_bundle(
    rng: np.random.Generator, geometry: TorusGeometry
) -> LineBundleMetric:
    """One random corpus instance: ``random_bundles`` of count 1."""
    return random_bundles(rng, geometry, 1)[0]


def run_equivalence_corpus(
    geometry: TorusGeometry,
    count: int,
    seed: int,
    delta: float = DEFAULT_DELTA,
    eps: float | None = None,
) -> tuple[list[SuiteReport], dict]:
    """Run the suite on ``count`` seeded random instances, each with
    ``delta`` and ``eps`` (``equivalence_suite``).

    The instances are drawn and run a chunk at a time
    (``stacks.chunk_size``), from the one generator in stream order, so a
    corpus holds one chunk's bundles at a time and its rows are those of
    lone draws and lone suites. Returns the reports plus an aggregate
    summary; ``fails`` should always be zero, anything else indicates a
    bug in one of the four routes. ``near_boundary`` counts the instances
    where some route's margin lies within ``NEAR_BOUNDARY`` times its
    tolerance.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    rng = np.random.default_rng(seed)
    size = chunk_size(geometry)
    reports = []
    for start in range(0, count, size):
        bundles = random_bundles(rng, geometry, min(size, count - start))
        _class_spectra(bundles)
        for index, (bundle, report) in enumerate(
            zip(bundles, _suites(bundles, delta=delta, eps=eps)), start
        ):
            report.details["index"] = index
            report.details["mu"] = class_spectrum(bundle)[0].tolist()
            reports.append(report)
        del bundles
    fails = sum(1 for r in reports if not r.passed)
    positives = sum(1 for r in reports if r.passed and r.dual_not_psef_oracle)
    summary = {
        "count": count,
        "seed": seed,
        "fails": fails,
        "positive": positives,
        "negative": count - fails - positives,
        "near_boundary": sum(r.near_boundary for r in reports),
    }
    return reports, summary


def corpus_csv_lines(reports: list[SuiteReport]) -> list[str]:
    """One row per instance, stable formatting for byte-identical output."""
    lines = [CORPUS_CSV_HEADER]
    for report in reports:
        mu = report.details.get("mu", [])
        row = [
            str(report.details.get("index", "")),
            "[" + " ".join(f"{v:.17g}" for v in mu) + "]",
            '"' + str(report.details.get("phi", "")) + '"',
            str(int(report.dual_not_psef_oracle)),
            str(int(report.positive_pairing_search)),
            str(int(report.constant_scalar_certificate)),
            str(int(report.witness_q_positivity)),
            str(int(report.passed)),
            f"{report.margins['pairing_constant']:.17g}",
            f"{report.margins['witness_eigenvalue_floor']:.17g}",
        ]
        lines.append(",".join(row))
    return lines
