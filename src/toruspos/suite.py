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
    _class_spectra,
    class_spectrum,
    complex_matrix_to_json,
)
from .expressions import _draw_expression, _field_of_tree
from .lattice import TorusGeometry, _difference, identity_metric
from .normalizer import (
    DEFAULT_DELTA,
    _aligned_matrix,
    aligned_inverse_weights,
    certify_n_minus_1_positive,
)
from .qpositivity import _resolve_eps, check_q_positive

#: Oracle slack: eigenvalues this far below zero (relative) still count as
#: semidefinite, absorbing round-off in the eigensolve.
PSEF_EIG_RTOL = 1e-12

#: Fallback weights tried by the degree search after the default delta.
SEARCH_DELTAS = (DEFAULT_DELTA, DEFAULT_DELTA / 10.0, DEFAULT_DELTA / 100.0)


def is_pseudo_effective(L: LineBundleMetric) -> bool:
    """Exact pseudo-effectivity decision for a torus curvature class.

    True iff the constant representative is positive semidefinite up to a
    1e-12 relative eigenvalue slack. The weight plays no role: averaging
    it over the torus removes the Hessian part without leaving the class.
    """
    return _semidefinite(class_spectrum(L)[0])


def _semidefinite(mu: np.ndarray) -> bool:
    """The oracle of ``is_pseudo_effective`` on a class's eigenvalues."""
    scale = float(np.abs(mu).max())
    return bool(mu.min() >= -PSEF_EIG_RTOL * scale)


@dataclass
class DegreeSearchResult:
    """Outcome of the positive-pairing search over aligned metrics."""

    found: bool
    witness: np.ndarray | None  # the winning candidate's n x n metric
    constant: float  # best volume-normalized pairing seen


def dual_not_pseudo_effective(
    L: LineBundleMetric,
    eps: float | None = None,
) -> DegreeSearchResult:
    """Search constant metrics for a strictly positive degree pairing.

    A positive pairing with any Gauduchon metric obstructs
    pseudo-effectivity of the dual class; on the torus the eigen-aligned
    family is enough to find one whenever it exists. The volume-normalized
    pairing is scale invariant; with an aligned constant metric it is
    ``sum_j w_j mu_j`` on the eigenpairs of r_const (CONVENTIONS.md).
    """
    mu, U = class_spectrum(L)
    eps = _resolve_eps(float(np.abs(mu).max()), eps)
    if not (mu > 0.0).any():
        # No aligned candidate exists; report the identity's, trace(r_const).
        return DegreeSearchResult(False, None, math.fsum(np.diagonal(L.r_const).real))

    for delta in SEARCH_DELTAS:
        w = aligned_inverse_weights(mu, delta)
        c = math.fsum(w * mu)
        if c > eps:
            return DegreeSearchResult(True, _aligned_matrix(U, w), c)
    # w falls with delta on the negative directions only, so c is largest last.
    return DegreeSearchResult(False, None, c)


@dataclass
class SuiteReport:
    """Verdicts and margins of the four-way equivalence on one instance."""

    dual_not_psef_oracle: bool
    positive_pairing_search: bool
    constant_scalar_certificate: bool
    witness_q_positivity: bool
    passed: bool
    margins: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    @property
    def verdicts(self) -> tuple[bool, bool, bool, bool]:
        return (
            self.dual_not_psef_oracle,
            self.positive_pairing_search,
            self.constant_scalar_certificate,
            self.witness_q_positivity,
        )

    def to_json_dict(self) -> dict:
        return {
            "dual_not_psef_oracle": self.dual_not_psef_oracle,
            "positive_pairing_search": self.positive_pairing_search,
            "constant_scalar_certificate": self.constant_scalar_certificate,
            "witness_q_positivity": self.witness_q_positivity,
            "passed": self.passed,
            "margins": {k: float(v) for k, v in sorted(self.margins.items())},
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
    a negative verdict whenever the first three are negative.
    """
    n = L.geometry.complex_dim
    item1 = not _semidefinite(-class_spectrum(L)[0])
    search = dual_not_pseudo_effective(L, eps=eps)
    cert = certify_n_minus_1_positive(L, delta=delta, eps=eps)

    if cert.verdict and cert.witness_metric is not None:
        modified = L.with_weight(
            _difference(L.phi, cert.witness_weight)
        )
        qpos = check_q_positive(modified, cert.witness_metric, n - 1, eps=eps)
    else:
        qpos = check_q_positive(L, identity_metric(L.geometry), n - 1, eps=eps)

    verdicts = (item1, search.found, cert.verdict, qpos.verdict)
    passed = len(set(verdicts)) == 1
    return SuiteReport(
        dual_not_psef_oracle=item1,
        positive_pairing_search=search.found,
        constant_scalar_certificate=cert.verdict,
        witness_q_positivity=qpos.verdict,
        passed=passed,
        margins={
            "pairing_constant": search.constant,
            "certificate_constant": cert.margin,
            "witness_eigenvalue_floor": qpos.margin,
        },
        details={
            "grid": list(L.geometry.grid_shape),
            "phi": L.phi_expression,
            "witness_metric": (
                None
                if cert.witness_metric is None
                else complex_matrix_to_json(cert.witness_metric.matrix)
            ),
        },
    )


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
    stacked pass (``_hermitian_classes``).
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
    return [
        LineBundleMetric(geometry, matrix, _field_of_tree(geometry, tree), phi_text)
        for matrix, (tree, phi_text) in zip(_hermitian_classes(mu, z), drawn)
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

    Returns the reports plus an aggregate summary; ``fails`` should always
    be zero, anything else indicates a bug in one of the four routes.
    """
    bundles = random_bundles(np.random.default_rng(seed), geometry, count)
    _class_spectra(bundles)
    reports = []
    for index in range(count):
        # Dropped as it is done with, so a corpus holds one curvature at a time.
        bundle, bundles[index] = bundles[index], None
        report = equivalence_suite(bundle, delta=delta, eps=eps)
        report.details["index"] = index
        report.details["mu"] = class_spectrum(bundle)[0].tolist()
        reports.append(report)
    fails = sum(1 for r in reports if not r.passed)
    positives = sum(1 for r in reports if r.passed and r.dual_not_psef_oracle)
    summary = {
        "count": count,
        "seed": seed,
        "fails": fails,
        "positive": positives,
        "negative": count - fails - positives,
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
