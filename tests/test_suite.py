"""Pseudo-effectivity oracle and the four-way equivalence suite."""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from conftest import hermitian_with_eigs, random_unitary

from toruspos import (
    LineBundleMetric,
    ScalarField,
    TorusGeometry,
    certify_n_minus_1_positive,
    check_q_positive,
    constant_metric,
    dual_not_pseudo_effective,
    equivalence_suite,
    identity_metric,
    is_pseudo_effective,
    random_bundle,
    random_bundles,
    run_equivalence_corpus,
    scalar_field_from_expression,
)
from toruspos.curvature import (
    PositivityCertificate,
    _class_spectra,
    class_spectrum,
    complex_matrix_from_json,
)
from toruspos.errors import InternalInvariantError
from toruspos.expressions import random_expression
from toruspos.lattice import _compact, _difference
from toruspos.normalizer import aligned_metric_matrix
from toruspos.stacks import _joins, _weight_spectra
from toruspos.suite import (
    NEAR_BOUNDARY,
    SEARCH_DELTAS,
    _suites,
    corpus_csv_lines,
    random_hermitian_class,
)

#: Unit roundoff of float64.
EPS64 = np.finfo(np.float64).eps / 2


# ----------------------------------------------------------------- oracle


def test_oracle_zero_class_is_psef():
    g = TorusGeometry.regular(2, 4)
    assert is_pseudo_effective(
        LineBundleMetric.from_constant(g, np.zeros((2, 2)))
    )


def test_oracle_indefinite_class_is_not_psef():
    g = TorusGeometry.regular(2, 4)
    assert not is_pseudo_effective(
        LineBundleMetric.from_constant(g, np.diag([1.0, -5.0]))
    )


def test_oracle_gram_matrices_are_psef():
    rng = np.random.default_rng(0)
    g = TorusGeometry.regular(2, 4)
    for _ in range(5):
        A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        gram = A @ A.conj().T
        assert is_pseudo_effective(
            LineBundleMetric.from_constant(g, 0.5 * (gram + gram.conj().T))
        )


def test_oracle_ignores_weight_and_scale():
    g = TorusGeometry.regular(2, 8)
    rng = np.random.default_rng(1)
    mat = hermitian_with_eigs(rng, [0.5, 2.0])
    for t in (1e-3, 1.0, 1e3):
        L = LineBundleMetric.from_expression(g, t * mat, "0.01*sin(x1)")
        assert is_pseudo_effective(L)
        assert not is_pseudo_effective(L.dual())


# ----------------------------------------------------------- pairing search


def test_search_finds_witness_for_mixed_signature():
    g = TorusGeometry.regular(2, 8)
    L = LineBundleMetric.from_constant(g, np.diag([1.0, -5.0]))
    result = dual_not_pseudo_effective(L)
    assert result.found is True
    assert result.witness is not None
    assert result.constant >= 0.999 - 1e-9


def test_search_fails_for_negative_definite():
    g = TorusGeometry.regular(2, 8)
    result = dual_not_pseudo_effective(
        LineBundleMetric.from_constant(g, -np.eye(2))
    )
    assert result.found is False
    assert result.witness is None
    assert result.constant < 0.0


def test_search_verdict_invariant_under_weight():
    g = TorusGeometry.regular(2, 8)
    rng = np.random.default_rng(2)
    for eigs in ([1.0, -2.0], [-0.5, -3.0], [0.7, 0.2]):
        mat = hermitian_with_eigs(rng, eigs)
        flat = dual_not_pseudo_effective(LineBundleMetric.from_constant(g, mat))
        wavy = dual_not_pseudo_effective(
            LineBundleMetric.from_expression(g, mat, "0.01*cos(2*x1)")
        )
        assert flat.found == wavy.found


@pytest.mark.parametrize("s", [1e-2, 1e-4, 1e-6, 1e-8])
def test_search_reads_the_pairing_of_a_spread_class(s):
    """For r_const = U diag(s, -100) U* the aligned candidate with weight
    delta pairs to s (1 - delta): the class gives it to a few ulps of the
    largest |eigenvalue|, however ill-conditioned the candidate metric,
    where a grid quadrature against that metric loses about cond(Omega) u."""
    g = TorusGeometry.regular(2, 8)
    U = random_unitary(np.random.default_rng(12), 2)
    matrix = (U * np.array([s, -100.0])) @ U.conj().T
    L = LineBundleMetric.from_constant(g, 0.5 * (matrix + matrix.conj().T))
    result = dual_not_pseudo_effective(L)
    eps = 1e-9 * 100.0
    winners = [d for d in SEARCH_DELTAS if s * (1.0 - d) > eps]
    assert result.found == bool(winners)
    delta = winners[0] if winners else SEARCH_DELTAS[-1]
    assert abs(result.constant - s * (1.0 - delta)) <= 64 * 2 * EPS64 * 100.0
    if result.found:
        assert np.array_equal(result.witness, aligned_metric_matrix(L.r_const, delta))


def test_search_without_positive_direction_reads_the_trace():
    g = TorusGeometry.regular(2, 8)
    r_const = hermitian_with_eigs(np.random.default_rng(13), [-0.5, -3.0])
    result = dual_not_pseudo_effective(LineBundleMetric.from_constant(g, r_const))
    assert not result.found and result.witness is None
    assert result.constant == pytest.approx(-3.5, rel=1e-14)


def test_class_routes_build_no_field(monkeypatch):
    """Routes 1 and 2 read the class matrix only: no metric field, no
    bundle (the dual included) and no scalar curvature. The stacked
    routes 3 and 4 are replaced by fixed outcomes so only routes 1 and 2
    run."""
    import toruspos.curvature as curvature_module
    import toruspos.lattice as lattice_module
    import toruspos.suite as suite_module

    g = TorusGeometry.regular(2, 8)
    bundles = [
        LineBundleMetric.from_expression(
            g, hermitian_with_eigs(np.random.default_rng(14), eigs), "0.05*cos(x1)"
        )
        for eigs in ([2.0, -0.7], [-1.0, -0.2])
    ]
    built = []

    def counting(name, original):
        def wrapper(*args, **kwargs):
            built.append(name)
            return original(*args, **kwargs)

        return wrapper

    for cls in (lattice_module.MetricField, LineBundleMetric):
        monkeypatch.setattr(
            cls, "__post_init__", counting(cls.__name__, cls.__post_init__)
        )
    for name in ("scalar_curvature", "_traces"):
        monkeypatch.setattr(
            curvature_module, name, counting(name, getattr(curvature_module, name))
        )
    fixed = PositivityCertificate(verdict=True, margin=1.0, tolerance=0.0)
    monkeypatch.setattr(
        suite_module,
        "_certificates",
        lambda bundles, *a: ([fixed] * len(bundles), [None] * len(bundles)),
    )
    monkeypatch.setattr(
        suite_module, "_witness_floors", lambda bundles, *a: [fixed] * len(bundles)
    )
    for L in bundles:
        report = equivalence_suite(L)
        assert report.dual_not_psef_oracle == report.positive_pairing_search
        dual_not_pseudo_effective(L)
    assert built == []


def _recorded_eigensolves(monkeypatch) -> list:
    """The argument of every ``np.linalg`` eigh and eigvalsh call from
    here on, copied."""
    seen = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def recording(a, *args, _original=original, **kwargs):
            seen.append(np.array(a))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    return seen


def _class_solves(seen: list, r_const: np.ndarray) -> int:
    """How many recorded eigensolves took ``r_const`` or its negative; a
    stacked argument counts each of its matrices that does."""
    return sum(
        np.array_equal(m, r_const) or np.array_equal(m, -r_const)
        for a in seen
        if a.shape[-2:] == r_const.shape
        for m in a.reshape(-1, *r_const.shape)
    )


@pytest.mark.parametrize(
    "eigs,phi_text",
    [([2.0, -0.7], "0.05*cos(x1)"), ([-1.0, -0.2], "0.05*cos(x1)"), ([0.0, 0.0], "0")],
    ids=["positive", "negative", "zero"],
)
def test_suite_eigensolves_the_class_once(monkeypatch, eigs, phi_text):
    """A counter, no timing: routes 1 to 3 read one cached eigensolve of
    the class matrix (``class_spectrum``), and the oracle on the bundle
    reads it again for free."""
    g = TorusGeometry.regular(2, 8)
    L = LineBundleMetric.from_expression(
        g, hermitian_with_eigs(np.random.default_rng(15), eigs), phi_text
    )
    seen = _recorded_eigensolves(monkeypatch)
    report = equivalence_suite(L)
    assert report.passed
    assert is_pseudo_effective(L) == (min(eigs) >= 0.0)
    assert _class_solves(seen, L.r_const) == 1


def test_corpus_eigensolves_each_class_once(monkeypatch):
    """A counter, no timing: a corpus row, its CSV ``mu`` column included,
    takes one eigensolve of its class matrix, and the corpus solves all
    its classes in one stacked call."""
    import toruspos.suite as suite_module

    bundles = []
    original = suite_module.random_bundles

    def recording(rng, geometry, count):
        bundles.extend(original(rng, geometry, count))
        return list(bundles)

    monkeypatch.setattr(suite_module, "random_bundles", recording)
    seen = _recorded_eigensolves(monkeypatch)
    reports, summary = run_equivalence_corpus(TorusGeometry.regular(2, 8), 12, seed=1)
    corpus_csv_lines(reports)
    assert summary["positive"] and summary["negative"]
    assert [_class_solves(seen, L.r_const) for L in bundles] == [1] * 12
    classes = np.stack([L.r_const for L in bundles])
    assert sum(np.array_equal(a, classes) for a in seen) == 1


@pytest.mark.parametrize("n,samples", [(1, 16), (2, 8), (3, 4)])
def test_pairing_and_certificate_agree_on_the_class_constant(n, samples):
    """Route 2 reads the class constant from the eigenpairs of r_const and
    route 3 integrates the scalar curvature over the grid: two independent
    computations of trace(Omega^{-1} r_const) for the same aligned metric,
    which must agree wherever both decide positive."""
    g = TorusGeometry.regular(n, samples)
    reports, summary = run_equivalence_corpus(g, 150, seed=20 + n)
    assert summary["fails"] == 0 and summary["positive"] > 0
    for report in reports:
        if report.positive_pairing_search and report.constant_scalar_certificate:
            c = report.margins["certificate_constant"]
            gap = abs(report.margins["pairing_constant"] - c)
            assert gap <= 1e-9 * (1.0 + abs(c))


# ------------------------------------------------------------------- suite


def test_suite_positive_instance_passes_true():
    g = TorusGeometry.regular(2, 8)
    rep = equivalence_suite(
        LineBundleMetric.from_constant(g, np.diag([1.0, -5.0]))
    )
    assert rep.verdicts == (True, True, True, True)
    assert rep.passed


def test_suite_negative_instance_passes_false():
    g = TorusGeometry.regular(2, 8)
    rep = equivalence_suite(LineBundleMetric.from_constant(g, -np.eye(2)))
    assert rep.verdicts == (False, False, False, False)
    assert rep.passed


def test_suite_zero_class_passes_false():
    g = TorusGeometry.regular(2, 8)
    rep = equivalence_suite(
        LineBundleMetric.from_constant(g, np.zeros((2, 2)))
    )
    assert rep.verdicts == (False, False, False, False)
    assert rep.passed


def test_suite_scale_invariance_of_verdicts():
    g = TorusGeometry.regular(2, 8)
    rng = np.random.default_rng(3)
    mat = hermitian_with_eigs(rng, [0.8, -1.3])
    verdicts = set()
    for t in (1e-3, 1.0, 1e3):
        rep = equivalence_suite(LineBundleMetric.from_constant(g, t * mat))
        assert rep.passed
        verdicts.add(rep.verdicts)
    assert len(verdicts) == 1


def test_suite_monotone_under_adding_psef_class():
    g = TorusGeometry.regular(2, 8)
    rng = np.random.default_rng(4)
    base = hermitian_with_eigs(rng, [0.9, -0.4])
    rep = equivalence_suite(LineBundleMetric.from_constant(g, base))
    assert rep.passed and rep.dual_not_psef_oracle
    for _ in range(3):
        Q = random_unitary(rng, 2)
        psd = (Q * rng.uniform(0.0, 2.0, size=2)) @ Q.conj().T
        bumped = base + 0.5 * (psd + psd.conj().T)
        rep2 = equivalence_suite(
            LineBundleMetric.from_constant(g, 0.5 * (bumped + bumped.conj().T))
        )
        assert rep2.passed
        assert rep2.dual_not_psef_oracle


def test_suite_report_serializes():
    g = TorusGeometry.regular(2, 8)
    rep = equivalence_suite(
        LineBundleMetric.from_expression(g, np.diag([2.0, -1.0]), "0.05*sin(y1)")
    )
    data = rep.to_json_dict()
    assert data["passed"] is True
    assert set(data["margins"]) == {
        "pairing_constant",
        "certificate_constant",
        "witness_eigenvalue_floor",
    }


@pytest.mark.parametrize("phi_text,constant", [("0", True), ("0.05*cos(x1)", False)])
def test_suite_witness_weight_stays_constant_for_a_constant_weight(
    monkeypatch, phi_text, constant
):
    """The modified bundle's weight phi - f is one number when both are."""
    import toruspos.suite as suite_module

    weights = []
    original = suite_module._chern_planes

    def recording(geometry, phis, r_consts):
        weights.extend(phis)
        return original(geometry, phis, r_consts)

    monkeypatch.setattr(suite_module, "_chern_planes", recording)
    g = TorusGeometry.regular(2, 8)
    L = LineBundleMetric.from_expression(
        g, hermitian_with_eigs(np.random.default_rng(9), [2.0, -0.7]), phi_text
    )
    assert equivalence_suite(L).passed
    (phi,) = weights
    assert (phi.value is not None) == constant
    assert not phi.values.flags.writeable


# ------------------------------------------------------------------ corpus


def test_random_class_magnitude_range():
    rng = np.random.default_rng(5)
    for _ in range(50):
        mat, mu = random_hermitian_class(rng, 2)
        assert np.max(np.abs(mat - mat.conj().T)) < 1e-14
        assert np.all(np.abs(mu) >= 1e-2 - 1e-12)
        assert np.all(np.abs(mu) <= 1e2 + 1e-10)
        got = np.sort(np.linalg.eigvalsh(mat))
        assert got == pytest.approx(mu, rel=1e-10)


def test_random_bundle_is_seed_deterministic():
    g = TorusGeometry.regular(2, 4)
    a = random_bundle(np.random.default_rng(6), g)
    b = random_bundle(np.random.default_rng(6), g)
    assert np.array_equal(a.r_const, b.r_const)
    assert a.phi_expression == b.phi_expression


def test_random_bundle_draws_only_resolved_frequencies():
    """A 4-point axis resolves frequency 1 only; 8-point draws are pinned."""
    coarse = TorusGeometry.regular(2, 4)
    rng = np.random.default_rng(11)
    for _ in range(100):
        random_bundle(rng, coarse)  # ConfigError on an aliased frequency
    g = TorusGeometry.regular(2, 8)
    rng = np.random.default_rng(11)
    texts = [random_bundle(rng, g).phi_expression for _ in range(4)]
    assert texts == [
        "0.0014*cos(2*x1) + 0.0024*cos(y2)",
        "0.0663*sin(y2)",
        "0.0008*sin(x1) + 0.0022*cos(2*y2) + 0.0009*sin(x2)",
        "0.0038*sin(2*x2)",
    ]


@pytest.mark.parametrize("n,samples", [(1, 16), (2, 8), (3, 4)])
def test_stacked_draw_equals_successive_lone_draws(n, samples):
    """``random_bundles`` takes each instance's draws in stream order and
    makes the classes in one stacked QR, and ``_class_spectra`` solves
    them in one stacked eigh: both give the bits of lone calls, and the
    generator ends in the same state."""
    g = TorusGeometry.regular(n, samples)
    stacked_rng, lone_rng = np.random.default_rng(31), np.random.default_rng(31)
    stacked = random_bundles(stacked_rng, g, 100)
    _class_spectra(stacked)
    lone = [random_bundle(lone_rng, g) for _ in range(100)]
    assert stacked_rng.bit_generator.state == lone_rng.bit_generator.state
    for a, b in zip(stacked, lone):
        assert a.r_const.tobytes() == b.r_const.tobytes()
        assert a.phi_expression == b.phi_expression
        core_a, core_b = _compact(a.phi), _compact(b.phi)
        assert core_a.shape == core_b.shape
        assert core_a.tobytes() == core_b.tobytes()
        for got, expected in zip(class_spectrum(a), class_spectrum(b)):
            assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("n,samples", [(1, 16), (2, 8), (3, 4)])
def test_corpus_rows_are_a_prefix_of_a_longer_corpus(n, samples):
    """The first k rows of an N-instance corpus, every CSV column, are the
    k-instance corpus of the same seed: the stacked passes do not reach
    across instances."""
    g = TorusGeometry.regular(n, samples)
    long, _ = run_equivalence_corpus(g, 30, seed=17)
    short, _ = run_equivalence_corpus(g, 11, seed=17)
    assert corpus_csv_lines(long)[:12] == corpus_csv_lines(short)


def test_corpus_count_is_non_negative():
    """A negative count used to run nothing and report ``count: -2,
    negative: -2``; zero instances are an empty corpus."""
    g = TorusGeometry.regular(2, 4)
    with pytest.raises(ValueError, match="non-negative"):
        run_equivalence_corpus(g, -2, seed=3)
    reports, summary = run_equivalence_corpus(g, 0, seed=3)
    assert reports == []
    assert summary == {
        "count": 0,
        "seed": 3,
        "fails": 0,
        "positive": 0,
        "negative": 0,
        "near_boundary": 0,
    }


#: sha256 of the phi and verdict columns of the seed-42, 200-instance
#: corpus on 8^4, one row per line.
CORPUS_42_DIGEST = "5c0ea860fa7051a3b82678ecdb1fc4c2398a94f3d87743b79e851352d8f2658c"


def test_corpus_stream_is_pinned():
    """The corpus draws (class signs, weight functions and coordinates)
    and the verdicts on them are pinned: a cheaper draw must take the
    same values from the generator and leave it in the same state."""
    reports, _ = run_equivalence_corpus(TorusGeometry.regular(2, 8), 200, seed=42)
    digest = hashlib.sha256()
    for line in corpus_csv_lines(reports)[1:]:
        cells = line.split(",")  # the phi text has no commas
        digest.update(",".join(cells[2:8]).encode() + b"\n")
    assert digest.hexdigest() == CORPUS_42_DIGEST


#: sha256 of the whole CSV (every column, margins and mu included, one row
#: per line, newline-terminated) of the seed-42, 200-instance corpus on 8^4.
CORPUS_42_CSV_DIGEST = "3b977c02ceabc2f7fd146cd50a5104b93b15047e54b3131effb04b42ff548d65"


def test_corpus_csv_is_pinned():
    """The corpus's bits are pinned, not only its verdicts: a stacked or
    otherwise cheaper pass must give every margin and class eigenvalue bit
    for bit."""
    reports, _ = run_equivalence_corpus(TorusGeometry.regular(2, 8), 200, seed=42)
    text = "\n".join(corpus_csv_lines(reports)) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == CORPUS_42_CSV_DIGEST


def _edge_bundles(g: TorusGeometry) -> list:
    """Bundles past the corpus draw: a zero class, a negative definite
    class, a constant weight on a mixed class, strong weights that the
    normalized weight must rescue, and one of them loaded as a grid field,
    whose weight has no mode table."""
    n, s = g.complex_dim, g.grid_shape[0]
    rng = np.random.default_rng(40 + n)
    out = [
        LineBundleMetric.from_constant(g, np.zeros((n, n))),
        LineBundleMetric.from_constant(g, -np.eye(n)),
        LineBundleMetric.from_constant(g, np.diag([1.0] + [-5.0] * (n - 1))),
    ]
    for amplitude in (1.0, 10.0):
        matrix, mu = random_hermitian_class(rng, n)
        text = random_expression(
            rng,
            n,
            amplitude=amplitude * float(np.max(np.abs(mu))),
            zero_probability=0.0,
            max_frequency=min(2, s // 2 - 1),
        )
        out.append(LineBundleMetric.from_expression(g, matrix, text))
    grid_copy = out[-1].with_weight(ScalarField(g, out[-1].phi.values.copy()))
    assert grid_copy.phi._modes is None
    return out + [grid_copy]


@pytest.mark.parametrize("n,samples", [(1, 16), (2, 8), (3, 4)])
def test_stacked_suites_equal_lone_suites(n, samples):
    """Every report of one stacked pass equals ``equivalence_suite`` on the
    same bundle, margins and tolerances bit for bit, for corpus draws and
    the instances they never draw (``_edge_bundles``)."""
    g = TorusGeometry.regular(n, samples)
    bundles = random_bundles(np.random.default_rng(50 + n), g, 24) + _edge_bundles(g)
    stacked = _suites(bundles)
    assert all(r.passed for r in stacked)
    for report, L in zip(stacked, bundles):
        lone = equivalence_suite(L)
        assert json.dumps(report.to_json_dict()) == json.dumps(lone.to_json_dict())


@pytest.mark.parametrize("n,samples", [(1, 16), (2, 8), (3, 4)])
def test_stacked_route_4_is_check_q_positive(n, samples):
    """Route 4 of a stacked pass is ``check_q_positive`` at q = n - 1 on the
    witness pair: the bundle with the weight phi - f against the
    certificate's witness metric, else the bundle against the identity.
    Margin, tolerance and verdict agree bit for bit, for weights with a
    mode table and for the same weights loaded as grid fields, which have
    none."""
    g = TorusGeometry.regular(n, samples)
    drawn = random_bundles(np.random.default_rng(70 + n), g, 12) + _edge_bundles(g)
    copies = [L.with_weight(ScalarField(g, L.phi.values.copy())) for L in drawn]
    bundles = drawn + copies
    assert any(L.phi.value is None and L.phi._modes is None for L in copies)
    assert any(L.phi._modes is not None for L in drawn)
    for report, L in zip(_suites(bundles), bundles):
        cert = certify_n_minus_1_positive(L)
        if cert.verdict:
            weight = _difference(L.phi, cert.witness_weight)
            witness = constant_metric(g, cert.witness_metric.matrix)
            qpos = check_q_positive(L.with_weight(weight), witness, n - 1)
        else:
            qpos = check_q_positive(L, identity_metric(g), n - 1)
        key = "witness_eigenvalue_floor"
        assert report.margins[key] == qpos.margin
        assert report.tolerances[key] == qpos.tolerance
        assert report.witness_q_positivity == qpos.verdict


def test_only_weights_with_mode_tables_are_joined():
    """A stack of several weights carries their mode tables joined, so a
    weight with none (a grid copy) joins no stack: ``_suites`` runs it as
    a stack of its own, and ``_weight_spectra`` refuses it among others.
    Alone it keeps its half spectrum."""
    g = TorusGeometry.regular(2, 8)
    phi = scalar_field_from_expression(g, "0.3*sin(x1)*cos(y2) + 0.2*cos(x2)")
    copy = ScalarField(g, phi.values.copy())
    assert _joins(phi) and _joins(ScalarField.constant(g, 1.5))
    assert not _joins(copy)
    with pytest.raises(InternalInvariantError):
        _weight_spectra(g, [phi, copy])
    table, waves = _weight_spectra(g, [copy])
    assert waves.stack.lone and table.wavevectors is None
    table, waves = _weight_spectra(g, [phi, ScalarField.constant(g, 1.5)])
    assert list(waves.owners) == [0] * len(phi._modes.coefficients)


@pytest.mark.parametrize("n,samples", [(1, 16), (2, 8), (3, 4)])
def test_corpus_rows_equal_lone_suites_at_chunk_edges(monkeypatch, n, samples):
    """A corpus is drawn and run chunk by chunk; with a chunk of five
    instances, corpora of 0, 1, 4, 5 and 6 instances give each row of
    ``equivalence_suite`` on the bundle a lone draw gives, every CSV
    column and report entry bit for bit."""
    import toruspos.stacks as stacks_module

    g = TorusGeometry.regular(n, samples)
    monkeypatch.setattr(stacks_module, "CHUNK_POINTS", 5 * g.num_points)
    assert stacks_module.chunk_size(g) == 5
    for count in (0, 1, 4, 5, 6):
        reports, summary = run_equivalence_corpus(g, count, seed=60 + count)
        rng = np.random.default_rng(60 + count)
        lone = []
        for index in range(count):
            bundle = random_bundle(rng, g)
            lone.append(equivalence_suite(bundle))
            lone[-1].details["index"] = index
            lone[-1].details["mu"] = class_spectrum(bundle)[0].tolist()
        assert corpus_csv_lines(reports) == corpus_csv_lines(lone)
        assert [r.to_json_dict() for r in reports] == [r.to_json_dict() for r in lone]
        assert summary["count"] == count and summary["fails"] == 0


@pytest.mark.parametrize("count", [5, 12])
def test_one_chunk_corpus_solves_route_4_and_gates_its_witnesses_once(
    monkeypatch, count
):
    """Counters, no timing: a corpus of one chunk whitens and solves every
    instance's route-4 pencil in one ``_descending_eigenvalues`` call and
    gates all its witness metrics in one ``_gate_bounds`` call (the one
    tile of ``planes._positive_definite``), whatever its count."""
    import toruspos.planes as planes_module
    import toruspos.qpositivity as qpositivity_module

    calls = {"_descending_eigenvalues": 0, "_gate_bounds": 0}
    for module, name in (
        (qpositivity_module, "_descending_eigenvalues"),
        (planes_module, "_gate_bounds"),
    ):
        original = getattr(module, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(module, name, counting)
    reports, summary = run_equivalence_corpus(TorusGeometry.regular(2, 8), count, seed=1)
    assert summary["fails"] == 0 and summary["positive"] > 1
    assert calls == {"_descending_eigenvalues": 1, "_gate_bounds": 1}


@pytest.mark.parametrize("count", [5, 20])
def test_one_chunk_corpus_sums_and_gates_its_classes_once(monkeypatch, count):
    """Counters, no timing: a corpus of one chunk gates all its classes in
    one stacked pass (``lattice._check_each_hermitian``), with no lone
    Hermitian gate, and takes every exactly rounded sum of its
    normalization, its solutions' means included, in four stacked
    extractions (``stacks._Stack._partials``), with no lone ``_sum``,
    whatever its count."""
    import toruspos.curvature as curvature_module
    import toruspos.lattice as lattice_module
    import toruspos.stacks as stacks_module
    import toruspos.suite as suite_module

    calls = dict.fromkeys(
        ["_check_each_hermitian", "_check_hermitian", "_partials", "_sum"], 0
    )
    for owner, name in (
        (suite_module, "_check_each_hermitian"),
        (lattice_module, "_check_hermitian"),
        (curvature_module, "_check_hermitian"),
        (stacks_module._Stack, "_partials"),
        (lattice_module, "_sum"),
        (stacks_module, "_sum"),
    ):
        original = getattr(owner, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(owner, name, counting)
    reports, summary = run_equivalence_corpus(TorusGeometry.regular(2, 8), count, seed=1)
    assert summary["fails"] == 0 and summary["positive"] > 1
    assert calls == {
        "_check_each_hermitian": 1, "_check_hermitian": 0, "_partials": 4, "_sum": 0
    }


def _recording_classes(monkeypatch, change):
    """Patch ``suite._hermitian_classes`` to hand ``change`` of its stack
    to the gate; returns the list the changed stacks are recorded in."""
    import toruspos.suite as suite_module

    original, recorded = suite_module._hermitian_classes, []

    def classes(mu, z):
        recorded.append(change(original(mu, z)))
        return recorded[-1]

    monkeypatch.setattr(suite_module, "_hermitian_classes", classes)
    return recorded


def _off_hermitian(index, relative):
    def change(stack):
        stack[index, 0, 1] += relative * np.abs(stack[index]).max()
        return stack

    return change


def _spread(stack):
    """A 1e-2-scale class off Hermitian by 1e-11 of its own scale, after
    a 1e2-scale class whose scale would pass it."""
    small = np.diag([1e-2, -2e-2]).astype(np.complex128)
    small[0, 1] = 2e-13
    return np.stack([np.diag([1e2, -1e2]).astype(np.complex128), small, *stack[2:]])


def _non_finite(stack):
    stack[3, 1, 1] = np.nan
    return stack


@pytest.mark.parametrize(
    "change,failing",
    [(_off_hermitian(2, 1e-9), 2), (_spread, 1), (_non_finite, 3)],
    ids=["off-hermitian", "own-scale", "non-finite"],
)
def test_corpus_classes_are_gated_each_at_its_own_scale(monkeypatch, change, failing):
    """``random_bundles`` gates its stack of classes once: the first class
    that fails, at its own scale, raises the ValueError the constructor
    raises on it alone."""
    g = TorusGeometry.regular(2, 4)
    recorded = _recording_classes(monkeypatch, change)
    with pytest.raises(ValueError) as stacked:
        random_bundles(np.random.default_rng(8), g, 5)
    with pytest.raises(ValueError) as lone:
        LineBundleMetric.from_constant(g, recorded[0][failing])
    assert str(stacked.value) == str(lone.value)


def test_corpus_bundles_keep_rows_of_their_gated_stack():
    """Each bundle of a draw keeps its row of the read-only class stack,
    which the lone constructor accepts as it is."""
    g = TorusGeometry.regular(2, 4)
    bundles = random_bundles(np.random.default_rng(8), g, 5)
    stack = bundles[0].r_const.base
    assert stack is not None and stack.shape == (5, 2, 2)
    for L in bundles:
        assert not L.r_const.flags.writeable
        assert L.r_const.base is stack
        copy = LineBundleMetric(g, L.r_const, L.phi, L.phi_expression)
        assert copy.r_const.tobytes() == L.r_const.tobytes()


def test_corpus_memory_is_bounded_by_its_chunk():
    """A corpus draws and runs one chunk at a time, so on a grid whose
    instances fill a chunk each (64^4, whose weights reach 64^3-point
    cores), 400 instances peak at most 1.25 times what 50 do: only their
    reports add up. Drawing every weight first peaked about six times as
    high."""
    g = TorusGeometry.regular(2, 64)
    run_equivalence_corpus(g, 2, seed=5)  # caches and work buffers
    peaks = []
    for count in (50, 400):
        tracemalloc.start()
        try:
            run_equivalence_corpus(g, count, seed=5)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0], peaks


def test_reports_carry_each_routes_tolerance():
    """Each margin comes with the tolerance its verdict was judged
    against, and the corpus summary counts the instances where some
    route's margin lies within ``NEAR_BOUNDARY`` times it; ``corpus.csv``
    keeps its columns."""
    g = TorusGeometry.regular(2, 4)
    for eps, near in ((None, False), (0.3, True)):
        reports, summary = run_equivalence_corpus(g, 30, seed=7, eps=eps)
        counted = 0
        for report in reports:
            data = report.to_json_dict()
            assert list(data["tolerances"]) == sorted(data["margins"])
            if eps is not None:
                assert set(data["tolerances"].values()) == {eps}
            counted += any(
                abs(data["margins"][k]) <= NEAR_BOUNDARY * t
                for k, t in data["tolerances"].items()
            )
        assert summary["near_boundary"] == counted
        assert (counted > 0) == near
        assert corpus_csv_lines(reports)[0] == CORPUS_CSV_HEADER_TEXT


#: The CSV header, as corpus.csv has always written it.
CORPUS_CSV_HEADER_TEXT = (
    "index,mu,phi,dual_not_psef_oracle,positive_pairing_search,"
    "constant_scalar_certificate,witness_q_positivity,passed,"
    "pairing_constant,witness_eigenvalue_floor"
)


def test_corpus_run_all_pass():
    g = TorusGeometry.regular(2, 8)
    reports, summary = run_equivalence_corpus(g, 60, seed=123)
    assert summary["fails"] == 0
    assert summary["count"] == 60
    assert summary["positive"] + summary["negative"] == 60
    # both branches of the equivalence should actually be exercised
    assert summary["positive"] > 0 and summary["negative"] > 0
    lines = corpus_csv_lines(reports)
    assert len(lines) == 61
    assert lines[0].startswith("index,mu,phi")


def test_corpus_runs_each_instance_at_the_given_tolerance():
    """The corpus hands its tolerance to every instance: each row equals
    the suite at that tolerance on the same seeded bundle, and a tolerance
    past some instances' margins flips their rows."""
    g = TorusGeometry.regular(2, 4)
    eps = 0.3
    reports, _ = run_equivalence_corpus(g, 30, seed=7, eps=eps)
    default, _ = run_equivalence_corpus(g, 30, seed=7)
    rng = np.random.default_rng(7)
    for report in reports:
        bundle = random_bundle(rng, g)
        expected = equivalence_suite(bundle, eps=eps)
        expected.details["index"] = report.details["index"]
        expected.details["mu"] = [float(v) for v in np.linalg.eigvalsh(bundle.r_const)]
        assert corpus_csv_lines([report]) == corpus_csv_lines([expected])
    flipped = sum(r.verdicts != d.verdicts for r, d in zip(reports, default))
    assert 0 < flipped < len(reports)


#: Geometries of the strong-weight draw: n = 1 on 16^2, 2 on 8^4, 3 on 4^6.
STRONG_GEOMETRIES = [TorusGeometry.regular(n, s) for n, s in ((1, 16), (2, 8), (3, 4))]


def test_suite_passes_where_the_normalized_weight_rescues_the_class():
    """Strong weights (1, 3 or 10 times the class's largest |eigenvalue|)
    often overturn the sign structure of r_const, so the bundle's own
    curvature is not (n-1)-positive against the witness metric although
    the class is: only the normalized weight phi - f makes the suite's
    fourth route agree with the other three. Every other instance is
    loaded as a grid field, so both spectrum forms run. 50 instances per
    geometry; 47 of the 150 are rescued."""
    rng = np.random.default_rng(7)
    fails = rescued = 0
    for index in range(150):
        geom = STRONG_GEOMETRIES[index // 50]
        n = geom.complex_dim
        matrix, mu = random_hermitian_class(rng, n)
        amplitude = float(rng.choice([1.0, 3.0, 10.0])) * float(np.max(np.abs(mu)))
        text = random_expression(
            rng,
            n,
            amplitude=amplitude,
            zero_probability=0.0,
            max_frequency=min(2, min(geom.grid_shape) // 2 - 1),
        )
        L = LineBundleMetric.from_expression(geom, matrix, text)
        if index % 2:
            L = L.with_weight(ScalarField(geom, L.phi.values.copy()))
        report = equivalence_suite(L)
        fails += not report.passed
        if report.dual_not_psef_oracle:
            witness = complex_matrix_from_json(report.details["witness_metric"])
            own = check_q_positive(L, constant_metric(geom, witness), n - 1)
            rescued += not own.verdict
    assert fails == 0
    assert rescued >= 0.2 * 150


def test_random_bundles_build_their_weight_from_the_drawn_tree(monkeypatch):
    """A counter, no timing: a corpus weight is built from the syntax tree
    drawn with its text, which equals the text's parse, so the text is
    never tokenized; the weight equals the text's field."""
    import toruspos.expressions as expressions_module
    import toruspos.suite as suite_module

    drawn, tokenized = [], []
    original_draw = suite_module._draw_expression
    original_tokenize = expressions_module.tokenize

    def recording(*args, **kwargs):
        drawn.append(original_draw(*args, **kwargs))
        return drawn[-1]

    def counting(text):
        tokenized.append(text)
        return original_tokenize(text)

    monkeypatch.setattr(suite_module, "_draw_expression", recording)
    monkeypatch.setattr(expressions_module, "tokenize", counting)
    for n in (1, 2, 3):
        g = TorusGeometry.regular(n, 4)
        for seed in range(200):
            L = random_bundle(np.random.default_rng(seed), g)
            tree, text = drawn[-1]
            assert L.phi_expression == text
            assert tokenized == []
            assert tree == expressions_module.parse_expression(text), text
            tokenized.clear()
            if seed % 20 == 0:
                field = scalar_field_from_expression(g, text)
                tokenized.clear()
                assert np.array_equal(L.phi.values, field.values)
                kept, parsed = L.phi._modes, field._modes
                assert (kept is None) == (parsed is None)
                if kept is not None:
                    assert np.array_equal(kept.wavevectors, parsed.wavevectors)
                    assert np.array_equal(kept.coefficients, parsed.coefficients)
