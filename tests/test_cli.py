"""End-to-end tests for the config-driven command line."""

import json
import math

import numpy as np
import pytest
from conftest import random_unitary

from toruspos import cli
from toruspos.lattice import TorusGeometry, scalar_field_from_csv


def write_config(path, payload):
    path.write_text(json.dumps(payload, indent=2))
    return str(path)


def base_config(tmp_path, *, r_const, phi="0", complex_dim=1, grid=16, q=None):
    payload = {
        "geometry": {"complex_dim": complex_dim, "grid": grid},
        "instance": {"r_const": r_const, "phi": phi},
        "output": {"dir": str(tmp_path / "out")},
    }
    if q is not None:
        payload["q"] = q
    return write_config(tmp_path / "config.json", payload)


def read_report(tmp_path):
    return json.loads((tmp_path / "out" / "report.json").read_text())


def test_check_qpos_positive_instance(tmp_path, capsys):
    cfg = base_config(tmp_path, r_const=[[1.0]], phi="0.2*cos(x1)")
    assert cli.main(["check-qpos", "--config", cfg]) == 0
    report = read_report(tmp_path)
    assert report["task"] == "check-qpos"
    assert report["result"]["pointwise"]["verdict"] is True
    assert report["result"]["uniform"]["verdict"] is True
    assert report["config"]["geometry"]["grid"] == [16, 16]
    out = capsys.readouterr().out
    assert "check-qpos" in out and "pointwise=True" in out


def test_check_qpos_mixed_signature_n2(tmp_path):
    r = [[2.0, 0.0], [0.0, -0.5]]
    cfg = base_config(tmp_path, r_const=r, complex_dim=2, grid=8, q=1)
    assert cli.main(["check-qpos", "--config", cfg]) == 0
    result = read_report(tmp_path)["result"]
    assert result["pointwise"]["verdict"] is True
    assert result["uniform"]["verdict"] is True
    assert result["uniform"]["margin"] == pytest.approx(1.5)


def test_uniformize_reports_rate_and_margin(tmp_path):
    r = [[2.0, 0.0], [0.0, -0.5]]
    payload = {
        "geometry": {"complex_dim": 2, "grid": 8},
        "instance": {"r_const": r, "phi": "0"},
        "q": 1,
        "output": {"dir": str(tmp_path / "out"), "fields": True},
    }
    cfg = write_config(tmp_path / "config.json", payload)
    assert cli.main(["uniformize", "--config", cfg]) == 0
    result = read_report(tmp_path)["result"]
    assert result["q_positive"] is True
    assert result["growth_rate"] == pytest.approx(np.log(3.0) / 2.0)
    assert result["uniform"]["verdict"] is True
    assert result["uniform"]["margin"] >= result["guaranteed_margin"] - 1e-12
    assert (tmp_path / "out" / result["eigenvalue_csv"]).is_file()


@pytest.mark.parametrize("top,uniform", [(2.0, True), (30.0, False), (100.0, False)])
def test_uniformize_spread_diagonal_class(tmp_path, capsys, top, uniform):
    """diag(top, 1), q = 0, zero weight: the shrink 1/psi(t x) spans
    exp(-t top) to 1, so its small entry must not cancel away (diag(100, 1)
    needs about 2e-46). The guaranteed margin is (exp(log 3) - 1)/log 3.
    diag(30, 1) and diag(100, 1) stay uniform=False because the default eps
    scales with the largest transformed eigenvalue."""
    payload = {
        "geometry": {"complex_dim": 2, "grid": 8},
        "instance": {"r_const": [[top, 0.0], [0.0, 1.0]], "phi": "0"},
        "q": 0,
        "output": {"dir": str(tmp_path / "out")},
    }
    cfg = write_config(tmp_path / "config.json", payload)
    assert cli.main(["uniformize", "--config", cfg]) == 0
    result = read_report(tmp_path)["result"]
    bound = 2.0 / math.log(3.0)
    assert result["guaranteed_margin"] == pytest.approx(bound, rel=1e-12)
    assert result["uniform"]["margin"] == pytest.approx(1.82048, rel=1e-6)
    assert result["uniform"]["margin"] == pytest.approx(bound, rel=1e-9)
    assert result["uniform"]["verdict"] is uniform
    out = capsys.readouterr().out
    assert out.startswith(
        "uniformize: q=0 rate=1.09861 uniform_margin=1.82048 (guaranteed 1.82048) -> "
    )


#: A fixed Haar unitary (conftest.random_unitary with rng seed 0).
ROTATION = random_unitary(np.random.default_rng(0), 2)


@pytest.mark.parametrize("q", [0, 1])
@pytest.mark.parametrize(
    "top,rotated",
    [(2.0, False), (30.0, False), (100.0, False), (300.0, False), (1000.0, False),
     (60.0, True)],
    ids=["2.0", "30.0", "100.0", "300.0", "1000.0", "rotated-60.0"],
)
def test_uniformize_spread_sweep_exit_codes(tmp_path, capsys, top, rotated, q):
    """U diag(top, 1) U*, zero weight, 8^4: valid configs never exit 2 or 3.
    With U = 1, only top = 1000 with q = 0 has t * lambda_max = 1000 log 3
    past log(float max), where the transformed metric cannot be held:
    exit 4. Rotated, top = 60 with q = 0 has t * lambda_max = 66 only, but
    the transformed metric's condition number passes 1/u, so float64
    loses its small eigen-part: exit 4 as well, not 3."""
    r_const = [[top, 0.0], [0.0, 1.0]]
    if rotated:
        matrix = (ROTATION * np.array([top, 1.0])) @ ROTATION.conj().T
        r_const = [[[z.real, z.imag] for z in row] for row in matrix]
    payload = {
        "geometry": {"complex_dim": 2, "grid": 8},
        "instance": {"r_const": r_const, "phi": "0"},
        "q": q,
        "output": {"dir": str(tmp_path / "out")},
    }
    cfg = write_config(tmp_path / "config.json", payload)
    out_of_range = top in (1000.0, 60.0) and q == 0
    assert cli.main(["uniformize", "--config", cfg]) == (4 if out_of_range else 0)
    err = capsys.readouterr().err
    if out_of_range:
        assert "uniformization out of range" in err
    else:
        assert err == ""
        assert read_report(tmp_path)["result"]["q_positive"] is True


@pytest.mark.parametrize(
    "n,top,q",
    [(2, 72.5, 0), (2, 107.5, 0), (3, 30.0, 0), (3, 40.0, 0), (3, 70.0, 0),
     (3, 90.0, 1)],
)
def test_uniformize_rotated_classes_never_exit_3(tmp_path, capsys, n, top, q):
    """U diag(top, ..., 1) U*, zero weight, 4^(2n): past float64's reach
    the uniformized metric either is refused (exit 4) or is checked
    (exit 0). The checks whiten by the metric's Cholesky factor, so a
    metric float64 cannot factor is refused by ``uniformize_metric``."""
    U = random_unitary(np.random.default_rng(0), n)
    eigs = [top, 2.0, 1.0] if n == 3 else [top, 1.0]
    matrix = (U * np.array(eigs)) @ U.conj().T
    payload = {
        "geometry": {"complex_dim": n, "grid": 4},
        "instance": {"r_const": [[[z.real, z.imag] for z in row] for row in matrix],
                     "phi": "0"},
        "q": q,
        "output": {"dir": str(tmp_path / "out")},
    }
    cfg = write_config(tmp_path / "config.json", payload)
    rc = cli.main(["uniformize", "--config", cfg])
    err = capsys.readouterr().err
    assert rc in (0, 4), err
    assert ("uniformization out of range" in err) is (rc == 4)


def test_uniformize_negative_instance_reports_not_positive(tmp_path, capsys):
    cfg = base_config(tmp_path, r_const=[[-1.0]])
    assert cli.main(["uniformize", "--config", cfg]) == 0
    result = read_report(tmp_path)["result"]
    assert result["q_positive"] is False
    assert "reason" in result
    assert "not q-positive" in capsys.readouterr().out


def test_normalize_scalar_writes_exponent_csv(tmp_path):
    cfg = base_config(tmp_path, r_const=[[1.0]], phi="cos(x1)")
    assert cli.main(["normalize-scalar", "--config", cfg]) == 0
    report = read_report(tmp_path)
    cert = report["result"]["certificate"]
    assert cert["verdict"] is True
    assert cert["margin"] == pytest.approx(1.0, rel=1e-9)
    csv_path = tmp_path / "out" / report["result"]["exponent_csv"]
    geom = TorusGeometry(1, (16, 16), (2 * np.pi, 2 * np.pi))
    f = scalar_field_from_csv(geom, csv_path)
    expected = np.cos(geom.coordinate_arrays()[0])
    assert np.max(np.abs(f.values - expected)) < 1e-8


def test_certify_positive_and_negative_both_exit_zero(tmp_path):
    r = [[1.0, 0.0], [0.0, -0.25]]
    cfg = base_config(tmp_path, r_const=r, complex_dim=2, grid=8)
    assert cli.main(["certify", "--config", cfg]) == 0
    cert = read_report(tmp_path)["result"]["certificate"]
    assert cert["verdict"] is True
    assert cert["margin"] >= 0.999 - 1e-12

    cfg = base_config(tmp_path, r_const=[[-1.0, 0.0], [0.0, -1.0]],
                      complex_dim=2, grid=8)
    assert cli.main(["certify", "--config", cfg]) == 0
    cert = read_report(tmp_path)["result"]["certificate"]
    assert cert["verdict"] is False
    assert cert["reason"] == "DualPseudoEffective"


def test_psef_test_reports_pairing(tmp_path):
    r = [[1.0, 0.0], [0.0, -0.25]]
    cfg = base_config(tmp_path, r_const=r, complex_dim=2, grid=8)
    assert cli.main(["psef-test", "--config", cfg]) == 0
    result = read_report(tmp_path)["result"]
    assert result["pseudo_effective"] is False
    assert result["dual_pseudo_effective"] is False
    assert result["positive_pairing_found"] is True
    assert result["pairing_constant"] > 0.0
    assert "witness_metric" in result


def test_equivalence_suite_single_instance(tmp_path):
    r = [[1.0, 0.0], [0.0, 0.5]]
    cfg = base_config(tmp_path, r_const=r, phi="0.05*sin(x1)",
                      complex_dim=2, grid=8)
    assert cli.main(["equivalence-suite", "--config", cfg]) == 0
    result = read_report(tmp_path)["result"]
    assert result["passed"] is True
    assert result["dual_not_psef_oracle"] is True


def test_equivalence_suite_corpus_mode(tmp_path):
    out = tmp_path / "out"
    rc = cli.main([
        "equivalence-suite", "--corpus", "12", "--seed", "7",
        "--out-dir", str(out), "--grid", "8",
    ])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["result"]["count"] == 12
    assert report["result"]["fails"] == 0
    assert report["config"]["corpus"] == 12
    assert report["config"]["seed"] == 7
    lines = (out / "corpus.csv").read_text().strip().split("\n")
    assert len(lines) == 13
    assert lines[0].startswith("index,")


def test_corpus_report_echoes_no_instance_base_or_q(tmp_path):
    """A corpus draws its own instances, base metrics and q, so the
    config's are not echoed as if they had run."""
    cfg = write_config(tmp_path / "config.json", {
        "geometry": {"complex_dim": 2, "grid": 8},
        "instance": {"r_const": [[1.0, 0.0], [0.0, 2.0]], "phi": "0"},
        "base_metric": [[1.0, 0.0], [0.0, 1.0]],
        "q": 1,
        "output": {"dir": str(tmp_path / "out")},
    })
    assert cli.main(["equivalence-suite", "--corpus", "2", "--config", cfg]) == 0
    config = read_report(tmp_path)["config"]
    assert config["corpus"] == 2
    assert not {"instance", "base_metric", "q"} & set(config)


def test_corpus_runs_are_deterministic(tmp_path):
    out = tmp_path / "out"
    args = ["equivalence-suite", "--corpus", "8", "--seed", "3",
            "--out-dir", str(out), "--grid", "8"]
    assert cli.main(args) == 0
    first_csv = (out / "corpus.csv").read_bytes()
    first_report = json.loads((out / "report.json").read_text())
    assert cli.main(args) == 0
    second_csv = (out / "corpus.csv").read_bytes()
    second_report = json.loads((out / "report.json").read_text())
    assert first_csv == second_csv
    del first_report["timestamp"], second_report["timestamp"]
    assert first_report == second_report


def test_dump_field_writes_both_csvs(tmp_path):
    r = [[1.0, 0.0], [0.0, -0.5]]
    cfg = base_config(tmp_path, r_const=r, phi="0.1*cos(y2)",
                      complex_dim=2, grid=8)
    assert cli.main(["dump-field", "--config", cfg]) == 0
    report = read_report(tmp_path)
    out = tmp_path / "out"
    assert (out / report["result"]["eigenvalues_csv"]).is_file()
    assert (out / report["result"]["scalar_csv"]).is_file()
    assert report["result"]["degree"] == pytest.approx(
        report["result"]["target_constant"]
        * (2 * np.pi) ** 4 / 2.0
    )
    ev_lines = (out / report["result"]["eigenvalues_csv"]).read_text()
    header = ev_lines.split("\n", 1)[0]
    assert header == "x1,y1,x2,y2,kappa1,kappa2".replace("kappa", "lambda")


def test_grid_flag_overrides_config(tmp_path):
    cfg = base_config(tmp_path, r_const=[[1.0]], grid=16)
    assert cli.main(["check-qpos", "--config", cfg, "--grid", "8"]) == 0
    assert read_report(tmp_path)["config"]["geometry"]["grid"] == [8, 8]


def test_tolerance_flag_recorded_in_config_echo(tmp_path):
    cfg = base_config(tmp_path, r_const=[[1.0]])
    assert cli.main(["check-qpos", "--config", cfg, "--tolerance", "1e-6"]) == 0
    report = read_report(tmp_path)
    assert report["config"]["tolerances"]["eps_pos"] == 1e-6
    assert report["result"]["pointwise"]["tolerance"] == 1e-6


def test_corpus_runs_at_the_tolerance_it_echoes(tmp_path, monkeypatch):
    """A corpus report used to echo the tolerance it never used."""
    seen = []
    original = cli.run_equivalence_corpus

    def recording(*args, **kwargs):
        seen.append(kwargs["eps"])
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "run_equivalence_corpus", recording)
    out = tmp_path / "out"
    args = ["equivalence-suite", "--corpus", "4", "--seed", "7", "--grid", "4"]
    assert cli.main([*args, "--out-dir", str(out), "--tolerance", "1e-12"]) == 0
    assert seen == [1e-12]
    assert json.loads((out / "report.json").read_text())["config"]["tolerances"][
        "eps_pos"
    ] == 1e-12


def test_out_dir_env_var_sets_default(tmp_path, monkeypatch):
    env_dir = tmp_path / "envout"
    monkeypatch.setenv("TORUSPOS_OUT_DIR", str(env_dir))
    payload = {
        "geometry": {"complex_dim": 1, "grid": 8},
        "instance": {"r_const": [[1.0]], "phi": "0"},
    }
    cfg = write_config(tmp_path / "config.json", payload)
    assert cli.main(["check-qpos", "--config", cfg]) == 0
    assert (env_dir / "report.json").is_file()


_VALID = {
    "geometry": {"complex_dim": 1, "grid": 8},
    "instance": {"r_const": [[1.0]], "phi": "0"},
}


@pytest.mark.parametrize(
    "payload",
    [
        {},
        {"geometry": {"grid": 8}},
        {"geometry": {"complex_dim": 1, "grid": 7},
         "instance": {"r_const": [[1.0]]}},
        {"geometry": {"complex_dim": 1, "grid": 8}},
        {"geometry": {"complex_dim": 1, "grid": 8},
         "instance": {"r_const": [[1.0]], "phi": "tan(x1)"}},
        {"geometry": {"complex_dim": 1, "grid": 8},
         "instance": {"r_const": [[1.0]], "phi": "sin(x2)"}},
        {"geometry": {"complex_dim": 2, "grid": 8},
         "instance": {"r_const": [[0.0, 1.0], [0.0, 0.0]]}},
        {"geometry": {"complex_dim": 2, "grid": 8},
         "instance": {"r_const": [[1.0, 0.0], [0.0, 1.0]]}, "q": 5},
        {"geometry": {"complex_dim": 1, "grid": 8},
         "instance": {"r_const": [[1.0]], "phi": "sin(5*x1)"}},
        {"geometry": {"complex_dim": 1, "grid": 8, "periods": 3.0},
         "instance": {"r_const": [[1.0]], "phi": "sin(x1)"}},
        {**_VALID, "tolerances": 5},
        {**_VALID, "tolerances": [0.001]},
        {**_VALID, "output": 5},
        {**_VALID, "output": ["out"]},
        {**_VALID, "output": {"dir": 5}},
        {"geometry": 5, "instance": {"r_const": [[1.0]]}},
        {"geometry": {"complex_dim": 1, "grid": 8}, "instance": 5},
        {**_VALID, "q": 0.5},
        {**_VALID, "q": "x"},
        {**_VALID, "geometry": {"complex_dim": 1.5, "grid": 8}},
        {**_VALID, "geometry": {"complex_dim": 1, "grid": [8, 8.5]}},
        {**_VALID, "output": {"fields": "false"}},
    ],
    ids=[
        "empty", "no-dim", "odd-grid", "no-instance", "bad-expression",
        "coord-out-of-range", "non-hermitian", "q-out-of-range",
        "aliased-weight", "non-periodic-weight", "tolerances-number",
        "tolerances-list", "output-number", "output-list", "dir-number",
        "geometry-number", "instance-number", "q-fraction", "q-text",
        "dim-fraction", "grid-fraction", "fields-text",
    ],
)
def test_bad_configs_exit_two(tmp_path, capsys, payload):
    payload.setdefault("output", {"dir": str(tmp_path / "out")})
    cfg = write_config(tmp_path / "config.json", payload)
    assert cli.main(["check-qpos", "--config", cfg]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_missing_config_file_exits_two(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert cli.main(["check-qpos", "--config", missing]) == 2
    assert "not found" in capsys.readouterr().err


def test_malformed_json_config_exits_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli.main(["check-qpos", "--config", str(path)]) == 2
    assert "valid JSON" in capsys.readouterr().err


def test_bad_grid_flag_exits_two(tmp_path, capsys):
    cfg = base_config(tmp_path, r_const=[[1.0]])
    assert cli.main(["check-qpos", "--config", cfg, "--grid", "8,8,8"]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_negative_corpus_count_exits_two(tmp_path):
    assert cli.main([
        "equivalence-suite", "--corpus", "0",
        "--out-dir", str(tmp_path / "out"), "--grid", "8",
    ]) == 2


def test_negative_seed_exits_two(tmp_path, capsys):
    """A negative seed is a configuration error on every subcommand: a
    corpus run used to exit 3 on it, and check-qpos to echo it."""
    assert cli.main([
        "equivalence-suite", "--corpus", "3", "--seed", "-1",
        "--out-dir", str(tmp_path / "corpus"), "--grid", "8",
    ]) == 2
    assert "--seed must be non-negative" in capsys.readouterr().err
    cfg = base_config(tmp_path, r_const=[[1.0]])
    assert cli.main(["check-qpos", "--config", cfg, "--seed", "-5"]) == 2
    assert "--seed must be non-negative" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


def test_internal_invariant_violations_exit_three(tmp_path, monkeypatch, capsys):
    from toruspos.errors import MeanNotZeroError

    def boom(run):
        raise MeanNotZeroError("right-hand side has mean 1.0")

    monkeypatch.setitem(cli._COMMANDS, "check-qpos", boom)
    cfg = base_config(tmp_path, r_const=[[1.0]])
    assert cli.main(["check-qpos", "--config", cfg]) == 3
    assert "internal invariant violation" in capsys.readouterr().err


def test_library_value_error_after_resolution_exits_three(
    tmp_path, monkeypatch, capsys
):
    def boom(run):
        raise ValueError("eigenvalue field contains non-finite values")

    monkeypatch.setitem(cli._COMMANDS, "check-qpos", boom)
    cfg = base_config(tmp_path, r_const=[[1.0]])
    assert cli.main(["check-qpos", "--config", cfg]) == 3
    assert "configuration error" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "task,tolerances",
    [
        ("check-qpos", {"eps_pos": -1.0}),
        ("check-qpos", {"eps_pos": "tiny"}),
        ("certify", {"delta": "small"}),
        ("certify", {"delta": -0.1}),
        ("equivalence-suite", {"delta": 0.0}),
        ("check-qpos", {"delta": "abc"}),
        ("check-qpos", {"delta": -1.0}),
        ("dump-field", {"eps_pos": [0.1]}),
        ("equivalence-suite", {"delta": 1.0}),
        ("certify", {"delta": 10.0}),
        ("check-qpos", {"eps_pos": float("inf")}),
    ],
)
def test_bad_tolerances_exit_two(tmp_path, capsys, task, tolerances):
    """Tolerances are checked while the config is resolved, so a bad one
    is a configuration error, not a library failure (exit 3)."""
    payload = {
        "geometry": {"complex_dim": 1, "grid": 8},
        "instance": {"r_const": [[1.0]], "phi": "0"},
        "tolerances": tolerances,
        "output": {"dir": str(tmp_path / "out")},
    }
    cfg = write_config(tmp_path / "config.json", payload)
    assert cli.main([task, "--config", cfg]) == 2
    assert "configuration error" in capsys.readouterr().err


_TASKS = [
    "check-qpos", "uniformize", "normalize-scalar", "certify", "psef-test",
    "equivalence-suite", "dump-field",
]


@pytest.mark.parametrize("task", _TASKS)
@pytest.mark.parametrize(
    "extra",
    [
        {"q": 0.5},
        {"q": "x"},
        {"q": True},
        {"tolerances": {"delta": "abc"}},
        {"base_metric": [[1.0, 0.0], [0.0, -1.0]]},
    ],
    ids=["q-fraction", "q-text", "q-bool", "delta-text", "base-not-pd"],
)
def test_echoed_values_are_validated_on_every_subcommand(tmp_path, capsys, task, extra):
    """Every value the report echoes is checked before any work, also on a
    subcommand that does not use it, so not even the output directory is
    made."""
    payload = {
        "geometry": {"complex_dim": 2, "grid": 8},
        "instance": {"r_const": [[1.0, 0.0], [0.0, 0.5]], "phi": "0"},
        "output": {"dir": str(tmp_path / "out")},
        **extra,
    }
    cfg = write_config(tmp_path / "config.json", payload)
    assert cli.main([task, "--config", cfg]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("task", _TASKS)
def test_base_without_cholesky_factor_exits_two(tmp_path, capsys, task):
    """A base metric whose smallest eigenvalue is positive (2.8e-17 by
    LAPACK, 5.6e-17 in closed form) but whose Cholesky pivot
    d - |l21|^2 is 0 in float64. The pencil route whitens by that factor,
    so the metric is refused where it is built, on every subcommand."""
    lower = [-0.30914730029112325, 0.3083325288363063]
    payload = {
        "geometry": {"complex_dim": 2, "grid": 4},
        "instance": {"r_const": [[1.0, 0.0], [0.0, 1.0]], "phi": "0"},
        "base_metric": [
            [[0.2563629782152999, 0.0], [lower[0], -lower[1]]],
            [lower, [0.7436370217847001, 0.0]],
        ],
        "q": 1,
        "output": {"dir": str(tmp_path / "out")},
    }
    cfg = write_config(tmp_path / "config.json", payload)
    assert cli.main([task, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "no Cholesky factor" in err
    assert not (tmp_path / "out").exists()


def test_integral_floats_run_and_are_echoed_as_ints(tmp_path):
    runs = []
    for number in (int, float):
        cfg = base_config(tmp_path, r_const=[[2.0, 0.0], [0.0, -0.5]],
                          complex_dim=number(2), grid=number(8), q=number(1))
        assert cli.main(["check-qpos", "--config", cfg]) == 0
        runs.append(read_report(tmp_path))
    config = runs[1]["config"]
    assert type(config["q"]) is int and type(config["geometry"]["complex_dim"]) is int
    assert runs[0]["config"] == config
    assert runs[0]["result"] == runs[1]["result"]


@pytest.mark.parametrize("task", _TASKS)
def test_report_config_round_trips(tmp_path, task):
    """Fed back as the config, a report's own config gives the same result
    and the same config, apart from the output directory."""
    payload = {
        "geometry": {"complex_dim": 2, "grid": 8},
        "instance": {"r_const": [[2.0, [0.3, 0.2]], [[0.3, -0.2], 1.0]],
                     "phi": "0.05*sin(x1)*cos(y2)"},
        "q": 1,
        "base_metric": [[1.5, [0.2, -0.4]], [[0.2, 0.4], 0.9]],
        "tolerances": {"delta": 0.01},
        "output": {"dir": str(tmp_path / "first"), "fields": True},
    }
    reports = []
    for name in ("first", "second"):
        cfg = write_config(tmp_path / f"{name}.json", payload)
        assert cli.main([task, "--config", cfg]) == 0
        reports.append(json.loads((tmp_path / name / "report.json").read_text()))
        payload = json.loads(json.dumps(reports[-1]["config"]))
        payload["output"]["dir"] = str(tmp_path / "second")
    first, second = reports
    assert first["config"]["output"].pop("dir") == str(tmp_path / "first")
    assert second["config"]["output"].pop("dir") == str(tmp_path / "second")
    assert first["config"] == second["config"]
    assert first["result"] == second["result"]


def test_bad_corpus_grid_flag_exits_two(tmp_path, capsys):
    argv = ["equivalence-suite", "--corpus", "2", "--grid", "7",
            "--out-dir", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    assert "configuration error" in capsys.readouterr().err


def test_parser_is_built_once_per_process(tmp_path, monkeypatch):
    built = []
    original = cli.build_parser

    def counting():
        built.append(1)
        return original()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    try:
        cfg = base_config(tmp_path, r_const=[[1.0]], grid=8)
        for _ in range(3):
            assert cli.main(["check-qpos", "--config", cfg]) == 0
        assert cli.main(["uniformize", "--config", cfg]) == 0
    finally:
        cli._parser.cache_clear()
    assert built == [1]


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_help_exits_cleanly():
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0


def test_report_timestamp_is_isoformat(tmp_path):
    from datetime import datetime

    cfg = base_config(tmp_path, r_const=[[1.0]], grid=8)
    assert cli.main(["check-qpos", "--config", cfg]) == 0
    stamp = read_report(tmp_path)["timestamp"]
    parsed = datetime.fromisoformat(stamp)
    assert parsed.tzinfo is not None
