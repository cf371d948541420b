"""Config-driven command line for torus positivity experiments.

One JSON config describes a scenario: the torus discretization, the
instance (constant curvature matrix plus weight expression), tolerances,
and output options. Subcommands dispatch to the library and write a JSON
report plus optional CSV field dumps into the output directory.

Exit codes: 0 for a completed run regardless of mathematical verdict,
2 for configuration problems (raised while the config and flags are read
and resolved), 3 for internal invariant violations (a failed equivalence
suite, a non-zero-mean elliptic right-hand side, another
InternalInvariantError, or a ValueError from the library after the
config was resolved; all of these mean a bug, not a bad instance), 4
when the uniformizing transform of a valid instance leaves the float64
range (UniformizationRangeError).

Config schema (all keys optional unless noted)::

    {
      "geometry": {                     # required for instance commands
        "complex_dim": 2,
        "grid": 8 or [8, 8, 8, 8],      # per-axis counts, even, >= 4
        "periods": 6.2831853... or [...]
      },
      "instance": {                     # required for instance commands
        "r_const": [[[re, im], ...]],   # n x n Hermitian, nested rows
        "phi": "0.1*sin(x1) + cos(2*y2)"
      },
      "q": 1,
      "base_metric": [[[re, im], ...]], # constant PD matrix, default Id
      "tolerances": {"eps_pos": null, "delta": 0.001},
      "output": {"dir": "out", "fields": false}
    }

Flags override the config; ``TORUSPOS_OUT_DIR`` sets the default output
directory. Reports embed the fully resolved configuration, and repeated
runs with identical config and seed are byte-identical apart from the
timestamp field.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .curvature import (
    LineBundleMetric,
    bundle_from_json_dict,
    chern_curvature,
    complex_matrix_from_json,
    complex_matrix_to_json,
    degree_integral,
    scalar_curvature,
)
from .errors import (
    ConfigError,
    InternalInvariantError,
    MeanNotZeroError,
    NotQPositiveError,
    UniformizationRangeError,
)
from .lattice import (
    MetricField,
    TorusGeometry,
    _columns_to_csv,
    constant_metric,
    identity_metric,
    scalar_field_to_csv,
)
from .normalizer import (
    DEFAULT_DELTA,
    certify_n_minus_1_positive,
    normalize_scalar_curvature,
    target_constant,
)
from .qpositivity import (
    check_q_positive,
    check_uniform_q_positive,
    generalized_eigenvalues,
    growth_rate,
    uniform_margin_bound,
    uniformize_metric,
)
from .suite import (
    corpus_csv_lines,
    dual_not_pseudo_effective,
    equivalence_suite,
    is_pseudo_effective,
    run_equivalence_corpus,
)

DEFAULT_OUT_DIR = "toruspos_out"
DEFAULT_CORPUS_GRID = 8
DEFAULT_CORPUS_DIM = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toruspos",
        description="Positivity experiments for curvature classes on flat tori.",
    )
    sub = parser.add_subparsers(dest="task", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="path to a JSON scenario config")
        p.add_argument(
            "--out-dir",
            help="output directory (default $TORUSPOS_OUT_DIR or ./toruspos_out)",
        )
        p.add_argument("--seed", type=int, help="seed for randomized runs")
        p.add_argument(
            "--grid",
            help="override grid, one count or comma list (e.g. 16 or 16,16,8,8)",
        )
        p.add_argument(
            "--tolerance",
            type=float,
            help="override the positivity tolerance eps_pos",
        )
        return p

    add("check-qpos", "pointwise and uniform q-positivity of one instance")
    add("uniformize", "base-metric transform making q-positivity uniform")
    add("normalize-scalar", "flatten scalar curvature to its class constant")
    add("certify", "search a constant metric certifying positive scalar curvature")
    add("psef-test", "pseudo-effectivity oracle and dual pairing search")
    suite_p = add("equivalence-suite", "four-way positivity equivalence check")
    suite_p.add_argument(
        "--corpus",
        type=int,
        help="run this many seeded random instances instead of the config instance",
    )
    add("dump-field", "export eigenvalue and scalar curvature fields as CSV")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by later ``main`` calls."""
    return build_parser()


def _resolver(what: str):
    """Decorate a step that reads the config: the KeyError, TypeError or
    ValueError a malformed value raises there becomes a ConfigError."""

    def decorate(resolve):
        @functools.wraps(resolve)
        def checked(*args):
            try:
                return resolve(*args)
            except ConfigError:
                raise
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"invalid {what}: {exc}") from exc

        return checked

    return decorate


@_resolver("config")
def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    return data


def _parse_grid_flag(text: str, axes: int) -> tuple[int, ...]:
    try:
        parts = [int(v) for v in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"--grid expects integers, got {text!r}") from exc
    if len(parts) == 1:
        return (parts[0],) * axes
    if len(parts) != axes:
        raise ConfigError(f"--grid needs 1 or {axes} counts, got {len(parts)}")
    return tuple(parts)


@_resolver("geometry")
def _resolve_geometry(config: dict, args) -> TorusGeometry:
    geo = config.get("geometry")
    if geo is None:
        raise ConfigError("config must provide a geometry section")
    if "complex_dim" not in geo:
        raise ConfigError("geometry.complex_dim is required")
    n = int(geo["complex_dim"])
    axes = 2 * n
    grid = geo.get("grid", 16)
    if isinstance(grid, int):
        shape = (grid,) * axes
    else:
        shape = tuple(int(v) for v in grid)
    if args.grid:
        shape = _parse_grid_flag(args.grid, axes)
    periods = geo.get("periods", 2.0 * math.pi)
    if isinstance(periods, (int, float)):
        periods = (float(periods),) * axes
    else:
        periods = tuple(float(v) for v in periods)
    return TorusGeometry(n, shape, periods)


@_resolver("geometry")
def _resolve_corpus_geometry(config: dict, args) -> TorusGeometry:
    """The config's geometry, else the default corpus torus (``--grid`` applies)."""
    if "geometry" in config:
        return _resolve_geometry(config, args)
    axes = 2 * DEFAULT_CORPUS_DIM
    shape = (DEFAULT_CORPUS_GRID,) * axes
    if args.grid:
        shape = _parse_grid_flag(args.grid, axes)
    return TorusGeometry(DEFAULT_CORPUS_DIM, shape, (2.0 * math.pi,) * axes)


@_resolver("instance")
def _resolve_instance(config: dict, geometry: TorusGeometry) -> LineBundleMetric:
    inst = config.get("instance")
    if inst is None or "r_const" not in inst:
        raise ConfigError("config must provide instance.r_const")
    try:
        return bundle_from_json_dict(geometry, inst)
    except OSError as exc:
        raise ConfigError(f"invalid instance: {exc}") from exc


@_resolver("base_metric")
def _resolve_base_metric(config: dict, geometry: TorusGeometry) -> MetricField:
    raw = config.get("base_metric")
    if raw is None:
        return identity_metric(geometry)
    return constant_metric(geometry, complex_matrix_from_json(raw))


def _resolve_out_dir(config: dict, args) -> Path:
    out = config.get("output", {})
    path = (
        args.out_dir
        or out.get("dir")
        or os.environ.get("TORUSPOS_OUT_DIR")
        or DEFAULT_OUT_DIR
    )
    out_dir = Path(path)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


@_resolver("tolerances.eps_pos")
def _resolve_eps(config: dict, args) -> float | None:
    """Positivity tolerance: ``--tolerance`` wins over ``tolerances.eps_pos``."""
    eps = args.tolerance
    if eps is None:
        eps = config.get("tolerances", {}).get("eps_pos")
    if eps is not None and not eps >= 0:
        raise ConfigError(f"tolerance must be nonnegative, got {eps}")
    return eps


@_resolver("tolerances.delta")
def _resolve_delta(config: dict) -> float:
    delta = config.get("tolerances", {}).get("delta", DEFAULT_DELTA)
    if not delta > 0:
        raise ConfigError(f"tolerances.delta must be positive, got {delta}")
    return delta


def _resolved_config_dict(
    config: dict,
    args,
    geometry: TorusGeometry | None,
    out_dir: Path,
) -> dict:
    tol = config.get("tolerances", {})
    resolved = {
        "tolerances": {
            "eps_pos": _resolve_eps(config, args),
            "delta": tol.get("delta", DEFAULT_DELTA),
        },
        "output": {
            "dir": str(out_dir),
            "fields": bool(config.get("output", {}).get("fields", False)),
        },
    }
    if geometry is not None:
        resolved["geometry"] = {
            "complex_dim": geometry.complex_dim,
            "grid": list(geometry.grid_shape),
            "periods": list(geometry.periods),
        }
    if "instance" in config:
        resolved["instance"] = {
            "r_const": config["instance"].get("r_const"),
            "phi": config["instance"].get("phi", "0"),
        }
    if "base_metric" in config:
        resolved["base_metric"] = config["base_metric"]
    if "q" in config:
        resolved["q"] = config["q"]
    if args.seed is not None:
        resolved["seed"] = args.seed
    return resolved


def _write_report(out_dir: Path, task: str, config: dict, result: dict) -> Path:
    report = {
        "task": task,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "config": config,
        "result": result,
    }
    path = out_dir / "report.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


@_resolver("q")
def _resolve_q(config: dict, geometry: TorusGeometry) -> int:
    q = int(config.get("q", geometry.complex_dim - 1))
    if not 0 <= q <= geometry.complex_dim - 1:
        raise ConfigError(
            f"q must be in 0..{geometry.complex_dim - 1}, got {q}"
        )
    return q


def _cmd_check_qpos(config, args) -> int:
    geometry = _resolve_geometry(config, args)
    bundle = _resolve_instance(config, geometry)
    omega = _resolve_base_metric(config, geometry)
    q = _resolve_q(config, geometry)
    out_dir = _resolve_out_dir(config, args)
    eps = _resolve_eps(config, args)
    pointwise = check_q_positive(bundle, omega, q, eps=eps)
    uniform = check_uniform_q_positive(bundle, omega, q, eps=eps)
    result = {
        "pointwise": pointwise.to_json_dict(),
        "uniform": uniform.to_json_dict(),
    }
    path = _write_report(
        out_dir,
        "check-qpos",
        _resolved_config_dict(config, args, geometry, out_dir),
        result,
    )
    print(
        f"check-qpos: q={q} pointwise={pointwise.verdict} "
        f"uniform={uniform.verdict} margin={pointwise.margin:.6g} -> {path}"
    )
    return 0


def _cmd_uniformize(config, args) -> int:
    geometry = _resolve_geometry(config, args)
    bundle = _resolve_instance(config, geometry)
    omega = _resolve_base_metric(config, geometry)
    q = _resolve_q(config, geometry)
    out_dir = _resolve_out_dir(config, args)
    eps = _resolve_eps(config, args)
    resolved = _resolved_config_dict(config, args, geometry, out_dir)
    R = chern_curvature(bundle)
    ev = generalized_eigenvalues(R, omega)
    try:
        rate = growth_rate(ev, q, eps=eps)
    except NotQPositiveError as exc:
        result = {"q_positive": False, "q": q, "reason": str(exc)}
        path = _write_report(out_dir, "uniformize", resolved, result)
        print(f"uniformize: q={q} not q-positive -> {path}")
        return 0
    new_omega = uniformize_metric(bundle, omega, q, eps=eps)
    after = check_uniform_q_positive(bundle, new_omega, q, eps=eps)
    n = geometry.complex_dim
    floor = float(np.min(ev.at_rank(n - q)))
    bound = uniform_margin_bound(rate, floor, q)
    result = {
        "q_positive": True,
        "q": q,
        "growth_rate": rate,
        "eigenvalue_floor": floor,
        "uniform": after.to_json_dict(),
        "guaranteed_margin": bound,
    }
    if resolved["output"]["fields"]:
        new_ev = generalized_eigenvalues(R, new_omega)
        csv_path = _columns_to_csv(
            geometry, {"kappa": new_ev.values}, out_dir / "uniformized_eigenvalues.csv"
        )
        result["eigenvalue_csv"] = csv_path.name
    path = _write_report(out_dir, "uniformize", resolved, result)
    print(
        f"uniformize: q={q} rate={rate:.6g} uniform_margin={after.margin:.6g} "
        f"(guaranteed {bound:.6g}) -> {path}"
    )
    return 0


def _cmd_normalize_scalar(config, args) -> int:
    geometry = _resolve_geometry(config, args)
    bundle = _resolve_instance(config, geometry)
    omega = _resolve_base_metric(config, geometry)
    out_dir = _resolve_out_dir(config, args)
    eps = _resolve_eps(config, args)
    f, cert = normalize_scalar_curvature(bundle, omega, eps=eps)
    result = {"certificate": cert.to_json_dict()}
    csv_path = scalar_field_to_csv(f, out_dir / "conformal_exponent.csv", "f")
    result["exponent_csv"] = csv_path.name
    path = _write_report(
        out_dir,
        "normalize-scalar",
        _resolved_config_dict(config, args, geometry, out_dir),
        result,
    )
    print(
        f"normalize-scalar: c={cert.margin:.6g} verdict={cert.verdict} "
        f"residual={cert.residuals['poisson_rel']:.3g} -> {path}"
    )
    return 0


def _cmd_certify(config, args) -> int:
    geometry = _resolve_geometry(config, args)
    bundle = _resolve_instance(config, geometry)
    out_dir = _resolve_out_dir(config, args)
    eps = _resolve_eps(config, args)
    delta = _resolve_delta(config)
    cert = certify_n_minus_1_positive(bundle, delta=delta, eps=eps)
    result = {"certificate": cert.to_json_dict()}
    if cert.witness_weight is not None:
        csv_path = scalar_field_to_csv(
            cert.witness_weight, out_dir / "conformal_exponent.csv", "f"
        )
        result["exponent_csv"] = csv_path.name
    path = _write_report(
        out_dir,
        "certify",
        _resolved_config_dict(config, args, geometry, out_dir),
        result,
    )
    print(f"certify: verdict={cert.verdict} c={cert.margin:.6g} -> {path}")
    return 0


def _cmd_psef_test(config, args) -> int:
    geometry = _resolve_geometry(config, args)
    bundle = _resolve_instance(config, geometry)
    out_dir = _resolve_out_dir(config, args)
    eps = _resolve_eps(config, args)
    psef = is_pseudo_effective(bundle)
    dual_psef = is_pseudo_effective(bundle.dual())
    search = dual_not_pseudo_effective(bundle, eps=eps)
    result = {
        "pseudo_effective": psef,
        "dual_pseudo_effective": dual_psef,
        "positive_pairing_found": search.found,
        "pairing_constant": search.constant,
    }
    if search.witness is not None:
        result["witness_metric"] = complex_matrix_to_json(search.witness.matrix)
    path = _write_report(
        out_dir,
        "psef-test",
        _resolved_config_dict(config, args, geometry, out_dir),
        result,
    )
    print(
        f"psef-test: psef={psef} dual_psef={dual_psef} "
        f"pairing={search.constant:.6g} -> {path}"
    )
    return 0


def _cmd_equivalence_suite(config, args) -> int:
    out_dir = _resolve_out_dir(config, args)
    eps = _resolve_eps(config, args)
    delta = _resolve_delta(config)

    if args.corpus is not None:
        if args.corpus < 1:
            raise ConfigError(f"--corpus must be positive, got {args.corpus}")
        geometry = _resolve_corpus_geometry(config, args)
        seed = args.seed if args.seed is not None else 0
        reports, summary = run_equivalence_corpus(
            geometry, args.corpus, seed, delta=delta
        )
        csv_path = out_dir / "corpus.csv"
        csv_path.write_text("\n".join(corpus_csv_lines(reports)) + "\n")
        resolved = _resolved_config_dict(config, args, geometry, out_dir)
        resolved["corpus"] = args.corpus
        resolved["seed"] = seed
        result = dict(summary)
        result["csv"] = csv_path.name
        path = _write_report(out_dir, "equivalence-suite", resolved, result)
        print(
            f"equivalence-suite: {summary['count']} instances, "
            f"{summary['fails']} fails, {summary['positive']} positive -> {path}"
        )
        if summary["fails"]:
            print(
                "equivalence-suite: agreement violated, this is a bug",
                file=sys.stderr,
            )
            return 3
        return 0

    geometry = _resolve_geometry(config, args)
    bundle = _resolve_instance(config, geometry)
    report = equivalence_suite(bundle, delta=delta, eps=eps)
    path = _write_report(
        out_dir,
        "equivalence-suite",
        _resolved_config_dict(config, args, geometry, out_dir),
        report.to_json_dict(),
    )
    print(
        f"equivalence-suite: verdicts={report.verdicts} "
        f"passed={report.passed} -> {path}"
    )
    if not report.passed:
        print(
            "equivalence-suite: agreement violated, this is a bug",
            file=sys.stderr,
        )
        return 3
    return 0


def _cmd_dump_field(config, args) -> int:
    geometry = _resolve_geometry(config, args)
    bundle = _resolve_instance(config, geometry)
    omega = _resolve_base_metric(config, geometry)
    out_dir = _resolve_out_dir(config, args)
    R = chern_curvature(bundle)
    ev = generalized_eigenvalues(R, omega)
    s = scalar_curvature(bundle, omega)
    ev_path = _columns_to_csv(
        geometry, {"lambda": ev.values}, out_dir / "eigenvalues.csv"
    )
    s_path = scalar_field_to_csv(s, out_dir / "scalar_curvature.csv", "s")
    result = {
        "eigenvalues_csv": ev_path.name,
        "scalar_csv": s_path.name,
        "degree": degree_integral(bundle, omega),
        "target_constant": target_constant(bundle, omega),
    }
    path = _write_report(
        out_dir,
        "dump-field",
        _resolved_config_dict(config, args, geometry, out_dir),
        result,
    )
    print(f"dump-field: wrote {ev_path.name}, {s_path.name} -> {path}")
    return 0


_COMMANDS = {
    "check-qpos": _cmd_check_qpos,
    "uniformize": _cmd_uniformize,
    "normalize-scalar": _cmd_normalize_scalar,
    "certify": _cmd_certify,
    "psef-test": _cmd_psef_test,
    "equivalence-suite": _cmd_equivalence_suite,
    "dump-field": _cmd_dump_field,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = _load_config(args.config)
        return _COMMANDS[args.task](config, args)
    except ConfigError as exc:
        print(f"toruspos: configuration error: {exc}", file=sys.stderr)
        return 2
    except UniformizationRangeError as exc:
        print(f"toruspos: uniformization out of range: {exc}", file=sys.stderr)
        return 4
    except (MeanNotZeroError, InternalInvariantError, ValueError) as exc:
        print(f"toruspos: internal invariant violation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
