"""Config-driven command line for torus positivity experiments.

One JSON config describes a scenario: the torus discretization, the
instance (constant curvature matrix plus weight expression), tolerances,
and output options. Subcommands dispatch to the library and write a JSON
report plus optional CSV field dumps into the output directory.

Exit codes: 0 for a completed run regardless of mathematical verdict,
2 for configuration problems (raised while the config and flags are
resolved, once per run and before any computation; every value the
report echoes is validated on every subcommand, also one it does not
use), 3 for internal invariant violations (a failed equivalence suite, a
non-zero-mean elliptic right-hand side, another InternalInvariantError,
or a ValueError from the library after the config was resolved; all of
these mean a bug, not a bad instance), 4 when the uniformizing transform
of a valid instance leaves the float64 range (UniformizationRangeError).

Config schema (all keys optional unless noted; each section is a JSON
object)::

    {
      "geometry": {                     # required for instance commands
        "complex_dim": 2,               # integral
        "grid": 8 or [8, 8, 8, 8],      # integral per-axis counts, even, >= 4
        "periods": 6.2831853... or [...]
      },
      "instance": {                     # required for instance commands
        "r_const": [[[re, im], ...]],   # n x n Hermitian, nested rows
        "phi": "0.1*sin(x1) + cos(2*y2)"
      },
      "q": 1,                           # integral, 0..n-1; default n-1
      "base_metric": [[[re, im], ...]], # constant PD matrix, default Id
      "tolerances": {"eps_pos": null, "delta": 0.001},
      "output": {"dir": "out", "fields": false}   # fields: true or false
    }

Flags override the config; ``TORUSPOS_OUT_DIR`` sets the default output
directory. Reports embed the fully resolved configuration (an integral
float such as ``"q": 1.0`` is echoed as the integer the run used), and
repeated runs with identical config and seed are byte-identical apart
from the timestamp field.
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
    """Decorate a step that reads the config: the KeyError, TypeError,
    ValueError or OSError a malformed value raises there becomes a
    ConfigError."""

    def decorate(resolve):
        @functools.wraps(resolve)
        def checked(*args):
            try:
                return resolve(*args)
            except ConfigError:
                raise
            except (KeyError, TypeError, ValueError, OSError) as exc:
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


def _section(config: dict, name: str) -> dict:
    """The config section ``name``, which must be a JSON object ({} if absent)."""
    section = config.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{name} must be a JSON object, got {section!r}")
    return section


def _number(value) -> bool:
    """Is ``value`` a JSON number (booleans are not)?"""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _integer(value, what: str) -> int:
    """An integral JSON number as an int (``1.0`` is 1; text and booleans fail)."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return value


def _per_axis(value, axes: int) -> list:
    """A per-axis list, or one value for every axis."""
    return value if isinstance(value, list) else [value] * axes


class _Run:
    """One invocation, resolved once from the config and the flags.

    Constructing it resolves every value the report echoes (``echo``), so
    a configuration problem is a ConfigError before any work. ``finish``
    writes the report and prints the summary line.
    """

    def __init__(self, config: dict, args) -> None:
        self.config = config
        self.args = args
        self.corpus = getattr(args, "corpus", None)
        if self.corpus is not None and self.corpus < 1:
            raise ConfigError(f"--corpus must be positive, got {self.corpus}")
        if args.seed is not None and args.seed < 0:
            raise ConfigError(f"--seed must be non-negative, got {args.seed}")
        # A corpus run is always seeded.
        self.seed = 0 if args.seed is None and self.corpus is not None else args.seed
        self.echo = self._resolve()

    @functools.cached_property
    @_resolver("geometry")
    def geometry(self) -> TorusGeometry:
        """The config's torus; a corpus run without one takes the default."""
        if "geometry" in self.config or self.corpus is None:
            geo = _section(self.config, "geometry")
        else:
            geo = {"complex_dim": DEFAULT_CORPUS_DIM, "grid": DEFAULT_CORPUS_GRID}
        if "complex_dim" not in geo:
            raise ConfigError("config must provide geometry.complex_dim")
        n = _integer(geo["complex_dim"], "geometry.complex_dim")
        axes = 2 * n
        grid = _per_axis(geo.get("grid", 16), axes)
        shape = [_integer(count, "geometry.grid") for count in grid]
        if self.args.grid:  # one count, or one per axis
            flag = [int(count) for count in self.args.grid.split(",")]
            shape = flag * axes if len(flag) == 1 else flag
        periods = _per_axis(geo.get("periods", 2.0 * math.pi), axes)
        if not all(map(_number, periods)):
            raise ConfigError(f"geometry.periods must be numbers, got {periods!r}")
        return TorusGeometry(n, tuple(shape), tuple(periods))

    @functools.cached_property
    @_resolver("instance")
    def bundle(self) -> LineBundleMetric:
        inst = _section(self.config, "instance")
        if "r_const" not in inst:
            raise ConfigError("config must provide instance.r_const")
        return bundle_from_json_dict(self.geometry, inst)

    @functools.cached_property
    @_resolver("base_metric")
    def omega(self) -> MetricField:
        raw = self.config.get("base_metric")
        if raw is None:
            return identity_metric(self.geometry)
        return constant_metric(self.geometry, complex_matrix_from_json(raw))

    @functools.cached_property
    def q(self) -> int:
        top = self.geometry.complex_dim - 1
        q = _integer(self.config.get("q", top), "q")
        if not 0 <= q <= top:
            raise ConfigError(f"q must be in 0..{top}, got {q}")
        return q

    @functools.cached_property
    def eps(self) -> float | None:
        """Positivity tolerance: ``--tolerance`` wins over ``tolerances.eps_pos``."""
        eps = self.args.tolerance
        if eps is None:
            eps = _section(self.config, "tolerances").get("eps_pos")
        if eps is not None and not (_number(eps) and 0 <= eps < math.inf):
            message = f"tolerance must be a nonnegative finite number, got {eps!r}"
            raise ConfigError(message)
        return eps

    @functools.cached_property
    def delta(self) -> float:
        delta = _section(self.config, "tolerances").get("delta", DEFAULT_DELTA)
        if not (_number(delta) and 0 < delta < 1):
            raise ConfigError(f"tolerances.delta must lie in (0, 1), got {delta!r}")
        return delta

    @functools.cached_property
    @_resolver("output.dir")
    def out_dir(self) -> Path:
        out_dir = Path(
            self.args.out_dir
            or _section(self.config, "output").get("dir")
            or os.environ.get("TORUSPOS_OUT_DIR")
            or DEFAULT_OUT_DIR
        )
        out_dir.mkdir(parents=True, exist_ok=True)
        return out_dir

    def _resolve(self) -> dict:
        """The report's ``config``, built from the resolved values. The
        instance and the base metric are echoed as given, once valid, and
        left out of a corpus run, which uses neither, nor q; the output
        directory is created last."""
        geometry = self.geometry
        echo = {
            "geometry": {
                "complex_dim": geometry.complex_dim,
                "grid": list(geometry.grid_shape),
                "periods": list(geometry.periods),
            },
            "tolerances": {"eps_pos": self.eps, "delta": self.delta},
        }
        if self.corpus is None:
            self.bundle  # validates the raw instance echoed here
            inst = self.config["instance"]
            echo["instance"] = {"r_const": inst["r_const"], "phi": inst.get("phi", "0")}
            if "base_metric" in self.config:
                self.omega  # validates the raw matrix echoed here
                echo["base_metric"] = self.config["base_metric"]
            if "q" in self.config:
                echo["q"] = self.q
        else:  # a corpus draws its own instances, bases and q
            echo["corpus"] = self.corpus
        if self.seed is not None:
            echo["seed"] = self.seed
        fields = _section(self.config, "output").get("fields", False)
        if not isinstance(fields, bool):
            raise ConfigError(f"output.fields must be true or false, got {fields!r}")
        echo["output"] = {"dir": str(self.out_dir), "fields": fields}
        return echo

    def finish(self, result: dict, summary: str) -> int:
        """Write ``report.json`` and print the summary line; exit code 0."""
        report = {
            "task": self.args.task,
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "config": self.echo,
            "result": result,
        }
        path = self.out_dir / "report.json"
        path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"{self.args.task}: {summary} -> {path}")
        return 0


def _agreement(passed: bool) -> int:
    """Exit code of an equivalence run: a disagreement is a bug."""
    if passed:
        return 0
    print("equivalence-suite: agreement violated, this is a bug", file=sys.stderr)
    return 3


def _cmd_check_qpos(run: _Run) -> int:
    pointwise = check_q_positive(run.bundle, run.omega, run.q, eps=run.eps)
    uniform = check_uniform_q_positive(run.bundle, run.omega, run.q, eps=run.eps)
    result = {
        "pointwise": pointwise.to_json_dict(),
        "uniform": uniform.to_json_dict(),
    }
    return run.finish(
        result,
        f"q={run.q} pointwise={pointwise.verdict} "
        f"uniform={uniform.verdict} margin={pointwise.margin:.6g}",
    )


def _cmd_uniformize(run: _Run) -> int:
    q = run.q
    R = chern_curvature(run.bundle)
    ev = generalized_eigenvalues(R, run.omega)
    try:
        rate = growth_rate(ev, q, eps=run.eps)
    except NotQPositiveError as exc:
        result = {"q_positive": False, "q": q, "reason": str(exc)}
        return run.finish(result, f"q={q} not q-positive")
    new_omega = uniformize_metric(run.bundle, run.omega, q, eps=run.eps)
    after = check_uniform_q_positive(run.bundle, new_omega, q, eps=run.eps)
    floor = float(ev.at_rank(run.geometry.complex_dim - q).min())
    bound = uniform_margin_bound(rate, floor, q)
    result = {
        "q_positive": True,
        "q": q,
        "growth_rate": rate,
        "eigenvalue_floor": floor,
        "uniform": after.to_json_dict(),
        "guaranteed_margin": bound,
    }
    if run.echo["output"]["fields"]:
        new_ev = generalized_eigenvalues(R, new_omega)
        csv_path = run.out_dir / "uniformized_eigenvalues.csv"
        _columns_to_csv(run.geometry, {"kappa": new_ev.values}, csv_path)
        result["eigenvalue_csv"] = csv_path.name
    return run.finish(
        result,
        f"q={q} rate={rate:.6g} uniform_margin={after.margin:.6g} "
        f"(guaranteed {bound:.6g})",
    )


def _cmd_normalize_scalar(run: _Run) -> int:
    f, cert = normalize_scalar_curvature(run.bundle, run.omega, eps=run.eps)
    csv_path = scalar_field_to_csv(f, run.out_dir / "conformal_exponent.csv", "f")
    result = {"certificate": cert.to_json_dict(), "exponent_csv": csv_path.name}
    return run.finish(
        result,
        f"c={cert.margin:.6g} verdict={cert.verdict} "
        f"residual={cert.residuals['poisson_rel']:.3g}",
    )


def _cmd_certify(run: _Run) -> int:
    cert = certify_n_minus_1_positive(run.bundle, delta=run.delta, eps=run.eps)
    result = {"certificate": cert.to_json_dict()}
    if cert.witness_weight is not None:
        csv_path = scalar_field_to_csv(
            cert.witness_weight, run.out_dir / "conformal_exponent.csv", "f"
        )
        result["exponent_csv"] = csv_path.name
    return run.finish(result, f"verdict={cert.verdict} c={cert.margin:.6g}")


def _cmd_psef_test(run: _Run) -> int:
    psef = is_pseudo_effective(run.bundle)
    dual_psef = is_pseudo_effective(run.bundle.dual())
    search = dual_not_pseudo_effective(run.bundle, eps=run.eps)
    result = {
        "pseudo_effective": psef,
        "dual_pseudo_effective": dual_psef,
        "positive_pairing_found": search.found,
        "pairing_constant": search.constant,
    }
    if search.witness is not None:
        result["witness_metric"] = complex_matrix_to_json(search.witness)
    return run.finish(
        result,
        f"psef={psef} dual_psef={dual_psef} pairing={search.constant:.6g}",
    )


def _cmd_equivalence_suite(run: _Run) -> int:
    if run.corpus is None:
        report = equivalence_suite(run.bundle, delta=run.delta, eps=run.eps)
        run.finish(
            report.to_json_dict(),
            f"verdicts={report.verdicts} passed={report.passed}",
        )
        return _agreement(report.passed)
    reports, summary = run_equivalence_corpus(
        run.geometry, run.corpus, run.seed, delta=run.delta, eps=run.eps
    )
    csv_path = run.out_dir / "corpus.csv"
    csv_path.write_text("\n".join(corpus_csv_lines(reports)) + "\n")
    run.finish(
        {**summary, "csv": csv_path.name},
        f"{summary['count']} instances, "
        f"{summary['fails']} fails, {summary['positive']} positive",
    )
    return _agreement(not summary["fails"])


def _cmd_dump_field(run: _Run) -> int:
    R = chern_curvature(run.bundle)
    ev = generalized_eigenvalues(R, run.omega)
    s = scalar_curvature(run.bundle, run.omega)
    ev_path = _columns_to_csv(
        run.geometry, {"lambda": ev.values}, run.out_dir / "eigenvalues.csv"
    )
    s_path = scalar_field_to_csv(s, run.out_dir / "scalar_curvature.csv", "s")
    result = {
        "eigenvalues_csv": ev_path.name,
        "scalar_csv": s_path.name,
        "degree": degree_integral(run.bundle, run.omega),
        "target_constant": target_constant(run.bundle, run.omega),
    }
    return run.finish(result, f"wrote {ev_path.name}, {s_path.name}")


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
        run = _Run(_load_config(args.config), args)
        return _COMMANDS[args.task](run)
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
