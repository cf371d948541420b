"""Benchmark entry point: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout. ``--trace 0`` starts SETUP_SAMPLES set-up-only
workers and one measuring worker, each a fresh process, and prints the
end-to-end metrics. ``--trace 1`` starts one worker that replays the
workload's trace ops untraced and then traced, and prints the per-layer
metrics. The last line of standard output is the JSON result; the lines
before it are a human-readable table, the verdict digest and the
provenance block. ``--smoke`` runs a few ops of every workload in both
modes and checks that every metric named in BENCHMARK.json appears with
its unit. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spec import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 9
DEADLINE_S = 170.0
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
BLAS_THREADS = "1"
#: Nominal duration of the reference kernel (worker.py), near its mean on
#: the machine the benchmark was defined on: 2-core Intel Xeon VM, 2 MiB L2
#: per core, Python 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31. Timing metrics
#: are scaled to this speed; see README.md, "Reference speed".
REF_NOMINAL_S = 0.030


class BenchError(RuntimeError):
    pass


def _worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def _run_worker(deadline: float, *args) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget exhausted before a worker could start")
    cmd = [sys.executable, str(HERE / "worker.py"), *map(str, args)]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_worker_env(), stdout=subprocess.PIPE,
            timeout=remaining, check=False, text=True,
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"worker exceeded the time budget: {args}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker failed with exit code {proc.returncode}: {args}")
    result = json.loads(lines[-1])
    package = result.get("package")
    if package is not None and Path(package) != ROOT / "src" / "toruspos":
        raise BenchError(f"imported toruspos from {package}, not from this checkout")
    return result


def _tail(latencies_ms: list[float]):
    """Highest listed percentile with at least 10 ops beyond it, or None."""
    ordered = sorted(latencies_ms)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = max(1, math.ceil(p / 100.0 * n))
        if n - rank >= 10:
            return p, ordered[rank - 1], n - rank
    return None


def _getconf(name: str):
    try:
        out = subprocess.run(
            ["getconf", name], capture_output=True, text=True, timeout=10, check=False
        ).stdout.strip()
        return int(out)
    except (OSError, ValueError, subprocess.TimeoutExpired):
        return None


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "toruspos").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def provenance(seed: int, worker: dict) -> dict:
    l2 = _getconf("LEVEL2_CACHE_SIZE")
    return {
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": worker.get("numpy"),
        "blas": worker.get("blas"),
        "blas_threads": BLAS_THREADS,
        "seed": seed,
        "l2_per_core_bytes": l2,
        "l3_bytes": _getconf("LEVEL3_CACHE_SIZE"),
        "working_set_bytes": {
            name: {"one_matrix_field": w.field_bytes, "computed": True}
            for name, w in WORKLOADS.items()
        },
        "note": (
            "L3 is larger than every working set, so no workload measures "
            "memory bandwidth; the L2 comparison is what differs between them"
        ),
    }


def _out_dir() -> Path:
    """Scratch directory for the CLI's reports, private to this process."""
    return HERE / "out" / str(os.getpid())


def _remove_out_dir() -> None:
    shutil.rmtree(_out_dir(), ignore_errors=True)
    try:
        (HERE / "out").rmdir()
    except OSError:  # another run still uses it
        pass


def measure(name: str, seed: int, seconds: float, min_ops: int | None = None,
            setup_samples: int = SETUP_SAMPLES) -> tuple[dict, dict, list[str]]:
    w = WORKLOADS[name]
    deadline = time.monotonic() + DEADLINE_S
    out = _out_dir()
    out.mkdir(parents=True, exist_ok=True)
    min_ops = w.min_ops if min_ops is None else min_ops
    setups = [
        _run_worker(deadline, "setup", name, seed, 0, 0, 0, out)
        for _ in range(setup_samples)
    ]
    main = _run_worker(deadline, "run", name, seed, seconds, min_ops, 0, out)
    # > 1 when the machine ran slower than nominal during this run. The mean,
    # not the median, because bursts of interference slow ops and kernel alike.
    slowdown = statistics.fmean(main["reference_s"]) / REF_NOMINAL_S
    lat_ms = [1e3 * s for s in main["latencies_s"]]
    wall = {
        "instances_per_s": (main["instances"] / sum(main["latencies_s"]), "1/s"),
        "op_ms_p50": (statistics.median(lat_ms), "ms"),
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
    }
    metrics = {
        "instances_per_s": (wall["instances_per_s"][0] * slowdown, "1/s"),
        "op_ms_p50": (wall["op_ms_p50"][0] / slowdown, "ms"),
        "setup_s": (statistics.median(
            s["setup_s"] * REF_NOMINAL_S / s["reference_s"] for s in setups
        ), "s"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
    }
    lines = [f"workload {name}  seed {seed}  ops {main['attempted']}  "
             f"instances {main['instances']}  closed loop, 1 client",
             f"  reference kernel mean {1e3 * slowdown * REF_NOMINAL_S:.4g} ms "
             f"= {slowdown:.4f} x nominal {1e3 * REF_NOMINAL_S:g} ms",
             f"  {'metric':<16} {'at ref speed':>14} {'wall clock':>14}"]
    for key, (value, unit) in metrics.items():
        raw = f"{wall[key][0]:14.6g}" if key in wall else f"{value:14.6g}"
        lines.append(f"  {key:<16} {value:>14.6g} {raw} {unit}")
    tail = _tail(lat_ms)
    if tail is None:
        lines.append(f"  {'op_ms_tail':<16} {'omitted':>29} (fewer than 20 ops)")
    else:
        p, value, beyond = tail
        lines.append(f"  {'op_ms_tail':<16} {value / slowdown:>14.6g} {value:14.6g} ms  "
                     f"(p{p:g}, {beyond} of {len(lat_ms)} ops beyond)")
    fail_ratio = main["failed"] / main["attempted"]
    lines.append(f"  {'fail_ratio':<16} {fail_ratio:>14.6g} {fail_ratio:14.6g} 1  "
                 f"({main['failed']} of {main['attempted']} ops)")
    lines.append("  set-up samples, wall (s): "
                 + ", ".join(f"{s['setup_s']:.4f}" for s in setups))
    lines.append("verdict digest (first %d ops): %s"
                 % (main["digest_ops"], json.dumps(main["digest"], sort_keys=True)))
    lines.append("provenance: " + json.dumps(provenance(seed, main), sort_keys=True))
    return main, metrics, lines


def measure_traced(name: str, seed: int, trace_ops: int | None = None):
    w = WORKLOADS[name]
    deadline = time.monotonic() + DEADLINE_S
    out = _out_dir()
    out.mkdir(parents=True, exist_ok=True)
    trace_ops = w.trace_ops if trace_ops is None else trace_ops
    main = _run_worker(deadline, "trace", name, seed, 0, 0, trace_ops, out)
    if main["missing"]:
        print("traced names not found in the package (reported as 0): "
              + ", ".join(main["missing"]), file=sys.stderr)
    metrics = {k: tuple(v) for k, v in main["metrics"].items()}
    n = main["instances"]
    lines = [f"workload {name}  seed {seed}  traced ops {trace_ops}  instances {n}",
             f"  untraced {main['untraced_instances_per_s']:.6g} 1/s, "
             f"traced {main['traced_instances_per_s']:.6g} 1/s",
             f"  {'metric':<52} {'total':>14}  {'per instance':>14}"]
    for key, (value, unit) in metrics.items():
        per = "" if "/" in unit or unit == "ratio" else f"{value / n:14.6g}"
        lines.append(f"  {key:<52} {value:>14.6g}  {per:>14} {unit}")
    lines.append("verdict digest (traced ops): " + json.dumps(main["digest"], sort_keys=True))
    lines.append(f"spans: {main['spans']['count']} written to {main['spans']['path']}")
    lines.append("provenance: " + json.dumps(provenance(seed, main), sort_keys=True))
    return main, metrics, lines


def _result(main: dict, metrics: dict) -> dict:
    return {
        "correct": main["failed"] == 0,
        "attempted": main["attempted"],
        "failed": main["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def smoke() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    for name in WORKLOADS:
        for trace in (0, 1):
            if trace:
                main, metrics, lines = measure_traced(name, 1, trace_ops=1)
            else:
                main, metrics, lines = measure(name, 1, 0, min_ops=1, setup_samples=1)
            print("\n".join(lines[:-1]))
            for entry in wanted[trace]:
                got = metrics.get(entry["name"])
                if got is None or got[1] != entry["unit"]:
                    problems.append(f"{name} trace={trace}: {entry['name']} -> {got}")
            if main["failed"] or main.get("missing"):
                problems.append(f"{name} trace={trace}: failed ops or untraced names")
    for problem in problems:
        print("smoke: " + problem)
    print("smoke: " + ("FAIL" if problems else "ok, every named metric present with its unit"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "toruspos" / "__init__.py").is_file():
        print(f"no package source at {ROOT / 'src' / 'toruspos'}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required unless --smoke is given")
        if args.trace:
            main_result, metrics, lines = measure_traced(args.workload, args.seed)
        else:
            main_result, metrics, lines = measure(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        _remove_out_dir()
    print("\n".join(lines))
    print(json.dumps(_result(main_result, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
