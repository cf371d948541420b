"""One fresh benchmark process: set up, then run ops in a closed loop.

Usage (started by run.py, one client, one process per run)::

    python3 perfbench/worker.py MODE WORKLOAD SEED SECONDS MIN_OPS TRACE_OPS OUT_DIR

MODE is ``setup`` (stop right before the first op, report set-up time,
then time the reference kernel), ``run`` (ops in index order until SECONDS have passed, at least
MIN_OPS ops and a whole schedule period, each op preceded by one timed
call of the reference kernel) or ``trace`` (each of the first TRACE_OPS
ops once untraced and once traced). The last line of standard output
is one JSON object.
"""

import time

T0 = time.perf_counter()  # before the package or numpy is imported

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import toruspos  # noqa: E402
import toruspos.cli  # noqa: E402,F401  (CLI cold-start import is part of set-up)
from spec import WORKLOADS  # noqa: E402
from workloads import geometry, make_input, run_op  # noqa: E402


def _timed_op(w, geom, seed, index, out_dir, record=None):
    """Run op ``index``; return (seconds, ok, verdicts). Input drawing is untimed."""
    inp = make_input(w, seed, index)
    start = time.perf_counter()
    try:
        if record is None:
            ok, verdicts = run_op(w, geom, inp, out_dir)
        else:
            ok, verdicts = record.op_span(index, run_op, w, geom, inp, out_dir)
    except Exception:  # a raising op is a failed op; the run goes on
        traceback.print_exc(file=sys.stderr)
        ok, verdicts = False, ()
    return time.perf_counter() - start, bool(ok), tuple(bool(v) for v in verdicts)


def reference_kernel() -> float:
    """Time fixed, benchmark-owned work that gauges the machine's speed.

    It mixes what the package spends time on: batched 2x2 ``eigvalsh``,
    FFT pairs, a Hermitian-gate style elementwise pass and an interpreter
    loop. The inputs never change, so a change in its duration is a change
    in the machine, not in the program. They are built per call, and no
    array exceeds 256 KiB, so the kernel leaves the peak resident memory
    of every workload as it was.
    """
    rng = np.random.default_rng(0)
    mats = rng.standard_normal((4096, 2, 2)) + 1j * rng.standard_normal((4096, 2, 2))
    mats = mats + np.conj(np.swapaxes(mats, -1, -2))
    grid = rng.standard_normal((8,) * 4)
    start = time.perf_counter()
    for _ in range(6):
        np.linalg.eigvalsh(mats)
    for _ in range(12):
        np.max(np.abs(mats - np.conj(np.swapaxes(mats, -1, -2))))
    for _ in range(24):
        np.fft.ifftn(np.fft.fftn(grid))
    total = 0
    for i in range(30000):
        total += i * i
    return time.perf_counter() - start


def _digest(verdicts) -> dict:
    bits = "".join("1" if v else "0" for v in verdicts)
    return {
        "positive": bits.count("1"),
        "negative": bits.count("0"),
        "sha256": hashlib.sha256(bits.encode()).hexdigest()[:16],
    }


def _blas() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"name": blas.get("name"), "version": blas.get("version")}


def main(argv) -> dict:
    mode, name, seed, seconds, min_ops, trace_ops, out_dir = argv
    w = WORKLOADS[name]
    seed, seconds = int(seed), float(seconds)
    min_ops, trace_ops = int(min_ops), int(trace_ops)
    out_dir = Path(out_dir)
    geom = geometry(w)
    make_input(w, seed, 0)
    if mode == "setup":
        setup_s = time.perf_counter() - T0
        reference_kernel()  # the first call pays one-time costs; time the second
        return {"setup_s": setup_s, "reference_s": reference_kernel()}

    info = {
        "package": str(Path(toruspos.__file__).resolve().parent),
        "numpy": np.__version__,
        "blas": _blas(),
    }
    if mode == "trace":
        from tracer import SPAN_FIELDS, Recorder, per_layer_metrics

        # Each op runs twice, untraced and traced, in alternating order, so
        # drift and warm-up weigh on both sides of trace.overhead alike.
        record = Recorder()
        record.install()
        plain, traced = [], []
        for i in range(trace_ops):
            for side in ((plain, None), (traced, record))[:: 1 if i % 2 == 0 else -1]:
                side[0].append(_timed_op(w, geom, seed, i, out_dir, side[1]))
        untraced_s = sum(r[0] for r in plain)
        traced_s = sum(r[0] for r in traced)
        instances = trace_ops * w.instances_per_op
        metrics = per_layer_metrics(record.summary(), instances, traced_s / untraced_s)
        spans_path = out_dir.parent / f"spans-{name}-seed{seed}.jsonl"
        with open(spans_path, "w") as fh:
            for row in record.spans:
                fh.write(json.dumps(dict(zip(SPAN_FIELDS, row))) + "\n")
        results = plain + traced
        return {
            **info,
            "metrics": {k: list(v) for k, v in metrics.items()},
            "missing": record.missing,
            "spans": {"path": str(spans_path), "count": len(record.spans)},
            "instances": instances,
            "untraced_instances_per_s": instances / untraced_s,
            "traced_instances_per_s": instances / traced_s,
            "attempted": len(results),
            "failed": sum(1 for r in results if not r[1]),
            "digest": _digest(v for r in traced for v in r[2]),
        }

    results, reference_s = [], []
    start = time.perf_counter()
    while True:
        reference_s.append(reference_kernel())
        results.append(_timed_op(w, geom, seed, len(results), out_dir))
        done = len(results)
        if (
            done >= min_ops
            and done % w.period == 0
            and time.perf_counter() - start >= seconds
        ):
            break
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        **info,
        "latencies_s": [r[0] for r in results],
        "reference_s": reference_s,
        "instances": len(results) * w.instances_per_op,
        "attempted": len(results),
        "failed": sum(1 for r in results if not r[1]),
        "peak_rss_mb": rss_kb / 1024.0,
        "digest": _digest(v for r in results[:min_ops] for v in r[2]),
        "digest_ops": min(min_ops, len(results)),
    }


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
