"""coorbit benchmark: one workload per invocation, run from the repository root.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--workload all`` runs the four workloads one after another.

Set-up (a fresh interpreter's ``import coorbit``, input generation and the
workload's built-once objects) runs ``SETUP_REPEATS`` times.  Ops then
run one at a time until ``--seconds`` have elapsed and at least the
workload's ``min_ops`` ops (untraced and traced together) are done.  Op
``i``'s inputs are generated outside the timed region from ``(seed, i)``,
or from a fixed stream where a workload says so.  Every op's outputs are
checked; a failed check counts the op as failed.

Times are taken both as wall time and as CPU time (user plus system, of
this process and the children it waits for).  The gated metrics use CPU
time: on a virtual machine whose host lends its cores to other guests,
wall time varies by tens of percent from minute to minute while the
work done does not.  Wall times are reported beside them.

Every thread pool (OpenBLAS, OpenMP, MKL, numexpr) is pinned to one
thread, in this process and in the CLI children it starts.  With two
BLAS threads on two shared cores, the waiting BLAS thread spins: a gabor
op cost 2.5 CPU seconds against 1.4 with one thread, and the spin time
grew with the host's load, so the median varied by a quarter between runs.

``--trace 0`` reports the end-to-end metrics with no wrappers installed:
``setup_s`` (median set-up CPU seconds), ``op_cpu_s`` (median CPU seconds
per op), ``peak_rss_mb`` and ``rel_err`` (mean over ops of each op's
relative error).  ``--trace 1`` alternates an untraced and a traced op on
the same inputs and reports per-layer metrics, per op, from the traced
ones; span times are wall times.  ``trace.overhead_frac`` is the traced
median op CPU time over the untraced one, minus 1.

A human-readable summary, with ``op_s`` (median wall seconds per op and
its quartiles) and ``fail_frac``, is printed first; the last line of
standard output is the JSON result.  A result file with run metadata is
written to ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# before numpy is first imported; children inherit the environment
os.environ.update({var: "1" for var in THREAD_VARS})

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3

END_TO_END = [("setup_s", "s"), ("op_cpu_s", "s"), ("peak_rss_mb", "MB"), ("rel_err", "ratio")]

PER_LAYER = [
    # (metric, unit, span name, field) with field one of calls/s/self_s or a counter
    ("fields.convolve.calls", "count", "fields.convolve", "calls"),
    ("fields.convolve.s", "s", "fields.convolve", "s"),
    ("fields.convolve.self_s", "s", "fields.convolve", "self_s"),
    ("fields.convolve.nodes", "count", "fields.convolve", "nodes"),
    ("lattices.sample_field.calls", "count", "lattices.sample_field", "calls"),
    ("lattices.sample_field.s", "s", "lattices.sample_field", "s"),
    ("lattices.sample_field.self_s", "s", "lattices.sample_field", "self_s"),
    ("lattices.sample_field.points", "count", "lattices.sample_field", "points"),
    ("lattices.bupu_synthesize.calls", "count", "lattices.bupu_synthesize", "calls"),
    ("lattices.bupu_synthesize.s", "s", "lattices.bupu_synthesize", "s"),
    ("lattices.build_bupu.calls", "count", "lattices.build_bupu", "calls"),
    ("lattices.build_bupu.s", "s", "lattices.build_bupu", "s"),
    ("fields.oscillation.calls", "count", "fields.oscillation", "calls"),
    ("fields.oscillation.s", "s", "fields.oscillation", "s"),
    ("fields.oscillation.self_s", "s", "fields.oscillation", "self_s"),
    ("fields.oscillation.points", "count", "fields.oscillation", "points"),
    ("groups.affine_field_interpolate.calls", "count", "groups.affine_field_interpolate", "calls"),
    ("groups.affine_field_interpolate.s", "s", "groups.affine_field_interpolate", "s"),
    ("groups.affine_field_interpolate.points", "count", "groups.affine_field_interpolate",
     "points"),
    ("voice.cwt.calls", "count", "voice.cwt", "calls"),
    ("voice.cwt.s", "s", "voice.cwt", "s"),
    ("voice.icwt.s", "s", "voice.icwt", "s"),
    ("voice.stft.calls", "count", "voice.stft", "calls"),
    ("voice.stft.s", "s", "voice.stft", "s"),
    ("frames.neumann_reconstruct.s", "s", "frames.neumann_reconstruct", "s"),
    ("frames.neumann_reconstruct.self_s", "s", "frames.neumann_reconstruct", "self_s"),
    ("frames.neumann_reconstruct.iterations", "count", "frames.neumann_reconstruct", "iterations"),
    ("frames.neumann_reconstruct.last_contraction", "ratio", "frames.neumann_reconstruct",
     "last_contraction"),
    ("frames.atom_certificate.calls", "count", "frames.atom_certificate", "calls"),
    ("frames.atom_certificate.s", "s", "frames.atom_certificate", "s"),
    ("frames.design_lattice.calls", "count", "frames.design_lattice", "calls"),
    ("frames.design_lattice.s", "s", "frames.design_lattice", "s"),
    ("frames.design_lattice.steps", "count", "frames.design_lattice", "steps"),
    ("frames.frame_bounds_empirical.s", "s", "frames.frame_bounds_empirical", "s"),
    ("frames.gabor_frame_operator.s", "s", "frames.gabor_frame_operator", "s"),
    ("frames.frame_operator_invert.s", "s", "frames.frame_operator_invert", "s"),
    ("frames.frame_operator_invert.iterations", "count", "frames.frame_operator_invert",
     "iterations"),
    ("cli.main.self_s", "s", "cli.main", "self_s"),
    ("groups.from_dict.s", "s", "groups.from_dict", "s"),
]

# per-layer metrics not read from one span name
DERIVED_PER_LAYER = [
    ("lattices.sample_field.in_chart_frac", "ratio"),
    ("lattices.tiles_used_frac", "ratio"),
    ("cli.bytes_written", "B"),
    ("trace.overhead_frac", "ratio"),
]


def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def _metadata(root: Path, args, coorbit_file: str) -> dict:
    import numpy
    import scipy

    def git(*cmd):
        try:
            res = subprocess.run(["git", *cmd], cwd=root, capture_output=True,
                                 text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return res.stdout.strip() if res.returncode == 0 else None

    status = git("status", "--porcelain")
    return {
        "git_sha": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "coorbit_file": coorbit_file,
    }


def _per_layer(summary: dict, n_ops: int) -> dict:
    metrics = {}
    for metric, unit, span, key in PER_LAYER:
        agg = summary.get(span)
        if agg is None:
            value = 0.0
        elif key in ("calls", "s", "self_s"):
            value = agg[key]
        else:
            value = agg["counts"].get(key, 0)
        metrics[metric] = {"value": value / n_ops, "unit": unit}
    counts = summary.get("lattices.sample_field", {"counts": {}})["counts"]
    points = counts.get("points", 0)
    frac = counts.get("in_chart", 0) / points if points else 0.0
    metrics["lattices.sample_field.in_chart_frac"] = {"value": frac, "unit": "ratio"}
    return metrics


def _stats(values) -> dict:
    values = [v for v in values if math.isfinite(v)] or [math.nan]
    q1, q3 = _quartiles(values)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _merged_spans(outcomes) -> list:
    merged = []
    for o in outcomes:
        base = len(merged)
        merged.extend(dict(s, parent=None if s["parent"] is None else s["parent"] + base)
                      for s in o.spans)
    return merged


def run(args, root: Path) -> dict:
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    ctx = workloads.Context(root, work, args.seed)
    wl = workloads.WORKLOADS[args.workload](ctx)

    setups = []
    for _ in range(SETUP_REPEATS):
        ctx.fresh_dirs()
        watch = workloads.Stopwatch()
        ctx.import_library(watch)
        with watch:
            wl.setup()
        setups.append(watch)

    outcomes, traced_outcomes = [], []
    deadline = time.perf_counter() + args.seconds
    i = 0
    while True:
        inp = wl.prepare(i)
        for traced in ((False, True) if args.trace else (False,)):
            try:
                outcome = wl.op(inp, traced)
            except Exception:  # an op that raises is a failed op, not a crashed run
                outcome = workloads.Outcome(workloads.Stopwatch(), traceback.format_exc(limit=3))
            (traced_outcomes if traced else outcomes).append(outcome)
            if outcome.failure:
                print(f"op {i} ({'traced' if traced else 'untraced'}) failed: "
                      f"{outcome.failure}", file=sys.stderr)
        if "out" in inp:
            shutil.rmtree(inp["out"], ignore_errors=True)
        i += 1
        # a traced run counts traced ops too, which keeps it within the
        # per-run time limit on the ten-second CLI workloads
        done = len(outcomes) + len(traced_outcomes)
        if done >= wl.min_ops and time.perf_counter() >= deadline:
            break

    every = outcomes + traced_outcomes
    failed = sum(o.failure is not None for o in every)
    ok = [o for o in outcomes if o.failure is None]
    cpu = _stats([o.time.cpu for o in ok])
    detail = {
        "setup_s": {"cpu": [w.cpu for w in setups], "wall": [w.wall for w in setups]},
        "op_s": dict(_stats([o.time.wall for o in ok]), samples=[o.time.wall for o in outcomes]),
        "op_cpu_s": dict(cpu, samples=[o.time.cpu for o in outcomes]),
        "fail_frac": failed / len(every),
        "rel_err": {"samples": [o.rel_err for o in outcomes]},
    }
    if not args.trace:
        metrics = {
            "setup_s": {"value": statistics.median(w.cpu for w in setups), "unit": "s"},
            "op_cpu_s": {"value": cpu["median"], "unit": "s"},
            "peak_rss_mb": {"value": workloads.peak_rss_mb(wl.in_process), "unit": "MB"},
            "rel_err": {"value": statistics.fmean([o.rel_err for o in ok] or [math.nan]),
                        "unit": "ratio"},
        }
    else:
        n = len(traced_outcomes)
        metrics = _per_layer(spans.summarize(_merged_spans(traced_outcomes)), n)
        metrics["cli.bytes_written"] = {
            "value": sum(o.bytes_written for o in traced_outcomes) / n, "unit": "B"}
        metrics["lattices.tiles_used_frac"] = {
            "value": wl.tiles_used_frac() if hasattr(wl, "tiles_used_frac") else 0.0,
            "unit": "ratio"}
        traced_cpu = _stats([o.time.cpu for o in traced_outcomes if o.failure is None])
        metrics["trace.overhead_frac"] = {
            "value": traced_cpu["median"] / cpu["median"] - 1.0, "unit": "ratio"}
        detail["traced_op_cpu_s"] = dict(
            traced_cpu, samples=[o.time.cpu for o in traced_outcomes])
    shutil.rmtree(work, ignore_errors=True)
    return {"failed": failed, "attempted": len(every), "metrics": metrics, "detail": detail}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"],
                        help='"all" runs every workload in turn, each in its own process')
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "all":
        code = 0
        for name in workloads.WORKLOADS:
            proc = subprocess.run([sys.executable, __file__, "--workload", name,
                                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                                   "--trace", str(args.trace)])
            code = code or proc.returncode
        return code

    root = Path.cwd()
    src = root / "src"
    if not (src / "coorbit" / "__init__.py").is_file():
        print(f"no coorbit sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import coorbit

    if Path(coorbit.__file__).resolve().parent != (src / "coorbit").resolve():
        print(f"imported coorbit from {coorbit.__file__}, not from {src}", file=sys.stderr)
        return 2

    result = run(args, root)
    metrics = result["metrics"]
    expected = ([m for m, _ in END_TO_END] if not args.trace else
                [m for m, *_ in PER_LAYER] + [m for m, _ in DERIVED_PER_LAYER])
    if sorted(metrics) != sorted(expected):
        raise RuntimeError(f"metric set {sorted(metrics)} differs from {sorted(expected)}")
    finite = True
    for m in metrics.values():
        if not math.isfinite(m["value"]):
            m["value"], finite = None, False
    out = {"correct": result["failed"] == 0 and finite, "attempted": result["attempted"],
           "failed": result["failed"], "metrics": metrics}

    results_dir = root / ".bench_work" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = dict(out, detail=result["detail"],
                  meta=_metadata(root, args, coorbit.__file__))
    path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, default=str)

    d = result["detail"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {result['attempted']}  failed {result['failed']}")
    print(f"  fail_frac = {d['fail_frac']:.4g} (ratio)")
    for name in ("op_s", "op_cpu_s"):
        print(f"  {name}: median {d[name]['median']:.4g} s  (q1 {d[name]['q1']:.4g}, "
              f"q3 {d[name]['q3']:.4g}, n = {d[name]['n']})")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']} ({m['unit']})")
    print(f"  result file: {path.relative_to(root)}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
