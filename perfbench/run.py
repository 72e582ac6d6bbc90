"""Benchmark of the homcone package: one workload, one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload prior-sweep --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the result holds the end-to-end metrics named in
BENCHMARK.json, their times rescaled to a reference host speed sampled
through the run (hostspeed.py); with ``--trace 1`` the per-layer metrics
from a separate traced run, in plain wall time.  The package is imported
from ``src/`` of the working directory; without it the benchmark exits with
code 2 and prints no result.  Output of the traced run (spans as JSON lines)
goes to ``.perfbench/``.  See perfbench/README.md for what each workload and
metric means.
"""

from __future__ import annotations

import os
import sys

# BLAS and OpenMP read these once, when numpy loads; children inherit them.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402

import importtime  # noqa: E402
import layers  # noqa: E402
import stats  # noqa: E402
from hostspeed import REF_S, HostSpeed  # noqa: E402
from spans import Tracer  # noqa: E402

SETUP_CODE = "import homcone as hc; hc.build_butterfly_models(); hc.exam_marks_summary()"
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
CHILD_TIMEOUT_S = 120
# workload -> (its operation's timing, seconds-to-unit factor, unit, its work rate)
ALIASES = {
    "cold-cli": ("cli_wall_s", 1.0, "s", "cli_calls_per_s"),
    "prior-sweep": ("posterior_ms", 1e3, "ms", "sweep_points_per_s"),
    "lattice": ("lattice_s", 1.0, "s", "lattice_passes_per_s"),
    "verify": ("verify_fast_s", 1.0, "s", "mc_ess_per_s"),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(ALIASES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_spans(args, root, env, repeats):
    """(start, end) of fresh interpreters running ``python args``, and their stderr."""
    spans, errs = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, *args], cwd=root, env=env, check=True,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        spans.append((t0, time.perf_counter()))
        errs.append(proc.stderr)
    return spans, errs


def walls(spans) -> list:
    return [t1 - t0 for t0, t1 in spans]


def environment(seed: int) -> dict:
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "machine": platform.machine(),
    }


def end_to_end(run, setup_spans, speed) -> tuple[dict, list]:
    """The end-to-end metrics, every time rescaled to reference host speed."""
    rss = resource.getrusage(
        resource.RUSAGE_CHILDREN if run.workload == "cold-cli" else resource.RUSAGE_SELF
    ).ru_maxrss / 1024.0
    op_s = [speed.scaled(t0, t1) for t0, t1 in run.op_spans]
    p50 = stats.p50(op_s)
    tail, pct, n = stats.tail(op_s)
    rate = sum(w for w, _, _ in run.work) / sum(speed.scaled(t0, t1) for _, t0, t1 in run.work)
    metrics = {
        "setup_s": stats.p50([speed.scaled(t0, t1) for t0, t1 in setup_spans]),
        "op_ms.p50": p50 * 1e3,
        "op_ms.tail": tail * 1e3,
        "work_per_s": rate,
        "peak_rss_mb": rss,
    }
    name, factor, unit, rate_name = ALIASES[run.workload]
    notes = [
        f"{name}.p50 = {p50 * factor:.6g} {unit} over {n} operations",
        f"{name}.tail = {tail * factor:.6g} {unit} at p{pct:.1f} of {n}",
        f"{rate_name} = {rate:.6g} 1/s over {len(run.work)} operations",
        f"unscaled wall: setup_s = {stats.p50(walls(setup_spans)):.6g} s, "
        f"{name}.p50 = {stats.p50(walls(run.op_spans)) * factor:.6g} {unit}",
        f"host speed: median loop {stats.p50(speed.durations) * 1e3:.4g} ms over "
        f"{len(speed.durations)} samples, reference {REF_S * 1e3:g} ms",
    ]
    return metrics, notes


def per_layer(run, root, env) -> tuple[dict, list]:
    metrics = dict.fromkeys(layers.metric_units(), 0.0)  # 0 for what the workload never ran
    metrics.update(layers.from_spans(run.tracer))
    metrics.update(run.layer_values)
    metrics["import.python_s"] = stats.p50(walls(child_spans(["-c", "pass"], root, env,
                                                             IMPORT_REPEATS)[0]))
    _, reports = child_spans(["-X", "importtime", "-c", "import homcone"], root, env,
                             IMPORT_REPEATS)
    totals = [importtime.cumulative_us(r, ("homcone", "numpy", "scipy")) for r in reports]
    for p in ("homcone", "numpy", "scipy"):
        metrics[f"import.{p}_s"] = stats.p50([t[p] for t in totals]) / 1e6
    overhead = stats.p50(walls(run.traced_op_spans)) / stats.p50(walls(run.op_spans)) - 1.0
    metrics["trace.overhead_frac"] = overhead
    traced = len(run.traced_op_spans)
    notes = [f"traced {traced} of {traced + len(run.op_spans)} operations"]
    return metrics, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    try:
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json in {root}: {exc}", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(src, "homcone", "__init__.py")):
        print(f"error: no homcone package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    env = dict(os.environ, PYTHONPATH=src)
    import homcone

    if not os.path.abspath(homcone.__file__).startswith(src + os.sep):
        print(f"error: homcone imported from {homcone.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    scratch = os.path.join(root, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    run = workloads.Run(args.workload, args.seed, args.seconds, root, env, scratch,
                        Tracer() if args.trace else None)
    env_record = environment(args.seed)
    if args.trace:
        workloads.WORKLOADS[args.workload](run)
        metrics, notes = per_layer(run, root, env)
        wanted = spec["per_layer"]
        path = os.path.join(scratch, f"trace-{args.workload}-{args.seed}.jsonl")
        run.tracer.dump(path, {"workload": args.workload, "seconds": args.seconds, **env_record})
        notes.append(f"spans written to {os.path.relpath(path, root)}")
    else:
        with HostSpeed() as speed:
            workloads.WORKLOADS[args.workload](run)
            setup_spans = child_spans(["-c", SETUP_CODE], root, env, SETUP_REPEATS)[0]
        metrics, notes = end_to_end(run, setup_spans, speed)
        wanted = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 3
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("env " + json.dumps(env_record, sort_keys=True))
    for name in units:
        print(f"{name} = {metrics[name]:.6g} {units[name]}")
    for note in notes:
        print(note)
    print(f"failed_frac = {run.failed / max(run.attempted, 1):.6g} ({run.failed} of {run.attempted})")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
