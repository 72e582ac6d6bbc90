"""The four workloads: seeded inputs, the measured loop, and the output checks.

Each workload runs single-process and closed-loop with one client: the next
operation starts when the previous one has finished.  Inputs come only from
the workload seed, so the same seed gives the same inputs.  Outputs are
checked after they are timed, outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from homcone import butterfly, cli, graphs, invariant, oracle, selection, verify

from layers import MC_CASES, TIMED
from spans import Tracer, instrument

PROGRAM = "homcone"
D_SCALES = (1.0, 100.0, 10000.0)
EXAM_WINNERS = {1.0: "G7", 100.0: "G3", 10000.0: "G1"}
EXAM_SHAPE = 3.0
# automorphism group order, subgroups, distinct invariant spaces
LATTICE_COUNTS = {
    "butterfly": (8, 10, 7),
    "K4": (24, 30, 22),
    "star": (24, 30, 15),
    "windmill": (48, 98, 31),
}
SCORE_RTOL = 1e-9
PROB_SUM_TOL = 1e-12
MLE_RTOL = 1e-8
# The seeded Monte Carlo runs are tested with a z-score, which a correct
# estimator exceeds by chance: at 3 sigma once in 370 tests, too often for
# thousands of runs of three cases.  At 5 sigma that is once in 1.7 million,
# and a bias of 2 % still reads z > 6 on every case after 20 cycles.  The
# package's own fixed-seed check at 3 sigma runs once per run as well.
MC_Z_LIMIT = 5.0
MC_SAMPLES = 250_000  # per case per cycle
FAST_VERIFY_PER_CYCLE = 8
GOLDENS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens.json")
GOLDEN_SEED = 20221207
GOLDEN_POINTS = 24
# stream tags keep the workloads' random streams apart for one seed
TAG_CLI, TAG_SWEEP, TAG_LATTICE, TAG_MC = range(4)


def rng_for(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed % 2**64, *key]))


def exam_cholesky(exam) -> np.ndarray:
    """Cholesky factor of the exam-marks covariance, scatter / n_effective."""
    return np.linalg.cholesky(exam.scatter / exam.n_effective)


def gaussian_rows(rng, chol) -> np.ndarray:
    n = int(rng.integers(20, 201))
    return rng.standard_normal((n, chol.shape[0])) @ chol.T


def sweep_point(seed: int, k: int, chol):
    """Shape in (2, 10], log-uniform scale multiplier in [1, 1e4), data rows."""
    rng = rng_for(seed, TAG_SWEEP, k)
    shape = 10.0 - 8.0 * rng.random()
    d_scale = 10.0 ** (4.0 * rng.random())
    return shape, d_scale, gaussian_rows(rng, chol)


def base_graphs() -> dict:
    k4 = [(i, j) for i in range(1, 5) for j in range(i + 1, 5)]
    star = [(1, j) for j in range(2, 6)]
    windmill = [(1, 2), (1, 3), (2, 3), (1, 4), (1, 5), (4, 5), (1, 6), (1, 7), (6, 7)]
    return {
        "butterfly": butterfly.butterfly_graph(),
        "K4": graphs.Graph.build("abcd", k4),
        "star": graphs.Graph.build("abcde", star),
        "windmill": graphs.Graph.build("abcdefg", windmill),
    }


def relabel(g, perm):
    """The graph with vertex i renamed perm[i - 1]."""
    labels = [""] * g.vertex_count
    for i, label in enumerate(g.labels, start=1):
        labels[perm[i - 1] - 1] = label
    return graphs.Graph.build(labels, [(perm[i - 1], perm[j - 1]) for i, j in g.edges])


def lattice_graphs(seed: int, k: int) -> dict:
    rng = rng_for(seed, TAG_LATTICE, k)
    return {name: relabel(g, [int(v) + 1 for v in rng.permutation(g.vertex_count)])
            for name, g in base_graphs().items()}


def mc_seed(seed: int, k: int) -> int:
    return int(np.random.SeedSequence([seed % 2**64, TAG_MC, k]).generate_state(1)[0])


@dataclass
class Run:
    """One benchmark run: settings, timings and the correctness tally."""

    workload: str
    seed: int
    seconds: float
    root: str
    env: dict
    scratch: str
    tracer: Tracer | None = None
    attempted: int = 0
    failed: int = 0
    # (start, end) of each operation by time.perf_counter, untraced and traced
    op_spans: list = field(default_factory=list)
    traced_op_spans: list = field(default_factory=list)
    work: list = field(default_factory=list)  # (work units, start, end)
    layer_values: dict = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)

    def ops(self):
        """Yield (operation index, input index) until the time is up.

        No operation starts that would, at the mean pace so far, end after
        the deadline.  In a traced run each input runs twice, first traced
        and then not, so overhead compares like with like; at least one
        input always runs.
        """
        start = time.perf_counter()
        least = 2 if self.tracer else 1
        i = 0
        while True:
            yield i, (i // 2 if self.tracer else i)
            i += 1
            elapsed = time.perf_counter() - start
            if i >= least and elapsed + elapsed / i > self.seconds:
                return

    def traced(self, i: int):
        """Context for operation i; in a traced run, even operations run with
        every timed function rebound and inside one ``bench.op`` span."""
        if self.tracer is None or i % 2:
            return contextlib.nullcontext(False)
        return self._traced_op(i, "bench.op")

    def setup(self):
        """Context for in-process set-up, traced as operation -1 in a traced run."""
        if self.tracer is None:
            return contextlib.nullcontext(False)
        return self._traced_op(-1, "bench.setup")

    @contextlib.contextmanager
    def _traced_op(self, op: int, name: str):
        self.tracer.op = op
        try:
            with instrument(self.tracer, TIMED, PROGRAM), self.tracer.span(name):
                yield True
        finally:
            self.tracer.op = -1

    def span(self, name: str, on: bool):
        return self.tracer.span(name) if on else contextlib.nullcontext()

    def record(self, on: bool, t0: float, t1: float) -> None:
        (self.traced_op_spans if on else self.op_spans).append((t0, t1))

    def add_work(self, amount: float, t0: float, t1: float) -> None:
        self.work.append((amount, t0, t1))


def _close(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= SCORE_RTOL * np.maximum(1.0, np.abs(b))))


def _scores(report) -> dict:
    return {r.model_id: r.log_score for r in report.records}


def _scores_close(got: dict, want: dict) -> bool:
    return got.keys() == want.keys() and all(_close(got[k], want[k]) for k in want)


# ---------------------------------------------------------------------------
# cold-cli


@dataclass
class CliCycle:
    commands: list
    data: dict  # input source -> DataSummary the CLI should derive from it


def cli_cycle(seed: int, cycle: int, chol, labels, model_ids, tmp: str) -> CliCycle:
    """Seven commands over freshly generated inputs, in seeded order."""
    rng = rng_for(seed, TAG_CLI, cycle)
    scatter_rows = gaussian_rows(rng, chol)
    csv_rows = gaussian_rows(rng, chol)
    centered = scatter_rows - scatter_rows.mean(axis=0, keepdims=True)
    scatter = centered.T @ centered
    scatter_path = os.path.join(tmp, f"scatter{cycle}.json")
    with open(scatter_path, "w", encoding="utf-8") as fh:
        json.dump({"scatter": scatter.tolist(), "n_raw": len(scatter_rows), "centered": True}, fh)
    csv_path = os.path.join(tmp, f"data{cycle}.csv")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(",".join(labels) + "\n")
        for row in csv_rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    d = [repr(float(rng.choice(D_SCALES))) for _ in range(4)]
    out = [str(rng.choice(("table", "json"))) for _ in range(3)]
    fit_models = [str(m) for m in rng.choice(model_ids, 2)]
    commands = [
        ["select", "--fixture", "exam-marks", "--d-scale", d[0], "--output", out[0]],
        ["select", "--scatter", scatter_path, "--d-scale", d[1], "--output", out[1]],
        ["select", "--data", csv_path, "--d-scale", d[2], "--output", out[2]],
        ["fit", "--scatter", scatter_path, "--model", fit_models[0], "--output", "json"],
        ["fit", "--data", csv_path, "--model", fit_models[1], "--mle", "--output", "json"],
        ["constants", "--d-scale", d[3], "--output", "json"],
        ["verify", "--level", "fast"],
    ]
    data = {
        "scatter": selection.scatter_summary(scatter, len(scatter_rows), True),
        "data": selection.summarize_data(csv_rows),
    }
    return CliCycle([commands[j] for j in rng.permutation(len(commands))], data)


def _check_cli(run: Run, cyc: CliCycle, argv, rc: int, out: str, models, exam) -> None:
    what = " ".join(argv)
    if rc != 0:
        run.check(False, f"{what}: exit code {rc}")
        return
    by_label = {m.label: m for m in models}
    opt = dict(zip(argv[1:], argv[2:]))
    cmd = argv[0]
    if cmd == "verify":
        m = re.search(r"(\d+)/(\d+) checks passed", out)
        run.check(bool(m) and m.group(1) == m.group(2), f"{what}: {out.strip()[-200:]}")
    elif cmd == "select":
        d = float(opt["--d-scale"])
        source = next(s for s in ("fixture", "scatter", "data") if f"--{s}" in opt)
        data = exam if source == "fixture" else cyc.data[source]
        ref = selection.posterior(models, data, selection.Hyperparams(EXAM_SHAPE, d * np.eye(5)))
        if opt["--output"] == "json":
            obj = json.loads(out)
            winner = obj["winner"]
            ok = _scores_close({r["model_id"]: r["log_score"] for r in obj["models"]}, _scores(ref))
        else:
            winner = out.strip().splitlines()[-1].split()[-1]
            ok = True
        ok = ok and winner == ref.winner_id
        if source == "fixture":
            ok = ok and winner == EXAM_WINNERS[d]
        run.check(ok, f"{what}: winner {winner}, posterior() gives {ref.winner_id}")
    elif cmd == "fit":
        source = "scatter" if "--scatter" in opt else "data"
        fit = selection.fit_concentration_mle if "--mle" in argv else selection.fit_concentration
        ref = fit(by_label[opt["--model"]], cyc.data[source])
        run.check(_close(json.loads(out)["concentration"], ref), f"{what}: concentration differs")
    elif cmd == "constants":
        scale = float(opt["--d-scale"]) * np.eye(5)
        rows = json.loads(out)["models"]
        ok = [r["model_id"] for r in rows] == [m.label for m in models] and all(
            _close(r["log_I"], selection.log_I(by_label[r["model_id"]], EXAM_SHAPE, scale))
            for r in rows
        )
        run.check(ok, f"{what}: log_I differs")


def cold_cli(run: Run) -> None:
    """Fresh ``python -m homcone.cli`` processes over a seeded command mix.

    A traced run calls ``cli.main(argv)`` in-process instead, with output
    captured, since timing wrappers cannot reach into a child process.
    """
    with run.setup():
        models = selection.build_butterfly_models()
        exam = selection.exam_marks_summary()
    chol = exam_cholesky(exam)
    labels = list(models[0].space.graph.labels)
    model_ids = [m.label for m in models]
    calls = []
    with tempfile.TemporaryDirectory(dir=run.scratch) as tmp:
        cycles: dict[int, CliCycle] = {}
        for i, k in run.ops():
            cycle, slot = divmod(k, 7)
            if cycle not in cycles:
                cycles[cycle] = cli_cycle(run.seed, cycle, chol, labels, model_ids, tmp)
            argv = cycles[cycle].commands[slot]
            if run.tracer is None:
                t0 = time.perf_counter()
                proc = subprocess.run([sys.executable, "-m", "homcone.cli", *argv],
                                      cwd=run.root, env=run.env, capture_output=True,
                                      text=True, timeout=120)
                run.record(False, t0, time.perf_counter())
                rc, out = proc.returncode, proc.stdout
            else:
                buf = io.StringIO()
                with run.traced(i) as on, run.span(f"cli.main.{argv[0]}", on):
                    t0 = time.perf_counter()
                    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                        rc = cli.main(argv)
                    t1 = time.perf_counter()
                run.record(on, t0, t1)
                out = buf.getvalue()
            calls.append((cycle, argv, rc, out))
        for cycle, argv, rc, out in calls:
            _check_cli(run, cycles[cycle], argv, rc, out, models, exam)
    for t0, t1 in run.op_spans:
        run.add_work(1, t0, t1)


# ---------------------------------------------------------------------------
# prior-sweep


def golden_reports(models, exam) -> dict:
    """Posterior reports on the fixed golden inputs, keyed by input name."""
    chol = exam_cholesky(exam)
    out = {}
    for d in D_SCALES:
        hyper = selection.Hyperparams(EXAM_SHAPE, d * np.eye(5))
        out[f"exam d={d:g}"] = selection.posterior(models, exam, hyper)
    for k in range(GOLDEN_POINTS):
        shape, d, rows = sweep_point(GOLDEN_SEED, k, chol)
        hyper = selection.Hyperparams(shape, d * np.eye(5))
        out[f"sweep {k}"] = selection.posterior(models, selection.summarize_data(rows), hyper)
    return out


def _check_point(run: Run, k: int, report, model, data, k_hat) -> None:
    probs = [r.probability for r in report.records]
    scores = [r.log_score for r in report.records]
    ok = abs(math.fsum(probs) - 1.0) <= PROB_SUM_TOL and all(map(math.isfinite, scores))
    target = model.space.project(data.scatter / data.n_effective)
    try:
        np.linalg.cholesky(k_hat)
        resid = np.linalg.norm(model.space.project(np.linalg.inv(k_hat)) - target)
        ok = ok and resid <= MLE_RTOL * np.linalg.norm(target)
    except np.linalg.LinAlgError:
        ok = False
    run.check(ok, f"sweep point {k}: probabilities, scores or MLE fit invalid")


def check_goldens(run: Run, models, exam) -> None:
    with open(GOLDENS, encoding="utf-8") as fh:
        goldens = json.load(fh)
    for name, report in golden_reports(models, exam).items():
        want = goldens[name]
        ok = report.winner_id == want["winner"] and _scores_close(_scores(report), want["log_scores"])
        if name.startswith("exam"):
            ok = ok and report.winner_id == EXAM_WINNERS[float(name.split("=")[1])]
        run.check(ok, f"golden {name}: winner {report.winner_id}, scores differ from goldens")


def prior_sweep(run: Run) -> None:
    """posterior() then the MLE fit of the winner over seeded prior and data draws."""
    with run.setup():
        models = selection.build_butterfly_models()
        exam = selection.exam_marks_summary()
    chol = exam_cholesky(exam)
    by_label = {m.label: m for m in models}
    eye = np.eye(5)
    for i, k in run.ops():
        shape, d, rows = sweep_point(run.seed, k, chol)
        with run.traced(i) as on:
            t0 = time.perf_counter()
            data = selection.summarize_data(rows)
            hyper = selection.Hyperparams(shape, d * eye)
            t1 = time.perf_counter()
            report = selection.posterior(models, data, hyper)
            t2 = time.perf_counter()
            winner = by_label[report.winner_id]
            k_hat = selection.fit_concentration_mle(winner, data)
            t3 = time.perf_counter()
        run.record(on, t1, t2)
        if not on:
            run.add_work(1, t0, t3)
        _check_point(run, k, report, winner, data, k_hat)
    check_goldens(run, models, exam)


# ---------------------------------------------------------------------------
# lattice


def lattice(run: Run) -> None:
    """Automorphisms, subgroup lattice, invariant spaces and dedupe per graph,
    each graph under a seeded relabelling of its vertices."""
    results = []
    for i, k in run.ops():
        family = lattice_graphs(run.seed, k)
        with run.traced(i) as on:
            t0 = time.perf_counter()
            for name, g in family.items():
                with run.span(f"bench.graph.{name}", on):
                    homogeneous = graphs.is_homogeneous_graph(g)
                    group = graphs.automorphism_group(g)
                    subs = graphs.enumerate_subgroups(group)
                    models = [selection.Model(label=f"H{j}", space=invariant.build_invariant_space(g, h))
                              for j, h in enumerate(subs, start=1)]
                    distinct = selection.dedupe_models(models)
                results.append((name, homogeneous, group.order, len(subs), len(distinct)))
            t1 = time.perf_counter()
        run.record(on, t0, t1)
        if not on:
            run.add_work(1, t0, t1)
    for name, homogeneous, order, n_subs, n_spaces in results:
        run.check(homogeneous and (order, n_subs, n_spaces) == LATTICE_COUNTS[name],
                  f"lattice {name}: homogeneous={homogeneous}, |Aut|={order}, "
                  f"{n_subs} subgroups, {n_spaces} spaces; want {LATTICE_COUNTS[name]}")
    for name, _, _, n_subs, n_spaces in results:
        run.layer_values[f"graphs.subgroups.{name}"] = n_subs
        run.layer_values[f"graphs.spaces.{name}"] = n_spaces


# ---------------------------------------------------------------------------
# verify


def verify_workload(run: Run) -> None:
    """Cycles of repeated fast self-checks and Monte Carlo runs on the three
    reference cones, each cycle with its own seed drawn from the workload seed."""
    with run.setup():
        cases = dict(zip(MC_CASES, verify.mc_reference_cases()))
    claims = {}
    for c, (_, space, realization, y, alpha) in cases.items():
        ld, lp = realization.log_delta_phi(y)
        claims[c] = math.exp(realization.log_gamma(alpha) + lp - alpha * ld)
    estimates = {c: {} for c in MC_CASES}  # case -> input index -> McEstimate
    mc_times = {c: [] for c in MC_CASES}
    fast_ok = []
    for i, k in run.ops():
        with run.traced(i) as on:
            for _ in range(FAST_VERIFY_PER_CYCLE):
                t0 = time.perf_counter()
                results = verify.run_verification("fast")
                run.record(on, t0, time.perf_counter())
                fast_ok.append(all(r.passed for r in results))
            for c, (_, space, _, y, alpha) in cases.items():
                with run.span(f"bench.mc.{c}", on):
                    t0 = time.perf_counter()
                    est = oracle.mc_cone_integral(space, alpha, y, samples=MC_SAMPLES,
                                                  seed=mc_seed(run.seed, k))
                    t1 = time.perf_counter()
                mc_times[c].append(t1 - t0)
                estimates[c][k] = est
                if c == "hub" and not on:
                    run.add_work(est.effective_samples, t0, t1)
    for n, ok in enumerate(fast_ok):
        run.check(ok, f"fast verification {n} failed")
    for r in verify.run_verification("mc"):
        run.check(r.passed, f"{r.name}: {r.detail}")
    for c in MC_CASES:
        ests = list(estimates[c].values())
        mean = statistics.fmean(e.value for e in ests)
        se = math.sqrt(sum(e.std_error ** 2 for e in ests)) / len(ests)
        z = abs(mean - claims[c]) / se if se > 0 else math.inf
        run.check(z <= MC_Z_LIMIT, f"mc {c}: |z| = {z:.2f} over {len(ests)} seeds")
        first = estimates[c][0]
        run.layer_values[f"oracle.ess_frac.{c}"] = first.effective_samples / first.samples
        run.layer_values[f"oracle.mc_s.{c}"] = statistics.fmean(mc_times[c])
        run.layer_values[f"oracle.mc_draws_per_s.{c}"] = MC_SAMPLES / statistics.fmean(mc_times[c])


WORKLOADS = {
    "cold-cli": cold_cli,
    "prior-sweep": prior_sweep,
    "lattice": lattice,
    "verify": verify_workload,
}
