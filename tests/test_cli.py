import copy
import dataclasses
import itertools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import homcone as hc
from homcone import verify
from homcone.cli import main
from homcone.errors import ConjugationError, ConvergenceError, DualMembershipError
from homcone.graphs import Permutation, PermutationGroup
from homcone.realization import Realization, full_sym_structure, log_gamma_v
from homcone.selection import load_scatter_json


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_graph(tmp_path, labels, edges, name="graph.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"labels": labels, "edges": edges}))
    return str(path)


def write_scatter(tmp_path, name, scatter, n_raw, centered=False):
    """A scatter file of n_raw rows; json writes NaN as the bare token NaN,
    which json.load accepts."""
    path = tmp_path / name
    path.write_text(json.dumps({"scatter": np.asarray(scatter).tolist(), "n_raw": n_raw,
                                "centered": centered}))
    return str(path)


def run_python(args, timeout):
    """A fresh interpreter run with args, importing homcone from this
    checkout's source tree."""
    src = str(Path(hc.__file__).resolve().parents[1])
    pythonpath = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=timeout)


# Runs cli.main over the argv lists in argv[1] (JSON) with every import of
# scipy failing, as an install without the test extra runs them, and prints
# [exit code, stdout, stderr] per command as JSON.
SCIPY_BLOCKED_RUNNER = """
import contextlib, io, json, sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"import of {name} is blocked")
        return None

sys.meta_path.insert(0, BlockScipy())
from homcone.cli import main

results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def run_without_scipy(commands, timeout=60):
    """[exit code, stdout, stderr] of each argv in commands, run one after
    another by cli.main in a fresh interpreter that cannot import scipy and
    fails on a floating-point warning."""
    proc = run_python(["-W", "error::RuntimeWarning", "-c", SCIPY_BLOCKED_RUNNER,
                       json.dumps(commands)], timeout=timeout)
    assert proc.returncode == 0, proc.stderr
    return [tuple(result) for result in json.loads(proc.stdout)]


def run_cli_process(argv):
    """``homcone argv`` run alone by run_without_scipy, within a minute; its
    stdout, after asserting exit 0."""
    [(code, out, err)] = run_without_scipy([argv])
    assert code == 0, err
    return out


def test_aut_default_graph(capsys):
    code, out, _ = run(capsys, ["aut"])
    assert code == 0
    assert out.startswith("order 8; generators ")
    gens_text = out.strip().split("generators ", 1)[1]
    gens = [Permutation.from_cycle_string(tok.strip(), 5)
            for tok in gens_text.split(",")]
    regenerated = PermutationGroup.generate(5, gens)
    assert regenerated == hc.automorphism_group(hc.butterfly_graph())


def test_aut_explicit_graph(capsys, tmp_path):
    path = write_graph(tmp_path, ["a", "b", "c"], [[1, 2], [2, 3]])
    code, out, _ = run(capsys, ["aut", "--graph", path])
    assert code == 0
    assert "order 2" in out


@pytest.mark.parametrize("edge", [[2.9, 3], [True, 3], [1, 2, 3]])
def test_aut_refuses_edge_that_is_not_an_integer_pair(capsys, tmp_path, edge):
    path = write_graph(tmp_path, ["a", "b", "c"], [[1, 2], edge])
    code, out, err = run(capsys, ["aut", "--graph", path])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "integer" in err


@pytest.mark.parametrize("labels, shown", [
    ("abcde", "'abcde'"), ([["x"], "b"], "['x']"), (["a", "a", "b"], "'a'"),
])
def test_aut_refuses_bad_labels(capsys, tmp_path, labels, shown):
    path = write_graph(tmp_path, labels, [])
    code, out, err = run(capsys, ["aut", "--graph", path])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and shown in err


def test_aut_missing_file(capsys):
    code, _, err = run(capsys, ["aut", "--graph", "/nonexistent.json"])
    assert code == 2
    assert "error" in err


def test_aut_malformed_json(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, ["aut", "--graph", str(path)])
    assert code == 2


def test_subgroups_listing(capsys):
    code, out, _ = run(capsys, ["subgroups"])
    assert code == 0
    assert out.startswith("10 subgroups")
    assert out.count("#") == 10


def test_select_fixture_winners(capsys):
    for d, winner in ((1, "G7"), (100, "G3"), (10000, "G1")):
        code, out, _ = run(
            capsys,
            ["select", "--fixture", "exam-marks", "--delta", "3", "--d-scale", str(d)],
        )
        assert code == 0
        assert f"winner: {winner}" in out


def test_select_json_deterministic(capsys):
    argv = ["select", "--fixture", "exam-marks", "--d-scale", "100", "--output", "json"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["winner"] == "G3"
    keys = {
        "model_id", "merged_labels", "dim", "log_I_prior",
        "log_I_posterior", "log_score", "probability",
    }
    assert all(set(rec) == keys for rec in payload["models"])


def test_select_rejects_non_homogeneous_graph(capsys, tmp_path):
    # the 4-cycle is not chordal; the 4-vertex path is an induced one
    for edges in ([[1, 2], [2, 3], [3, 4], [4, 1]], [[1, 2], [2, 3], [3, 4]]):
        path = write_graph(tmp_path, ["a", "b", "c", "d"], edges)
        code, _, err = run(capsys, ["select", "--graph", path, "--fixture", "exam-marks"])
        assert code == 3
        assert "homogeneous" in err


def test_select_requires_realization_registry(capsys, tmp_path):
    # K3's models realize, so the 5-variable fixture meets the shape check
    path = write_graph(tmp_path, ["a", "b", "c"], [[1, 2], [1, 3], [2, 3]])
    code, out, err = run(capsys, ["select", "--graph", path, "--fixture", "exam-marks"])
    assert code == 2 and out == ""
    assert "scatter is (5, 5), graph has 3 vertices" in err


STAR = (["hub", "a", "b", "c", "d"], [[1, 2], [1, 3], [1, 4], [1, 5]])
K5 = ([str(i) for i in range(1, 6)], [[i, j] for i in range(1, 6) for j in range(i + 1, 6)])


@pytest.mark.parametrize("graph, n_models", [(STAR, 15), (K5, 93)], ids=["star", "K5"])
def test_select_scores_every_subgroup_of_a_graph(capsys, tmp_path, graph, n_models):
    path = write_graph(tmp_path, *graph)
    code, out, err = run(capsys, ["select", "--graph", path, "--fixture", "exam-marks",
                                  "--output", "json"])
    assert code == 0, err
    report = json.loads(out)
    records = report["models"]
    assert len(records) == n_models
    assert records[0]["merged_labels"][0] == "H1"
    assert abs(sum(r["probability"] for r in records) - 1.0) < 1e-12
    code, out, err = run(capsys, ["select", "--graph", path, "--fixture", "exam-marks"])
    assert code == 0, err
    assert out.splitlines()[-1] == f"winner: {report['winner']}"


def test_constants_scores_every_subgroup_of_a_graph(capsys, tmp_path):
    path = write_graph(tmp_path, *K5)
    code, out, err = run(capsys, ["constants", "--graph", path])
    assert code == 0, err
    assert sum(line.startswith("H") for line in out.splitlines()) == 93


def mle_residual(space, data, concentration):
    """Relative residual of an MLE fit on space: the projection of the
    fitted inverse against the projected averaged scatter."""
    target = space.project(np.asarray(data.scatter) / data.n_effective)
    fitted = space.project(np.linalg.inv(np.asarray(concentration)))
    return np.linalg.norm(fitted - target) / np.linalg.norm(target)


def graph_mle_residual(graph_path, data, fit_json):
    """mle_residual of a ``fit --graph --mle --output json`` result, on the
    space of the fitted model's subgroup."""
    graph = hc.load_graph(graph_path)
    subgroups = hc.enumerate_subgroups(hc.automorphism_group(graph))
    labelled = {f"H{i}": h for i, h in enumerate(subgroups, start=1)}
    out = json.loads(fit_json)
    space = hc.build_invariant_space(graph, labelled[out["model_id"]])
    return mle_residual(space, data, out["concentration"])


def test_fit_mle_on_a_graph_matches_the_projected_target(capsys, tmp_path):
    path = write_graph(tmp_path, *STAR)
    code, out, err = run(capsys, ["fit", "--graph", path, "--fixture", "exam-marks",
                                  "--model", "H18", "--mle", "--output", "json"])
    assert code == 0, err
    assert graph_mle_residual(path, hc.exam_marks_summary(), out) <= 1e-8


@pytest.fixture(scope="module")
def k6_files(tmp_path_factory):
    """K6 as a graph file, and the scatter of 50 seeded standard normal rows."""
    tmp = tmp_path_factory.mktemp("k6")
    graph = write_graph(tmp, [str(i) for i in range(1, 7)],
                        [list(e) for e in itertools.combinations(range(1, 7), 2)], "k6.json")
    x = np.random.default_rng(6).standard_normal((50, 6))
    return graph, write_scatter(tmp, "k6s.json", x.T @ x, 50)


def test_k6_subgroups_within_a_minute(k6_files):
    graph, _ = k6_files
    out = run_cli_process(["subgroups", "--graph", graph])
    assert out.splitlines()[0] == "1455 subgroups of the automorphism group (order 720)"


def test_k6_select_scores_every_space_within_a_minute(k6_files):
    # the whole K6 lattice, 1455 subgroups in 739 distinct spaces, scored
    # from the largest stacked scale map any test builds
    graph, scatter = k6_files
    models = json.loads(run_cli_process(["select", "--graph", graph, "--scatter", scatter,
                                         "--output", "json"]))["models"]
    assert len(models) == 739
    assert abs(math.fsum(r["probability"] for r in models) - 1.0) <= 1e-12
    assert all(math.isfinite(r["log_score"]) for r in models)


def test_k6_fit_mle_within_a_minute(k6_files):
    graph, scatter = k6_files
    out = run_cli_process(["fit", "--graph", graph, "--scatter", scatter, "--model", "H700",
                           "--mle", "--output", "json"])
    assert graph_mle_residual(graph, load_scatter_json(scatter), out) <= 1e-8


def test_fit_on_a_graph_by_subgroup_label(capsys, tmp_path):
    path = write_graph(tmp_path, *STAR)
    code, out, err = run(capsys, ["fit", "--graph", path, "--fixture", "exam-marks",
                                  "--model", "H1", "--output", "json"])
    assert code == 0, err
    k = np.array(json.loads(out)["concentration"])
    assert k.shape == (5, 5) and k[1, 2] == 0.0  # leaves a and b are not adjacent
    code, out, _ = run(capsys, ["fit", "--graph", path, "--fixture", "exam-marks",
                                "--model", "H1"])
    rows = out.splitlines()[2:]
    assert code == 0 and [len(row.split()) for row in rows] == [6] * 5  # cells apart


def test_select_shape_precondition(capsys):
    code, _, err = run(capsys, ["select", "--fixture", "exam-marks", "--delta", "2"])
    assert code == 3


def test_select_needs_exactly_one_data_source(capsys):
    code, _, err = run(capsys, ["select"])
    assert code == 2
    code, _, err = run(
        capsys,
        ["select", "--fixture", "exam-marks", "--scatter", "x.json"],
    )
    assert code == 2


def test_select_from_csv(capsys, tmp_path):
    rng = np.random.default_rng(42)
    rows = rng.multivariate_normal(np.zeros(5), np.eye(5) * 100.0, size=40)
    path = tmp_path / "data.csv"
    header = "m,v,alg,an,s\n"
    path.write_text(header + "\n".join(",".join(f"{x:.4f}" for x in r) for r in rows))
    code, out, _ = run(capsys, ["select", "--data", str(path), "--d-scale", "100"])
    assert code == 0
    assert "winner:" in out


def test_select_scatter_json(capsys, tmp_path):
    path = write_scatter(tmp_path, "scatter.json", hc.exam_marks_summary().scatter, 88,
                         centered=True)
    code, out, _ = run(capsys, ["select", "--scatter", path, "--d-scale", "1"])
    assert code == 0
    assert "winner: G7" in out


def test_fit_mle_on_a_scatter_near_the_float_range(capsys, tmp_path):
    # the solve's residual and metric must not overflow at 1e300
    path = write_scatter(tmp_path, "huge.json", 1e300 * np.eye(5), 30)
    code, out, err = run(capsys, ["fit", "--scatter", path, "--model", "G3",
                                  "--mle", "--output", "json"])
    assert code == 0 and err == ""
    k = np.asarray(json.loads(out)["concentration"])
    assert np.isfinite(k).all()
    assert k == pytest.approx(3e-299 * np.eye(5), rel=1e-12)


def test_select_on_a_scatter_near_the_float_range(capsys, tmp_path):
    # the factorization's norms must not overflow at 1e300
    path = write_scatter(tmp_path, "huge.json", 1e300 * np.eye(5), 30)
    code, out, err = run(capsys, ["select", "--scatter", path, "--output", "json"])
    assert code == 0, err
    assert all(math.isfinite(m["log_score"]) for m in json.loads(out)["models"])


def test_fit_refuses_a_singular_scatter_that_the_mle_fits(capsys, tmp_path):
    # three rows on five vertices: no inverse of the averaged scatter to
    # project, so exit 2 naming the rank, not a table of ~1e17 entries
    x = np.random.default_rng(3).standard_normal((3, 5))
    path = write_scatter(tmp_path, "rank3.json", x.T @ x, 3)
    code, out, err = run(capsys, ["fit", "--scatter", path, "--model", "G3"])
    assert code == 2 and out == ""
    assert "rank 3 of 5" in err
    code, out, err = run(capsys, ["fit", "--scatter", path, "--model", "G3", "--mle",
                                  "--output", "json"])
    assert code == 0 and err == ""
    assert np.isfinite(json.loads(out)["concentration"]).all()
    code, out, err = run(capsys, ["fit", "--scatter", path, "--model", "G3", "--mle"])
    assert code == 0 and err == "" and out.startswith("fitted concentrations")


def test_fit_mle_on_an_ill_conditioned_scatter(capsys, tmp_path):
    # 10 (a a^T + eps I), condition 8.3e5: a Newton solve of this target
    # ends in ConvergenceError after 100 iterations
    a = np.array([-8.0, 9.0, 6.0, 9.0, -3.0])
    scatter = 10.0 * (np.outer(a, a) + 3.274e-4 * np.eye(5))
    path = write_scatter(tmp_path, "ridge.json", scatter, 10)
    code, out, err = run(capsys, ["fit", "--scatter", path, "--model", "G1", "--mle",
                                  "--output", "json"])
    assert code == 0 and err == ""
    space = hc.build_butterfly_models()[0].space
    assert mle_residual(space, load_scatter_json(path), json.loads(out)["concentration"]) <= 1e-8


def test_fit_mle_names_a_scatter_outside_the_dual_cone(capsys, tmp_path):
    # a zero-variance column, here the hub's, which G3 maps to itself,
    # leaves the likelihood without a maximizer
    x = np.random.default_rng(3).standard_normal((20, 5))
    x[:, 2] = 0.0
    path = write_scatter(tmp_path, "flat.json", x.T @ x, 20)
    code, out, err = run(capsys, ["fit", "--scatter", path, "--model", "G3", "--mle"])
    assert code == 3 and out == ""
    assert err.startswith(
        "error: the projected averaged scatter is not in the open dual cone of model G3, "
        "so the likelihood has no maximizer (factorization breakdown at block ")
    assert "pivot 0 <= 0)" in err


def test_select_scatter_indefinite_posterior_scale(capsys, tmp_path):
    path = write_scatter(tmp_path, "scatter.json", np.diag([-50.0, 1.0, 1.0, 1.0, 1.0]), 10,
                         centered=True)
    code, _, err = run(capsys, ["select", "--scatter", path, "--d-scale", "1"])
    assert code == 2
    assert "positive definite" in err


def _scatter_file(tmp_path, edit=lambda s: s, n_raw=88, centered=True):
    """The exam-marks scatter, passed through edit, as a JSON scatter file."""
    scatter = edit(hc.exam_marks_summary().scatter)
    return ["--scatter", write_scatter(tmp_path, "scatter.json", scatter, n_raw, centered)]


def _with_nan(scatter):
    scatter[0, 0] = np.nan
    return scatter


def _csv_with_nan_cell(tmp_path):
    rows = np.random.default_rng(7).standard_normal((12, 5))
    rows[3, 2] = np.nan
    path = tmp_path / "data.csv"
    path.write_text("\n".join(",".join(f"{x:.4f}" for x in r) for r in rows))
    return ["--data", str(path)]


def _csv_with_bad_first_row(tmp_path):
    # one cell of the first row is not a number: a bad data row, not a header
    rows = np.random.default_rng(7).standard_normal((12, 5))
    path = tmp_path / "data.csv"
    path.write_text("1,2,x,4,5\n" + "\n".join(",".join(f"{x:.4f}" for x in r) for r in rows))
    return ["--data", str(path)]


def _object_scale_file(tmp_path):
    path = tmp_path / "scale.json"
    path.write_text(json.dumps({"a": 1}))
    return ["--D", str(path)]


BAD_DATA = {
    "bad-first-csv-row": _csv_with_bad_first_row,
    "one-centered-row": lambda t: _scatter_file(t, n_raw=1),
    "negated-scatter": lambda t: _scatter_file(t, edit=np.negative),
    "nan-scatter-entry": lambda t: _scatter_file(t, edit=_with_nan),
    "nan-csv-cell": _csv_with_nan_cell,
    # values that int() and bool() would coerce to n_raw 10, n_raw 1 and
    # centered True
    "fractional-n-raw": lambda t: _scatter_file(t, n_raw=10.9),
    "boolean-n-raw": lambda t: _scatter_file(t, n_raw=True, centered=False),
    "string-centered": lambda t: _scatter_file(t, centered="false"),
}
BAD_PRIOR = {
    "infinite-shape": (["--delta", "inf"], 2),
    "nan-shape": (["--delta", "nan"], 2),
    "infinite-scale": (["--d-scale", "inf"], 2),
    "nan-scale": (["--d-scale", "nan"], 2),
    "shape-at-two": (["--delta", "2"], 3),
}
EXAM = ["--fixture", "exam-marks"]
BAD_INPUTS = {
    **{f"select-{n}": (lambda t, m=m: ["select", *m(t)], 2) for n, m in BAD_DATA.items()},
    **{f"fit-{n}": (lambda t, m=m: ["fit", "--model", "G3", *m(t)], 2)
       for n, m in BAD_DATA.items()},
    **{f"select-{n}": (lambda t, o=o: ["select", *EXAM, *o], c)
       for n, (o, c) in BAD_PRIOR.items()},
    **{f"constants-{n}": (lambda t, o=o: ["constants", *o], c)
       for n, (o, c) in BAD_PRIOR.items()},
    "select-object-scale-file": (lambda t: ["select", *EXAM, *_object_scale_file(t)], 2),
    "constants-empty-model": (lambda t: ["constants", "--model", ""], 2),
    # options whose values could not take effect
    "select-no-center-fixture": (lambda t: ["select", *EXAM, "--no-center"], 2),
    "select-no-center-scatter": (lambda t: ["select", *_scatter_file(t), "--no-center"], 2),
    # only verify runs Newton, so -v takes effect there alone
    "select-verbose": (lambda t: ["-v", "select", *EXAM], 2),
    "fit-verbose": (lambda t: ["-v", "fit", "--model", "G3", *EXAM], 2),
    "constants-verbose": (lambda t: ["-v", "constants"], 2),
    "verify-fast-seed": (lambda t: ["verify", "--level", "fast", "--seed", "3"], 2),
    "verify-fast-samples": (lambda t: ["verify", "--level", "fast", "--samples", "7"], 2),
    "verify-mc-no-samples": (lambda t: ["verify", "--level", "mc", "--samples", "0"], 2),
    "verify-mc-negative-samples": (lambda t: ["verify", "--level", "mc", "--samples", "-5"], 2),
    "verify-mc-one-sample": (lambda t: ["verify", "--level", "mc", "--samples", "1"], 2),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_with_its_code_and_prints_nothing(capsys, tmp_path, case):
    make_argv, expected = BAD_INPUTS[case]
    code, out, err = run(capsys, make_argv(tmp_path))
    assert code == expected, err
    assert out == ""  # no table, so no nan cell either
    assert err.startswith("error: ")


def test_select_names_a_nan_in_the_scale_file(capsys, tmp_path):
    path = tmp_path / "scale.json"
    scale = 100.0 * np.eye(5)
    scale[2, 2] = np.nan
    path.write_text(json.dumps(scale.tolist()))
    code, out, err = run(capsys, ["select", *EXAM, "--D", str(path)])
    assert code == 2 and out == ""
    assert "non-finite entry nan at [2, 2]" in err


def test_fit_table(capsys):
    code, out, _ = run(capsys, ["fit", "--fixture", "exam-marks", "--model", "G3"])
    assert code == 0
    assert "26.95" in out
    assert " 0" in out  # structural zeros rendered bare
    assert "Mechanics" in out


def test_fit_mle_variant(capsys):
    code, out, _ = run(
        capsys, ["fit", "--fixture", "exam-marks", "--model", "G3", "--mle"]
    )
    assert code == 0
    assert "27.45" in out  # likelihood maximizer has a different hub entry


def test_fit_unknown_model(capsys):
    code, _, err = run(capsys, ["fit", "--fixture", "exam-marks", "--model", "G99"])
    assert code == 2


def test_fit_json(capsys):
    code, out, _ = run(
        capsys,
        ["fit", "--fixture", "exam-marks", "--model", "G3", "--output", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    k = np.array(payload["concentration"])
    assert k[0, 3] == 0.0


def test_constants_all_models(capsys):
    code, out, _ = run(capsys, ["constants", "--delta", "3", "--d-scale", "1"])
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("G")]
    assert len(lines) == 7


def test_constants_json_subset(capsys):
    code, out, _ = run(
        capsys,
        ["constants", "--model", "G7", "--output", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["models"]) == 1
    rec = payload["models"][0]
    assert rec["model_id"] == "G7"
    assert np.isfinite(rec["log_I"])


def test_constants_shape_precondition(capsys):
    code, _, err = run(capsys, ["constants", "--delta", "1.5"])
    assert code == 3
    assert "shape" in err


def test_verify_fast(capsys):
    code, out, _ = run(capsys, ["verify", "--level", "fast"])
    assert code == 0
    assert "[ok]" in out and "[FAIL]" not in out
    assert out.splitlines()[-1] == "24/24 checks passed"


def test_verify_mc_small(capsys):
    code, out, _ = run(capsys, ["verify", "--level", "mc", "--samples", "100000"])
    assert code == 0
    assert out.count("[ok]") == 3


def test_verify_mc_keeps_its_effective_sample_size_and_traces_newton(capsys):
    # a proposal regression shows as a failed check, a low-ESS warning or an
    # ESS share under 10 % (the moment-matched proposal gives 30-88 %)
    code, out, err = run(capsys, ["-v", "verify", "--level", "mc", "--samples", "20000"])
    assert code == 0
    assert sum(line.startswith("[ok] mc ") for line in out.splitlines()) == 3
    assert "effective sample size" not in out
    shares = [float(x) for x in re.findall(r"ESS ([0-9.]+) %", out)]
    assert len(shares) == 3 and min(shares) >= 10
    # each case solves psi at its point once, for the proposal's moments
    iterations = [json.loads(line)["iteration"] for line in err.splitlines()]
    assert iterations == [
        i for _, space, _, y, _ in verify.mc_reference_cases()
        for i in range(1, hc.psi(space, y).iterations + 1)
    ]


def test_verify_mc_seed_reproduces_its_output_across_processes():
    argv = ["verify", "--level", "mc", "--samples", "20000", "--seed", "7"]
    [first], [second] = run_without_scipy([argv]), run_without_scipy([argv])
    assert first[0] == 0 and first == second


def test_verify_corrupted_registry(capsys, monkeypatch):
    # a Realization refuses a corrupted u where it is built, so the corrupted
    # copy is made past the frozen dataclass
    g3 = hc.build_butterfly_models()[2]
    u = g3.realization.u.copy()
    u[0, 0] = 0.0 if u[0, 0] else 1.0  # breaks orthogonality of the G3 matrix
    with pytest.raises(ConjugationError):
        dataclasses.replace(g3.realization, u=u)
    bent = copy.copy(g3.realization)
    object.__setattr__(bent, "u", u)
    monkeypatch.setitem(vars(g3), "realization", bent)
    code, out, _ = run(capsys, ["verify", "--level", "fast"])
    assert code == 5
    assert "[FAIL] conjugation G3" in out
    # the factorization route reads the isometry checked at construction,
    # not u, so it still agrees with Newton
    assert "[ok] cross-path G3" in out
    assert out.count("[FAIL]") == 1


def fail_on_call(fn, n, exc):
    """fn, except that its n-th call raises exc."""
    calls = itertools.count(1)

    def wrapper(*args, **kwargs):
        if next(calls) == n:
            raise exc
        return fn(*args, **kwargs)

    return wrapper


@pytest.mark.parametrize("owner, name, call, exc", [
    (verify.cone, "psi_stack", 2, ConvergenceError("no convergence after 50 iterations")),
    (Realization, "log_delta_phi_stack", 2,
     DualMembershipError("factorization breakdown at block 1")),
], ids=["newton", "factorization"])
def test_verify_fast_reports_a_route_error_as_a_failed_check(capsys, monkeypatch,
                                                             owner, name, call, exc):
    # each route takes a model's three cross-path points as one stack, so
    # either route's second call is G2's
    monkeypatch.setattr(owner, name, fail_on_call(getattr(owner, name), call, exc))
    code, out, err = run(capsys, ["verify", "--level", "fast"])
    assert code == 5 and err == ""
    lines = out.splitlines()
    assert f"[FAIL] cross-path G2: {exc}" in lines
    assert sum(line.startswith("[FAIL]") for line in lines) == 1
    assert lines[-1] == "23/24 checks passed"


def test_verify_fast_check_names():
    labels = [f"G{i}" for i in range(1, 8)]
    expected = [f"{check} {g}" for g in labels for check in ("axioms", "conjugation")]
    expected += [f"cross-path {g}" for g in labels]
    expected += [f"siegel p={p}" for p in (2, 3, 4)]
    assert len(expected) == 24
    assert [r.name for r in verify.run_verification("fast")] == expected


def test_siegel_check_is_evaluated_on_every_call(monkeypatch):
    # the full-cone structures are built once; their integrals are not
    assert full_sym_structure(3) is full_sym_structure(3)
    assert all(r.passed for r in verify.run_verification("fast"))
    monkeypatch.setattr(verify, "log_gamma_v", lambda s, a: log_gamma_v(s, a) + 1e-6)
    failed = [r.name for r in verify.run_verification("fast") if not r.passed]
    assert failed == [f"siegel p={p}" for p in (2, 3, 4)]


def test_verify_unloadable_registry(capsys, serve_registry):
    shipped, serve = serve_registry
    serve(json.dumps(shipped)[:100])  # truncated JSON
    code, out, _ = run(capsys, ["verify", "--level", "fast"])
    assert code == 5
    assert out.count("registry load") == 1
    assert "[ok] siegel p=2" in out


@pytest.mark.parametrize("argv", [
    ["select", "--fixture", "exam-marks"],
    ["fit", "--fixture", "exam-marks", "--model", "G3"],
    ["constants"],
    ["verify"],
], ids=lambda argv: argv[0])
def test_registry_option_is_gone(capsys, argv):
    # the registry is package data only
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--registry", "x.json"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --registry x.json" in capsys.readouterr().err


@pytest.mark.parametrize("option", [
    ["--delta", "3"],
    ["--d-scale", "100"],
    ["--D", "x.json"],
], ids=lambda option: option[0])
def test_fit_has_no_prior_options(capsys, option):
    # the fitted concentration does not depend on the prior
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--fixture", "exam-marks", "--model", "G3", *option])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["select", "--fixture", "exam-marks"],
    ["constants"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("first", ["--D", "--d-scale"])
def test_d_scale_and_scale_file_are_exclusive(capsys, tmp_path, argv, first):
    # a scale file would silently override --d-scale
    path = tmp_path / "scale.json"
    path.write_text(json.dumps((100.0 * np.eye(5)).tolist()))
    options = {"--D": ["--D", str(path)], "--d-scale": ["--d-scale", "1"]}
    second = "--d-scale" if first == "--D" else "--D"
    with pytest.raises(SystemExit) as exc:
        main([*argv, *options[first], *options[second]])
    assert exc.value.code == 2
    assert f"argument {second}: not allowed with argument {first}" in capsys.readouterr().err


def _off_center_csv(tmp_path):
    rng = np.random.default_rng(5)
    rows = rng.multivariate_normal(np.full(5, 10.0), np.eye(5) * 100.0, size=30)
    path = tmp_path / "data.csv"
    lines = [",".join(repr(float(x)) for x in r) for r in rows]
    path.write_text("\n".join(["m,v,alg,an,s", *lines]))
    return rows, str(path)


def test_no_center_scores_the_uncentered_data(capsys, tmp_path):
    rows, path = _off_center_csv(tmp_path)
    argv = ["select", "--data", path, "--d-scale", "100", "--output", "json"]
    code, out, _ = run(capsys, [*argv, "--no-center"])
    assert code == 0
    report = hc.posterior(hc.build_butterfly_models(),
                          hc.summarize_data(rows, center=False),
                          hc.Hyperparams(delta=3.0, scale=100.0 * np.eye(5)))
    assert json.loads(out) == json.loads(json.dumps(report.to_json_dict()))
    code, centered, _ = run(capsys, argv)
    assert code == 0 and json.loads(centered) != json.loads(out)


def test_verbose_newton_trace(capsys):
    code, out, err = run(capsys, ["-v", "verify", "--level", "fast"])
    assert code == 0
    lines = [l for l in err.splitlines() if l.strip().startswith("{")]
    assert lines
    records = [json.loads(l) for l in lines]
    assert all({"iteration", "gradient_norm", "halvings", "point"} <= set(r) for r in records)
    # the cross-path check's first Newton stack, started at its solutions
    assert records[0]["halvings"] == 0 and records[0]["point"] == 0


def test_cli_runs_without_scipy(capsys, tmp_path):
    # the commands an install without the test extra is checked on, each
    # against its in-process run; the K6 commands and the seeded Monte Carlo
    # pair run through run_without_scipy in their own tests
    star, k5 = write_graph(tmp_path, *STAR, "star.json"), write_graph(tmp_path, *K5, "k5.json")
    p4 = write_graph(tmp_path, list("abcd"), [[1, 2], [2, 3], [3, 4]], "p4.json")
    nan_scale = 100.0 * np.eye(5)
    nan_scale[2, 2] = np.nan
    (tmp_path / "dnan.json").write_text(json.dumps(nan_scale.tolist()))
    x = np.random.default_rng(3).standard_normal((3, 5))
    rank3 = write_scatter(tmp_path, "rank3.json", x.T @ x, 3)
    a = np.array([-8.0, 9.0, 6.0, 9.0, -3.0])
    ridge = write_scatter(tmp_path, "ridge.json",
                          10.0 * (np.outer(a, a) + 3.274e-4 * np.eye(5)), 10)
    huge = write_scatter(tmp_path, "huge.json", 1e300 * np.eye(5), 30)
    commands = [
        (["select", "--fixture", "exam-marks"], 0),
        (["select", "--fixture", "exam-marks", "--output", "json"], 0),
        (["fit", "--fixture", "exam-marks", "--model", "G3", "--mle"], 0),
        (["fit", "--fixture", "exam-marks", "--model", "G3", "--mle", "--output", "json"], 0),
        (["constants"], 0),
        (["constants", "--output", "json"], 0),
        (["verify", "--level", "fast"], 0),
        (["-v", "verify", "--level", "fast"], 0),
        (["verify", "--level", "mc", "--samples", "20000"], 0),
        (["subgroups", "--graph", star], 0),
        (["select", "--graph", star, "--fixture", "exam-marks"], 0),
        (["fit", "--graph", star, "--fixture", "exam-marks", "--model", "H18", "--mle",
          "--output", "json"], 0),
        (["constants", "--graph", k5], 0),
        (["select", "--graph", p4, "--fixture", "exam-marks"], 3),
        (["select", "--fixture", "exam-marks", "--D", str(tmp_path / "dnan.json")], 2),
        (["fit", "--scatter", rank3, "--model", "G3"], 2),
        (["fit", "--scatter", rank3, "--model", "G3", "--mle"], 0),
        (["fit", "--scatter", ridge, "--model", "G1", "--mle", "--output", "json"], 0),
        (["select", "--scatter", huge, "--output", "json"], 0),
        (["fit", "--scatter", huge, "--model", "G3", "--mle", "--output", "json"], 0),
    ]
    blocked = run_without_scipy([argv for argv, _ in commands], timeout=300)
    assert len(blocked) == len(commands)
    for (argv, code), result in zip(commands, blocked):
        assert result[0] == code, argv
        assert result == run(capsys, argv), argv


NUMPY_RANDOM_RUNNER = """
import contextlib, io, json, sys
import numpy
numpy_alone = "numpy.random" in sys.modules
from homcone.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([codes, numpy_alone, "numpy.random" in sys.modules]))
"""


def test_scoring_commands_leave_numpy_random_unimported():
    # the realizer draws its generic element with the standard library;
    # numpy.random is imported only where importing numpy already does it
    commands = [
        ["select", "--fixture", "exam-marks"],
        ["constants"],
        ["fit", "--fixture", "exam-marks", "--model", "G3", "--mle"],
    ]
    proc = run_python(["-c", NUMPY_RANDOM_RUNNER, json.dumps(commands)], timeout=300)
    assert proc.returncode == 0, proc.stderr
    codes, numpy_alone, after = json.loads(proc.stdout)
    assert codes == [0, 0, 0]
    assert after == numpy_alone
