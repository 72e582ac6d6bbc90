import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import homcone as hc
from homcone.cli import main
from homcone.graphs import Permutation, PermutationGroup


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_graph(tmp_path, labels, edges, name="graph.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"labels": labels, "edges": edges}))
    return str(path)


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
    path = write_graph(tmp_path, ["a", "b", "c", "d"],
                       [[1, 2], [2, 3], [3, 4], [4, 1]])
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
    records = json.loads(out)["models"]
    assert len(records) == n_models
    assert records[0]["merged_labels"][0] == "H1"
    assert abs(sum(r["probability"] for r in records) - 1.0) < 1e-12


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
    data = hc.exam_marks_summary()
    path = tmp_path / "scatter.json"
    path.write_text(json.dumps({
        "scatter": data.scatter.tolist(), "n_raw": 88, "centered": True,
    }))
    code, out, _ = run(capsys, ["select", "--scatter", str(path), "--d-scale", "1"])
    assert code == 0
    assert "winner: G7" in out


def test_select_scatter_indefinite_posterior_scale(capsys, tmp_path):
    path = tmp_path / "scatter.json"
    path.write_text(json.dumps({
        "scatter": np.diag([-50.0, 1.0, 1.0, 1.0, 1.0]).tolist(),
        "n_raw": 10, "centered": True,
    }))
    code, _, err = run(capsys, ["select", "--scatter", str(path), "--d-scale", "1"])
    assert code == 2
    assert "positive definite" in err


def _scatter_file(tmp_path, edit=lambda s: s, n_raw=88, centered=True):
    """The exam-marks scatter, passed through edit, as a JSON scatter file."""
    scatter = edit(hc.exam_marks_summary().scatter)
    path = tmp_path / "scatter.json"
    # json writes NaN as the bare token NaN, which json.load accepts
    path.write_text(json.dumps(
        {"scatter": scatter.tolist(), "n_raw": n_raw, "centered": centered}))
    return ["--scatter", str(path)]


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
    # options whose values could not take effect
    "select-no-center-fixture": (lambda t: ["select", *EXAM, "--no-center"], 2),
    "select-no-center-scatter": (lambda t: ["select", *_scatter_file(t), "--no-center"], 2),
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


def test_verify_mc_small(capsys):
    code, out, _ = run(capsys, ["verify", "--level", "mc", "--samples", "100000"])
    assert code == 0
    assert out.count("[ok]") == 3


def test_verify_corrupted_registry(capsys, monkeypatch):
    g3 = hc.build_butterfly_models()[2]
    u = g3.realization.u.copy()
    u[0, 0] = 0.0 if u[0, 0] else 1.0  # breaks orthogonality of the G3 matrix
    monkeypatch.setitem(vars(g3), "realization", dataclasses.replace(g3.realization, u=u))
    code, out, _ = run(capsys, ["verify", "--level", "fast"])
    assert code == 5
    assert "[FAIL] conjugation G3" in out
    assert "[FAIL] cross-path G3" in out
    assert out.count("[FAIL]") == 2


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
    code, out, err = run(
        capsys,
        ["-v", "fit", "--fixture", "exam-marks", "--model", "G7", "--mle"],
    )
    assert code == 0
    lines = [l for l in err.splitlines() if l.strip().startswith("{")]
    assert lines
    record = json.loads(lines[0])
    assert "gradient_norm" in record and "iteration" in record


# Runs cli.main over argv lists (argv[1], JSON) with every import of scipy
# failing, and prints [exit code, stdout] per command as JSON.
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
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    results.append([code, out.getvalue()])
print(json.dumps(results))
"""


def test_cli_runs_without_scipy(capsys):
    commands = [
        ["select", "--fixture", "exam-marks", "--output", "json"],
        ["fit", "--fixture", "exam-marks", "--model", "G3", "--mle", "--output", "json"],
        ["constants", "--output", "json"],
        ["verify", "--level", "fast"],
    ]
    src = str(Path(hc.__file__).resolve().parents[1])
    pythonpath = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath))
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_BLOCKED_RUNNER, json.dumps(commands)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    blocked = json.loads(proc.stdout)
    assert len(blocked) == len(commands)
    for argv, (code, out) in zip(commands, blocked):
        in_process_code, in_process_out, _ = run(capsys, argv)
        assert code == in_process_code == 0, argv
        assert out == in_process_out, argv


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
    src = str(Path(hc.__file__).resolve().parents[1])
    pythonpath = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath))
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_RANDOM_RUNNER, json.dumps(commands)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    codes, numpy_alone, after = json.loads(proc.stdout)
    assert codes == [0, 0, 0]
    assert after == numpy_alone
