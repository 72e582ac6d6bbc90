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
    path = write_graph(tmp_path, ["a", "b", "c"], [[1, 2], [1, 3], [2, 3]])
    code, _, err = run(capsys, ["select", "--graph", path, "--fixture", "exam-marks"])
    assert code == 4
    assert "registry" in err or "realization" in err


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


def _scatter_file(tmp_path, edit=lambda s: s, n_raw=88):
    """The exam-marks scatter, passed through edit, as a JSON scatter file."""
    scatter = edit(hc.exam_marks_summary().scatter)
    path = tmp_path / "scatter.json"
    # json writes NaN as the bare token NaN, which json.load accepts
    path.write_text(json.dumps({"scatter": scatter.tolist(), "n_raw": n_raw, "centered": True}))
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


BAD_DATA = {
    "one-centered-row": lambda t: _scatter_file(t, n_raw=1),
    "negated-scatter": lambda t: _scatter_file(t, edit=np.negative),
    "nan-scatter-entry": lambda t: _scatter_file(t, edit=_with_nan),
    "nan-csv-cell": _csv_with_nan_cell,
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


def test_verify_corrupted_registry(capsys, serve_registry):
    shipped, serve = serve_registry
    shipped["entries"][2]["u"][0][0] = "0"  # breaks orthogonality of the G3 matrix
    serve(json.dumps(shipped))
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


def test_verify_reports_entries_that_are_not_class_labels(capsys, serve_registry):
    shipped, serve = serve_registry
    shipped["entries"][5]["id"] = "G8"  # G8 shares G6's space, labelled G6
    serve(json.dumps(shipped))
    code, out, _ = run(capsys, ["verify", "--level", "fast"])
    assert code == 5
    assert out.startswith("[FAIL] registry load: registry entries")
    code, _, err = run(capsys, ["select", "--fixture", "exam-marks"])
    assert code == 4 and "distinct-space class" in err


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
