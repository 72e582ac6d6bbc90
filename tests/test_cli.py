import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import homcone as hc
from homcone.butterfly import load_registry_data
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


def test_verify_corrupted_registry(capsys, tmp_path):
    data = load_registry_data()
    data["entries"][2]["u"][0][0] = "0"  # breaks orthogonality of the G3 matrix
    path = tmp_path / "registry.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, ["verify", "--level", "fast", "--registry", str(path)])
    assert code == 5
    assert "[FAIL]" in out
    assert "G3" in out


def test_verify_unloadable_registry(capsys, tmp_path):
    path = tmp_path / "registry.json"
    path.write_text(json.dumps(load_registry_data())[:100])  # truncated JSON
    code, out, _ = run(capsys, ["verify", "--level", "fast", "--registry", str(path)])
    assert code == 5
    assert out.count("registry load") == 1
    assert "[ok] siegel p=2" in out


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
