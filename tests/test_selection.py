import itertools
import json
import math

import numpy as np
import pytest

import homcone as hc
from homcone import cone
from homcone.errors import (
    DomainError,
    IntegrabilityError,
    ShapeError,
    UsageError,
)
from homcone.graphs import Graph, PermutationGroup
from homcone.invariant import build_invariant_space
from homcone.oracle import mc_cone_integral
from homcone.selection import (
    DataSummary,
    Hyperparams,
    Model,
    build_butterfly_models,
    build_models,
    dedupe_models,
    exam_marks_summary,
    fit_concentration,
    fit_concentration_mle,
    load_scatter_json,
    log_I,
    posterior,
    scatter_summary,
    summarize_data,
)

EXAM_TABLE_G3 = 1e-3 * np.array(
    [
        [5.85, -2.23, -3.72, 0.0, 0.0],
        [-2.23, 10.15, -5.88, 0.0, 0.0],
        [-3.72, -5.88, 26.95, -5.88, -3.72],
        [0.0, 0.0, -5.88, 10.15, -2.23],
        [0.0, 0.0, -3.72, -2.23, 5.85],
    ]
)


def full_sym_model(p=2):
    g = Graph.build(
        [str(i) for i in range(1, p + 1)],
        list(itertools.combinations(range(1, p + 1), 2)),
    )
    return Model(label="full", space=build_invariant_space(g, PermutationGroup.trivial(p)))


# ---------------------------------------------------------------------------
# data summaries

def test_summarize_two_scalar_rows():
    d = summarize_data([[1.0], [3.0]], center=True)
    assert np.allclose(d.scatter, [[2.0]])
    assert d.n_effective == 1 and d.n_raw == 2


def test_summarize_without_centering():
    d = summarize_data([[1.0], [3.0]], center=False)
    assert np.allclose(d.scatter, [[10.0]])
    assert d.n_effective == 2


def test_centering_is_noop_on_centered_rows():
    rng = np.random.default_rng(31)
    rows = rng.standard_normal((20, 3))
    rows -= rows.mean(axis=0, keepdims=True)
    centered = summarize_data(rows, center=True)
    plain = summarize_data(rows, center=False)
    assert np.allclose(centered.scatter, plain.scatter, atol=1e-10)
    assert centered.n_effective == plain.n_effective - 1


def test_summarize_shape_errors():
    with pytest.raises(ShapeError):
        summarize_data([1.0, 2.0])
    with pytest.raises(ShapeError):
        summarize_data([[1.0]])


def test_exam_fixture_values(exam_data):
    s = exam_data.scatter
    assert s[0, 0] == 26601.82
    assert s[0, 1] == 11068.36
    assert s[1, 4] == 8614.05 and s[4, 1] == 8614.05
    assert np.allclose(s, s.T)
    np.linalg.cholesky(s)  # positive definite
    assert exam_data.n_raw == 88 and exam_data.n_effective == 87


def test_scatter_summary_validation():
    with pytest.raises(ShapeError):
        scatter_summary([[1.0, 0.0]], 3, True)
    with pytest.raises(ShapeError):
        scatter_summary([[1.0, 5.0], [0.0, 1.0]], 3, True)


def test_load_scatter_json(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"scatter": [[4.0]], "n_raw": 3, "centered": True}))
    d = load_scatter_json(path)
    assert d.n_effective == 2 and d.scatter[0, 0] == 4.0


# ---------------------------------------------------------------------------
# the normalizing constant

def test_log_I_hub_symmetric_hand_value(models_by_id):
    # at unit prior scale the two functional values are powers of two
    m = models_by_id["G7"]
    expected = m.realization.log_gamma(0.5) + math.log(16.0) + 0.5 * math.log(32.0)
    assert np.isclose(log_I(m, 3.0, np.eye(5)), expected, atol=1e-10)


def test_log_I_matches_monte_carlo_full_sym2():
    m = full_sym_model(2)
    value = log_I(m, 3.0, 2.0 * np.eye(2))
    est = mc_cone_integral(m.space, 0.5, np.eye(2), samples=400_000, seed=7)
    assert abs(math.exp(value) - est.value) < 3.0 * est.std_error


def test_log_I_fast_and_numeric_paths_agree(models):
    # the scoring route against the Newton route, which shares only the gamma
    # factor: delta and phi from cone.psi at the projected point scale / 2
    rng = np.random.default_rng(32)
    a = rng.standard_normal((5, 5))
    random_pd = a @ a.T + 0.5 * np.eye(5)
    for m in models:
        for delta, scale in ((3.0, np.eye(5)), (3.0, 100.0 * np.eye(5)), (4.0, random_pd)):
            fast = log_I(m, delta, scale)
            alpha = (delta - 2.0) / 2.0
            y = m.space.project(scale) / 2.0
            res = cone.psi(m.space, y)
            slow = (
                m.realization.log_gamma(alpha)
                + res.log_phi
                - alpha * res.log_delta
            )
            assert abs(fast - slow) < 1e-8 * max(1.0, abs(fast))


def test_log_I_scaling_regression(models_by_id):
    # observed homogeneity in the scale matrix, frozen as a regression value
    m = models_by_id["G2"]
    base = log_I(m, 3.0, np.eye(5))
    scaled = log_I(m, 3.0, 10.0 * np.eye(5))
    assert np.isclose(scaled - base, -(9.0 + 0.5 * 5.0) * math.log(10.0), atol=1e-9)


def test_log_I_requires_integrable_shape(models_by_id):
    with pytest.raises(IntegrabilityError):
        log_I(models_by_id["G1"], 2.0, np.eye(5))


def test_log_I_requires_pd_scale(models_by_id):
    with pytest.raises(DomainError):
        log_I(models_by_id["G1"], 3.0, -np.eye(5))


def test_hyperparams_validation():
    with pytest.raises(IntegrabilityError):
        Hyperparams(delta=2.0, scale=np.eye(5))
    with pytest.raises(DomainError):
        Hyperparams(delta=3.0, scale=np.zeros((5, 5)))
    with pytest.raises(ShapeError):
        Hyperparams(delta=3.0, scale=np.zeros((5, 4)))


def test_hyperparams_rejects_non_symmetric_scale():
    # Cholesky reads only the lower triangle, so this factors although its
    # symmetric part has eigenvalue -0.5
    scale = np.eye(5)
    scale[0, 4] = 3.0
    with pytest.raises(ShapeError):
        Hyperparams(delta=3.0, scale=scale)
    # rounding-level asymmetry passes
    scale = np.eye(5)
    scale[0, 4] = 1e-12
    Hyperparams(delta=3.0, scale=scale)


def test_log_I_rejects_wrongly_sized_scale(models_by_id):
    with pytest.raises(ShapeError):
        log_I(models_by_id["G1"], 3.0, np.eye(4))


# ---------------------------------------------------------------------------
# posterior over models

EXPECTED_WINNERS = {1.0: "G7", 100.0: "G3", 10000.0: "G1"}
# winning probabilities computed from the exact constant ratio, frozen
EXPECTED_WIN_PROBS = {1.0: 0.9989, 100.0: 0.8973, 10000.0: 0.8870}


def test_posterior_winners_and_probabilities(models, exam_data):
    for d, winner in EXPECTED_WINNERS.items():
        hyper = Hyperparams(delta=3.0, scale=d * np.eye(5))
        report = posterior(models, exam_data, hyper)
        assert report.winner_id == winner
        probs = {r.model_id: r.probability for r in report.records}
        assert abs(probs[winner] - EXPECTED_WIN_PROBS[d]) < 1e-3
        assert abs(sum(probs.values()) - 1.0) < 1e-12


def test_posterior_winners_stable_with_raw_count(models, exam_data):
    # the sample-count ambiguity (87 vs 88) does not change the winners
    raw = DataSummary(scatter=exam_data.scatter, n_effective=88, n_raw=88)
    for d, winner in EXPECTED_WINNERS.items():
        report = posterior(models, raw, Hyperparams(delta=3.0, scale=d * np.eye(5)))
        assert report.winner_id == winner


def test_posterior_permutation_stable(models, exam_data):
    hyper = Hyperparams(delta=3.0, scale=100.0 * np.eye(5))
    forward = posterior(models, exam_data, hyper)
    backward = posterior(list(reversed(models)), exam_data, hyper)
    fwd = {r.model_id: r.probability for r in forward.records}
    bwd = {r.model_id: r.probability for r in backward.records}
    assert fwd.keys() == bwd.keys()
    for key in fwd:
        assert abs(fwd[key] - bwd[key]) < 1e-12
    assert forward.winner_id == backward.winner_id


def test_posterior_duplicate_model_invariance(models, exam_data, butterfly, subgroups):
    dup_space = build_invariant_space(butterfly, subgroups["G9"])
    duplicate = Model(label="G9x", space=dup_space)
    hyper = Hyperparams(delta=3.0, scale=np.eye(5))
    base = posterior(models, exam_data, hyper)
    extended = posterior(list(models) + [duplicate], exam_data, hyper)
    assert extended.winner_id == base.winner_id
    merged = {r.model_id: r.merged_labels for r in extended.records}
    assert "G9x" in merged["G7"]
    base_probs = {r.model_id: r.probability for r in base.records}
    ext_probs = {r.model_id: r.probability for r in extended.records}
    for key in base_probs:
        assert abs(base_probs[key] - ext_probs[key]) < 1e-10


def test_dedupe_keeps_realization(models, butterfly, subgroups):
    # a merged model derives the realization of its space like any other
    dup_space = build_invariant_space(butterfly, subgroups["G10"])
    bare_first = [Model(label="X", space=dup_space)] + list(models)
    deduped = dedupe_models(bare_first)
    merged = next(m for m in deduped if m.label == "X")
    g7 = next(m for m in models if m.label == "G7")
    assert merged.merged_labels == ("X", "G7", "G9", "G10")
    for alpha in (0.0, 1.0):
        assert merged.realization.log_gamma(alpha) == g7.realization.log_gamma(alpha)


def test_posterior_usage_errors(models, exam_data):
    with pytest.raises(UsageError):
        posterior([], exam_data, Hyperparams(delta=3.0, scale=np.eye(5)))
    with pytest.raises(UsageError):
        posterior(list(models) + [full_sym_model(2)], exam_data,
                  Hyperparams(delta=3.0, scale=np.eye(5)))
    with pytest.raises(ShapeError):
        posterior([full_sym_model(2)],
                  exam_data, Hyperparams(delta=3.0, scale=np.eye(2)))


@pytest.mark.parametrize("p", [1, 4])
def test_posterior_rejects_wrongly_sized_prior_scale(models, exam_data, p):
    # a 4x4 scale does not broadcast against the 5x5 scatter, a 1x1 does
    with pytest.raises(ShapeError):
        posterior(models, exam_data, Hyperparams(delta=3.0, scale=np.eye(p)))


def test_posterior_rejects_indefinite_posterior_scale(models):
    # a symmetric scatter that makes scale + scatter indefinite is rejected
    # when posterior() builds its one posterior Hyperparams
    scatter = np.diag([-50.0, 1.0, 1.0, 1.0, 1.0])
    data = DataSummary(scatter=scatter, n_effective=9, n_raw=10)
    with pytest.raises(DomainError):
        posterior(models, data, Hyperparams(delta=3.0, scale=np.eye(5)))


def test_report_json_fields(models, exam_data):
    report = posterior(models, exam_data, Hyperparams(delta=3.0, scale=np.eye(5)))
    payload = report.to_json_dict()
    assert payload["winner"] == "G7"
    assert len(payload["models"]) == 7
    expected_keys = {
        "model_id", "merged_labels", "dim", "log_I_prior",
        "log_I_posterior", "log_score", "probability",
    }
    for rec in payload["models"]:
        assert set(rec.keys()) == expected_keys
    table = report.render_table()
    assert "winner: G7" in table


# ---------------------------------------------------------------------------
# fitted concentrations

def test_fit_concentration_reproduces_reference_table(models_by_id, exam_data):
    k = fit_concentration(models_by_id["G3"], exam_data)
    assert np.max(np.abs(k - EXAM_TABLE_G3)) * 1e3 < 0.01
    for i, j in ((0, 3), (0, 4), (1, 3), (1, 4)):
        assert k[i, j] == 0.0
    # exact symmetry under the subgroup
    assert k[0, 0] == k[4, 4]
    assert k[1, 1] == k[3, 3]
    assert k[0, 1] == k[3, 4]
    np.linalg.cholesky(k)  # in the primal cone for this data


def test_fit_concentration_identity_scatter(models_by_id):
    data = DataSummary(scatter=87.0 * np.eye(5), n_effective=87, n_raw=88)
    for fit in (fit_concentration, fit_concentration_mle):
        assert np.allclose(fit(models_by_id["G3"], data), np.eye(5), atol=1e-10)


def test_fit_concentration_mle_matching_property(models_by_id, exam_data):
    for key in ("G1", "G3", "G7"):
        m = models_by_id[key]
        k = fit_concentration_mle(m, exam_data)
        target = m.space.project(exam_data.scatter / exam_data.n_effective)
        resid = m.space.project(np.linalg.inv(k)) - target
        assert np.linalg.norm(resid) < 1e-10
        for i, j in ((0, 3), (0, 4), (1, 3), (1, 4)):
            assert k[i, j] == 0.0


def test_build_butterfly_models():
    models = build_butterfly_models()
    assert [m.label for m in models] == ["G1", "G2", "G3", "G4", "G5", "G6", "G7"]
    assert models[6].merged_labels == ("G7", "G9", "G10")
    assert all(m.realization is not None for m in models)
    assert build_butterfly_models() is models  # built once per process


def test_build_models_labels_each_class_by_its_first_name(butterfly, subgroups):
    named = {f"H{i}": subgroups[f"G{i}"] for i in (10, 9, 1, 8, 6)}
    models = build_models(butterfly, named)
    assert [m.all_labels() for m in models] == [("H10", "H9"), ("H1",), ("H8", "H6")]
    # building and deduping bare models realizes nothing
    dedupe_models(models + [Model("X", models[0].space)])
    assert not any("realization" in vars(m) for m in models)
