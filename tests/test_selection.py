import dataclasses
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

import homcone as hc
from homcone import cone
from homcone import selection as selection_module
from homcone.errors import (
    CapabilityError,
    ConjugationError,
    DomainError,
    DualMembershipError,
    IntegrabilityError,
    ShapeError,
    UsageError,
)
from homcone.graphs import Graph, PermutationGroup
from homcone.invariant import build_invariant_space
from homcone.oracle import mc_cone_integral
from homcone.realization import Realization, conjugate_space, realize
from homcone.selection import (
    DataSummary,
    Hyperparams,
    Model,
    ModelRecord,
    SelectionReport,
    build_butterfly_models,
    build_models,
    dedupe_models,
    exam_marks_summary,
    fit_concentration,
    fit_concentration_mle,
    load_scatter_json,
    log_I,
    log_I_terms,
    posterior,
    scatter_summary,
    summarize_data,
)

from lattices import LATTICES, complete, graph, lattice_models
from strategies import gram_points

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


def test_repeated_posterior_realizes_each_space_once(monkeypatch, exam_data,
                                                    butterfly, subgroups):
    # a duplicate subgroup merges into G7's class on every call; the merged
    # model shares the first model's realization instead of deriving its own
    calls = []

    def counting(space):
        calls.append(space)
        return realize(space)

    monkeypatch.setattr(selection_module, "realize", counting)
    fresh = build_models(butterfly, {f"G{k}": subgroups[f"G{k}"] for k in range(1, 8)})
    duplicate = Model(label="G9x", space=build_invariant_space(butterfly, subgroups["G9"]))
    hyper = Hyperparams(delta=3.0, scale=np.eye(5))
    reports = [posterior(fresh + [duplicate], exam_data, hyper) for _ in range(4)]
    assert len(calls) == len(fresh) == 7
    assert all(r.winner_id == reports[0].winner_id for r in reports)
    merged = dedupe_models(dedupe_models(fresh + [duplicate]) + [duplicate])
    assert merged[6].merged_labels == ("G7", "G9x")
    assert merged[6].realization is fresh[6].realization
    assert len(calls) == 7


def test_render_table_pads_to_the_widest_merged_label():
    def record(model_id, labels):
        return ModelRecord(model_id, labels, 3, 1.0, 2.0, 1.0, 0.5)

    narrow = SelectionReport([record("G1", ("G1",)), record("G7", ("G7", "G9", "G10"))], "G7")
    lines = narrow.render_table().splitlines()
    assert lines[0].index("dim") == 8 + 16 + 1
    wide_labels = tuple(f"H{i}" for i in range(18, 31))
    wide = SelectionReport([record("H1", ("H1",)), record("H18", wide_labels)], "H18")
    lines = wide.render_table().splitlines()
    width = len("+".join(wide_labels))
    assert width > 16
    # every line's dim column ends where the header's does
    end = lines[0].index("dim") + 3
    assert lines[0].index("dim") == 8 + width + 1
    assert all(line[end - 1] == "3" and line[end] == " " for line in lines[1:-1])
    assert lines[-1] == "winner: H18"


def test_posterior_usage_errors(models, exam_data):
    with pytest.raises(UsageError):
        posterior([], exam_data, Hyperparams(delta=3.0, scale=np.eye(5)))
    with pytest.raises(UsageError):
        posterior(list(models) + [full_sym_model(2)], exam_data,
                  Hyperparams(delta=3.0, scale=np.eye(5)))
    with pytest.raises(ShapeError):
        posterior([full_sym_model(2)],
                  exam_data, Hyperparams(delta=3.0, scale=np.eye(2)))


def test_posterior_refuses_mixed_graphs_before_realizing(butterfly, subgroups, exam_data):
    # a five-vertex star has the butterfly's size, so only the graphs differ
    star = Graph.build(list("habcd"), [(1, v) for v in range(2, 6)])
    models = (build_models(butterfly, {"G1": subgroups["G1"]})
              + [Model("S", build_invariant_space(star, PermutationGroup.trivial(5)))])
    with pytest.raises(UsageError, match="different graphs"):
        posterior(models, exam_data, Hyperparams(delta=3.0, scale=np.eye(5)))
    assert not any("realization" in vars(m) for m in models)


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
# every model of a posterior() call scored from one stacked product

STACK_RTOL = 1e-12


def assert_scores_match_one_shot(report, models, data, hyper):
    # each record against log_I_terms, a stack of one model and one scale
    post = Hyperparams(delta=hyper.delta + data.n_effective, scale=hyper.scale + data.scatter)
    by_id = {m.label: m for m in models}
    assert len(report.records) == len(models)
    for r in report.records:
        prior = log_I_terms(by_id[r.model_id], hyper).log_I
        post_I = log_I_terms(by_id[r.model_id], post).log_I
        assert r.log_I_prior == pytest.approx(prior, rel=STACK_RTOL)
        assert r.log_I_posterior == pytest.approx(post_I, rel=STACK_RTOL)
        assert r.log_score == pytest.approx(post_I - prior, rel=STACK_RTOL)


@pytest.mark.parametrize("d", sorted(EXPECTED_WINNERS))
def test_posterior_scores_match_one_shot_scores(models, exam_data, d):
    hyper = Hyperparams(delta=3.0, scale=d * np.eye(5))
    assert_scores_match_one_shot(posterior(models, exam_data, hyper), models, exam_data, hyper)


def test_posterior_scores_match_one_shot_scores_over_the_k5_lattice():
    g, n_spaces = LATTICES["K5"]
    models = lattice_models(g)
    assert len(models) == n_spaces == 93
    assert len({m.space.dim for m in models}) > 5
    x = np.random.default_rng(27).standard_normal((40, 5))
    data = summarize_data(x)
    hyper = Hyperparams(delta=4.5, scale=3.0 * np.eye(5))
    assert_scores_match_one_shot(posterior(models, data, hyper), models, data, hyper)


def test_a_realization_off_its_block_form_is_named(models):
    # a Realization checks itself where it is built: a slightly rotated u
    # takes the space off its block form however the realization is built,
    # and the error names the first basis element that leaves it
    g3 = next(m for m in models if m.label == "G3")
    rot, _ = np.linalg.qr(np.eye(5) + 1e-3 * np.random.default_rng(5).standard_normal((5, 5)))
    u = g3.realization.u @ rot
    named = r"conjugated basis element \d+ leaves the block form \(residual"
    for build in (lambda: conjugate_space(g3.space, u, g3.realization.structure),
                  lambda: Realization(u=u, structure=g3.realization.structure, space=g3.space),
                  lambda: dataclasses.replace(g3.realization, u=u)):
        with pytest.raises(ConjugationError, match=named) as info:
            build()
        assert info.value.basis_index is not None


def test_score_terms_on_a_wrong_scale_and_no_models(models):
    # the stack of one checks each scale by itself, so the message carries
    # the shape the caller passed, not that of the stack; no models, no
    # rows, and no scales, one empty row per model
    with pytest.raises(ShapeError, match=r"projected scale must be 5x5, got \(4, 4\)"):
        log_I_terms(models[0], Hyperparams(delta=3.0, scale=np.eye(4)))
    assert selection_module.score_terms([], [Hyperparams(delta=3.0, scale=np.eye(5))]) == []
    assert selection_module.score_terms(models, []) == [[] for _ in models]


def test_posterior_caches_no_per_model_map(butterfly, subgroups, exam_data):
    # a realization holds its u, structure, space and isometry and nothing
    # else, and scoring caches no point map on its structure or space
    fresh = build_models(butterfly, subgroups)
    report = posterior(fresh, exam_data, Hyperparams(delta=3.0, scale=100.0 * np.eye(5)))
    assert report.winner_id == "G3"
    for m in fresh:
        assert vars(m.realization).keys() == {"u", "structure", "space", "isometry"}
        assert "point_map" not in vars(m.realization.structure)
        assert "point_map" not in vars(m.space)


K6_POSTERIOR_PEAK_MIB = 10.0


def test_k6_posterior_traced_peak():
    # the whole K6 lattice scored, 739 models: posterior() allocates the
    # stacked scale map (about 1.7 MB) and little else, since no realization
    # caches a map of its own
    models = lattice_models(graph(6, complete(6)))
    assert len(models) == 739
    for m in models:
        m.realization
    data = summarize_data(np.random.default_rng(6).standard_normal((50, 6)), center=False)
    tracemalloc.start()
    try:
        report = posterior(models, data, Hyperparams(delta=3.0, scale=np.eye(6)))
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert len(report.records) == 739
    assert abs(math.fsum(r.probability for r in report.records) - 1.0) <= 1e-12
    assert peak <= K6_POSTERIOR_PEAK_MIB, f"traced peak {peak:.1f} MiB"


@pytest.mark.parametrize("c", [1e-300, 1e-150, 1e150, 1e300])
def test_posterior_near_the_float_range(models, exam_data, c):
    # scaling the prior scale and the scatter together by c moves log delta
    # by p log c at both scales, so every score shifts by
    # -(n_eff / 2) p log c and the probabilities stay put
    n = exam_data.n_effective
    data = DataSummary(scatter=c * exam_data.scatter, n_effective=n, n_raw=exam_data.n_raw)
    shift = -0.5 * n * 5 * math.log(c)
    for d in EXPECTED_WINNERS:
        base = posterior(models, exam_data, Hyperparams(delta=3.0, scale=d * np.eye(5)))
        scaled = posterior(models, data, Hyperparams(delta=3.0, scale=c * d * np.eye(5)))
        assert scaled.winner_id == base.winner_id
        for a, b in zip(base.records, scaled.records):
            assert b.model_id == a.model_id
            assert abs(b.probability - a.probability) <= 1e-10
            assert b.log_score == pytest.approx(a.log_score + shift, rel=STACK_RTOL)


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


def test_fit_concentration_refuses_a_singular_scatter(models_by_id):
    # three rows on five vertices: scatter_summary accepts the semidefinite
    # scatter, which has no inverse to project; the MLE needs none
    x = np.random.default_rng(3).standard_normal((3, 5))
    data = scatter_summary(x.T @ x, n_raw=3, centered=False)
    with pytest.raises(DomainError, match=r"averaged scatter has rank 3 of 5: no inverse"):
        fit_concentration(models_by_id["G3"], data)
    m = models_by_id["G3"]
    k = fit_concentration_mle(m, data)
    target = m.space.project(data.scatter / data.n_effective)
    assert np.linalg.norm(m.space.project(np.linalg.inv(k)) - target) < 1e-10 * np.linalg.norm(target)


def test_fit_concentration_mle_matching_property(models_by_id, exam_data):
    for key in ("G1", "G3", "G7"):
        m = models_by_id[key]
        k = fit_concentration_mle(m, exam_data)
        target = m.space.project(exam_data.scatter / exam_data.n_effective)
        resid = m.space.project(np.linalg.inv(k)) - target
        assert np.linalg.norm(resid) < 1e-10
        for i, j in ((0, 3), (0, 4), (1, 3), (1, 4)):
            assert k[i, j] == 0.0


@pytest.mark.parametrize("mid", ["G1", "G3", "G7"])
@settings(derandomize=True, deadline=None, max_examples=50)
@given(y0=gram_points(5))
def test_fit_concentration_mle_on_ill_conditioned_scatters(models_by_id, mid, y0):
    # condition up to about 1e6, where Newton stalls or refuses some points
    m = models_by_id[mid]
    data = scatter_summary(10.0 * y0, n_raw=10, centered=False)
    k = fit_concentration_mle(m, data)
    np.linalg.cholesky(k)
    target = m.space.project(data.scatter / data.n_effective)
    assert np.linalg.norm(m.space.project(np.linalg.inv(k)) - target) <= 1e-8 * np.linalg.norm(target)


def test_fit_concentration_mle_makes_no_newton_call(models, exam_data, monkeypatch):
    reference = [cone.psi(m.space, m.space.project(exam_data.scatter / exam_data.n_effective))
                 for m in models]

    def refuse(*args, **kwargs):
        raise AssertionError("Newton solve called")

    monkeypatch.setattr(cone, "psi_stack", refuse)
    for m, res in zip(models, reference):
        k = fit_concentration_mle(m, exam_data)
        assert np.linalg.norm(k - res.x_star) <= 1e-14 * np.linalg.norm(res.x_star), m.label


def test_fit_concentration_mle_names_a_scatter_outside_the_dual_cone(models_by_id):
    # a zero-variance column: the likelihood is unbounded on every model
    x = np.random.default_rng(4).standard_normal((20, 5))
    x[:, 2] = 0.0
    data = summarize_data(x)
    for m in models_by_id.values():
        with pytest.raises(DualMembershipError, match=(
                rf"projected averaged scatter is not in the open dual cone of model "
                rf"{m.label}, so the likelihood has no maximizer \(factorization breakdown")):
            fit_concentration_mle(m, data)


def test_fit_concentration_mle_needs_a_realization(exam_data):
    # like posterior(), on a graph that is not homogeneous
    g = Graph.build(list("abcde"), [(1, 2), (2, 3), (3, 4), (4, 5)])
    m = Model(label="P5", space=build_invariant_space(g, PermutationGroup.trivial(5)))
    with pytest.raises(CapabilityError):
        fit_concentration_mle(m, exam_data)
    with pytest.raises(CapabilityError):
        posterior([m], exam_data, Hyperparams(delta=3.0, scale=np.eye(5)))


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
