"""Acceptance gate for the examination-marks benchmark.

Each test prints one [PASS]/[FAIL] line for its criterion (run with -s to
see them).  Tolerances are fixed here, not calibrated.

The winning-probability criterion takes its expected values from a route
that shares no scoring code with the package: the closed-form gamma and phi
of tests/closed_forms.py plus the Newton-path determinant functional, put
through the log-sum-exp over the seven model classes that defines the
posterior.  That route is itself anchored absolutely on G1 by the G-Wishart
clique/separator normalizing constant of a decomposable graph (Dawid &
Lauritzen 1993; Roverato 2000).  The published table of winning
probabilities (1.00, 0.80, 0.75) for the scale multipliers (1, 100, 10000)
cannot be reproduced from the posterior ratio under any sample-size,
weighting, prior or scatter convention tried; it is kept and printed beside
the computed values, not asserted.
"""

import contextlib
import math
import time

import numpy as np
import pytest
from scipy.special import multigammaln

import homcone as hc
from homcone import cone
from homcone.graphs import Permutation, PermutationGroup, automorphism_group, enumerate_subgroups
from homcone.invariant import build_invariant_space, same_space
from homcone.oracle import mc_cone_integral
from homcone.realization import factor_T, full_sym_structure, log_gamma_v
from homcone.selection import Hyperparams, fit_concentration, posterior
from homcone.verify import log_gamma_full_sym_classical, mc_reference_cases

from closed_forms import GAMMA_LOG, PHI_LOG, finite_diff_gradient, finite_diff_hessian

D_VALUES = (1.0, 100.0, 10000.0)
EXPECTED_WINNERS = ("G7", "G3", "G1")
# Published reference table; not reproducible from the posterior ratio.
PUBLISHED_WIN_PROBS = (1.00, 0.80, 0.75)
WIN_PROB_TOL = 0.05
CLASS_PROB_TOL = 1e-6
G1_ANCHOR_TOL = 1e-10
PRIOR_SHAPE = 3.0
# 88 students; the embedded scatter is centered, which costs one degree of freedom.
EXAM_N_EFFECTIVE = 88 - 1
G1_CLIQUES = ((0, 1, 2), (2, 3, 4))
G1_SEPARATORS = ((2,),)
G1_EDGE_COUNT = 6

EXAM_TABLE_G3 = 1e-3 * np.array(
    [
        [5.85, -2.23, -3.72, 0.0, 0.0],
        [-2.23, 10.15, -5.88, 0.0, 0.0],
        [-3.72, -5.88, 26.95, -5.88, -3.72],
        [0.0, 0.0, -5.88, 10.15, -2.23],
        [0.0, 0.0, -3.72, -2.23, 5.85],
    ]
)


@contextlib.contextmanager
def criterion(name):
    """Print one [PASS]/[FAIL] line; notes appended to the yielded list follow the name."""
    notes = []
    try:
        yield notes
    except BaseException as exc:
        print(f"[FAIL] {name}{''.join(f'; {n}' for n in notes)}: {exc}")
        raise
    print(f"[PASS] {name}{''.join(f'; {n}' for n in notes)}")


def random_dual(space, rng, scale=1.0):
    a = rng.standard_normal((space.p, space.p))
    return scale * space.project(a @ a.T + 0.1 * np.eye(space.p))


def _selection_reports(models, exam_data):
    reports = []
    for d in D_VALUES:
        hyper = Hyperparams(delta=PRIOR_SHAPE, scale=d * np.eye(5))
        reports.append(posterior(models, exam_data, hyper))
    return reports


def test_criterion_posterior_winners(models, exam_data):
    with criterion("posterior winners at scale multipliers 1, 100, 10000 in under 5 s"):
        start = time.monotonic()
        reports = _selection_reports(models, exam_data)
        elapsed = time.monotonic() - start
        winners = tuple(r.winner_id for r in reports)
        assert winners == EXPECTED_WINNERS, f"winners {winners}"
        assert elapsed < 5.0, f"took {elapsed:.2f} s"


def _closed_form_log_I(space, key, delta, scale):
    """Log normalizing constant from closed-form gamma and phi and Newton-path delta."""
    alpha = (delta - 2.0) / 2.0
    y = space.project(scale) / 2.0
    return (
        float(GAMMA_LOG[key](alpha))
        + float(PHI_LOG[key](y))
        - alpha * cone.log_delta(space, y)
    )


def _log_wishart_constant(delta, scale):
    """Log integral of |K|^((delta-2)/2) exp(-tr(K scale)/2) over the full cone.

    Lebesgue measure on the upper-triangle entries of K.
    """
    p = scale.shape[0]
    a = (delta + p - 1.0) / 2.0
    _, logdet = np.linalg.slogdet(scale)
    return p * a * math.log(2.0) + float(multigammaln(a, p)) - a * logdet


def _g_wishart_log_I_g1(delta, scale):
    """G-Wishart constant of the decomposable unrestricted model G1.

    Product of the clique constants over the separator constants.  The
    package integrates in orthonormal coordinates, where each off-diagonal
    coordinate is sqrt(2) times its matrix entry, hence the power of two.
    """
    total = 0.5 * G1_EDGE_COUNT * math.log(2.0)
    for clique in G1_CLIQUES:
        total += _log_wishart_constant(delta, scale[np.ix_(clique, clique)])
    for sep in G1_SEPARATORS:
        total -= _log_wishart_constant(delta, scale[np.ix_(sep, sep)])
    return total


def _closed_form_posterior(models_by_id, exam_data, d):
    """Closed-form class probabilities and G1 (prior, posterior) log I at scale d."""
    scale = d * np.eye(5)
    post_scale = scale + exam_data.scatter
    post_shape = PRIOR_SHAPE + EXAM_N_EFFECTIVE
    log_I = {}
    for key in GAMMA_LOG:
        space = models_by_id[key].space
        log_I[key] = (
            _closed_form_log_I(space, key, PRIOR_SHAPE, scale),
            _closed_form_log_I(space, key, post_shape, post_scale),
        )
    scores = np.array([post - prior for prior, post in log_I.values()])
    probs = np.exp(scores - scores.max())
    probs /= probs.sum()
    return dict(zip(log_I, probs.tolist())), log_I["G1"]


def test_criterion_posterior_winning_probabilities(models, models_by_id, exam_data):
    name = (
        f"winning probabilities within {WIN_PROB_TOL} of the closed-form posterior, "
        f"every class within {CLASS_PROB_TOL:g}, G1 on the G-Wishart constant"
    )
    with criterion(name) as notes:
        reports = _selection_reports(models, exam_data)
        closed = [_closed_form_posterior(models_by_id, exam_data, d) for d in D_VALUES]
        got = [{rec.model_id: rec.probability for rec in r.records} for r in reports]
        computed = tuple(g[r.winner_id] for g, r in zip(got, reports))
        expected = tuple(want[w] for (want, _), w in zip(closed, EXPECTED_WINNERS))
        notes.append(
            f"computed {tuple(round(c, 4) for c in computed)}, "
            f"closed form {tuple(round(e, 4) for e in expected)}, "
            f"published table {PUBLISHED_WIN_PROBS} (not reproducible, not asserted)"
        )

        winners = tuple(r.winner_id for r in reports)
        closed_winners = tuple(max(want, key=want.get) for want, _ in closed)
        assert winners == closed_winners == EXPECTED_WINNERS, (
            f"winners {winners}, closed-form winners {closed_winners}"
        )
        deltas = [abs(c - e) for c, e in zip(computed, expected)]
        assert all(dl <= WIN_PROB_TOL for dl in deltas), (
            f"computed winning probabilities {tuple(round(c, 4) for c in computed)} "
            f"vs {tuple(round(e, 4) for e in expected)} from the closed-form gamma "
            "and phi with the Newton-path delta"
        )
        for d, g, (want, _) in zip(D_VALUES, got, closed):
            assert sorted(g) == sorted(want), f"d = {d}: classes {sorted(g)}"
            worst = max(abs(g[k] - want[k]) for k in want)
            assert worst <= CLASS_PROB_TOL, (
                f"d = {d}: class probabilities differ by up to {worst:.3g}; "
                f"computed {g}, closed form {want}"
            )

        post_shape = PRIOR_SHAPE + EXAM_N_EFFECTIVE
        for d, report, (_, g1_closed) in zip(D_VALUES, reports, closed):
            scale = d * np.eye(5)
            anchor = (
                _g_wishart_log_I_g1(PRIOR_SHAPE, scale),
                _g_wishart_log_I_g1(post_shape, scale + exam_data.scatter),
            )
            rec = next(r for r in report.records if r.model_id == "G1")
            for label, value in (
                ("closed form", g1_closed),
                ("computed", (rec.log_I_prior, rec.log_I_posterior)),
            ):
                worst = max(abs(v - a) for v, a in zip(value, anchor))
                assert worst <= G1_ANCHOR_TOL, (
                    f"d = {d}: {label} G1 (prior, posterior) log I {value} "
                    f"vs G-Wishart {anchor}"
                )


def test_criterion_fitted_concentrations(models_by_id, exam_data):
    with criterion("fitted concentrations reproduce the reference table in under 1 s"):
        start = time.monotonic()
        k = fit_concentration(models_by_id["G3"], exam_data)
        elapsed = time.monotonic() - start
        worst = float(np.max(np.abs(k - EXAM_TABLE_G3))) * 1e3
        assert worst < 0.01, f"worst entry deviation {worst:.4f} (x 10^3)"
        for i, j in ((0, 3), (0, 4), (1, 3), (1, 4), (3, 0), (4, 0), (3, 1), (4, 1)):
            assert k[i, j] == 0.0, f"non-edge cell ({i},{j}) not exactly zero"
        assert elapsed < 1.0, f"took {elapsed:.2f} s"


def test_criterion_gamma_closed_forms(models_by_id):
    with criterion("gamma closed forms for the seven structures at four exponents"):
        for key, form in GAMMA_LOG.items():
            real = models_by_id[key].realization
            for alpha in (0.0, 0.5, 1.0, 43.5):
                lhs = real.log_gamma(alpha)
                rhs = float(form(alpha))
                assert abs(lhs - rhs) <= 1e-10, (key, alpha, lhs, rhs)


def test_criterion_factorization_equivalence(models):
    with criterion("triangular factor vs solver determinants on 20 points per space"):
        rng = np.random.default_rng(2718)
        for m in models:
            structure = m.realization.structure
            for _ in range(20):
                y = random_dual(m.space, rng)
                res = cone.psi(m.space, y)
                u = m.realization.u
                t_elem = factor_T(structure, u.T @ y @ u)
                log_delta_fast = 2.0 * sum(
                    n * math.log(d) for n, d in zip(structure.block_sizes, t_elem.diag)
                )
                sign, logdet_psi = np.linalg.slogdet(res.x_star)
                assert sign > 0
                assert abs(log_delta_fast - (-logdet_psi)) <= 1e-8 * max(
                    1.0, abs(log_delta_fast)
                ), m.label
                _, log_phi_fast = m.realization.log_delta_phi(y)
                hess = cone.hessian_matrix(m.space, y)
                sign_h, logdet_hess = np.linalg.slogdet(hess)
                assert sign_h > 0
                assert abs(log_phi_fast - 0.5 * logdet_hess) <= 1e-8 * max(
                    1.0, abs(log_phi_fast)
                ), m.label


def test_criterion_monte_carlo_integral_identity():
    with criterion("Monte Carlo confirms the integral factorization in under 2 min"):
        start = time.monotonic()
        for name, space, realization, y, alpha in mc_reference_cases():
            ld, lp = realization.log_delta_phi(y)
            claim = math.exp(realization.log_gamma(alpha) + lp - alpha * ld)
            est = mc_cone_integral(space, alpha, y, samples=2_000_000, seed=0xC0FFEE)
            z = abs(est.value - claim) / est.std_error
            assert z <= 3.0, (
                f"{name}: claim {claim:.6g}, estimate {est.value:.6g} "
                f"+- {est.std_error:.2g}, z = {z:.2f}"
            )
        elapsed = time.monotonic() - start
        assert elapsed < 120.0, f"took {elapsed:.1f} s"


def test_criterion_full_cone_gamma_consistency():
    with criterion("full-cone gamma equals the classical value times the measure factor"):
        for p in (2, 3, 4):
            structure = full_sym_structure(p)
            for alpha in (0.0, 0.5, 1.0, 43.5):
                lhs = log_gamma_v(structure, alpha)
                rhs = log_gamma_full_sym_classical(p, alpha)
                assert abs(lhs - rhs) <= 1e-10, (p, alpha)


def test_criterion_gradient_and_hessian_identities(models):
    with criterion("derivative identities of the determinant functional, all spaces"):
        rng = np.random.default_rng(31415)
        for m in models:
            space = m.space

            def neg_log_delta(point):
                return -cone.log_delta(space, point)

            for _ in range(2):
                y = random_dual(space, rng)
                res = cone.psi(space, y)
                grad = finite_diff_gradient(neg_log_delta, space, y, step=1e-5)
                assert np.max(np.abs(grad - (-res.coords))) <= 1e-6, m.label
                hess_fd = finite_diff_hessian(neg_log_delta, space, y, step=1e-4)
                hess = cone.hessian_matrix(space, y)
                assert np.max(np.abs(hess_fd - hess)) <= 1e-5, m.label


def test_criterion_group_facts(butterfly, spaces):
    with criterion("automorphism group order, generators, subgroups, space classes"):
        group = automorphism_group(butterfly)
        assert group.order == 8
        sigma1 = Permutation.from_cycle_string("(1 2)", 5)
        tau = Permutation.from_cycle_string("(1 5 2 4)", 5)
        assert PermutationGroup.generate(5, [sigma1, tau]) == group
        subs = enumerate_subgroups(group)
        assert len(subs) == 10
        # class structure of the ten invariant spaces
        classes = []
        for key in ("G1", "G2", "G3", "G4", "G5", "G6", "G7", "G8", "G9", "G10"):
            for cls in classes:
                if same_space(spaces[cls[0]], spaces[key]):
                    cls.append(key)
                    break
            else:
                classes.append([key])
        assert len(classes) == 7
        as_sets = [set(c) for c in classes]
        assert {"G6", "G8"} in as_sets
        assert {"G7", "G9", "G10"} in as_sets
