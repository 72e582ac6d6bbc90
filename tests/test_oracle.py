import ast
import itertools
import math
import pathlib
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import gammaln

import homcone as hc
from homcone import cone, oracle, verify
from homcone.errors import DomainError, DualMembershipError, HomconeError, ScopeError
from homcone.graphs import (
    Graph, Permutation, PermutationGroup, automorphism_group, enumerate_subgroups,
)
from homcone.invariant import build_invariant_space
from homcone.oracle import (
    mc_cone_integral,
    _elimination_plan,
    _estimate_from_sums,
    _pivot_logdet,
    _proposal_moments,
)
from homcone.realization import full_sym_structure, log_gamma_v, ray_structure

from closed_forms import StencilError, finite_diff_gradient, finite_diff_hessian


def full_sym_space(p):
    g = Graph.build(
        [str(i) for i in range(1, p + 1)],
        list(itertools.combinations(range(1, p + 1), 2)),
    )
    return build_invariant_space(g, PermutationGroup.trivial(p))


def ray_space(p):
    g = Graph.build([str(i) for i in range(1, p + 1)], [])
    gens = [Permutation((2, 1) + tuple(range(3, p + 1))),
            Permutation(tuple(range(2, p + 1)) + (1,))]
    return build_invariant_space(g, PermutationGroup.generate(p, gens))


# ---------------------------------------------------------------------------
# Monte Carlo integrals

def test_full_sym2_unit_point():
    space = full_sym_space(2)
    claim = math.exp(log_gamma_v(full_sym_structure(2), 1.0))
    est = mc_cone_integral(space, 1.0, np.eye(2), samples=400_000, seed=11)
    assert est.value > 0
    assert abs(est.value - claim) < 3.0 * est.std_error


def test_ray_cone_closed_form():
    p = 3
    space = ray_space(p)
    assert space.dim == 1
    claim = p ** (-p - 0.5) * math.exp(gammaln(p + 1.0))
    est = mc_cone_integral(space, 1.0, np.eye(p), samples=200_000, seed=12)
    assert abs(est.value - claim) < 3.0 * est.std_error
    assert est.std_error < 0.01 * claim


def test_zero_exponent_branch():
    space = full_sym_space(2)
    claim = math.exp(log_gamma_v(full_sym_structure(2), 0.0))
    est = mc_cone_integral(space, 0.0, np.eye(2), samples=400_000, seed=13)
    assert abs(est.value - claim) < 3.0 * est.std_error


def test_two_seeds_agree():
    space = full_sym_space(2)
    a = mc_cone_integral(space, 1.0, np.eye(2), samples=200_000, seed=1)
    b = mc_cone_integral(space, 1.0, np.eye(2), samples=200_000, seed=2)
    combined = math.hypot(a.std_error, b.std_error)
    assert abs(a.value - b.value) < 4.0 * combined


def test_deterministic_per_seed():
    space = full_sym_space(2)
    a = mc_cone_integral(space, 1.0, np.eye(2), samples=100_000, seed=99)
    b = mc_cone_integral(space, 1.0, np.eye(2), samples=100_000, seed=99)
    assert a.value == b.value
    assert a.std_error == b.std_error


def test_dimension_guard(models_by_id):
    space = models_by_id["G1"].space  # dimension 11
    with pytest.raises(ScopeError):
        mc_cone_integral(space, 1.0, np.eye(5), samples=1000, seed=0)


def test_negative_exponent_rejected():
    with pytest.raises(DomainError):
        mc_cone_integral(full_sym_space(2), -1.0, np.eye(2), samples=1000, seed=0)


@pytest.mark.parametrize("samples", [0, -5, 1])
def test_sample_count_below_one_rejected(samples):
    with pytest.raises(DomainError):
        mc_cone_integral(full_sym_space(2), 1.0, np.eye(2), samples=samples, seed=0)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
def test_non_finite_exponent_rejected(alpha):
    with pytest.raises(DomainError, match="finite"):
        mc_cone_integral(full_sym_space(2), alpha, np.eye(2), samples=1000, seed=0)


@pytest.mark.parametrize("samples", [1000.0, 2.5, "1000", None])
def test_non_integer_sample_count_rejected(samples):
    with pytest.raises(DomainError, match="integer"):
        mc_cone_integral(full_sym_space(2), 1.0, np.eye(2), samples=samples, seed=0)


@pytest.mark.parametrize("seed", [1.5, "7", None])
def test_non_integer_seed_rejected(seed):
    with pytest.raises(DomainError, match="integer"):
        mc_cone_integral(full_sym_space(2), 1.0, np.eye(2), samples=1000, seed=seed)


def test_negative_seed_rejected():
    with pytest.raises(DomainError, match=">= 0"):
        mc_cone_integral(full_sym_space(2), 1.0, np.eye(2), samples=1000, seed=-1)


def test_integer_like_sample_count_accepted():
    space = full_sym_space(2)
    a = mc_cone_integral(space, 1.0, np.eye(2), samples=np.int64(1000), seed=3)
    b = mc_cone_integral(space, 1.0, np.eye(2), samples=1000, seed=3)
    assert a.samples == 1000 and a.value == b.value


def test_low_ess_warning_record():
    est = _estimate_from_sums(sum_w=1.0, sum_w2=1.0, n=1000, seed=0)
    assert est.effective_samples == 1.0
    assert est.warning is not None


def test_healthy_ess_no_warning():
    est = _estimate_from_sums(sum_w=1000.0, sum_w2=1100.0, n=1000, seed=0)
    assert est.warning is None


# ---------------------------------------------------------------------------
# the proposal: the integrand's own mean and covariance


def _moments(space, alpha, y):
    mean, root = _proposal_moments(space, alpha, y)
    return mean, root @ root.T


def _assert_wishart_moments(space, alpha, y):
    # on the full cone the normalized integrand is a Wishart density: its
    # mean is k y^{-1} and its covariance k H(y), k = alpha + (p + 1) / 2
    k = alpha + (space.p + 1) / 2.0
    mean, cov = _moments(space, alpha, y)
    want_mean = k * space.coords(np.linalg.inv(y))
    want_cov = k * cone.hessian_matrix(space, y)
    assert np.max(np.abs(mean - want_mean)) <= 1e-4 * np.max(np.abs(want_mean))
    assert np.max(np.abs(cov - want_cov)) <= 1e-4 * np.max(np.abs(want_cov))


@pytest.mark.parametrize("alpha", [0.0, 0.5, 3.0])
@pytest.mark.parametrize("p", [2, 3, 4])
def test_proposal_moments_are_wishart_moments_on_full_cone(p, alpha):
    rng = np.random.default_rng(1700 + p)
    space = full_sym_space(p)
    for _ in range(3):
        a = rng.standard_normal((p, p))
        _assert_wishart_moments(space, alpha, a @ a.T + 0.2 * np.eye(p))


def test_proposal_moments_ill_conditioned_full_cone_point():
    # condition 1e3: the moments stay exact and the estimator accepts the point
    space = full_sym_space(3)
    y = _rotated(np.random.default_rng(1710), np.array([[1.0, 10 ** 1.5, 1e3]]))[0]
    assert np.linalg.cond(y) == pytest.approx(1e3)
    for alpha in (0.0, 0.5, 3.0):
        _assert_wishart_moments(space, alpha, y)
    alpha = 0.5
    claim = math.exp(log_gamma_v(full_sym_structure(3), alpha)
                     - (alpha + 2.0) * np.linalg.slogdet(y)[1])
    est = mc_cone_integral(space, alpha, y, samples=50_000, seed=1711)
    assert abs(est.value - claim) <= 4.0 * est.std_error
    # congruence maps the identity to y and the proposal along with the
    # integrand, so the ESS is the identity's, about 12-15 % here
    assert est.effective_samples >= 0.1 * est.samples


def test_proposal_moments_match_finite_differences_of_log_phi():
    # mean alpha psi - grad log phi and covariance alpha H + hess log phi,
    # with the log phi derivatives by central differences of cone.log_phi
    for _, space, _, y, alpha in verify.mc_reference_cases():
        res = cone.psi(space, y)

        def f(point):
            return cone.log_phi(space, point)

        mean, cov = _moments(space, alpha, y)
        want_mean = alpha * res.coords - finite_diff_gradient(f, space, y, step=1e-5)
        want_cov = (alpha * cone.hessian_matrix(space, y)
                    + finite_diff_hessian(f, space, y, step=1e-3))
        assert np.max(np.abs(mean - want_mean)) <= 1e-6 * np.max(np.abs(want_mean))
        assert np.max(np.abs(cov - want_cov)) <= 1e-4 * np.max(np.abs(want_cov))


def test_proposal_moments_refuse_no_point_the_newton_solve_accepts(models_by_id):
    # rotated spectra up to condition 1e6 on spaces within the Monte Carlo limit
    spaces = [full_sym_space(2), full_sym_space(3), models_by_id["G7"].space]
    rng = np.random.default_rng(1720)
    accepted = 0
    for space in spaces:
        for k in range(7):
            for _ in range(6):
                eigs = 10.0 ** rng.uniform(0.0, k, space.p)
                eigs[:2] = 1.0, 10.0 ** k
                y = space.project(_rotated(rng, eigs[None])[0])
                try:
                    cone.psi(space, y)
                except HomconeError:
                    continue
                _proposal_moments(space, 0.0, y)
                accepted += 1
    assert accepted >= 100


def test_proposal_moments_raise_on_covariance_not_positive_definite():
    # alpha below -(p + 1) / 2 makes the full-cone "covariance" k H negative
    with pytest.raises(DualMembershipError, match="not positive definite"):
        _proposal_moments(full_sym_space(2), -5.0, np.eye(2))


CASE_ESS_FLOORS = {"full sym p=2": 0.30, "ray p=3": 0.60, "hub-symmetric space": 0.15}


@pytest.mark.parametrize("case", range(3))
def test_ess_floor_at_each_case_exponent(case):
    name, space, _, y, alpha = verify.mc_reference_cases()[case]
    est = mc_cone_integral(space, alpha, y, samples=200_000, seed=oracle.DEFAULT_SEED)
    assert est.effective_samples >= CASE_ESS_FLOORS[name] * est.samples


def test_mc_calibration_over_seeds():
    # z-scores against the factorization identity over 40 seeds per case,
    # at each case's exponent and at 0: centred, with unit spread
    for name, space, realization, y, case_alpha in verify.mc_reference_cases():
        for alpha in (case_alpha, 0.0):
            ld, lp = realization.log_delta_phi(y)
            claim = math.exp(realization.log_gamma(alpha) + lp - alpha * ld)
            z = []
            for seed in range(1730, 1770):
                est = mc_cone_integral(space, alpha, y, samples=50_000, seed=seed)
                z.append((est.value - claim) / est.std_error)
            assert abs(np.mean(z)) <= 0.5, (name, alpha, np.mean(z))
            assert 0.7 <= np.std(z, ddof=1) <= 1.4, (name, alpha, np.std(z, ddof=1))


# ---------------------------------------------------------------------------
# the pivot membership test, against eigendecomposition references


def _pivots(mats, pattern=None):
    """Run the elimination planned for a pattern (dense by default) on an
    (m, p, p) stack; RuntimeWarnings are errors."""
    p = mats.shape[-1]
    plan = _elimination_plan(np.ones((p, p), dtype=bool) if pattern is None else pattern)
    rows = np.ascontiguousarray(mats.reshape(len(mats), -1)[:, plan.cols].T)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return _pivot_logdet(rows, plan)


def _rotated(rng, eigs):
    """q diag(eigs) q^T for a random orthogonal q per row of eigs."""
    q, _ = np.linalg.qr(rng.standard_normal(eigs.shape + eigs.shape[-1:]))
    return (q * eigs[:, None, :]) @ q.transpose(0, 2, 1)


SCALES = [1e-8, 1.0, 1e8]


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("p", range(1, 8))
def test_pivots_match_slogdet_on_positive_definite(p, scale):
    rng = np.random.default_rng(1400 + p)
    b = rng.standard_normal((300, p, p))
    mats = scale * (b @ b.transpose(0, 2, 1) + 0.1 * np.eye(p))
    pd, logdet = _pivots(mats)
    assert np.all(np.linalg.eigvalsh(mats)[:, 0] > 0)
    assert pd.all()
    sign, ref = np.linalg.slogdet(mats)
    assert np.all(sign > 0)
    assert np.all(np.abs(logdet - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("p", range(2, 8))
def test_pivots_reject_indefinite_with_positive_determinant(p, scale):
    # two negative eigenvalues: det > 0, so a sign-of-det test would pass them
    rng = np.random.default_rng(1500 + p)
    eigs = np.exp(rng.uniform(-2.0, 2.0, (300, p)))
    for row in eigs:
        row[rng.choice(p, 2, replace=False)] *= -1.0
    mats = scale * _rotated(rng, eigs)
    assert np.all(np.linalg.eigvalsh(mats)[:, 0] < 0)
    assert np.all(np.linalg.slogdet(mats)[0] > 0)
    pd, logdet = _pivots(mats)
    assert not pd.any()
    assert np.all(logdet == 0.0)


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("p", range(1, 8))
def test_pivots_reject_singular_psd(p, scale):
    rng = np.random.default_rng(1600 + p)
    b = rng.standard_normal((200, p, p))
    full = scale * (b @ b.transpose(0, 2, 1) + 0.1 * np.eye(p))
    # a zero row and column anywhere: that pivot stays exactly 0
    zeroed = full.copy()
    for mat, z in zip(zeroed, rng.integers(0, p, len(zeroed))):
        mat[z, :] = 0.0
        mat[:, z] = 0.0
    stacks = [zeroed]
    if p > 1:
        # one index repeated next to itself: the second pivot is a - (a/a)a = 0
        dup = []
        for mat, i in zip(full, rng.integers(0, p - 1, len(full))):
            idx = np.r_[0:i + 1, i, i + 1:p - 1]
            dup.append(mat[:p - 1, :p - 1][np.ix_(idx, idx)])
        stacks.append(np.array(dup))
    for mats in stacks:
        assert np.all(np.linalg.matrix_rank(mats) < p)
        pd, _ = _pivots(mats)
        assert not pd.any()


def _block_log_f_eigvalsh(space, integrand, z, s, rows):
    """The batched-eigendecomposition membership test the pivots replaced:
    it forms each draw's coordinates mu + s (z R^T) and matrix, and ignores
    the elimination plan and ``rows``."""
    coords = integrand.mu + (z @ integrand.root.T) * s[:, None]
    mats = np.einsum("sa,aij->sij", coords, space.basis)
    eigs = np.linalg.eigvalsh(mats)
    pd = eigs[:, 0] > 0.0
    safe = np.where(pd[:, None], eigs, 1.0)
    logdet = np.sum(np.log(safe), axis=1)
    log_f = -coords @ integrand.y_coords + integrand.alpha * logdet
    return np.where(pd, log_f, -np.inf)


# ---------------------------------------------------------------------------
# the elimination plan on sparse patterns


def _graph(p, edges):
    return Graph.build([f"v{i}" for i in range(1, p + 1)], edges)


def _pattern(p, edges):
    pattern = np.eye(p, dtype=bool)
    for i, j in edges:
        pattern[i - 1, j - 1] = pattern[j - 1, i - 1] = True
    return pattern


# vertex 1 is the hub where there is one, so eliminating in label order fills
HOMOGENEOUS = {
    "K4": (4, list(itertools.combinations(range(1, 5), 2))),
    "star": (5, [(1, v) for v in range(2, 6)]),
    "windmill": (7, [(1, 2), (1, 3), (2, 3), (1, 4), (1, 5), (4, 5), (1, 6), (1, 7), (6, 7)]),
    "butterfly": (5, [(1, 2), (1, 3), (2, 3), (1, 4), (1, 5), (4, 5)]),
}
NOT_HOMOGENEOUS = {
    "C4": (4, [(1, 2), (2, 3), (3, 4), (1, 4)]),
    "P4": (4, [(1, 2), (2, 3), (3, 4)]),
}


def _planned_cells(plan, p):
    """The plan's entries as vertex pairs (i, j), i <= j."""
    return {tuple(sorted(divmod(int(c), p))) for c in plan.cols}


def _plan_order(plan, p):
    return [int(plan.cols[diag]) // p for diag, _ in plan.steps]


def _on_pattern(rng, pattern, m):
    """m random symmetric matrices supported on the pattern."""
    a = rng.standard_normal((m,) + pattern.shape) * pattern
    return a + a.transpose(0, 2, 1)


def _dense_fill(pattern, order, rng):
    """Cells (i, j), i <= j, off the pattern that a dense elimination in the
    given vertex order leaves nonzero in a generic positive definite matrix
    supported on the pattern."""
    p = len(pattern)
    a = _on_pattern(rng, pattern, 1)[0]
    mat = a + (np.max(np.abs(np.linalg.eigvalsh(a))) + 1.0) * np.eye(p)
    dense = _elimination_plan(np.ones((p, p), dtype=bool))
    rows = mat[np.ix_(order, order)].reshape(1, -1)[:, dense.cols].T.copy()
    pd, _ = _pivot_logdet(rows, dense)
    assert pd.all()
    cells = set()
    for r, c in enumerate(dense.cols):
        i, j = sorted(order[k] for k in divmod(int(c), p))
        if rows[r, 0] != 0.0 and not pattern[i, j]:
            cells.add((i, j))
    return cells


@pytest.mark.parametrize("name", HOMOGENEOUS)
def test_plan_has_no_fill_on_homogeneous_lattices(name):
    p, edges = HOMOGENEOUS[name]
    rng = np.random.default_rng(1900)
    perms = [np.arange(1, p + 1)] + [rng.permutation(p) + 1 for _ in range(2)]
    planned = 0
    for perm in perms:
        g = _graph(p, [(int(perm[i - 1]), int(perm[j - 1])) for i, j in edges])
        for h in enumerate_subgroups(automorphism_group(g)):
            space = build_invariant_space(g, h)
            support = space.support
            plan = _elimination_plan(support)
            want = {(i, j) for i in range(p) for j in range(i, p) if support[i, j]}
            assert _planned_cells(plan, p) == want
            planned += 1
    assert planned >= 3 * 10


def test_hub_plan_counts():
    # the hub-symmetric reference cone: 6 divisions and 8 row updates per
    # sweep, against 10 and 20 for the dense upper triangle
    _, space, _, _, _ = verify.mc_reference_cases()[2]
    plan = _elimination_plan(space.support)
    assert len(plan.cols) == 11
    assert sum(len(e) for _, e in plan.steps) == 6
    assert sum(len(u) for _, e in plan.steps for _, u in e) == 8


@pytest.mark.parametrize("name", ["star", "windmill"])
def test_label_order_would_fill_where_the_plan_does_not(name):
    p, edges = HOMOGENEOUS[name]
    pattern = _pattern(p, edges)
    rng = np.random.default_rng(1901)
    plan = _elimination_plan(pattern)
    assert _dense_fill(pattern, _plan_order(plan, p), rng) == set()
    assert len(_dense_fill(pattern, list(range(p)), rng)) == {"star": 6, "windmill": 12}[name]


@pytest.mark.parametrize("name", NOT_HOMOGENEOUS)
def test_plan_fill_matches_dense_elimination(name):
    p, edges = NOT_HOMOGENEOUS[name]
    rng = np.random.default_rng(1902)
    for _ in range(4):
        perm = rng.permutation(p) + 1
        pattern = _pattern(p, [(int(perm[i - 1]), int(perm[j - 1])) for i, j in edges])
        plan = _elimination_plan(pattern)
        fill = _dense_fill(pattern, _plan_order(plan, p), rng)
        assert len(fill) == {"C4": 1, "P4": 0}[name]
        base = {(i, j) for i in range(p) for j in range(i, p) if pattern[i, j]}
        assert _planned_cells(plan, p) == base | fill


def test_dense_plan_is_the_upper_triangle_in_label_order():
    for p in range(1, 8):
        plan = _elimination_plan(np.ones((p, p), dtype=bool))
        iu, ju = np.triu_indices(p)
        assert np.array_equal(plan.cols, iu * p + ju)


SPARSE_PATTERNS = {**HOMOGENEOUS, **NOT_HOMOGENEOUS}


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("name", SPARSE_PATTERNS)
def test_sparse_pivots_match_slogdet_and_eigvalsh(name, scale):
    p, edges = SPARSE_PATTERNS[name]
    pattern = _pattern(p, edges)
    rng = np.random.default_rng(1910)
    # positive definite: a random matrix on the pattern shifted past its
    # smallest eigenvalue
    a = _on_pattern(rng, pattern, 300)
    shift = -np.linalg.eigvalsh(a)[:, :1, None] + rng.uniform(0.05, 2.0, (300, 1, 1))
    mats = scale * (a + shift * np.eye(p))
    assert np.all(np.linalg.eigvalsh(mats)[:, 0] > 0)
    pd, logdet = _pivots(mats, pattern)
    assert pd.all()
    sign, ref = np.linalg.slogdet(mats)
    assert np.all(sign > 0)
    assert np.all(np.abs(logdet - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))
    # diagonally dominant with two negative diagonal cells: det > 0, not
    # positive definite
    off = 0.1 / p * _on_pattern(rng, pattern & ~np.eye(p, dtype=bool), 300)
    diag = rng.uniform(1.0, 2.0, (300, p))
    for row in diag:
        row[rng.choice(p, 2, replace=False)] *= -1.0
    mats = scale * (off + diag[:, :, None] * np.eye(p))
    assert np.all(np.linalg.eigvalsh(mats)[:, 0] < 0)
    assert np.all(np.linalg.slogdet(mats)[0] > 0)
    pd, logdet = _pivots(mats, pattern)
    assert not pd.any()
    assert np.all(logdet == 0.0)
    # a zero row and column: singular
    mats = scale * (off + np.abs(diag)[:, :, None] * np.eye(p))
    for mat, z in zip(mats, rng.integers(0, p, len(mats))):
        mat[z, :] = 0.0
        mat[:, z] = 0.0
    pd, _ = _pivots(mats, pattern)
    assert not pd.any()


PD, INDEFINITE, SINGULAR = range(3)


def _interleaved(rng, pattern, m):
    """m matrices on the pattern in random order, each positive definite,
    indefinite with a positive determinant, or singular; and their kinds."""
    p = len(pattern)
    kinds = rng.permutation(np.arange(m) % 3)
    a = _on_pattern(rng, pattern, m)
    shift = -np.linalg.eigvalsh(a)[:, :1, None] + rng.uniform(0.05, 2.0, (m, 1, 1))
    mats = a + shift * np.eye(p)
    # diagonally dominant with two negative diagonal cells
    off = 0.1 / p * _on_pattern(rng, pattern & ~np.eye(p, dtype=bool), m)
    diag = rng.uniform(1.0, 2.0, (m, p))
    for row in diag:
        row[rng.choice(p, 2, replace=False)] *= -1.0
    indefinite = kinds == INDEFINITE
    mats[indefinite] = (off + diag[:, :, None] * np.eye(p))[indefinite]
    # a zero row and column: its pivot stays exactly 0, so its multipliers are 0/0
    for i in np.flatnonzero(kinds == SINGULAR):
        z = rng.integers(p)
        mats[i, z, :] = 0.0
        mats[i, :, z] = 0.0
    return mats, kinds


INTERLEAVED = {**{f"dense{p}": (p, list(itertools.combinations(range(1, p + 1), 2)))
                  for p in range(2, 8)}, **SPARSE_PATTERNS}


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("name", INTERLEAVED)
def test_pivots_on_interleaved_stacks(name, scale):
    # a column that fails at a pivot must leave every other column's
    # result as it would be alone
    p, edges = INTERLEAVED[name]
    pattern = _pattern(p, edges)
    rng = np.random.default_rng(1960)
    mats, kinds = _interleaved(rng, pattern, 300)
    mats = scale * mats
    low = np.linalg.eigvalsh(mats)[:, 0]
    sign, ref = np.linalg.slogdet(mats)
    assert np.all(low[kinds == PD] > 0) and np.all(sign[kinds == PD] > 0)
    assert np.all(low[kinds == INDEFINITE] < 0) and np.all(sign[kinds == INDEFINITE] > 0)
    assert np.all(sign[kinds == SINGULAR] == 0)
    pd, logdet = _pivots(mats, pattern)
    assert np.array_equal(pd, kinds == PD)
    assert np.all(np.abs(logdet[pd] - ref[pd]) <= 1e-12 * np.maximum(1.0, np.abs(ref[pd])))
    assert np.all(logdet[~pd] == 0.0)


def test_estimates_do_not_depend_on_the_block_width(monkeypatch):
    # a sample count that is no multiple of either width: every draw counted once
    _, space, _, y, alpha = verify.mc_reference_cases()[2]
    wide = mc_cone_integral(space, alpha, y, samples=60_001, seed=1920)
    monkeypatch.setattr(oracle, "_BLOCK", 999)
    narrow = mc_cone_integral(space, alpha, y, samples=60_001, seed=1920)
    for field in ("value", "std_error", "effective_samples"):
        assert math.isclose(getattr(wide, field), getattr(narrow, field),
                            rel_tol=1e-12, abs_tol=0.0), field


@pytest.mark.parametrize("case", range(3))
@pytest.mark.parametrize("zero_alpha", [False, True])
def test_estimates_match_eigvalsh_route(monkeypatch, case, zero_alpha):
    _, space, _, y, alpha = verify.mc_reference_cases()[case]
    alpha = 0.0 if zero_alpha else alpha
    new = mc_cone_integral(space, alpha, y, samples=60_000, seed=1401 + case)
    drawn = []

    def reference(integrand, z, s, rows):
        drawn.append(len(z))
        return _block_log_f_eigvalsh(space, integrand, z, s, rows)

    monkeypatch.setattr(oracle, "_block_log_f", reference)
    old = mc_cone_integral(space, alpha, y, samples=60_000, seed=1401 + case)
    assert sum(drawn) == 60_000
    for field in ("value", "std_error", "effective_samples"):
        assert math.isclose(getattr(new, field), getattr(old, field),
                            rel_tol=1e-12, abs_tol=0.0), field
    assert new.warning == old.warning


def test_estimates_keep_their_chunk_seeds(monkeypatch):
    # six chunks of 1 000 draws, the last of one; the figures were recorded
    # when every chunk's seed was spawned before the first draw
    _, space, _, y, alpha = verify.mc_reference_cases()[2]
    monkeypatch.setattr(oracle, "CHUNK", 1_000)
    est = mc_cone_integral(space, alpha, y, samples=5_001, seed=1930)
    recorded = {"value": 23.340958464853003, "std_error": 0.4845327829977974,
                "effective_samples": 1585.0567886628348}
    for field, want in recorded.items():
        assert math.isclose(getattr(est, field), want, rel_tol=1e-12, abs_tol=0.0), field


def test_estimate_leaves_the_floating_point_error_state_alone():
    # the hub's draws off the cone take logs of pivots that are not
    # positive inside the kernel
    _, space, _, y, alpha = verify.mc_reference_cases()[2]
    before = np.geterr()
    mc_cone_integral(space, alpha, y, samples=20_000, seed=1940)
    assert np.geterr() == before


# 14.2 MiB with 16 384-draw blocks and the pivots masked as they were
# eliminated, plus 10 %
HUB_MC_PEAK_MIB = 15.6


def test_hub_mc_traced_peak():
    # one 250 000-draw chunk: its normals, gammas and weights take about
    # 11.4 MiB, so the bound leaves about 4 MiB for the block temporaries
    _, space, _, y, alpha = verify.mc_reference_cases()[2]
    mc_cone_integral(space, alpha, y, samples=1_000, seed=1950)  # the space's maps, built on first use
    tracemalloc.start()
    try:
        mc_cone_integral(space, alpha, y, samples=250_000, seed=1951)
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak <= HUB_MC_PEAK_MIB, f"traced peak {peak:.1f} MiB"


def _sibling_imports(module: str) -> set[str]:
    """Names of homcone modules a homcone module imports directly."""
    tree = ast.parse((pathlib.Path(hc.__file__).parent / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                found.add(node.module.split(".")[0])
            elif node.level == 1 or node.module == "homcone":
                found.update(a.name for a in node.names)
            elif node.module and node.module.startswith("homcone."):
                found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith("homcone."))
    return found


@pytest.mark.parametrize("module", ["oracle", "cone"])
def test_independent_paths_import_no_factorization(module):
    # the Monte Carlo oracle and the Newton solve check the triangular
    # factorization, so neither may reach it through any chain of imports
    seen, todo = set(), [module]
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(_sibling_imports(name))
    assert not seen & {"realization", "selection", "butterfly"}, sorted(seen)


# ---------------------------------------------------------------------------
# finite differences

def test_gradient_of_linear_functional():
    space = full_sym_space(2)
    c = space.from_coords(np.array([0.3, -0.7, 1.1]))

    def f(y):
        return float(np.sum(c * y))

    grad = finite_diff_gradient(f, space, np.eye(2), step=1e-5)
    assert np.allclose(grad, space.coords(c), atol=1e-9)
    hess = finite_diff_hessian(f, space, np.eye(2), step=1e-4)
    assert np.max(np.abs(hess)) < 1e-6


def test_neg_log_delta_at_identity_full_sym():
    space = full_sym_space(2)

    def f(y):
        return -cone.log_delta(space, y)

    grad = finite_diff_gradient(f, space, np.eye(2), step=1e-5)
    assert np.allclose(grad, -space.coords(np.eye(2)), atol=1e-8)
    hess = finite_diff_hessian(f, space, np.eye(2), step=1e-4)
    assert np.allclose(hess, np.eye(space.dim), atol=1e-6)


def test_hessian_cross_check_on_invariant_space(models_by_id, dual_point):
    space = models_by_id["G2"].space
    rng = np.random.default_rng(33)
    y = dual_point(space, rng)

    def f(point):
        return -cone.log_delta(space, point)

    numeric = finite_diff_hessian(f, space, y, step=1e-4)
    exact = cone.hessian_matrix(space, y)
    assert np.max(np.abs(numeric - exact)) < 1e-5


def test_stencil_error_wrapping():
    space = full_sym_space(2)

    def bad(_):
        raise RuntimeError("boom")

    with pytest.raises(StencilError):
        finite_diff_gradient(bad, space, np.eye(2))
    with pytest.raises(StencilError):
        finite_diff_hessian(bad, space, np.eye(2))


def test_check_mc_reports_low_ess_warning(monkeypatch):
    # every estimate falls below an ESS threshold of all draws
    monkeypatch.setattr(oracle, "ESS_WARN_FRACTION", 1.0)
    results = verify.check_mc(samples=20_000)
    assert len(results) == 3
    assert all("effective sample size" in r.detail for r in results)
