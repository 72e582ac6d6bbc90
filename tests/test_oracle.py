import itertools
import math

import numpy as np
import pytest
from scipy.special import gammaln

import homcone as hc
from homcone import cone, oracle, verify
from homcone.errors import DomainError, ScopeError, StencilError
from homcone.graphs import Graph, Permutation, PermutationGroup
from homcone.invariant import build_invariant_space
from homcone.oracle import (
    finite_diff_gradient,
    finite_diff_hessian,
    mc_cone_integral,
    _estimate_from_sums,
)
from homcone.realization import full_sym_structure, log_gamma_v, ray_structure


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


def test_low_ess_warning_record():
    est = _estimate_from_sums(sum_w=1.0, sum_w2=1.0, n=1000, seed=0)
    assert est.effective_samples == 1.0
    assert est.warning is not None


def test_healthy_ess_no_warning():
    est = _estimate_from_sums(sum_w=1000.0, sum_w2=1100.0, n=1000, seed=0)
    assert est.warning is None


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
