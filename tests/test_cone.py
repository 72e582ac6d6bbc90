import itertools
import math

import numpy as np
import pytest

import homcone as hc
from homcone import cone
from homcone.errors import DomainError, DualMembershipError, ShapeError
from homcone.graphs import Graph, PermutationGroup
from homcone.invariant import build_invariant_space
from homcone.verify import random_dual_point

from closed_forms import PHI_LOG, log_delta_g1


def full_sym_space(p):
    g = Graph.build(
        [str(i) for i in range(1, p + 1)],
        list(itertools.combinations(range(1, p + 1), 2)),
    )
    return build_invariant_space(g, PermutationGroup.trivial(p))


def model_spaces():
    """The seven benchmark spaces, in class order."""
    return [m.space for m in hc.build_butterfly_models()]


def random_primal(space, rng, spread=0.3):
    z = space.from_coords(rng.standard_normal(space.dim))
    z = z / max(1.0, np.linalg.norm(z))
    return np.eye(space.p) + spread * z


# ---------------------------------------------------------------------------
# the inverse-projection solve

def test_psi_iteration_counts_pinned():
    # the Newton solves of verify's cross-path check, in its order and seed;
    # the counts are those of the matrix-form iteration, whose steps the
    # coordinate form must reproduce
    rng = np.random.default_rng(20240601)
    counts = [
        cone.psi(space, random_dual_point(space, rng)).iterations
        for space in model_spaces()
        for _ in range(3)
    ]
    assert counts == [8, 9, 9, 8, 7, 9, 7, 7, 9, 9, 8, 9, 8, 7, 7, 9, 8, 8, 7, 6, 7]


def test_newton_trace_emits_one_record_per_iteration():
    # verify's cross-path solves, each traced through the installed sink
    records = []
    cone.set_newton_trace(records.append)
    try:
        rng = np.random.default_rng(20240601)
        for space in model_spaces():
            for _ in range(3):
                records.clear()
                res = cone.psi(space, random_dual_point(space, rng))
                assert [r["iteration"] for r in records] == list(
                    range(1, res.iterations + 1)
                )
                assert records[-1]["gradient_norm"] <= cone.GRAD_TOL
    finally:
        cone.set_newton_trace(None)


def test_psi_is_matrix_inverse_on_full_cone(dual_point):
    space = full_sym_space(3)
    rng = np.random.default_rng(0)
    for _ in range(5):
        y = dual_point(space, rng)
        res = cone.psi(space, y)
        assert np.allclose(res.x_star, np.linalg.inv(y), atol=1e-9)


def test_psi_identity_fixed_point(spaces):
    for space in spaces.values():
        res = cone.psi(space, np.eye(5))
        assert np.allclose(res.x_star, np.eye(5), atol=1e-11)
        assert res.residual < 1e-12


def test_psi_on_exam_scatter(models_by_id, exam_data):
    space = models_by_id["G1"].space
    y = space.project(exam_data.scatter / exam_data.n_effective)
    res = cone.psi(space, y)
    assert res.residual < 1e-10
    # independent residual check: plain inversion plus projection
    direct = space.project(np.linalg.inv(res.x_star))
    assert np.linalg.norm(direct - y) < 1e-10


def test_psi_round_trip(spaces, models):
    rng = np.random.default_rng(1)
    all_spaces = list(spaces[k] for k in ("G1", "G2", "G3", "G4", "G5", "G6", "G7"))
    all_spaces += [full_sym_space(p) for p in (2, 3, 4, 5)]
    for space in all_spaces:
        x = random_primal(space, rng)
        y = space.project(np.linalg.inv(x))
        back = cone.psi(space, y).x_star
        assert np.max(np.abs(back - x)) < 1e-8


def test_psi_rejects_point_outside_space(spaces):
    y = np.zeros((5, 5))
    y[0, 3] = y[3, 0] = 1.0
    y += np.eye(5)
    with pytest.raises(DomainError):
        cone.psi(spaces["G1"], y)


def test_psi_rejects_nonpositive_trace(spaces):
    with pytest.raises(DualMembershipError):
        cone.psi(spaces["G1"], -np.eye(5))


def test_psi_convergence_error_carries_residual(spaces, dual_point, monkeypatch):
    from homcone.errors import ConvergenceError

    rng = np.random.default_rng(55)
    y = dual_point(spaces["G1"], rng)
    monkeypatch.setattr(cone, "MAX_ITER", 2)
    with pytest.raises(ConvergenceError) as info:
        cone.psi(spaces["G1"], y)
    assert info.value.residual is not None and info.value.residual > 0
    assert info.value.iterations == 2


def test_psi_line_search_collapse_outside_dual():
    space = full_sym_space(2)
    y = np.array([[1.0, 0.0], [0.0, -0.5]])  # positive trace, outside the dual
    with pytest.raises(DualMembershipError):
        cone.psi(space, y)


# ---------------------------------------------------------------------------
# determinant functional

def test_delta_identity_and_full_cone(spaces, dual_point):
    for space in spaces.values():
        assert abs(math.exp(cone.log_delta(space, np.eye(5))) - 1.0) < 1e-10
    space = full_sym_space(3)
    rng = np.random.default_rng(2)
    for _ in range(5):
        y = dual_point(space, rng)
        assert np.isclose(math.exp(cone.log_delta(space, y)), np.linalg.det(y), rtol=1e-9)


def test_delta_closed_form_trivial_group(spaces, dual_point):
    space = spaces["G1"]
    rng = np.random.default_rng(3)
    for _ in range(20):
        y = dual_point(space, rng)
        assert np.isclose(cone.log_delta(space, y), log_delta_g1(y), rtol=0, atol=1e-8)


def test_delta_restriction_property(spaces, dual_point):
    # on each smaller space the functional agrees with the trivial-group one
    z1 = spaces["G1"]
    rng = np.random.default_rng(4)
    for key in ("G2", "G3", "G4", "G5", "G6", "G7", "G8", "G9", "G10"):
        space = spaces[key]
        for _ in range(20):
            y = dual_point(space, rng)
            assert np.isclose(
                cone.log_delta(space, y), cone.log_delta(z1, y), rtol=0, atol=1e-8
            )


def test_delta_scaling_full_cone(dual_point):
    space = full_sym_space(3)
    rng = np.random.default_rng(5)
    y = dual_point(space, rng)
    assert np.isclose(
        math.exp(cone.log_delta(space, 2.0 * y)),
        2.0 ** 3 * math.exp(cone.log_delta(space, y)),
        rtol=1e-9,
    )


def test_delta_scaling_regression(spaces, dual_point):
    # observed degree-p homogeneity on an invariant space, kept as a regression
    space = spaces["G2"]
    rng = np.random.default_rng(6)
    y = dual_point(space, rng)
    diff = cone.log_delta(space, 2.0 * y) - cone.log_delta(space, y)
    assert abs(diff - 5.0 * np.log(2.0)) < 1e-9


# ---------------------------------------------------------------------------
# Hessian matrix and its determinant factor

def test_hessian_identity_full_cone():
    space = full_sym_space(3)
    h = cone.hessian_matrix(space, np.eye(3))
    assert np.allclose(h, np.eye(space.dim), atol=1e-10)
    assert abs(math.exp(cone.log_phi(space, np.eye(3))) - 1.0) < 1e-10


def test_newton_closed_forms_full_cone():
    # log delta = log det y and log phi = -(p+1)/2 log det y on the full
    # cone, at rotated spectra spread log-uniformly over [1, 1e2].  The
    # absolute gradient stop loses digits on a tiny eigenvalue of the
    # normalized point (a 2x2 point of condition 35 with one eigenvalue at
    # 0.03 is off by 3e-10), see the strict xfail in test_realization.py
    rng = np.random.default_rng(1313)
    for p in (2, 3, 4, 5):
        space = full_sym_space(p)
        for _ in range(10):
            q, _ = np.linalg.qr(rng.standard_normal((p, p)))
            y = (q * 10.0 ** rng.uniform(0.0, 2.0, p)) @ q.T
            y = 0.5 * (y + y.T)
            res = cone.psi(space, y)
            logdet = np.linalg.slogdet(y)[1]
            assert abs(res.log_delta - logdet) <= 1e-10 * max(1.0, abs(logdet))
            expected = -0.5 * (p + 1) * logdet
            assert abs(res.log_phi - expected) <= 1e-10 * max(1.0, abs(expected))


def test_psi_metric_symmetric(dual_point):
    rng = np.random.default_rng(14)
    for space in model_spaces():
        m = cone.psi(space, dual_point(space, rng)).metric
        assert np.max(np.abs(m - m.T)) <= 4 * np.finfo(float).eps * np.max(np.abs(m))


def test_hessian_symmetric_pd(spaces, dual_point):
    rng = np.random.default_rng(7)
    for key in ("G1", "G7"):
        y = dual_point(spaces[key], rng)
        h = cone.hessian_matrix(spaces[key], y)
        assert np.allclose(h, h.T, atol=1e-12)
        assert np.all(np.linalg.eigvalsh(h) > 0)


def test_phi_closed_forms(spaces, dual_point):
    rng = np.random.default_rng(8)
    for key in ("G1", "G2", "G3", "G4", "G5", "G6", "G7"):
        space = spaces[key]
        for _ in range(5):
            y = dual_point(space, rng)
            assert np.isclose(
                cone.log_phi(space, y), PHI_LOG[key](y), rtol=0, atol=1e-8
            ), key


# ---------------------------------------------------------------------------
# membership

def test_primal_membership(spaces):
    space = spaces["G3"]
    assert cone.in_primal_cone(space, np.eye(5))
    assert not cone.in_primal_cone(space, -np.eye(5))


def test_dual_membership(spaces, dual_point):
    space = spaces["G4"]
    rng = np.random.default_rng(9)
    assert cone.in_dual_cone(space, dual_point(space, rng))
    assert not cone.in_dual_cone(space, -np.eye(5))


def test_dual_membership_boundary_exterior():
    space = full_sym_space(2)
    assert not cone.in_dual_cone(space, np.array([[1.0, 0.0], [0.0, -0.5]]))


def test_membership_requires_space_point(spaces):
    off = np.zeros((5, 5))
    off[0, 3] = off[3, 0] = 1.0
    with pytest.raises(DomainError):
        cone.in_primal_cone(spaces["G1"], np.eye(5) + off)


def test_shape_errors(spaces):
    with pytest.raises(ShapeError):
        cone.psi(spaces["G1"], np.eye(4))
