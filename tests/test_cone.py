import itertools
import math
import warnings

import numpy as np
import pytest

import homcone as hc
from homcone import cone
from homcone.errors import ConvergenceError, DomainError, DualMembershipError, ShapeError
from homcone.graphs import Graph, PermutationGroup, automorphism_group
from homcone.invariant import build_invariant_space
from homcone.realization import VStructure, full_sym_structure, ray_structure
from homcone import verify
from homcone.verify import random_dual_points

from closed_forms import PHI_LOG, log_delta_g1
from lattices import LATTICES, lattice_models, random_graphs

# the start psi takes, kept before any test replaces it
completion_start = cone._completion_start


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

# the counts of the matrix-form iteration from the identity start, whose
# steps the coordinate form must reproduce, at verify's cross-path points
PINNED_FROM_IDENTITY = [8, 9, 9, 8, 7, 9, 7, 7, 9, 9, 8, 9, 8, 7, 7, 9, 8, 8, 7, 6, 7]


def cross_path_stacks():
    # (space, points) of verify's cross-path check, in its order and seed
    rng = np.random.default_rng(verify.CROSS_PATH_SEED)
    return [(space, random_dual_points(space, rng, verify.CROSS_PATH_POINTS))
            for space in model_spaces()]


def cross_path_iterations():
    # each cross-path point solved alone
    return [cone.psi(space, y).iterations for space, ys in cross_path_stacks() for y in ys]


def stacked_iterations():
    # each model's cross-path points solved as one stack, as verify does
    return [r.iterations for space, ys in cross_path_stacks() for r in cone.psi_stack(space, ys)]


@pytest.fixture
def identity_start(monkeypatch):
    """Newton started from a multiple of the identity on every space."""
    monkeypatch.setattr(cone, "_completion_start", lambda space, yn: None)


def test_psi_iteration_counts_pinned_from_identity(identity_start):
    assert cross_path_iterations() == PINNED_FROM_IDENTITY


def test_psi_iteration_counts_pinned_from_completion():
    # the start is the solution: one iteration certifies its gradient
    assert cross_path_iterations() == [1] * 21


def test_psi_stack_iteration_counts_pinned_from_identity(identity_start):
    assert stacked_iterations() == PINNED_FROM_IDENTITY


def test_psi_stack_iteration_counts_pinned_from_completion():
    assert stacked_iterations() == [1] * 21


def test_random_dual_points_are_sequential_draws_bit_for_bit():
    # verify draws each model's points as one stack; they are the points a
    # draw one at a time gives, so the pinned counts above hold for both
    for m in (1, 3, 5):
        stacked, alone = np.random.default_rng(7), np.random.default_rng(7)
        for space in model_spaces():
            ys = random_dual_points(space, stacked, m)
            assert ys.shape == (m, 5, 5)
            np.testing.assert_array_equal(
                ys, [random_dual_points(space, alone, 1)[0] for _ in range(m)])


def assert_results_agree(stacked, alone):
    """Each PsiResult of a stack against its point's solve alone, to 1e-14
    relative: arrays by their norm, log delta and log phi against
    max(1, |value|), the residual, a rounding-level quantity, against the
    point's scale."""
    assert len(stacked) == len(alone)
    for s, a in zip(stacked, alone):
        assert s.iterations == a.iterations and s.scale == a.scale
        for field in ("x_star", "coords", "normalized_metric"):
            ref = getattr(a, field)
            assert np.linalg.norm(getattr(s, field) - ref) <= 1e-14 * np.linalg.norm(ref), field
        for field in ("log_delta", "log_phi"):
            ref = getattr(a, field)
            assert abs(getattr(s, field) - ref) <= 1e-14 * max(1.0, abs(ref)), field
        assert abs(s.residual - a.residual) <= 1e-14 * a.scale


def test_psi_stack_agrees_with_psi_at_the_cross_path_points():
    for space, ys in cross_path_stacks():
        assert_results_agree(cone.psi_stack(space, ys), [cone.psi(space, y) for y in ys])


def test_psi_stack_agrees_with_psi_on_the_k5_lattice():
    rng = np.random.default_rng(28)
    for m in lattice_models(LATTICES["K5"][0]):
        ys = random_dual_points(m.space, rng, 4)
        assert_results_agree(cone.psi_stack(m.space, ys), [cone.psi(m.space, y) for y in ys])


def test_psi_stack_runs_each_point_for_its_own_iterations():
    # a block structure starts at the identity and needs the line search;
    # the points leave the loop at different iterations, and each result is
    # the one its point gives alone
    span = VStructure([1, 2], {(2, 1): np.array([[1.0], [0.0]])})
    ys = random_dual_points(span, np.random.default_rng(29), 6)
    stacked = cone.psi_stack(span, ys)
    alone = [cone.psi(span, y) for y in ys]
    assert len({r.iterations for r in stacked}) > 1
    assert [r.iterations for r in stacked] == [r.iterations for r in alone]
    for s, a in zip(stacked, alone):
        assert np.linalg.norm(s.x_star - a.x_star) <= 1e-14 * np.linalg.norm(a.x_star)
    assert_results_agree(stacked, alone)


def traced(fn, *args):
    records = []
    cone.set_newton_trace(records.append)
    try:
        return fn(*args), records
    finally:
        cone.set_newton_trace(None)


def test_psi_stack_traces_each_point_still_iterating(identity_start):
    # from the identity start the line search halves some steps; a stack
    # emits each point's records, as its solve alone does, while it iterates
    halved = 0
    for space, ys in cross_path_stacks():
        results, records = traced(cone.psi_stack, space, ys)
        for j, res in enumerate(results):
            mine = [r for r in records if r["point"] == j]
            _, alone = traced(cone.psi, space, ys[j])
            assert [r["iteration"] for r in mine] == list(range(1, res.iterations + 1))
            # counted per step: 0 at the start, and 0 for the last, full
            # Newton steps
            assert mine[0]["halvings"] == 0 and mine[-1]["halvings"] == 0
            assert [r["halvings"] for r in mine] == [r["halvings"] for r in alone]
            np.testing.assert_allclose([r["gradient_norm"] for r in mine],
                                       [r["gradient_norm"] for r in alone], rtol=1e-9)
            halved += sum(r["halvings"] for r in mine)
        # one record per point still iterating, in stack order
        for it in range(1, max(r.iterations for r in results) + 1):
            active = [j for j, res in enumerate(results) if res.iterations >= it]
            assert [r["point"] for r in records if r["iteration"] == it] == active
    assert halved > 0


def test_psi_stack_names_the_point_outside_the_dual_cone(spaces):
    space = spaces["G1"]
    good = np.eye(5)
    singular = np.eye(5)
    singular[0, 1] = singular[1, 0] = 1.0  # a singular clique block, {1, 2, 3}
    with pytest.raises(DualMembershipError,
                       match=r"^point 2 of 3: trace must be positive on the dual cone$"):
        cone.psi_stack(space, [good, good, -good])
    with pytest.raises(DualMembershipError, match=r"^point 1 of 3: a clique block is not"):
        cone.psi_stack(space, [good, singular, good])
    negative = np.diag([1.0, 1.0, -0.5, 1.0, 1.0])  # positive trace, a negative pivot
    with pytest.raises(DualMembershipError, match=r"^point 0 of 2: a clique block is not"):
        cone.psi_stack(space, [negative, good])
    # a singular block among vertex 1's later neighbours {2, 3} fails the
    # stacked solve; the blocks are solved one by one to find its point
    collapsed = np.eye(5)
    collapsed[1, 2] = collapsed[2, 1] = 1.0
    with pytest.raises(DualMembershipError, match=r"^point 2 of 3: a clique block is not"):
        cone.psi_stack(space, [good, good, collapsed])


def test_psi_stack_starts_a_point_without_a_start_factor_at_the_identity(spaces, monkeypatch):
    # a start with no Cholesky factor sends its own point, and no other, to
    # the identity start
    space = spaces["G3"]
    ys = random_dual_points(space, np.random.default_rng(30), 3)
    complete = cone._completion_start

    def spoiled(space, yn):
        xc = complete(space, yn)
        xc[1] = -xc[1]  # negative definite
        return xc

    monkeypatch.setattr(cone, "_completion_start", spoiled)
    stacked = cone.psi_stack(space, ys)
    monkeypatch.setattr(cone, "_completion_start", lambda space, yn: None)
    from_identity = cone.psi(space, ys[1])
    assert [r.iterations for r in stacked] == [1, from_identity.iterations, 1]
    assert from_identity.iterations > 1
    assert_results_agree(stacked[1:2], [from_identity])


def test_psi_stack_names_the_point_where_newton_fails(identity_start, monkeypatch):
    space = full_sym_space(2)
    outside = np.array([[1.0, 0.0], [0.0, -0.5]])  # positive trace, outside the dual
    # Newton's own exterior certificates, from the identity start
    with pytest.raises(DualMembershipError,
                       match=r"^point 1 of 2: (line search collapsed|iteration diverged)"):
        cone.psi_stack(space, [np.eye(2), outside])
    monkeypatch.setattr(cone, "MAX_ITER", 2)
    far = np.diag([1.0, 1e-3])  # from the identity start two iterations are too few
    with pytest.raises(ConvergenceError, match=r"^point 1 of 2: no convergence after 2 ") as info:
        cone.psi_stack(space, [np.eye(2), far])
    assert info.value.iterations == 2 and info.value.residual > 0


def test_psi_stack_names_the_point_off_the_span_or_not_finite(spaces):
    space = spaces["G1"]
    off = np.eye(5)
    off[0, 3] = off[3, 0] = 1.0  # (1, 4) is not an edge
    with pytest.raises(DomainError, match=r"^point 1 of 2: dual argument is not in the space") as info:
        cone.psi_stack(space, [np.eye(5), off])
    assert not isinstance(info.value, DualMembershipError)
    # the whole stack is checked against the span before any trace test, so
    # point 1 off the span is named, not point 0 with a negative trace
    with pytest.raises(DomainError, match=r"^point 1 of 2: dual argument is not in the space") as info:
        cone.psi_stack(space, [-np.eye(5), off])
    assert not isinstance(info.value, DualMembershipError)
    bad = np.eye(5)
    bad[1, 1] = math.nan
    with pytest.raises(DomainError, match=r"^point 0 of 2: dual argument has a non-finite entry nan") as info:
        cone.psi_stack(space, [bad, np.eye(5)])
    assert not isinstance(info.value, DualMembershipError)


@pytest.mark.parametrize("ys", [np.eye(5), np.zeros((0, 5, 5)), np.ones((2, 4, 4)), np.ones(5)],
                         ids=["one-point", "empty", "4x4-points", "vector"])
def test_psi_stack_refuses_a_wrong_shaped_stack(spaces, ys):
    with pytest.raises(ShapeError):
        cone.psi_stack(spaces["G1"], ys)


def test_cross_path_check_names_the_failing_point(monkeypatch):
    # an exterior third point of G1's stack fails G1's check, naming it
    draw = verify.random_dual_points

    def exterior_third(space, rng, m):
        ys = draw(space, rng, m)
        if space.dim == 11:  # G1, the trivial group's space
            ys[2] = -ys[2]
        return ys

    monkeypatch.setattr(verify, "random_dual_points", exterior_third)
    results = verify.check_cross_path(hc.build_butterfly_models())
    failed = [r for r in results if not r.passed]
    assert [r.name for r in failed] == ["cross-path G1"]
    assert failed[0].detail == "point 2 of 3: trace must be positive on the dual cone"


def test_newton_trace_emits_one_record_per_iteration():
    # verify's cross-path solves, each traced through the installed sink
    records = []
    cone.set_newton_trace(records.append)
    try:
        rng = np.random.default_rng(20240601)
        for space in model_spaces():
            for _ in range(3):
                records.clear()
                res = cone.psi(space, random_dual_points(space, rng, 1)[0])
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


def test_psi_at_a_point_near_the_float_range(spaces):
    # the metric at 1e300 I is about 1e-600 in the point's own units; psi
    # keeps it normalized, and its residual and functionals stay finite
    space = spaces["G3"]
    y = space.project(1e300 * np.eye(5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = cone.psi(space, y)
    assert math.isfinite(res.residual)
    assert res.residual <= 1e-12 * res.scale
    assert np.isfinite(res.x_star).all() and np.isfinite(res.normalized_metric).all()
    # the values the solve gave before the result kept the normalized metric
    assert res.log_delta == pytest.approx(3453.8776394910687, rel=1e-15)
    assert res.log_phi == pytest.approx(-4144.653167389283, rel=1e-15)
    # 5 and 6 are p and dim: delta is homogeneous of degree p, phi of -dim
    assert res.log_delta == pytest.approx(5 * math.log(1e300), rel=1e-14)
    assert res.log_phi == pytest.approx(-6 * math.log(1e300), rel=1e-14)


def test_psi_metric_is_the_normalized_metric_rescaled(spaces, dual_point):
    space = spaces["G3"]
    y = dual_point(space, np.random.default_rng(25), scale=7.0)
    res = cone.psi(space, y)
    assert res.scale == pytest.approx(np.linalg.norm(y), rel=1e-15)
    np.testing.assert_array_equal(res.metric, res.scale**2 * res.normalized_metric)
    # the Kronecker-form reference at the normalized solution x_star * scale
    w = np.linalg.inv(res.scale * res.x_star)
    reference = cone.metric_matrix(space, 0.5 * (w + w.T))
    assert np.linalg.norm(res.normalized_metric - reference) <= 1e-10 * np.linalg.norm(reference)
    direct = space.project(np.linalg.inv(res.x_star))
    assert res.residual == pytest.approx(np.linalg.norm(direct - y), abs=1e-12)


def test_psi_rejects_point_outside_space(spaces):
    y = np.zeros((5, 5))
    y[0, 3] = y[3, 0] = 1.0
    y += np.eye(5)
    with pytest.raises(DomainError):
        cone.psi(spaces["G1"], y)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("cell", [(1, 1), (0, 2)])
def test_psi_names_a_non_finite_entry(value, cell):
    # a non-finite point is not a point outside the cone: no pivot or
    # Newton step runs, and no floating-point warning comes first (the
    # suite turns RuntimeWarning into an error); every public route into
    # the span check names the entry
    space = full_sym_space(3)
    routes = {
        "psi": lambda y: cone.psi(space, y),
        "psi_stack": lambda y: cone.psi_stack(space, [np.eye(3), y]),
        "log_delta": lambda y: cone.log_delta(space, y),
        "log_phi": lambda y: cone.log_phi(space, y),
        "hessian_matrix": lambda y: cone.hessian_matrix(space, y),
        "in_primal_cone": lambda y: cone.in_primal_cone(space, y),
        "in_dual_cone": lambda y: cone.in_dual_cone(space, y),
    }
    y = np.eye(3)
    y[cell] = y[cell[::-1]] = value
    named = rf"non-finite entry {value} at \[{cell[0]}, {cell[1]}\]"
    for name, run in routes.items():
        with pytest.raises(DomainError, match=named) as info:
            run(y)
        assert not isinstance(info.value, DualMembershipError), name
        if name == "psi_stack":
            assert str(info.value).startswith("point 1 of 2: dual argument has")


def test_psi_rejects_nonpositive_trace(spaces):
    with pytest.raises(DualMembershipError):
        cone.psi(spaces["G1"], -np.eye(5))


def test_psi_convergence_error_carries_residual(
    spaces, dual_point, monkeypatch, identity_start
):
    from homcone.errors import ConvergenceError

    # from the identity start two iterations are too few
    rng = np.random.default_rng(55)
    y = dual_point(spaces["G1"], rng)
    monkeypatch.setattr(cone, "MAX_ITER", 2)
    with pytest.raises(ConvergenceError) as info:
        cone.psi(spaces["G1"], y)
    assert info.value.residual is not None and info.value.residual > 0
    assert info.value.iterations == 2


def test_psi_line_search_collapse_outside_dual(identity_start):
    # Newton's own exterior certificate, from the identity start: from the
    # completion start a failed pivot rejects this point first
    space = full_sym_space(2)
    y = np.array([[1.0, 0.0], [0.0, -0.5]])  # positive trace, outside the dual
    with pytest.raises(DualMembershipError):
        cone.psi(space, y)


# ---------------------------------------------------------------------------
# the completion start and its fallback

def check_start_is_solution(space, rng):
    # the start at a normalized point against the Newton solution there
    # from the identity start.  Newton's gradient stop leaves its solution
    # off by up to GRAD_TOL / (least eigenvalue of the metric), to first
    # order, which exceeds 1e-10 relative where the solution is large
    y = random_dual_points(space, rng, 1)[0]
    yn = y / np.linalg.norm(y)
    start = completion_start(space, yn)
    newton = cone.psi(space, yn)
    stop = cone.GRAD_TOL / np.linalg.eigvalsh(newton.metric)[0]
    tol = 1e-10 * np.linalg.norm(newton.coords) + stop
    assert np.linalg.norm(start - newton.coords) <= tol
    # and the start solves the equation itself
    inverse = space.project(np.linalg.inv(space.from_coords(start)))
    assert np.linalg.norm(inverse - yn) <= 1e-12


@pytest.mark.parametrize("name", ["K4", "star", "windmill", "K5"])
def test_completion_start_solves_every_lattice_space(name, identity_start):
    rng = np.random.default_rng(41)
    for m in lattice_models(LATTICES[name][0]):
        check_start_is_solution(m.space, rng)


def test_completion_start_solves_random_homogeneous_graphs(identity_start):
    rng = np.random.default_rng(42)
    for g in random_graphs(count=12, seed=43):
        assert g.vertex_count <= 7
        for m in lattice_models(g):
            check_start_is_solution(m.space, rng)


def check_solves(space, y):
    res = cone.psi(space, y)
    assert res.residual <= 1e-10 * np.linalg.norm(y)
    # independent residual check: plain inversion plus projection
    assert np.linalg.norm(space.project(np.linalg.inv(res.x_star)) - y) <= 1e-10
    return res


@pytest.mark.parametrize("group", ["trivial", "dihedral"])
def test_psi_falls_back_on_a_non_chordal_support(group):
    c4 = Graph.build(list("abcd"), [(1, 2), (2, 3), (3, 4), (1, 4)])
    aut = PermutationGroup.trivial(4) if group == "trivial" else automorphism_group(c4)
    space = build_invariant_space(c4, aut)
    assert space.perfect_elimination is None
    rng = np.random.default_rng(44)
    for _ in range(5):
        assert check_solves(space, random_dual_points(space, rng, 1)[0]).iterations > 1


def test_psi_on_ray_spaces():
    empty3 = Graph.build(["a", "b", "c"], [])
    s3 = automorphism_group(empty3)
    spaces = [build_invariant_space(empty3, s3)] + [ray_structure(p) for p in (2, 3, 4)]
    for space in spaces:
        res = check_solves(space, 1.3 * np.eye(space.p))
        assert np.allclose(res.x_star, np.eye(space.p) / 1.3, rtol=1e-14, atol=0)


@pytest.mark.parametrize("span", [
    VStructure([1, 2], {(2, 1): np.array([[1.0], [0.0]])}),
    full_sym_structure(3),
], ids=["partial", "full"])
def test_psi_starts_a_block_structure_at_the_identity(span):
    # the completion start is taken only on pattern spaces, the invariant
    # spaces: a block structure starts at the multiple of the identity with
    # y's trace, both where the inverse completion of y projects to an
    # indefinite matrix (partial) and where it would be exact (full)
    y = np.array([[1.0, 0.9, 0.0], [0.9, 1.0, 0.0], [0.0, 0.0, 1.0]])
    yn = y / np.linalg.norm(y)
    records = []
    cone.set_newton_trace(records.append)
    try:
        assert check_solves(span, y).iterations > 1
    finally:
        cone.set_newton_trace(None)
    identity_grad = span.coords(yn - (np.trace(yn) / 3.0) * np.eye(3))
    assert records[0]["gradient_norm"] == pytest.approx(np.linalg.norm(identity_grad),
                                                        rel=1e-12)


@pytest.mark.parametrize(
    "y",
    [np.diag([1.0, 0.0]), np.diag([1.0, -1e-12]), np.diag([1.0, -0.5])],
    ids=["diag(1,0)", "diag(1,-eps)", "diag(1,-0.5)"],
)
def test_boundary_and_exterior_points_fail_their_pivot(y):
    # a point on the boundary "converged" in 37 iterations from the identity
    space = full_sym_space(2)
    with pytest.raises(DualMembershipError, match="clique block"):
        cone.psi(space, y)
    assert not cone.in_dual_cone(space, y)


def test_collapsed_clique_block_fails_its_pivot(spaces):
    # the butterfly's triangle {1, 2, 3} holds a singular block
    y = np.eye(5)
    y[0, 1] = y[1, 0] = 1.0
    with pytest.raises(DualMembershipError, match="clique block"):
        cone.psi(spaces["G1"], y)


def test_aligned_ill_conditioned_points_are_exact():
    space = full_sym_space(2)
    for k in range(2, 15, 2):
        y = np.diag([1.0, 10.0 ** -k])
        res = cone.psi(space, y)
        assert res.iterations == 1
        assert abs(res.log_delta - math.log(10.0 ** -k)) <= 1e-14 * k * math.log(10.0)


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
    # cone, at rotated spectra spread log-uniformly over [1, 1e2].  From the
    # identity start the absolute gradient stop loses digits on a tiny
    # eigenvalue of the normalized point (a 2x2 point of condition 35 with
    # one eigenvalue at 0.03 is off by 3e-10); the completion start is the
    # solution here.  See the strict xfail in test_realization.py
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


@pytest.mark.parametrize("scale", [1e160, 1e300])
def test_hessian_near_the_float_range(spaces, scale):
    # the metric in the point's own units overflows past a norm of about
    # 1e154; the Hessian, homogeneous of degree -2, underflows instead
    space = spaces["G3"]
    reference = cone.hessian_matrix(space, space.project(np.eye(5)))
    h = cone.hessian_matrix(space, space.project(scale * np.eye(5)))
    np.testing.assert_allclose(h, reference / scale / scale, rtol=1e-12,
                               atol=2 * np.finfo(float).smallest_subnormal)


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


def _maximal_cliques(pattern):
    """The maximal cliques of a support pattern, by trying every vertex subset."""
    p = len(pattern)
    cliques = [set(c) for r in range(1, p + 1) for c in itertools.combinations(range(p), r)
               if all(pattern[i, j] for i, j in itertools.combinations(c, 2))]
    return [sorted(c) for c in cliques if not any(c < d for d in cliques)]


def test_dual_membership_matches_the_clique_blocks():
    # on a chordal support, y is in the open dual cone exactly when every
    # maximal-clique block of y is positive definite (Grone et al. 1984);
    # inside points past block condition 1e3 are skipped, where psi may
    # stop unconverged (the strict xfail in test_realization.py)
    rng = np.random.default_rng(2000)
    counts = {True: 0, False: 0}
    for space in model_spaces():
        cliques = _maximal_cliques(space.support)
        for _ in range(200):
            a = rng.standard_normal((space.p, space.p))
            y = space.project(rng.choice([-1.0, 1.0]) * a @ a.T
                              + rng.uniform(-1.0, 3.0) * np.eye(space.p))
            eigs = [np.linalg.eigvalsh(y[np.ix_(c, c)]) for c in cliques]
            inside = all(e[0] > 0 for e in eigs)
            if inside and max(e[-1] / e[0] for e in eigs) > 1e3:
                continue
            assert cone.in_dual_cone(space, y) == inside
            counts[inside] += 1
    assert min(counts.values()) >= 500, counts


def test_membership_requires_space_point(spaces):
    off = np.zeros((5, 5))
    off[0, 3] = off[3, 0] = 1.0
    with pytest.raises(DomainError):
        cone.in_primal_cone(spaces["G1"], np.eye(5) + off)


def test_shape_errors(spaces):
    with pytest.raises(ShapeError):
        cone.psi(spaces["G1"], np.eye(4))
