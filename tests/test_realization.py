import itertools
import math

import numpy as np
import pytest
from closed_forms import (
    PHI_LOG,
    golden_by_id,
    golden_realizations,
    log_delta_g1,
    rho_star_identity,
)
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammaln
from lattices import LATTICES, lattice_models
from strategies import gram_points

from homcone import cone
from homcone.errors import (
    ConjugationError,
    ConvergenceError,
    DomainError,
    DualMembershipError,
    ShapeError,
)
from homcone.graphs import Graph, PermutationGroup
from homcone.invariant import SPAN_TOL, build_invariant_space
from homcone.realization import (
    TriangularElement,
    VStructure,
    _factor_coords,
    conjugate_space,
    delta_phi_fast,
    factor_T,
    full_sym_structure,
    log_delta_phi_at_scales,
    log_gamma_v,
    ray_structure,
    validate_vstructure,
)
from homcone.selection import Hyperparams, log_I_terms
from homcone.verify import CROSS_PATH_RTOL


def rho_matrix(structure, t_mat):
    """Matrix of x -> t x t^T on the realized space, in the orthonormal basis."""
    acted = np.einsum("ij,ajk,lk->ail", t_mat, structure.basis, t_mat)
    return np.einsum("bij,aij->ba", structure.basis, acted)


def random_triangular(structure, rng, block_scale=0.7):
    diag = tuple(np.exp(0.4 * rng.standard_normal(structure.r)))
    blocks = []
    for (l, k), arr in sorted(structure.subspaces.items()):
        coeffs = block_scale * rng.standard_normal(arr.shape[0])
        blocks.append(((l, k), np.einsum("a,aij->ij", coeffs, arr)))
    return TriangularElement(structure=structure, diag=diag, blocks=tuple(blocks))


def herm_structure(p):
    """Hermitian p x p complex matrices as real 2p x 2p ones: p blocks of
    size 2 and V[l,k] = span{I, J} / sqrt(2), J the 90-degree rotation.
    Its slots are 2-dimensional, so each bilinear update has several terms."""
    rotation = np.array([[0.0, -1.0], [1.0, 0.0]])
    sub = np.stack([np.eye(2), rotation]) / math.sqrt(2.0)
    return VStructure(
        [2] * p, {(l, k): sub for k in range(1, p + 1) for l in range(k + 1, p + 1)}
    )


# ---------------------------------------------------------------------------
# structure validation

def test_full_sym2_structure_valid():
    report = validate_vstructure(full_sym_structure(2))
    assert report.passed


def test_rank_one_product_violates_first_axiom():
    # all of the 2x1 matrices: e1 e1^T is rank one, not a multiple of I2
    subs = {(2, 1): np.array([[[1.0], [0.0]], [[0.0], [1.0]]])}
    report = validate_vstructure(VStructure([1, 2], subs))
    assert not report.passed
    assert report.violations["V1"]
    v = report.violations["V1"][0]
    assert v.where[:2] == (2, 1)
    assert v.residual > 0.5


@pytest.mark.parametrize("missing, axiom, where, detail", [
    ((3, 2), "V2", (3, 2, 1, 0, 0), "V[3,1]#0 times V[2,1]#0^T leaves V[3,2]"),
    ((3, 1), "V3", (3, 1, 2, 0, 0), "V[3,2]#0 times V[2,1]#0 leaves V[3,1]"),
])
def test_missing_subspace_violates_one_product_axiom(missing, axiom, where, detail):
    # with V[l,k] = {0} the product of two unit 1x1 blocks lands outside it
    full = full_sym_structure(3)
    subs = {key: arr for key, arr in full.subspaces.items() if key != missing}
    report = validate_vstructure(VStructure([1, 1, 1], subs))
    assert {a: len(v) for a, v in report.violations.items()} == {
        "V1": 0, "V2": 0, "V3": 0, axiom: 1}
    v = report.violations[axiom][0]
    assert (v.axiom, v.where, v.residual, v.detail) == (axiom, where, 1.0, detail)


def test_registry_structures_valid():
    for entry in golden_realizations():
        report = validate_vstructure(entry.structure)
        assert report.passed, entry.model_id


@pytest.mark.parametrize("p", range(2, 5))
def test_herm_structure_is_valid_with_multi_term_updates(p):
    s = herm_structure(p)
    assert validate_vstructure(s).passed
    assert {hi - lo for lo, hi in s.plan.slots} == {2}
    # the update of V[i,j] from row k: (I a + J b)^T (I c + J d) has four
    # nonzero terms on the two basis elements of V[i,j]
    bilinear = [len(b) for *_, b in s.plan.steps]
    assert bilinear == [4 * math.comb(k - 1, 2) for k in range(p, 0, -1)]


def test_structure_rejects_non_orthonormal_basis():
    with pytest.raises(ValueError):
        VStructure([1, 1], {(2, 1): np.array([[[2.0]]])})


# ---------------------------------------------------------------------------
# gamma integral

def test_ray_gamma_matches_quadrature():
    for p in (2, 3):
        structure = ray_structure(p)
        for alpha in (0.0, 0.7, 2.0):
            value, err = quad(
                lambda t: math.sqrt(p) * math.exp(-p * t) * t ** (p * alpha),
                0.0,
                np.inf,
            )
            assert err < 1e-6 * value
            assert np.isclose(log_gamma_v(structure, alpha), math.log(value), atol=1e-7)


def test_ray_gamma_closed_form():
    for p in (2, 3, 5):
        for alpha in (0.5, 1.0):
            expected = -(p * alpha + 0.5) * math.log(p) + gammaln(p * alpha + 1.0)
            assert np.isclose(log_gamma_v(ray_structure(p), alpha), expected, atol=1e-12)


def test_gamma_rejects_negative_exponent():
    with pytest.raises(DomainError):
        log_gamma_v(full_sym_structure(2), -0.5)


# ---------------------------------------------------------------------------
# triangular factorization

def test_factor_identity():
    s = golden_by_id()["G7"].structure
    t = factor_T(s, np.eye(5))
    assert np.allclose(t.matrix(), np.eye(5), atol=1e-14)


def test_factor_full_sym2_by_hand():
    s = full_sym_structure(2)
    y = np.array([[5.0, 2.0], [2.0, 1.0]])
    t = factor_T(s, y)
    assert np.allclose(t.diag, (1.0, 1.0))
    tm = t.matrix()
    assert np.allclose(tm, np.array([[1.0, 0.0], [2.0, 1.0]]))
    assert np.allclose(tm.T @ tm, y, atol=1e-14)


def test_factor_reproduces_dual_point(dual_point):
    rng = np.random.default_rng(21)
    for entry in golden_realizations():
        s = entry.structure
        for _ in range(5):
            a = rng.standard_normal((5, 5))
            y = s.project(a @ a.T + 0.1 * np.eye(5))
            t = factor_T(s, y)
            assert all(v > 0 for v in t.diag)
            assert np.linalg.norm(rho_star_identity(t) - y) < 1e-10


def test_factor_exam_scatter_in_realized_coordinates(models_by_id, exam_data):
    m3 = models_by_id["G3"]
    y = m3.space.project(exam_data.scatter / exam_data.n_effective)
    u = m3.realization.u
    y_realized = u.T @ y @ u
    t = factor_T(m3.realization.structure, y_realized)
    assert np.linalg.norm(rho_star_identity(t) - y_realized) < 1e-10


def test_factor_breakdown_outside_dual():
    s = full_sym_structure(2)
    y = np.array([[1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(DualMembershipError):
        factor_T(s, y)


def test_factor_rejects_points_on_the_boundary():
    # [[a, b], [b, b^2/a]] is singular up to rounding: the last pivot is
    # cancellation noise of order eps * a, not a point of the open cone
    s = full_sym_structure(2)
    for a in np.linspace(1.1, 50.0, 400):
        for b in (0.3, 1.0, 2.7, 5.0):
            with pytest.raises(DualMembershipError):
                factor_T(s, np.array([[a, b], [b, b * b / a]]))


def test_factor_rejects_point_outside_block_form():
    s = golden_by_id()["G7"].structure  # blocks (2,2,1), slot (2,1) is zero
    y = np.eye(5)
    y[0, 2] = y[2, 0] = 0.5  # lands in the zero slot
    with pytest.raises(DomainError):
        factor_T(s, y)


# ---------------------------------------------------------------------------
# action identities

def test_action_is_multiplicative():
    rng = np.random.default_rng(22)
    for key in ("G1", "G3", "G7"):
        s = golden_by_id()[key].structure
        t1 = random_triangular(s, rng).matrix()
        t2 = random_triangular(s, rng).matrix()
        lhs = rho_matrix(s, t1 @ t2)
        rhs = rho_matrix(s, t1) @ rho_matrix(s, t2)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_triangular_group_closed_under_product():
    rng = np.random.default_rng(23)
    for key in ("G1", "G3", "G5", "G7"):
        s = golden_by_id()[key].structure
        prod = random_triangular(s, rng).matrix() @ random_triangular(s, rng).matrix()
        for l in range(1, s.r + 1):
            for k in range(1, s.r + 1):
                block = s.block(prod, l, k)
                if l == k:
                    n = s.block_sizes[k - 1]
                    assert np.allclose(block, (np.trace(block) / n) * np.eye(n), atol=1e-12)
                elif l < k:
                    assert np.allclose(block, 0.0, atol=1e-13)
                else:
                    arr = s.subspaces.get((l, k))
                    if arr is None:
                        assert np.allclose(block, 0.0, atol=1e-13)
                    else:
                        coeffs = np.einsum("aij,ij->a", arr, block)
                        recon = np.einsum("a,aij->ij", coeffs, arr)
                        assert np.allclose(block, recon, atol=1e-12)


def test_adjoint_identity():
    rng = np.random.default_rng(24)
    for key in ("G2", "G7"):
        s = golden_by_id()[key].structure
        for _ in range(5):
            t = random_triangular(s, rng).matrix()
            x = s.from_coords(rng.standard_normal(s.dim))
            y = s.from_coords(rng.standard_normal(s.dim))
            lhs = float(np.sum((t @ x @ t.T) * y))
            rhs = float(np.sum(x * s.project(t.T @ y @ t)))
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


# ---------------------------------------------------------------------------
# multidegree of the action determinant

EXPECTED_MULTIDEGREE = {
    "G1": (4, 4, 4, 4, 6),
    "G2": (2, 3, 4, 4, 5),
    "G3": (4, 4, 4),
    "G4": (4, 4, 2, 3, 5),
    "G5": (4, 4, 4),
    "G6": (2, 3, 2, 3, 4),
    "G7": (2, 3, 3),
}


over_structures = pytest.mark.parametrize(
    "s",
    [
        *(pytest.param(e.structure, id=e.model_id) for e in golden_realizations()),
        *(pytest.param(full_sym_structure(p), id=f"full_sym{p}") for p in range(2, 6)),
        *(pytest.param(ray_structure(p), id=f"ray{p}") for p in range(2, 5)),
        *(pytest.param(herm_structure(p), id=f"herm{p}") for p in range(2, 5)),
    ],
)


def test_multidegree_regression_values():
    for entry in golden_realizations():
        assert entry.structure.multidegree == EXPECTED_MULTIDEGREE[entry.model_id]


@over_structures
def test_multidegree_against_direct_determinant(s):
    # the counted exponents against the determinant of the congruence action
    rng = np.random.default_rng(25)
    t_elem = random_triangular(s, rng)
    sign, logdet = np.linalg.slogdet(rho_matrix(s, t_elem.matrix()))
    assert sign > 0
    via_powers = sum(
        sig * math.log(t) for sig, t in zip(s.multidegree, t_elem.diag)
    )
    assert abs(logdet - via_powers) < 1e-10


@over_structures
def test_multidegree_sums_to_twice_dimension(s):
    assert sum(s.multidegree) == 2 * s.dim


# ---------------------------------------------------------------------------
# fast functionals against the generic path

def test_delta_phi_fast_vs_numeric(models, dual_point):
    rng = np.random.default_rng(26)
    for m in models:
        for _ in range(5):
            y = dual_point(m.space, rng)
            res = cone.psi(m.space, y)
            ld, lp = res.log_delta, res.log_phi
            ld_fast, lp_fast = m.realization.log_delta_phi(y)
            assert abs(ld - ld_fast) < 1e-8 * max(1.0, abs(ld))
            assert abs(lp - lp_fast) < 1e-8 * max(1.0, abs(lp))


def test_factor_log_det_matches_inverse_determinant(models, dual_point):
    # squared determinant of the factor equals the reciprocal determinant
    # of the primal solution
    rng = np.random.default_rng(27)
    for m in models:
        y = dual_point(m.space, rng)
        u = m.realization.u
        t = factor_T(m.realization.structure, u.T @ y @ u)
        log_det_t = sum(
            n * math.log(d) for n, d in zip(t.structure.block_sizes, t.diag)
        )
        x_star = cone.psi(m.space, y).x_star
        assert np.isclose(
            2.0 * log_det_t, -np.linalg.slogdet(x_star)[1], rtol=0, atol=1e-8
        )


# ---------------------------------------------------------------------------
# conjugation

def full_sym_space3():
    g = Graph.build(["a", "b", "c"], list(itertools.combinations(range(1, 4), 2)))
    return build_invariant_space(g, PermutationGroup.trivial(3))


def test_conjugation_full_sym_identity():
    space = full_sym_space3()
    structure = full_sym_structure(3)
    real = conjugate_space(space, np.eye(3), structure)
    # realized coordinates of the space basis are orthonormal: an isometry
    rows = np.array([structure.coords(real.u.T @ b @ real.u) for b in space.basis])
    assert np.allclose(rows @ rows.T, np.eye(space.dim), atol=1e-12)


def test_conjugation_rejects_non_orthogonal(models_by_id):
    m = models_by_id["G1"]
    with pytest.raises(ConjugationError):
        conjugate_space(m.space, 2.0 * np.eye(5), m.realization.structure)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_conjugation_rejects_a_non_finite_u(models_by_id, value):
    # every residual of a NaN u is NaN, which no tolerance test refuses
    m = models_by_id["G1"]
    u = m.realization.u.copy()
    u[0, 0] = value
    with pytest.raises(DomainError, match=rf"u has a non-finite entry {value} at \[0, 0\]"):
        conjugate_space(m.space, u, m.realization.structure)


def test_conjugation_rejects_wrong_u(models_by_id):
    m3 = models_by_id["G3"]
    u_wrong = golden_by_id()["G1"].u
    with pytest.raises(ConjugationError) as info:
        conjugate_space(m3.space, u_wrong, m3.realization.structure)
    assert info.value.basis_index is not None


def first_conjugation_failure(space, u, structure):
    """(index, residual) of the first conjugated basis element off the
    block form, one element at a time, or None."""
    for a, b in enumerate(space.basis):
        c = u.T @ b @ u
        resid = float(np.linalg.norm(c - structure.project(c)))
        if resid > SPAN_TOL:
            return a, resid
    return None


def conjugation_failures(models_by_id):
    """(space, u, structure) triples that conjugate_space must refuse."""
    m3 = models_by_id["G3"]
    full = full_sym_structure(3)
    # dropping V[3,2] leaves only the basis element of cell (2,3), index 4,
    # off the block form; dropping V[3,1] too puts cell (1,3), index 2, first
    without_32 = VStructure([1, 1, 1], {k: v for k, v in full.subspaces.items()
                                        if k != (3, 2)})
    without_31_32 = VStructure([1, 1, 1], {(2, 1): full.subspaces[(2, 1)]})
    swap = np.eye(3)[[0, 2, 1]]
    return {
        "wrong-u": (m3.space, golden_by_id()["G1"].u, m3.realization.structure),
        "later-element": (full_sym_space3(), np.eye(3), without_32),
        "later-element-permuted": (full_sym_space3(), swap, without_32),
        "two-elements": (full_sym_space3(), np.eye(3), without_31_32),
    }


@pytest.mark.parametrize("case, first", [
    ("wrong-u", None), ("later-element", 4), ("later-element-permuted", 4), ("two-elements", 2),
])
def test_conjugation_reports_the_first_failing_element(models_by_id, case, first):
    space, u, structure = conjugation_failures(models_by_id)[case]
    index, resid = first_conjugation_failure(space, u, structure)
    assert first is None or index == first
    with pytest.raises(ConjugationError) as info:
        conjugate_space(space, u, structure)
    assert info.value.basis_index == index
    assert str(info.value) == (
        f"conjugated basis element {index} leaves the block form (residual {resid:.3e})"
    )


def test_conjugation_shape_mismatch(models_by_id):
    m = models_by_id["G1"]
    with pytest.raises(ShapeError):
        conjugate_space(m.space, np.eye(4), m.realization.structure)


def test_trivial_group_u_is_vertex_reordering(models_by_id):
    # the first golden conjugation is a pure permutation of vertices
    rng = np.random.default_rng(28)
    m1 = models_by_id["G1"]
    u = golden_by_id()["G1"].u
    y = m1.space.project(rng.standard_normal((5, 5)) + np.eye(5) * 2)
    y = 0.5 * (y + y.T)
    order = [0, 1, 3, 4, 2]
    assert np.allclose(u.T @ y @ u, y[np.ix_(order, order)], atol=1e-14)


def test_vertex_swap_conjugation_layout(models_by_id):
    # generic element of the swap-invariant space lands in the documented
    # block layout: split eigencoordinates up front, coupled 3x3 tail block
    rng = np.random.default_rng(29)
    m2 = models_by_id["G2"]
    y = m2.space.project(rng.standard_normal((5, 5)) * 2 + np.eye(5))
    y = 0.5 * (y + y.T)
    a, b, c = y[0, 0], y[0, 1], y[0, 2]
    d, e, f = y[2, 2], y[2, 3], y[2, 4]
    g, h, i = y[3, 3], y[3, 4], y[4, 4]
    r2 = math.sqrt(2.0)
    expected = np.array(
        [
            [a - b, 0, 0, 0, 0],
            [0, a + b, 0, 0, r2 * c],
            [0, 0, g, h, e],
            [0, 0, h, i, f],
            [0, r2 * c, e, f, d],
        ]
    )
    u = golden_by_id()["G2"].u
    assert np.allclose(u.T @ y @ u, expected, atol=1e-12)


def test_hub_symmetric_conjugation_layout(models_by_id):
    rng = np.random.default_rng(30)
    m7 = models_by_id["G7"]
    y = m7.space.project(rng.standard_normal((5, 5)) * 2 + np.eye(5))
    y = 0.5 * (y + y.T)
    a, c, d = y[0, 0], y[0, 1], y[0, 2]
    b = y[2, 2]
    r2 = math.sqrt(2.0)
    expected = np.array(
        [
            [a - c, 0, 0, 0, 0],
            [0, a - c, 0, 0, 0],
            [0, 0, a + c, 0, r2 * d],
            [0, 0, 0, a + c, r2 * d],
            [0, 0, r2 * d, r2 * d, b],
        ]
    )
    u = golden_by_id()["G7"].u
    assert np.allclose(u.T @ y @ u, expected, atol=1e-12)


# ---------------------------------------------------------------------------
# generated inputs

GENERATED = settings(derandomize=True, deadline=None, max_examples=50)
# the Newton route's gradient-norm stop is accurate to CROSS_PATH_RTOL only on
# well-conditioned points (see the cone.psi FOUND line in CHANGES.md)
NEWTON_LOG10_COND = 3.0


def rel_err(value, reference):
    return abs(value - reference) / max(1.0, abs(reference))


@over_structures
@GENERATED
@given(data=st.data())
def test_factor_rebuilds_generated_points(s, data):
    y = s.project(data.draw(gram_points(s.p)))
    t = factor_T(s, y)
    assert np.linalg.norm(rho_star_identity(t) - y) <= 1e-10 * np.linalg.norm(y)


@pytest.mark.parametrize("p", range(2, 6))
@GENERATED
@given(data=st.data())
def test_full_sym_fast_path_matches_log_det(p, data):
    # on the full cone delta is det and phi is det^{-(p+1)/2}
    y = data.draw(gram_points(p))
    logdet = np.linalg.slogdet(y)[1]
    ld, lp = delta_phi_fast(full_sym_structure(p), y)
    assert rel_err(ld, logdet) <= CROSS_PATH_RTOL
    assert rel_err(lp, -0.5 * (p + 1) * logdet) <= CROSS_PATH_RTOL


@pytest.mark.parametrize("p", range(2, 5))
@GENERATED
@given(data=st.data())
def test_herm_fast_path_matches_log_det(p, data):
    # on Herm(p, C) in real form delta is det and phi is det^{-p/2}
    s = herm_structure(p)
    y = s.project(data.draw(gram_points(2 * p)))
    logdet = np.linalg.slogdet(y)[1]
    ld, lp = delta_phi_fast(s, y)
    assert rel_err(ld, logdet) <= CROSS_PATH_RTOL
    assert rel_err(lp, -0.5 * p * logdet) <= CROSS_PATH_RTOL


@pytest.mark.parametrize("mid", [f"G{i}" for i in range(1, 8)])
@GENERATED
@given(y0=gram_points(5))
def test_fast_path_matches_closed_forms_on_generated_points(models_by_id, mid, y0):
    m = models_by_id[mid]
    y = m.space.project(y0)
    ld, lp = m.realization.log_delta_phi(y)
    assert rel_err(lp, PHI_LOG[mid](y)) <= CROSS_PATH_RTOL
    if mid == "G1":
        assert rel_err(ld, log_delta_g1(y)) <= CROSS_PATH_RTOL


def check_against_newton(m, y0):
    y = m.space.project(y0)
    res = cone.psi(m.space, y)
    ld, lp = m.realization.log_delta_phi(y)
    assert rel_err(ld, res.log_delta) <= CROSS_PATH_RTOL
    assert rel_err(lp, res.log_phi) <= CROSS_PATH_RTOL


@pytest.mark.parametrize("mid", [f"G{i}" for i in range(1, 8)])
@GENERATED
@given(y0=gram_points(5, log10_cond=(0.0, NEWTON_LOG10_COND)))
def test_fast_path_matches_newton_on_generated_points(models_by_id, mid, y0):
    check_against_newton(models_by_id[mid], y0)


@pytest.mark.xfail(
    strict=True,
    raises=(AssertionError, ConvergenceError),
    reason="cone.psi stops on an absolute gradient norm: inaccurate or "
    "unconverged past condition ~1e3",
)
@settings(GENERATED, report_multiple_bugs=False, phases=[Phase.generate])
@given(y0=gram_points(5, log10_cond=(NEWTON_LOG10_COND, 6.0)))
def test_fast_path_matches_newton_on_ill_conditioned_points(models_by_id, y0):
    for m in models_by_id.values():
        check_against_newton(m, y0)


PSI_FIELD_RTOL = 1e-10


@pytest.mark.parametrize(
    "sid",
    [
        *(pytest.param(f"G{i}", id=f"G{i}") for i in range(1, 8)),
        *(pytest.param(p, id=f"full_sym{p}") for p in range(2, 6)),
    ],
)
@GENERATED
@given(data=st.data())
def test_psi_result_functionals_match_recomputation(models_by_id, sid, data):
    # the functionals psi reads off its last iterate, against recomputing
    # them from x_star: a second factorization, an inverse and a metric build
    space = models_by_id[sid].space if isinstance(sid, str) else full_sym_structure(sid)
    y0 = data.draw(gram_points(space.p, log10_cond=(0.0, NEWTON_LOG10_COND)))
    res = cone.psi(space, space.project(y0))
    assert rel_err(res.log_delta, -np.linalg.slogdet(res.x_star)[1]) <= PSI_FIELD_RTOL
    w = np.linalg.inv(res.x_star)
    metric = cone.metric_matrix(space, 0.5 * (w + w.T))
    assert np.linalg.norm(res.metric - metric) <= PSI_FIELD_RTOL * np.linalg.norm(metric)
    assert rel_err(res.log_phi, -0.5 * np.linalg.slogdet(res.metric)[1]) <= PSI_FIELD_RTOL


# ---------------------------------------------------------------------------
# the cached linear maps of a realization

MAPPED_RTOL = 1e-12


@pytest.mark.parametrize("mid", [f"G{i}" for i in range(1, 8)])
@GENERATED
@given(scale=gram_points(5), delta=st.floats(2.5, 200.0))
def test_scale_map_matches_matrix_route(models_by_id, mid, scale, delta):
    # the one matrix-vector product of log_I_terms against project ->
    # u^T y u -> delta_phi_fast, the route it replaces.  The two round
    # the point's coordinates differently, and the factorization amplifies
    # that by up to the scale's condition number (about 1.4 eps cond seen
    # over 28 000 points), so past condition ~1e3 the bound grows with it.
    m = models_by_id[mid]
    terms = log_I_terms(m, Hyperparams(delta=delta, scale=scale))
    u = m.realization.u
    y = u.T @ (m.space.project(scale) / 2.0) @ u
    ld, lp = delta_phi_fast(m.realization.structure, y)
    tol = max(MAPPED_RTOL, 16.0 * np.finfo(float).eps * np.linalg.cond(scale))
    assert rel_err(terms.log_delta, ld) <= tol
    assert rel_err(terms.log_phi, lp) <= tol


def test_point_map_rejects_points_off_the_space(models_by_id):
    real = models_by_id["G7"].realization
    y = np.eye(5)
    assert real.log_delta_phi(y) == pytest.approx((0.0, 0.0), abs=1e-12)
    off_edge = np.eye(5)
    off_edge[0, 3] = off_edge[3, 0] = 0.5  # (1,4) is not an edge
    uneven_orbit = np.eye(5)
    uneven_orbit[0, 0] = 2.0  # one diagonal cell of the orbit {1,2,4,5}
    asymmetric = np.eye(5)
    asymmetric[0, 2] = 0.3  # (1,3) without (3,1)
    for bad in (off_edge, uneven_orbit, asymmetric):
        with pytest.raises(DomainError):
            real.log_delta_phi(bad)


@pytest.mark.parametrize("scale", [1e150, 1e160, 1e300])
def test_span_check_does_not_overflow(scale):
    # |resid|^2 and |v|^2 overflow past ~1e154; a point off the ray must
    # still be rejected there, and a huge point on it still scored
    s = ray_structure(3)
    with pytest.raises(DomainError, match="point is not in the space"):
        delta_phi_fast(s, np.diag([scale, 1.0, 1.0]))
    ld, lp = delta_phi_fast(s, scale * np.eye(3))
    assert ld == pytest.approx(3.0 * math.log(scale), rel=1e-14)
    assert lp == pytest.approx(-math.log(scale), rel=1e-14)


def test_point_whose_norm_overflows_is_refused():
    with pytest.raises(DomainError, match="too large"):
        delta_phi_fast(ray_structure(3), 1.5e308 * np.eye(3))


def factorization_entry_points(models_by_id):
    """Each public route into the factorization, as a function of a 5 x 5 point."""
    g1 = models_by_id["G1"].realization
    s = full_sym_structure(5)
    return {
        "factor_T": lambda y: factor_T(s, y),
        "delta_phi_fast": lambda y: delta_phi_fast(s, y),
        "log_delta_phi": g1.log_delta_phi,
        "log_delta_phi_at_scales": lambda y: log_delta_phi_at_scales([g1], [y]),
    }


@pytest.mark.parametrize("entry", ["factor_T", "delta_phi_fast", "log_delta_phi",
                                   "log_delta_phi_at_scales"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("cell", [(2, 2), (0, 1)])
def test_factorization_names_a_non_finite_entry(models_by_id, entry, value, cell):
    # raised before the linear map, so no RuntimeWarning comes first
    y = np.eye(5)
    y[cell] = y[cell[::-1]] = value
    run = factorization_entry_points(models_by_id)[entry]
    named = rf"non-finite entry {value} at \[{cell[0]}, {cell[1]}\]"
    with pytest.raises(DomainError, match=named) as info:
        run(y)
    assert not isinstance(info.value, DualMembershipError)


def test_realization_maps_reject_wrong_size(models_by_id):
    real = models_by_id["G7"].realization
    for bad in (np.eye(4), np.eye(1), np.ones(25)):
        with pytest.raises(ShapeError):
            real.log_delta_phi(bad)
        with pytest.raises(ShapeError):
            log_delta_phi_at_scales([real], [bad])
    # an empty stack of points is refused as Newton's psi_stack refuses it;
    # no scales give an empty row
    with pytest.raises(ShapeError, match="point stack is empty"):
        real.log_delta_phi_stack(np.empty((0, 5, 5)))
    assert log_delta_phi_at_scales([real], []) == [[]]


# ---------------------------------------------------------------------------
# the closed-form inverse-projection map

PSI_NEWTON_RTOL = 1e-10


def rel_norm(value, reference):
    return np.linalg.norm(value - reference) / np.linalg.norm(reference)


@over_structures
def test_triangular_basis_rebuilds_the_factor(s, dual_point):
    rng = np.random.default_rng(41)
    y = dual_point(s, rng)
    factor, _, _ = _factor_coords(s, s.coords(y).tolist())
    t = (np.asarray(factor) @ s.triangular_basis).reshape(s.p, s.p)
    assert np.array_equal(t, factor_T(s, y).matrix())
    assert s.triangular_basis.shape == (s.dim, s.p * s.p)
    assert not s.triangular_basis.flags.writeable


@pytest.mark.parametrize("mid", [f"G{i}" for i in range(1, 8)])
@GENERATED
@given(y0=gram_points(5, log10_cond=(0.0, NEWTON_LOG10_COND)))
def test_closed_form_psi_matches_newton(models_by_id, mid, y0):
    m = models_by_id[mid]
    y = m.space.project(y0)
    assert rel_norm(m.realization.psi(y), cone.psi(m.space, y).x_star) <= PSI_NEWTON_RTOL


def test_closed_form_psi_matches_newton_on_the_k5_lattice():
    rng = np.random.default_rng(42)
    for m in lattice_models(LATTICES["K5"][0]):
        for c in (0.0, 1.5, 3.0):  # condition up to about 10^c before projection
            a = rng.standard_normal((5, 5))
            y0 = a @ a.T
            y = m.space.project(y0 + np.linalg.eigvalsh(y0)[-1] * 10.0 ** -c * np.eye(5))
            newton = cone.psi(m.space, y).x_star
            assert rel_norm(m.realization.psi(y), newton) <= PSI_NEWTON_RTOL, m.label


@pytest.mark.parametrize("mid", [f"G{i}" for i in range(1, 8)])
@GENERATED
@given(y0=gram_points(5))
def test_closed_form_psi_is_exact_off_the_support_and_on_each_orbit(models_by_id, mid, y0):
    m = models_by_id[mid]
    x = m.realization.psi(m.space.project(y0))
    off = ~(m.space.support | np.eye(5, dtype=bool))
    assert (x[off] == 0.0).all()
    for orbit in m.space.orbits:
        values = {x[i - 1, j - 1] for i, j in orbit} | {x[j - 1, i - 1] for i, j in orbit}
        assert len(values) == 1, orbit


@pytest.mark.parametrize("c", [1e150, 1e-150, 1e300, 1e-300])
def test_closed_form_psi_is_homogeneous_of_degree_minus_one(models_by_id, exam_data, c):
    for m in models_by_id.values():
        y = m.space.project(exam_data.scatter / exam_data.n_effective)
        x = m.realization.psi(c * y)
        assert np.isfinite(x).all()
        assert rel_norm(c * x, m.realization.psi(y)) <= 1e-14, m.label


def test_closed_form_psi_refuses_points_outside_the_open_dual_cone(models_by_id):
    real = models_by_id["G3"].realization
    for bad in (np.zeros((5, 5)), -np.eye(5), np.diag([1.0, 1.0, 0.0, 1.0, 1.0])):
        with pytest.raises(DualMembershipError, match="factorization breakdown"):
            real.psi(bad)
    off_edge = np.eye(5)
    off_edge[0, 3] = off_edge[3, 0] = 0.5  # (1,4) is not an edge
    with pytest.raises(DomainError, match="point is not in the space"):
        real.psi(off_edge)
