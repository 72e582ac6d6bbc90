"""Block matrix realizations of homogeneous cones.

A realization is a partition of the matrix size into blocks n_1..n_r plus a
family of subspaces V[l,k] of n_l x n_k matrices (1 <= k < l <= r) subject
to three closure axioms.  The realized space consists of symmetric matrices
with scalar diagonal blocks and off-diagonal blocks in the subspaces.  The
lower triangular matrices of the same shape with positive diagonal scalars
act simply transitively on the realized cone by congruence, which gives:

* a generalized Cholesky factorization of dual points (factor_T),
  compiled once per structure into a flat program over the point's
  orthonormal coordinates (``VStructure.plan``) and run in place, in plain
  floats,
* closed forms for the determinant functional and its Hessian determinant
  (delta_phi_fast): twice the log determinant of the factor, and a power
  of its diagonal scalars whose exponents (the multidegree) are counted
  from the dimensions of the off-diagonal subspaces, both summed inside
  the factorization's one pass,
* the gamma-type integral of the cone in closed form (log_gamma_v), and
* the inverse-projection map in closed form (``Realization.psi``): the
  primal point u T^{-1} T^{-T} u^T, T the factor of the realized point.

An invariant space is hooked up to a realization by an orthogonal
conjugation u, an isometry for the trace inner product, so all functionals
computed in realized coordinates agree with their definitions on the
original space.  ``realize`` derives u and the block structure of any
invariant space of a homogeneous graph from the eigenspaces of one generic
element.  A ``Realization`` checks where it is built (``conjugate_space``
is its front door) that u carries the space onto the block form, and keeps
the (N, N) coordinate isometry Q that the check computes.  Every route then
reads Q and none checks the block form again: a point of the space is
checked against the space's own ``point_map`` and goes to Q c, and
``log_delta_phi_at_scales`` scores several realizations at several scales
by one product with their stacked rows Q F / 2, F the space's flattened
basis, and one float factorization per realization and scale.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations, combinations_with_replacement
from typing import NamedTuple

import numpy as np

from .errors import (
    CapabilityError,
    ConjugationError,
    DomainError,
    DualMembershipError,
    ShapeError,
)
from .invariant import (
    SPAN_TOL,
    InvariantSpace,
    OrthonormalSpan,
    finite_norm,
    in_stack,
    project_onto,
    span_coords,
)

AXIOM_TOL = 1e-12
BASIS_GRAM_TOL = 1e-10
# a pivot at or below this multiple of its block's diagonal coefficient is
# rounding noise left by cancellation: the point is on or past the boundary
PIVOT_RTOL = 16.0 * sys.float_info.epsilon
# realize: the seed of the generic element's coordinates, the relative gap
# below which two of its eigenvalues on an orbit are one, and the singular
# value at or below which a V[l,k] spanning direction is rounding
REALIZE_SEED = 20240601
EIGEN_GAP_RTOL = 1e-8
RANK_TOL = 1e-10
_SQRT2 = math.sqrt(2.0)


class FactorPlan(NamedTuple):
    """What the factorization and the gamma integral read of a structure,
    built once.

    The factorization is a flat program over one list of realized
    coordinates c, diagonal coordinates c_1..c_r first, then each
    off-diagonal slot's coordinates in ``offdiag_slots`` order; ``slots``
    holds the (start, stop) range of each slot.  ``steps`` runs over the
    block rows k = r..1; each is (k - 1, 1 / sqrt(n_k), 2 n_k, s_k, row,
    bilinear), with s_k the multidegree.  ``row`` holds one
    (coordinate of V[k,i], i - 1, 1 / sqrt(n_i)) triple per coordinate of
    row k, and ``bilinear`` one (coordinate of V[i,j], coordinate of V[k,i],
    coordinate of V[k,j], sqrt(2) C) quadruple per nonzero structure
    constant C = (A^{ij}_e | (A^{ki}_a)^T A^{kj}_b).  The gamma integral
    at exponent alpha is ``gamma_const - alpha * n_log_n`` plus
    lgamma(n_k alpha + offset_k) over the (n_k, offset_k) pairs of
    ``lgamma_args``, with offset_k = q(k) / 2 + 1.
    """

    slots: tuple[tuple[int, int], ...]
    steps: tuple[tuple, ...]
    gamma_const: float
    n_log_n: float
    lgamma_args: tuple[tuple[int, float], ...]


class VStructure(OrthonormalSpan):
    """Block sizes plus orthonormal bases of the off-diagonal subspaces.

    ``subspaces`` maps a pair (l, k) with 1 <= k < l <= r to a stack of
    n_l x n_k matrices that is orthonormal under (A|B) = tr(A B^T).  Pairs
    that are absent (or mapped to an empty stack) denote the zero subspace.
    Coordinates, projections and the ``point_map`` of the span are taken
    over the realized space's ``basis``.
    """

    def __init__(self, block_sizes, subspaces=None):
        self.block_sizes = tuple(int(n) for n in block_sizes)
        if not self.block_sizes or any(n <= 0 for n in self.block_sizes):
            raise ValueError(f"block sizes must be positive: {self.block_sizes}")
        self.r = len(self.block_sizes)
        self.p = sum(self.block_sizes)
        offsets = np.concatenate([[0], np.cumsum(self.block_sizes)])
        self._start = {k: int(offsets[k - 1]) for k in range(1, self.r + 1)}
        subs: dict[tuple[int, int], np.ndarray] = {}
        for (l, k), mats in (subspaces or {}).items():
            l, k = int(l), int(k)
            if not 1 <= k < l <= self.r:
                raise ValueError(f"subspace index ({l},{k}) out of range for r={self.r}")
            arr = np.asarray(mats, dtype=float)
            if arr.ndim == 2:
                arr = arr[None, :, :]
            if arr.size == 0:
                continue
            nl, nk = self.block_sizes[l - 1], self.block_sizes[k - 1]
            if arr.shape[1:] != (nl, nk):
                raise ShapeError(
                    f"subspace ({l},{k}) basis must be {nl}x{nk}, got {arr.shape[1:]}"
                )
            gram = np.einsum("aij,bij->ab", arr, arr)
            if np.max(np.abs(gram - np.eye(arr.shape[0]))) > BASIS_GRAM_TOL:
                raise ValueError(f"subspace ({l},{k}) basis is not orthonormal")
            subs[(l, k)] = arr
        self.subspaces = subs
        self.dim = self.r + sum(a.shape[0] for a in subs.values())

    # -- layout ------------------------------------------------------------

    def block_slice(self, k: int) -> slice:
        s = self._start[k]
        return slice(s, s + self.block_sizes[k - 1])

    def block(self, x: np.ndarray, l: int, k: int) -> np.ndarray:
        return x[self.block_slice(l), self.block_slice(k)]

    def dim_of(self, l: int, k: int) -> int:
        arr = self.subspaces.get((l, k))
        return 0 if arr is None else arr.shape[0]

    def q(self, k: int) -> int:
        """Total dimension of the subspaces below diagonal block k."""
        return sum(self.dim_of(l, k) for l in range(k + 1, self.r + 1))

    def offdiag_slots(self) -> list[tuple[int, int]]:
        return sorted(self.subspaces.keys(), key=lambda lk: (lk[1], lk[0]))

    # -- orthonormal basis of the realized space ---------------------------

    @cached_property
    def basis(self) -> np.ndarray:
        mats = []
        for k in range(1, self.r + 1):
            b = np.zeros((self.p, self.p))
            sl = self.block_slice(k)
            b[sl, sl] = np.eye(self.block_sizes[k - 1]) / math.sqrt(self.block_sizes[k - 1])
            mats.append(b)
        for l, k in self.offdiag_slots():
            for a in self.subspaces[(l, k)]:
                b = np.zeros((self.p, self.p))
                b[self.block_slice(l), self.block_slice(k)] = a / math.sqrt(2.0)
                b[self.block_slice(k), self.block_slice(l)] = a.T / math.sqrt(2.0)
                mats.append(b)
        out = np.array(mats)
        out.setflags(write=False)
        return out

    @cached_property
    def triangular_basis(self) -> np.ndarray:
        """Read-only (dim, p^2) matrix taking the coordinates ``_factor_coords``
        returns to vec(T): row k is vec of the identity on diagonal block k,
        then one row per basis element of each V[l,k], in
        ``offdiag_slots`` order, holding that element in block (l, k)."""
        out = np.zeros((self.dim, self.p, self.p))
        for k in range(1, self.r + 1):
            sl = self.block_slice(k)
            out[k - 1, sl, sl] = np.eye(self.block_sizes[k - 1])
        row = self.r
        for l, k in self.offdiag_slots():
            mats = self.subspaces[(l, k)]
            out[row:row + len(mats), self.block_slice(l), self.block_slice(k)] = mats
            row += len(mats)
        out = out.reshape(self.dim, -1)
        out.setflags(write=False)
        return out

    @cached_property
    def plan(self) -> FactorPlan:
        """The flat factorization program and the gamma integral's constants."""
        order = self.offdiag_slots()
        slots, start = {}, self.r
        for lk in order:
            slots[lk] = range(start, start + self.dim_of(*lk))
            start = slots[lk].stop
        sizes, subs = self.block_sizes, self.subspaces
        steps = []
        for k in range(self.r, 0, -1):
            row_slots = [(k, i) for i in range(1, k) if (k, i) in slots]
            row = tuple(
                (s, i - 1, 1.0 / math.sqrt(sizes[i - 1]))
                for _, i in row_slots
                for s in slots[(k, i)]
            )
            bilinear = []
            for (_, j), (_, i) in combinations(row_slots, 2):
                if (i, j) not in slots:
                    continue
                const = np.einsum(
                    "euv,awu,bwv->eab", subs[(i, j)], subs[(k, i)], subs[(k, j)]
                )
                bilinear.extend(
                    (slots[(i, j)][e], slots[(k, i)][a], slots[(k, j)][b],
                     _SQRT2 * float(const[e, a, b]))
                    for e, a, b in zip(*np.nonzero(const))
                )
            steps.append((k - 1, 1.0 / math.sqrt(sizes[k - 1]), 2.0 * sizes[k - 1],
                          float(self.multidegree[k - 1]), row, tuple(bilinear)))
        qs = [self.q(k) for k in range(1, self.r + 1)]
        return FactorPlan(
            slots=tuple((sl.start, sl.stop) for sl in slots.values()),
            steps=tuple(steps),
            gamma_const=0.5 * (self.dim - self.r) * math.log(2.0 * math.pi)
            - sum((qk + 1) / 2.0 * math.log(nk) for nk, qk in zip(sizes, qs)),
            n_log_n=sum(nk * math.log(nk) for nk in sizes),
            lgamma_args=tuple((nk, qk / 2.0 + 1.0) for nk, qk in zip(sizes, qs)),
        )

    # -- congruence action -------------------------------------------------

    @cached_property
    def multidegree(self) -> tuple[int, ...]:
        """Integer exponents of the diagonal scalars in det of the congruence action.

        Scaling diagonal scalar k of t by s multiplies the diagonal basis
        element of block k by s^2 and every basis element of V[l,k] (l > k)
        and of V[k,j] (j < k) by s, so the exponent at block k is
        2 + q_k + sum_{j<k} dim V[k,j].
        """
        return tuple(
            2 + self.q(k) + sum(self.dim_of(k, j) for j in range(1, k))
            for k in range(1, self.r + 1)
        )


@lru_cache(maxsize=None)
def full_sym_structure(p: int) -> VStructure:
    """Canonical realization of the full symmetric cone: p scalar blocks.

    Built once per process for each p, with its basis and plan cached on
    first use, and shared by every caller, which must not modify it."""
    subs = {(l, k): np.ones((1, 1, 1)) for k in range(1, p + 1) for l in range(k + 1, p + 1)}
    return VStructure([1] * p, subs)


def ray_structure(p: int) -> VStructure:
    """The ray of multiples of the identity: one block of size p."""
    return VStructure([p], {})


# ---------------------------------------------------------------------------
# axiom validation


@dataclass(frozen=True)
class AxiomViolation:
    axiom: str
    where: tuple
    residual: float
    detail: str


@dataclass
class VStructureReport:
    violations: dict[str, list[AxiomViolation]]

    @property
    def passed(self) -> bool:
        return all(not v for v in self.violations.values())


def validate_vstructure(structure: VStructure) -> VStructureReport:
    """Check the three closure axioms, reporting every witnessed failure.

    V1: the symmetrized product of two basis elements of V[l,k] is a multiple
    of the identity.  For blocks j < k < l, V2: V[l,j] V[k,j]^T lies in
    V[l,k], and V3: V[l,k] V[k,j] lies in V[l,j]; a missing subspace is {0}.
    """
    report: dict[str, list[AxiomViolation]] = {"V1": [], "V2": [], "V3": []}
    subs = structure.subspaces

    def check(axiom: str, where: tuple, residual, detail: str) -> None:
        if residual > AXIOM_TOL:
            report[axiom].append(AxiomViolation(axiom, where, float(residual), detail))

    for (l, k), arr in sorted(subs.items()):
        nl = structure.block_sizes[l - 1]
        for i, j in combinations_with_replacement(range(arr.shape[0]), 2):
            prod = arr[i] @ arr[j].T + arr[j] @ arr[i].T
            check(
                "V1",
                (l, k, i, j),
                np.linalg.norm(prod - (np.trace(prod) / nl) * np.eye(nl)),
                f"symmetrized product of basis elements {i},{j} of "
                f"V[{l},{k}] is not a multiple of the identity",
            )
    for j, k, l in combinations(range(1, structure.r + 1), 3):
        # (axiom, left factor, right factor, where: target block and the third)
        for axiom, a_key, b_key, where, transpose in (
            ("V2", (l, j), (k, j), (l, k, j), True),
            ("V3", (l, k), (k, j), (l, j, k), False),
        ):
            a_arr, b_arr = subs.get(a_key), subs.get(b_key)
            if a_arr is None or b_arr is None:
                continue
            span = subs.get(where[:2])
            for ia, a in enumerate(a_arr):
                for ib, b in enumerate(b_arr):
                    c = a @ b.T if transpose else a @ b
                    check(
                        axiom,
                        (*where, ia, ib),
                        np.linalg.norm(c if span is None else c - project_onto(span, c)),
                        f"V[{a_key[0]},{a_key[1]}]#{ia} times V[{b_key[0]},{b_key[1]}]"
                        f"#{ib}{'^T' if transpose else ''} leaves V[{where[0]},{where[1]}]",
                    )
    return VStructureReport(violations=report)


# ---------------------------------------------------------------------------
# triangular group


@dataclass(frozen=True, eq=False)
class TriangularElement:
    """Lower triangular group element: positive diagonal scalars plus blocks."""

    structure: VStructure
    diag: tuple[float, ...]
    blocks: tuple[tuple[tuple[int, int], np.ndarray], ...]

    def matrix(self) -> np.ndarray:
        v = self.structure
        t = np.zeros((v.p, v.p))
        for k in range(1, v.r + 1):
            sl = v.block_slice(k)
            t[sl, sl] = self.diag[k - 1] * np.eye(v.block_sizes[k - 1])
        for (l, k), b in self.blocks:
            t[v.block_slice(l), v.block_slice(k)] = b
        return t


def _factor_coords(structure: VStructure, c: list[float]) -> tuple[list[float], float, float]:
    """The triangular factor's coordinates, log delta and log phi, from the
    list c of a point's realized coordinates: checked by
    ``invariant.span_coords`` against the structure's own point_map for a
    realized point, or a Realization's isometry applied to the checked
    coordinates of a point of the original space.

    The plan's flat program runs on c in place.
    Step k reads the pivot d_k = c_k / sqrt(n_k), raises
    DualMembershipError unless it is above PIVOT_RTOL times its starting
    value, and stores t_k = sqrt(d_k) in c_k.  Each coordinate x of row k
    becomes t = x / (sqrt(2) t_k), which takes |t|^2 / sqrt(n_i) off c_i,
    and each bilinear quadruple takes sqrt(2) C t_ki t_kj off a coordinate
    of V[i,j]: that is block back-substitution on d_k and on the V[l,k]
    coefficients c / sqrt(2), with the scales folded into the constants.
    log delta = sum 2 n_k log t_k and log phi = -sum s_k log t_k add up
    along the way.  The returned list holds the diagonal scalars t_k, then
    the coefficient of each T[k,j] in the orthonormal basis of V[k,j].
    """
    start = c[: structure.r]  # the diagonal coordinates, for the pivot floor
    log_delta = log_phi = 0.0
    for k, inv_sqrt_n, w_delta, w_phi, row, bilinear in structure.plan.steps:
        ck = c[k]
        if not ck > PIVOT_RTOL * start[k]:
            floor = PIVOT_RTOL * max(start[k], 0.0) * inv_sqrt_n
            raise DualMembershipError(
                f"factorization breakdown at block {k + 1}: pivot "
                f"{ck * inv_sqrt_n:.6g} <= {floor:.3g}"
            )
        tk = math.sqrt(ck * inv_sqrt_n)
        c[k] = tk
        log_tk = math.log(tk)
        log_delta += w_delta * log_tk
        log_phi -= w_phi * log_tk
        scale = _SQRT2 * tk
        for s, i, w in row:
            x = c[s] / scale
            c[s] = x
            c[i] -= w * x * x
        for e, a, b, w in bilinear:
            c[e] -= w * c[a] * c[b]
    return c, log_delta, log_phi


def _realized_coords(linear_map: np.ndarray, y) -> list[float]:
    """The realized coordinates of one point y, checked by ``span_coords``."""
    coords, _ = span_coords(linear_map, np.asarray(y, dtype=float)[None], "point")
    return coords[:, 0].tolist()


def factor_T(structure: VStructure, y: np.ndarray) -> TriangularElement:
    """Unique triangular element with projection(T^T T) equal to the dual point y.

    Block back-substitution from the last block row upward, on the
    orthonormal coordinates of y: the diagonal coefficient of block k is
    d_k = c_k / sqrt(n_k) and the V[l,k] coefficients are c / sqrt(2).  Peel
    t_k = sqrt(d_k), divide it out of row k, then subtract |t_ki|^2 / n_i
    from d_i and the projection of t_ki^T t_kj onto V[i,j] from b_ij, which
    the structure's plan holds as structure constants (``_factor_coords``
    runs it).  A pivot that is not above PIVOT_RTOL times its block's
    diagonal coefficient raises DualMembershipError: y is past the boundary
    of the dual cone, or on it up to rounding.
    """
    coords, _, _ = _factor_coords(structure, _realized_coords(structure.point_map, y))
    blocks = tuple(
        (lk, np.einsum("a,aij->ij", np.asarray(coords[lo:hi]), structure.subspaces[lk]))
        for lk, (lo, hi) in zip(structure.offdiag_slots(), structure.plan.slots)
    )
    return TriangularElement(structure=structure, diag=tuple(coords[: structure.r]),
                             blocks=blocks)


def delta_phi_fast(structure: VStructure, y: np.ndarray) -> tuple[float, float]:
    """(log delta, log phi) at a dual point of the realized cone.

    log delta is twice the log determinant of the triangular factor; log phi
    is minus the log determinant of its congruence action, a pure power of
    the diagonal scalars with the structure's multidegree.  Both read only
    the factor's diagonal scalars, and accumulate as the factorization runs.
    """
    return _factor_coords(structure, _realized_coords(structure.point_map, y))[1:]


def log_gamma_v(structure: VStructure, alpha: float) -> float:
    """Log of the gamma-type integral of the realized cone at exponent alpha."""
    if alpha < 0:
        raise DomainError(f"gamma integral needs alpha >= 0, got {alpha}")
    plan = structure.plan
    total = plan.gamma_const - alpha * plan.n_log_n
    for nk, offset in plan.lgamma_args:
        total += math.lgamma(nk * alpha + offset)
    return total


# ---------------------------------------------------------------------------
# conjugation between an invariant space and a realized space


@dataclass(frozen=True, eq=False)
class Realization:
    """Orthogonal change of coordinates carrying a space onto a block form,
    checked where it is built.

    Holds the conjugating matrix u, the block structure, the original
    space, and ``isometry``, the read-only (N, N) matrix Q = B K F^T, with
    K = u^T (x) u^T (so K vec(y) = vec(u^T y u)), B the structure's and F
    the space's flattened basis: Q takes the coordinates of a point y of
    the space to those of u^T y u.  Construction raises ShapeError unless
    u, space and structure are all p x p, DomainError naming a non-finite
    entry of u, and ConjugationError unless u is orthogonal, every u^T F_a u
    is in the block form (else naming the first a whose residual is above
    SPAN_TOL) and the dimensions are equal; an orthogonal u preserves the
    trace inner product, so Q is then an isometry.
    """

    u: np.ndarray
    structure: VStructure
    space: InvariantSpace
    isometry: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        space, structure = self.space, self.structure
        p = space.p
        if u.shape != (p, p) or structure.p != p:
            raise ShapeError(f"conjugation size mismatch: space p={p}, u {u.shape}, "
                             f"structure p={structure.p}")
        finite_norm(u, "u")
        ortho_resid = float(np.linalg.norm(u.T @ u - np.eye(p)))
        if ortho_resid > 1e-12:
            raise ConjugationError(f"u is not orthogonal (residual {ortho_resid:.3e})")
        conj = (u.T @ space.basis @ u).reshape(space.dim, p * p)
        flat = structure.flat
        q = flat @ conj.T
        resid = np.linalg.norm(conj - q.T @ flat, axis=1)
        over = np.flatnonzero(resid > SPAN_TOL)
        if over.size:
            a = int(over[0])
            raise ConjugationError(f"conjugated basis element {a} leaves the block form "
                                   f"(residual {resid[a]:.3e})", basis_index=a)
        if structure.dim != space.dim:
            raise ConjugationError(
                f"dimension mismatch: space has {space.dim}, block form has {structure.dim}"
            )
        q.setflags(write=False)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "isometry", q)

    def log_gamma(self, alpha: float) -> float:
        return log_gamma_v(self.structure, alpha)

    def log_delta_phi_stack(self, ys) -> list[tuple[float, float]]:
        """(log delta, log phi) at each point of the (m, p, p) stack ys of
        points of the original space.

        One ``span_coords`` call checks every point against the space's
        ``point_map`` and takes their coordinates, and one product with the
        isometry takes them to the factorization.  An error about a point of
        a stack of m > 1 starts "point j of m: ", j the first such point."""
        coords, _ = span_coords(self.space.point_map, ys, "point")
        out = []
        for j, c in enumerate((self.isometry @ coords).T.tolist()):
            try:
                out.append(_factor_coords(self.structure, c)[1:])
            except DualMembershipError as exc:
                raise DualMembershipError(in_stack(str(exc), j, coords.shape[1])) from None
        return out

    def log_delta_phi(self, y: np.ndarray) -> tuple[float, float]:
        """(log delta, log phi) at a point y of the original space: the stack
        of one."""
        return self.log_delta_phi_stack(np.asarray(y, dtype=float)[None])[0]

    def psi(self, y: np.ndarray) -> np.ndarray:
        """The primal point x of the original space with projection(x^{-1}) = y,
        in closed form.

        The realized point u^T y u is projection(T^T T) for the triangular
        factor T of ``factor_T``, and the triangular group acts on the primal
        cone by x -> t x t^T, so T^{-1} T^{-T} is in the realized cone and
        x = u T^{-1} T^{-T} u^T.  y is checked by ``span_coords`` as a stack
        of one.  The factor's entries scale as |y|^(1/2), so no step
        overflows where |y| and 1 / |y| do not.  A point past or on the
        boundary of the open dual cone raises DualMembershipError from the
        factorization; one off the space or with a non-finite entry raises
        DomainError.
        """
        coords, _ = span_coords(self.space.point_map, np.asarray(y, dtype=float)[None], "point")
        return self._psi_at(coords[:, 0])

    def _psi_at(self, c: np.ndarray) -> np.ndarray:
        """``psi`` at the point of the space with the finite coordinates c.
        The factor's coordinates give T in one product with
        ``triangular_basis``, and x = (u T^{-1})(u T^{-1})^T is projected
        onto the space, so it is exactly 0 off the support and equal within
        each orbit."""
        factor, _, _ = _factor_coords(self.structure, (self.isometry @ c).tolist())
        p = self.u.shape[0]
        t = (np.asarray(factor) @ self.structure.triangular_basis).reshape(p, p)
        w = self.u @ np.linalg.inv(t)
        return self.space.project(w @ w.T)


@lru_cache(maxsize=1)
def _stacked_scale_map(realizations: tuple[Realization, ...]) -> np.ndarray:
    """The rows Q F / 2 of every realization, in order: the map from vec(D)
    to the realized coordinates of projection(D) / 2 under each.  Built
    once per tuple of realizations, which hash by identity, in a one-entry
    cache, so no realization caches a map of its own."""
    stacked = np.vstack([r.isometry @ (0.5 * r.space.flat) for r in realizations])
    stacked.setflags(write=False)  # shared by every caller with these realizations
    return stacked


def log_delta_phi_at_scales(realizations, scales) -> list[list[tuple[float, float]]]:
    """(log delta, log phi) of each realization at projection(scale) / 2 for
    each p x p scale matrix, one row per realization; no scales give empty
    rows.

    A projected scale is in every space, so only the scales' shape
    (ShapeError) and finiteness (DomainError naming the entry) are checked.
    One product with the stacked scale map gives every realization's
    coordinates at every scale, and each realization's share of a column
    runs through its factorization.
    """
    realizations = tuple(realizations)
    scales = np.asarray(scales, dtype=float)
    if not realizations or not len(scales):
        return [[] for _ in realizations]
    p = realizations[0].u.shape[0]
    if scales.shape[1:] != (p, p):
        raise ShapeError(f"projected scale must be {p}x{p}, got {scales.shape[1:]}")
    m = len(scales)
    for j, scale in enumerate(scales):
        finite_norm(scale, in_stack("projected scale", j, m))
    # one scale a column: numpy multiplies by a transposed view of several
    # scales several times more slowly at these sizes
    coords = _stacked_scale_map(realizations) @ np.ascontiguousarray(scales.reshape(m, -1).T)
    columns = coords.T.tolist()
    rows, start = [], 0
    for r in realizations:
        stop = start + r.structure.dim
        rows.append([_factor_coords(r.structure, c[start:stop])[1:] for c in columns])
        start = stop
    return rows


def conjugate_space(space: InvariantSpace, u: np.ndarray, structure: VStructure) -> Realization:
    """The realization of the space by conjugation with u onto the
    structure's block form, checked as ``Realization`` checks it."""
    return Realization(u=u, structure=structure, space=space)


# ---------------------------------------------------------------------------
# deriving a realization from the space


def realize(space: InvariantSpace) -> Realization:
    """A checked block realization of the space, derived from one generic element.

    The element's coordinates come from ``random.Random(REALIZE_SEED)``.
    Each vertex orbit O contributes the eigenspaces of x[O,O] as blocks,
    eigenvalues closer than EIGEN_GAP_RTOL times the largest magnitude on
    O being one.  Blocks are ordered by their orbit's closed neighbourhood
    size |N[v]|, ascending, so the largest neighbourhood comes last; on a
    homogeneous graph the neighbourhoods along every edge are nested, which
    puts each vertex's later neighbours in one clique.  V[l,k] is the row
    space of the (l,k) blocks of u^T B_a u over the space's basis, by SVD,
    dropping singular values at or below RANK_TOL (the B_a have unit norm).
    The structure must pass validate_vstructure and conjugate_space, else
    CapabilityError naming the group's generators.
    """
    rng = random.Random(REALIZE_SEED)
    return _realize_at(space, [rng.gauss(0.0, 1.0) for _ in range(space.dim)])


def _realize_at(space: InvariantSpace, coords) -> Realization:
    """``realize`` with the generic element given by its coordinates."""
    x = space.from_coords(coords)
    nbhd = [len(space.graph.neighbors(v)) + 1 for v in range(1, space.p + 1)]
    orbits = sorted(([i - 1 for i, _ in orb] for orb in space.orbits if orb[0][0] == orb[0][1]),
                    key=lambda orbit: nbhd[orbit[0]])
    columns = []
    for orbit in orbits:
        values, vectors = np.linalg.eigh(x[np.ix_(orbit, orbit)])
        gap = EIGEN_GAP_RTOL * np.max(np.abs(values))
        cuts = [0, *(i for i in range(1, len(values)) if values[i] - values[i - 1] > gap),
                len(values)]
        for lo, hi in zip(cuts, cuts[1:]):
            col = np.zeros((space.p, hi - lo))
            col[orbit] = vectors[:, lo:hi]
            columns.append(col)
    u = np.hstack(columns)
    sizes = [c.shape[1] for c in columns]
    start = np.cumsum([0, *sizes])
    conj = u.T @ space.basis @ u
    subspaces = {}
    for k, l in combinations(range(1, len(sizes) + 1), 2):
        blocks = conj[:, start[l - 1]:start[l], start[k - 1]:start[k]]
        _, s, vt = np.linalg.svd(blocks.reshape(space.dim, -1), full_matrices=False)
        rank = int(np.sum(s > RANK_TOL))
        if rank:
            subspaces[(l, k)] = vt[:rank].reshape(rank, *blocks.shape[1:])
    structure = VStructure(sizes, subspaces)
    gens = ", ".join(g.cycle_string() for g in space.group.generators) or "e"
    if not validate_vstructure(structure).passed:
        raise CapabilityError(f"no block realization for the group generated by {gens}: "
                              f"the derived blocks {sizes} break the axioms")
    try:
        return conjugate_space(space, u, structure)
    except ConjugationError as exc:
        raise CapabilityError(f"no block realization for the group generated by "
                              f"{gens}: {exc}") from None
