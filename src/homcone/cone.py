"""Generic numeric evaluation of cone maps on an invariant space.

The primal cone is the intersection of the space with the positive definite
matrices; the dual cone is the set of points with positive pairing against
the closed primal cone.  The central object is the map sending a dual point
y to the unique primal maximizer of exp(-tr(xy)) det(x), computed here by a
damped Newton iteration on the convex objective tr(xy) - log det x.  From
that map everything else follows: the determinant functional, its Hessian
in basis coordinates, and the square-root-determinant factor, all carried
by the solution ``psi`` returns.  The Newton iteration runs on the
orthonormal coordinates of the space.  With x = L L^T and each basis
element B_a transformed by congruence, C_a = L^{-1} B_a L^{-T}, the
gradient is coords(y) - tr(C_a) and the metric at x,
tr(B_a x^{-1} B_b x^{-1}), is the Gram matrix <C_a, C_b> of the flattened
C_a; a trial point becomes a matrix only for its Cholesky factor.
``metric_matrix`` keeps the Kronecker form of that metric as the
reference.

The iteration starts at the inverse of the max-determinant positive
definite completion of the point, built along the perfect elimination order
of the space's support.  On an invariant space of a homogeneous graph, a
pattern space whose support is chordal, that start is the solution, and
the first iteration only certifies its gradient; a pivot of the completion
that is not positive certifies instead that the point is outside the open
dual cone.  Any other span, or a support with no perfect elimination
order, starts Newton from a multiple of the identity, as does a start
whose Cholesky factor fails.  The start reads the point's entries alone
and never calls a realization.

All determinant work is done in log space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DualMembershipError
from .invariant import InvariantSpace, span_coords

GRAD_TOL = 1e-11
MAX_ITER = 100
ARMIJO_C = 1e-4

# Optional sink for per-iteration Newton records, set by the CLI when verbose.
_trace_sink = None


def set_newton_trace(sink) -> None:
    """Install a callable receiving one dict per Newton iteration (or None)."""
    global _trace_sink
    _trace_sink = sink


@dataclass
class PsiResult:
    """Converged solution of the inverse-projection map at a dual point, with
    the functionals read off it: log delta, log phi and the metric at x_star,
    the Hessian of -log det there restricted to the space (whose inverse is
    the Hessian of -log delta at y).

    ``psi`` solves at y / scale, scale the Frobenius norm of y, and keeps
    the metric at that normalized point, ``normalized_metric``; ``metric``
    multiplies it by scale^2 when read, so a point whose metric overflows
    in its own units still gives a finite solution, residual and
    functionals.  ``residual`` is the Frobenius norm of
    projection(x_star^{-1}) - y, in the units of y."""

    x_star: np.ndarray
    coords: np.ndarray
    iterations: int
    residual: float
    log_delta: float
    log_phi: float
    normalized_metric: np.ndarray
    scale: float

    @property
    def metric(self) -> np.ndarray:
        """The metric at x_star: scale^2 times the normalized metric."""
        return (self.scale * self.scale) * self.normalized_metric


def _cholesky_or_none(x: np.ndarray):
    try:
        return np.linalg.cholesky(x)
    except np.linalg.LinAlgError:
        return None


def _logdet_from_chol(chol: np.ndarray) -> float:
    return 2.0 * float(np.log(chol.diagonal()).sum())


def metric_matrix(space: InvariantSpace, w: np.ndarray) -> np.ndarray:
    """Matrix of u -> projection of (w u w) in the orthonormal basis.

    Entry (a, b) is tr(B_a w B_b w) = vec(B_a)^T (w (x) w) vec(B_b).  With w
    the inverse of a primal point x this is the Hessian of -log det at x
    restricted to the space.  This Kronecker form is the reference for the
    Gram form ``psi`` computes its metric in; ``psi`` does not call it.
    """
    p = space.p
    w_kron_w = (w[:, None, :, None] * w[None, :, None, :]).reshape(p * p, p * p)
    flat = space.flat
    m = flat @ w_kron_w @ flat.T
    return 0.5 * (m + m.T)


def _completion_start(space: InvariantSpace, yn: np.ndarray) -> np.ndarray | None:
    """Coordinates of the inverse of the max-determinant completion of yn,
    or None when the space's support has no perfect elimination order.

    Along the order, vertex v with later neighbours L gives
    b_v = yn_LL^{-1} yn_Lv, the pivot d_v = yn_vv - yn_vL b_v and
    u_v = e_v - b_v, and the inverse completion is
    K = sum_v u_v u_v^T / d_v (Grone, Johnson, Sa and Wolkowicz 1984).  The
    vertices with equally many later neighbours are solved as one stack.
    An invariant space is a pattern space, so K lies in the space and
    solves projection(K^{-1}) = yn; every pivot is positive exactly when
    every clique block of yn is positive definite, which is membership in
    the open dual cone, so a failed pivot raises DualMembershipError.
    """
    groups = space.perfect_elimination
    if groups is None:
        return None
    flat_y = yn.reshape(-1)
    u = np.eye(space.p)
    flat_u = u.reshape(-1)
    d = yn.diagonal().copy()
    for group in groups:
        if not group.column.shape[1]:
            continue  # no later neighbour: the pivot is the diagonal entry
        y_col = flat_y[group.column]
        try:
            b = np.linalg.solve(flat_y[group.block], y_col[..., None])[..., 0]
        except np.linalg.LinAlgError:  # a singular block: no positive pivot
            d[group.vertices] = np.nan
            continue
        d[group.vertices] -= (y_col * b).sum(axis=1)
        flat_u[group.column] = -b
    if not (d > 0.0).all():
        raise DualMembershipError(
            "a clique block is not positive definite; "
            "point is not in the open dual cone"
        )
    return space.coords((u / d) @ u.T)


def psi(space: InvariantSpace, y: np.ndarray) -> PsiResult:
    """Solve projection(x^{-1}) = y for positive definite x in the space.

    The problem is solved on the Frobenius-normalized copy of y (the map is
    homogeneous of degree -1), with Newton steps on tr(xy) - log det x and a
    backtracking line search that enforces positive definiteness plus Armijo
    decrease.  A collapsed line search or stalled iteration certifies that y
    is outside the open dual cone.

    On an invariant space the iteration starts at the inverse
    max-determinant completion of the normalized point
    (``_completion_start``), which solves the equation when the support is
    chordal, so one iteration checks its gradient against GRAD_TOL and
    stops; a failed pivot of that completion raises DualMembershipError
    before any Newton step.  Any other span, a support with no perfect
    elimination order (a 4-cycle, say) or a start with no Cholesky factor
    starts at a multiple of the identity.

    The iterate and the normalized point are carried as coordinates, so
    tr(xy) is their dot product and the gradient's Frobenius norm is its
    coordinate norm.  Each iteration inverts the iterate's Cholesky factor L
    once and transforms the whole basis with it, C_a = L^{-1} B_a L^{-T}.
    With w = x^{-1} = L^{-T} L^{-1}, coords(w)_a = tr(C_a) gives the
    gradient, and tr(B_a w B_b w) = <C_a, C_b> gives the metric as the Gram
    matrix of the flattened C_a.  The metric's Cholesky factor must exist
    (else the iteration has diverged); the Newton step is one solve against
    the metric.  The accepted trial point's factor and objective value carry
    over to the next iteration.  The functionals in the result are read off
    the last iterate's factor and metric, and the residual is taken at the
    normalized point by ``math.hypot`` and multiplied by scale, so none of
    them overflows; the result keeps the normalized metric, and rescaling x
    by 1/scale multiplies it by scale^2 when ``PsiResult.metric`` is read.
    """
    coords_y, scale = span_coords(space.point_map, y, "dual argument")
    y = np.asarray(y, dtype=float)
    if scale == 0.0 or np.trace(y) <= 0.0:
        raise DualMembershipError("trace must be positive on the dual cone")
    p, dim = space.p, space.dim
    basis, flat = space.basis, space.flat
    yn = y / scale
    yc = coords_y / scale
    xc = _completion_start(space, yn) if isinstance(space, InvariantSpace) else None
    chol = None if xc is None else _cholesky_or_none(space.from_coords(xc))
    if chol is None:
        xc = (p / float(np.trace(yn))) * space.coords(np.eye(p))
        chol = np.linalg.cholesky(space.from_coords(xc))  # a multiple of the identity
    f = float(xc @ yc) - _logdet_from_chol(chol)
    iterations = 0
    for iterations in range(1, MAX_ITER + 1):
        chol_inv = np.linalg.inv(chol)
        congruent = (chol_inv @ basis @ chol_inv.T).reshape(dim, p * p)
        coords_w = congruent[:, :: p + 1].sum(axis=1)  # traces of the C_a
        grad = yc - coords_w
        grad_norm = math.sqrt(float(grad @ grad))
        if _trace_sink is not None:
            _trace_sink({"iteration": iterations, "gradient_norm": grad_norm})
        m = congruent @ congruent.T
        try:
            m_chol = np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            # the metric only degenerates when the iterate runs to the cone
            # boundary or to infinity, i.e. the objective has no minimizer
            raise DualMembershipError(
                "iteration diverged; point is not in the open dual cone"
            ) from None
        if grad_norm <= GRAD_TOL:
            break
        step = -np.linalg.solve(m, grad)
        slope = float(grad @ step)
        # near the optimum the predicted decrease drops below the resolution
        # of f itself; the noise floor keeps the line search from stalling
        noise = 16.0 * np.finfo(float).eps * max(1.0, abs(f))
        t = 1.0
        while True:
            cand = xc + t * step
            cand_chol = _cholesky_or_none((cand @ flat).reshape(p, p))
            if cand_chol is not None:
                f_cand = float(cand @ yc) - _logdet_from_chol(cand_chol)
                if f_cand <= f + ARMIJO_C * t * slope + noise:
                    break
            t *= 0.5
            if t < 1e-14:
                raise DualMembershipError(
                    "line search collapsed; point is not in the open dual cone"
                )
        xc, chol, f = cand, cand_chol, f_cand
    else:
        raise ConvergenceError(
            f"no convergence after {MAX_ITER} iterations "
            f"(gradient norm {grad_norm:.3e})",
            iterations=MAX_ITER,
            residual=grad_norm * scale,
        )
    residual = scale * math.hypot(*(space.from_coords(coords_w) - yn).reshape(-1).tolist())
    return PsiResult(
        x_star=space.from_coords(xc) / scale,
        coords=xc / scale,
        iterations=iterations,
        residual=residual,
        log_delta=p * math.log(scale) - _logdet_from_chol(chol),
        log_phi=-0.5 * _logdet_from_chol(m_chol) - dim * math.log(scale),
        normalized_metric=m,
        scale=scale,
    )


def log_delta(space: InvariantSpace, y: np.ndarray) -> float:
    """log of the reciprocal determinant of the primal solution at y."""
    return psi(space, y).log_delta


def hessian_matrix(space: InvariantSpace, y: np.ndarray) -> np.ndarray:
    """Hessian of -log(delta) at y in the orthonormal basis (symmetric PD).

    Computed as the inverse of the metric matrix at the primal solution,
    which is the derivative identity obtained by differentiating
    projection(x^{-1}) = y along the map, at the normalized point, then
    divided by scale^2, so that it underflows where the metric overflows.
    """
    res = psi(space, y)
    s = np.linalg.inv(res.normalized_metric) / res.scale / res.scale
    return 0.5 * (s + s.T)


def log_phi(space: InvariantSpace, y: np.ndarray) -> float:
    """log of the square root determinant of the Hessian of -log(delta)."""
    return psi(space, y).log_phi


def in_primal_cone(space: InvariantSpace, x: np.ndarray) -> bool:
    """Membership in the open primal cone, via symmetric factorization."""
    span_coords(space.point_map, x, "primal candidate")
    return _cholesky_or_none(np.asarray(x, dtype=float)) is not None


def in_dual_cone(space: InvariantSpace, y: np.ndarray) -> bool:
    """Membership in the open dual cone, certified by a converged interior
    solve; a point off the space or with a non-finite entry is not a
    candidate and raises DomainError."""
    try:
        psi(space, y)
    except (DualMembershipError, ConvergenceError):
        return False
    return True
