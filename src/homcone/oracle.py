"""Independent verification engine: Monte Carlo cone integrals and stencils.

The importance sampler estimates integrals of exp(-tr(xy)) det(x)^alpha over
the primal cone of an invariant space.  For alpha > 0 the proposal is a
multivariate Student-t in basis coordinates centered at the integrand's
interior mode with the Laplace-matched scale matrix; the polynomial tails
dominate the exponentially decaying integrand, which keeps the importance
weights bounded (a Gaussian proposal is biased low in finite samples here
because rare huge weights in its thin tails go unsampled).  For alpha = 0
there is no interior mode, so the component along the identity ray is drawn
from its exact exponential marginal and the cross-section from a Student-t
whose width scales with the ray coordinate, matching the linear growth of
the cone's slices.  Proposals landing outside the cone get weight zero,
which keeps the estimator unbiased.

Cone membership and the log-determinant come from one symmetric elimination
(LDL^T without pivoting) run across the sample axis: each of the
p(p+1)/2 upper-triangle entries is a contiguous row over the samples, and
every update is one array operation on such a row.  By Sylvester's
criterion a symmetric matrix is positive definite exactly when every pivot
is positive, and then log det is the sum of the pivots' logs.  The test
works on matrix entries alone; it calls neither the Newton solve nor any
realization.

Sampling is chunked with seeds spawned per chunk from the master seed and
chunk sums merged in a fixed order, so estimates are reproducible for a
given (seed, samples) pair.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from . import cone
from .errors import DomainError, ScopeError, StencilError
from .invariant import InvariantSpace

MC_DIM_LIMIT = 7
DEFAULT_SAMPLES = 2_000_000
DEFAULT_SEED = 0xC0FFEE
CHUNK = 250_000
PROPOSAL_DF = 6.0
ESS_WARN_FRACTION = 0.01


@dataclass
class McEstimate:
    value: float
    std_error: float
    samples: int
    seed: int
    effective_samples: float
    warning: str | None = None


def _estimate_from_sums(sum_w: float, sum_w2: float, n: int, seed: int) -> McEstimate:
    mean = sum_w / n
    var = max(sum_w2 / n - mean * mean, 0.0)
    ess = (sum_w * sum_w / sum_w2) if sum_w2 > 0 else 0.0
    warning = None
    if ess < ESS_WARN_FRACTION * n:
        warning = (
            f"effective sample size {ess:.1f} is below "
            f"{ESS_WARN_FRACTION:.0%} of {n} draws; the variance estimate "
            "may be unreliable"
        )
    return McEstimate(
        value=float(mean),
        std_error=float(np.sqrt(var / n)),
        samples=n,
        seed=seed,
        effective_samples=float(ess),
        warning=warning,
    )


def _pivot_logdet(upper: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Positive-definiteness and log det of a batch of symmetric p x p matrices.

    ``upper`` holds the upper-triangle entries, one row per entry in
    ``np.triu_indices(p)`` order and one column per matrix; it is overwritten.
    Returns (pd, logdet) with logdet = 0 where pd is False.  A matrix leaves
    pd at its first pivot that is not positive; from there on its pivots are
    taken as +inf, so its multipliers are 0 and its entries stop changing,
    which keeps the elimination free of overflow and division by zero.
    """
    rows = {ij: upper[r] for r, ij in enumerate(zip(*np.triu_indices(p)))}
    m = upper.shape[1]
    pd = np.ones(m, dtype=bool)
    logdet = np.zeros(m)
    f = np.empty(m)
    tmp = np.empty(m)
    for k in range(p):
        d = rows[k, k]
        pd &= d > 0.0
        d = np.where(pd, d, np.inf)
        logdet += np.log(d)
        for i in range(k + 1, p):
            np.divide(rows[k, i], d, out=f)
            for j in range(i, p):
                np.multiply(f, rows[k, j], out=tmp)
                rows[i, j] -= tmp
    return pd, np.where(pd, logdet, 0.0)


def _log_f_batch(space, coords, y_coords, alpha):
    """Log integrand per sample; -inf outside the open primal cone.

    Only the upper triangle of each sample's matrix is formed, as an
    (p(p+1)/2, m) array of contiguous rows, and ``_pivot_logdet`` tests
    membership by the signs of its elimination pivots.
    """
    p = space.p
    iu, ju = np.triu_indices(p)
    upper = space.flat[:, iu * p + ju].T @ coords.T
    pd, logdet = _pivot_logdet(upper, p)
    log_f = alpha * logdet - coords @ y_coords
    return np.where(pd, log_f, -np.inf)


def _student_t_log_norm(df: float, dim: int, chol: np.ndarray) -> float:
    return float(
        math.lgamma((df + dim) / 2.0)
        - math.lgamma(df / 2.0)
        - 0.5 * dim * np.log(df * np.pi)
        - np.sum(np.log(np.diag(chol)))
    )


def mc_cone_integral(
    space: InvariantSpace,
    alpha: float,
    y: np.ndarray,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> McEstimate:
    """Importance-sampling estimate of the cone integral at a dual point."""
    try:
        samples = operator.index(samples)
    except TypeError:
        raise DomainError(f"sample count must be an integer, got {samples!r}") from None
    if samples < 2:
        # a standard error needs at least two draws
        raise DomainError(f"sample count must be >= 2, got {samples}")
    try:
        seed = operator.index(seed)
    except TypeError:
        raise DomainError(f"seed must be an integer, got {seed!r}") from None
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    n_dim = space.dim
    if n_dim > MC_DIM_LIMIT:
        raise ScopeError(
            f"Monte Carlo integration is limited to {MC_DIM_LIMIT} dimensions "
            f"(got {n_dim}); variance is not controlled beyond that"
        )
    if not (math.isfinite(alpha) and alpha >= 0):
        raise DomainError(f"integrand exponent must be finite and >= 0, got {alpha}")
    y = np.asarray(y, dtype=float)
    y_coords = space.coords(y)
    df = PROPOSAL_DF

    if alpha > 0:
        res = cone.psi(space, y / alpha)
        mu = res.coords
        scale = np.linalg.inv(alpha * res.metric)
        chol = np.linalg.cholesky(0.5 * (scale + scale.T))
        log_norm = _student_t_log_norm(df, n_dim, chol)

        def draw_and_weigh(rng, m):
            z = rng.standard_normal((m, n_dim))
            u = 2.0 * rng.standard_gamma(df / 2.0, m)
            factor = np.sqrt(df / u)
            coords = mu + (z @ chol.T) * factor[:, None]
            mahal = np.sum(z * z, axis=1) * df / u
            log_q = log_norm - 0.5 * (df + n_dim) * np.log1p(mahal / df)
            log_f = _log_f_batch(space, coords, y_coords, alpha)
            return np.exp(log_f - log_q)

    else:
        ray = np.eye(space.p) / np.sqrt(space.p)
        e_hat = space.coords(ray)
        rate = float(e_hat @ y_coords)
        if rate <= 0:
            raise DomainError("dual pairing with the identity ray must be positive")
        ref = cone.psi(space, 2.0 * y)
        scale_full = np.linalg.inv(0.5 * ref.metric)
        s_ref = float(e_hat @ ref.coords)
        full = np.linalg.qr(np.concatenate([e_hat[:, None], np.eye(n_dim)], axis=1))[0]
        q_perp = full[:, 1:n_dim]
        n_perp = n_dim - 1
        if n_perp:
            scale_perp = q_perp.T @ scale_full @ q_perp
            chol_perp = np.linalg.cholesky(0.5 * (scale_perp + scale_perp.T))
            log_norm_perp = _student_t_log_norm(df, n_perp, chol_perp)

        def draw_and_weigh(rng, m):
            s = np.maximum(-np.log1p(-rng.random(m)) / rate, 1e-300)
            coords = s[:, None] * e_hat[None, :]
            log_q = np.log(rate) - rate * s
            if n_perp:
                z = rng.standard_normal((m, n_perp))
                u = 2.0 * rng.standard_gamma(df / 2.0, m)
                factor = np.sqrt(df / u)
                ray_scale = s / s_ref
                perp = (z @ chol_perp.T) * (factor * ray_scale)[:, None]
                coords = coords + perp @ q_perp.T
                mahal = np.sum(z * z, axis=1) * df / u
                log_q = log_q + (
                    log_norm_perp
                    - 0.5 * (df + n_perp) * np.log1p(mahal / df)
                    - n_perp * np.log(ray_scale)
                )
            log_f = _log_f_batch(space, coords, y_coords, 0.0)
            return np.exp(log_f - log_q)

    master = np.random.SeedSequence(seed)
    n_chunks = (samples + CHUNK - 1) // CHUNK
    children = master.spawn(n_chunks)
    sum_w = 0.0
    sum_w2 = 0.0
    done = 0
    for child in children:
        m = min(CHUNK, samples - done)
        rng = np.random.Generator(np.random.PCG64(child))
        w = draw_and_weigh(rng, m)
        sum_w += float(np.sum(w))
        sum_w2 += float(np.sum(w * w))
        done += m
    return _estimate_from_sums(sum_w, sum_w2, samples, seed)


def finite_diff_gradient(f, space: InvariantSpace, y: np.ndarray, step: float = 1e-5):
    """Central-difference gradient of a scalar field in basis coordinates."""
    grad = np.zeros(space.dim)
    for a in range(space.dim):
        h = step * space.basis[a]
        try:
            grad[a] = (f(y + h) - f(y - h)) / (2.0 * step)
        except Exception as exc:
            raise StencilError(f"evaluation failed at gradient stencil {a}: {exc}") from exc
    return grad


def finite_diff_hessian(f, space: InvariantSpace, y: np.ndarray, step: float = 1e-4):
    """Central-difference Hessian of a scalar field, symmetrized."""
    n_dim = space.dim
    hess = np.zeros((n_dim, n_dim))
    try:
        f0 = f(y)
        for a in range(n_dim):
            ha = step * space.basis[a]
            hess[a, a] = (f(y + ha) - 2.0 * f0 + f(y - ha)) / (step * step)
            for b in range(a + 1, n_dim):
                hb = step * space.basis[b]
                val = (
                    f(y + ha + hb) - f(y + ha - hb) - f(y - ha + hb) + f(y - ha - hb)
                ) / (4.0 * step * step)
                hess[a, b] = hess[b, a] = val
    except StencilError:
        raise
    except Exception as exc:
        raise StencilError(f"evaluation failed at a Hessian stencil point: {exc}") from exc
    return 0.5 * (hess + hess.T)
