"""Self-check suites wired to the command line: cross-path consistency checks.

The fast level re-checks everything that has two independent computation
routes: the axioms and conjugation of each benchmark model's derived
realization, the triangular-factorization functionals against the generic
Newton-based ones, and the gamma integral against the classical full-cone
value.  The mc level checks the factorization identity for the normalizing
integral against Monte Carlo on the low-dimensional cones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import cone
from .errors import HomconeError
from .graphs import Graph, Permutation, PermutationGroup
from .invariant import build_invariant_space
from .oracle import DEFAULT_SEED, mc_cone_integral
from .realization import (
    conjugate_space,
    full_sym_structure,
    log_gamma_v,
    ray_structure,
    validate_vstructure,
)
from .selection import build_butterfly_models

CROSS_PATH_RTOL = 1e-8
CROSS_PATH_POINTS = 3
CROSS_PATH_SEED = 20240601
SIEGEL_TOL = 1e-10
MC_SAMPLES = 200_000


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def random_dual_points(space, rng, m):
    """m seeded points of the open dual cone of the space, as an (m, p, p)
    stack: the projections of A A^T + 0.1 I for m standard normal p x p
    matrices A, drawn in one call and projected as one stack."""
    p = space.p
    a = rng.standard_normal((m, p, p))
    # each point a row vector of its own, so that it is projected as it
    # would be alone, whatever m is
    w = (a @ a.transpose(0, 2, 1) + 0.1 * np.eye(p)).reshape(m, 1, p * p)
    return (w @ space.flat.T @ space.flat).reshape(m, p, p)


def check_registry(models) -> list[CheckResult]:
    """Axioms and conjugation validity of each model's realization, checked
    again on every call."""
    results = []
    for m in models:
        real = m.realization
        report = validate_vstructure(real.structure)
        if not report.passed:
            bad = [v.detail for vs in report.violations.values() for v in vs]
            results.append(CheckResult(f"axioms {m.label}", False, "; ".join(bad)))
        else:
            results.append(CheckResult(f"axioms {m.label}", True, "V1 V2 V3 hold"))
        try:
            conjugate_space(m.space, real.u, real.structure)
            results.append(CheckResult(f"conjugation {m.label}", True, "block form matched"))
        except HomconeError as exc:
            results.append(CheckResult(f"conjugation {m.label}", False, str(exc)))
    return results


def check_cross_path(models) -> list[CheckResult]:
    """Triangular-factorization functionals of each model's realization
    against the Newton-based route, at CROSS_PATH_POINTS seeded dual points
    per model, which each route takes as one stack, Newton first; an error
    from either route fails that model's check, and names the point in the
    stack it is about.  Each model's points are drawn before either route
    runs, so a failure leaves the points of later models unchanged."""
    results = []
    rng = np.random.default_rng(CROSS_PATH_SEED)
    for m in models:
        points = random_dual_points(m.space, rng, CROSS_PATH_POINTS)
        try:
            newton = cone.psi_stack(m.space, points)
            fast = m.realization.log_delta_phi_stack(points)
            errs = [max(abs(num - f) / max(1.0, abs(num))
                        for num, f in zip((res.log_delta, res.log_phi), ld_lp))
                    for res, ld_lp in zip(newton, fast)]
            passed = all(err <= CROSS_PATH_RTOL for err in errs)
            detail = f"worst relative disagreement {max(errs):.2e} over {CROSS_PATH_POINTS} points"
        except HomconeError as exc:
            passed, detail = False, str(exc)
        results.append(CheckResult(f"cross-path {m.label}", passed, detail))
    return results


def log_gamma_full_sym_classical(p: int, alpha: float) -> float:
    """Classical full-cone value times the trace-measure power of two."""
    n_dim = p * (p + 1) // 2
    total = 0.5 * (n_dim - p) * math.log(2.0)
    total += 0.25 * p * (p - 1) * math.log(math.pi)
    for j in range(1, p + 1):
        total += math.lgamma(alpha + (p + 1) / 2.0 - (j - 1) / 2.0)
    return total


def check_siegel() -> list[CheckResult]:
    """Gamma integral of the full cone against the classical closed form."""
    results = []
    for p in (2, 3, 4):
        structure = full_sym_structure(p)
        worst = 0.0
        for alpha in (0.0, 0.5, 1.0, 4.5):
            lhs = log_gamma_v(structure, alpha)
            rhs = log_gamma_full_sym_classical(p, alpha)
            worst = max(worst, abs(lhs - rhs))
        results.append(
            CheckResult(
                f"siegel p={p}",
                worst <= SIEGEL_TOL,
                f"worst log disagreement {worst:.2e}",
            )
        )
    return results


def mc_reference_cases():
    """(name, space, realization, y, alpha) triples for the integral identity."""
    cases = []

    k2 = Graph.build(["a", "b"], [(1, 2)])
    z2 = build_invariant_space(k2, PermutationGroup.trivial(2))
    real2 = conjugate_space(z2, np.eye(2), full_sym_structure(2))
    cases.append(("full sym p=2", z2, real2, np.eye(2), 1.0))

    empty3 = Graph.build(["a", "b", "c"], [])
    s3 = PermutationGroup.generate(
        3, [Permutation((2, 1, 3)), Permutation((2, 3, 1))]
    )
    z_ray = build_invariant_space(empty3, s3)
    real_ray = conjugate_space(z_ray, np.eye(3), ray_structure(3))
    cases.append(("ray p=3", z_ray, real_ray, 1.3 * np.eye(3), 1.0))

    m7 = next(m for m in build_butterfly_models() if m.label == "G7")
    cases.append(("hub-symmetric space", m7.space, m7.realization, 0.5 * np.eye(5), 0.5))

    return cases


def check_mc(samples: int = MC_SAMPLES, seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Factorization identity against Monte Carlo on three small cones."""
    results = []
    for name, space, realization, y, alpha in mc_reference_cases():
        ld, lp = realization.log_delta_phi(y)
        claim = math.exp(realization.log_gamma(alpha) + lp - alpha * ld)
        est = mc_cone_integral(space, alpha, y, samples=samples, seed=seed)
        z = abs(est.value - claim) / est.std_error if est.std_error > 0 else math.inf
        detail = (
            f"claim {claim:.6g} vs estimate {est.value:.6g} "
            f"+- {est.std_error:.2g} (z = {z:.2f}), "
            f"ESS {100.0 * est.effective_samples / est.samples:.1f} %"
        )
        if est.warning:
            detail += f"; {est.warning}"
        results.append(CheckResult(f"mc {name}", z <= 3.0, detail))
    return results


def run_verification(level: str, samples: int | None = None,
                     seed: int | None = None) -> list[CheckResult]:
    """Run the fast or the mc suite; samples and seed apply to mc only and
    default to MC_SAMPLES and the oracle's DEFAULT_SEED."""
    if level == "fast":
        if samples is not None or seed is not None:
            raise ValueError("samples and seed apply to the mc level only")
        try:
            models = build_butterfly_models()
            for m in models:
                m.realization  # derived once per process; a failure fails the load
        except (HomconeError, ValueError, OSError, KeyError) as exc:
            return [CheckResult("registry load", False, str(exc))] + check_siegel()
        return check_registry(models) + check_cross_path(models) + check_siegel()
    if level == "mc":
        return check_mc(samples=MC_SAMPLES if samples is None else samples,
                        seed=DEFAULT_SEED if seed is None else seed)
    raise ValueError(f"unknown verification level {level!r}")
