"""Independent ground truth for everything the training loop approximates.

Estimators here deliberately take a different route than the production code
they check: divergences are evaluated as plain Monte-Carlo averages of
f(p/q) under q, and the analytic score-difference gradient is compared
against central finite differences of the divergence itself. The gate's
students are isotropic affine maps x = a z + b, whose perturbed laws are
one-component mixtures, so teacher and student densities and scores both go
through `teacher`'s mixture functions. Those laws are Gaussian, so the gate's
reference divergence and the weighting-variance curve are deterministic
Gauss-Hermite expectations rather than Monte-Carlo averages.

`ModeCoverage` and `mode_coverage` are defined in `teacher`, next to the
mixtures they measure, and re-exported here.
"""

import math
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from . import rng as rngmod
from .divergence import DivergenceSpec, catalog, weight_h_log
from .errors import DomainError, NumericsError
from .teacher import (
    AffineGenerator,
    IsotropicGaussianMixture,
    ModeCoverage,
    affine_pushforward,
    draw,
    log_density,
    mode_coverage,
    perturb,
    score,
)

__all__ = [
    "MCEstimate",
    "GradCheckReport",
    "ModeCoverage",
    "mc_f_divergence",
    "theorem1_grad_check",
    "normalized_variance_curve",
    "weight_score_map",
    "mode_coverage",
    "gradcheck_cases",
]

_TRIM_BUDGET = 1e-3  # fraction of non-finite f values tolerated (then dropped)
# A gate report also passes when the two gradients differ by at most this
# many standard errors of the analytic side.
SE_MULT = 3.0
_GH_NODES = 160  # Gauss-Hermite nodes per axis


@dataclass(frozen=True)
class MCEstimate:
    value: float
    se: float
    n_used: int


@dataclass(frozen=True)
class GradCheckReport:
    """Analytic-vs-finite-difference gradient comparison for one bias coord."""

    kind: str
    sigma: float
    param_index: int
    grad_mc: float
    se_mc: float
    grad_fd: float

    @property
    def rel_error(self) -> float:
        return abs(self.grad_mc - self.grad_fd) / max(
            abs(self.grad_mc), abs(self.grad_fd), 1e-8
        )

    def passes(self, rel_tol: float = 0.05) -> bool:
        return (
            self.rel_error <= rel_tol
            or abs(self.grad_mc - self.grad_fd) <= SE_MULT * self.se_mc
        )


def _f_values_from_log_ratio(spec: DivergenceSpec, log_r: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):
        return np.asarray(spec.f_log(log_r), dtype=float)


def _gauss_hermite(d: int):
    """Tensor-grid nodes (n, d) and weights (n,) with sum_j w_j g(x_j)
    approximating E[g(x)] for x ~ N(0, I_d)."""
    if d > 2:
        raise DomainError(f"the Gauss-Hermite grid has {_GH_NODES}**d nodes; d={d} exceeds 2")
    x, w = np.polynomial.hermite_e.hermegauss(_GH_NODES)
    w = w / math.sqrt(2.0 * math.pi)
    nodes = np.stack([a.ravel() for a in np.meshgrid(*([x] * d), indexing="ij")], axis=1)
    weights = np.prod(np.meshgrid(*([w] * d), indexing="ij"), axis=0).ravel()
    return nodes, weights


def _trimmed_mean_se(values: np.ndarray, what: str) -> MCEstimate:
    finite = np.isfinite(values)
    n_bad = int(values.size - finite.sum())
    if n_bad > _TRIM_BUDGET * values.size:
        raise NumericsError(
            f"{what}: {n_bad}/{values.size} non-finite values exceeds the "
            f"{_TRIM_BUDGET:.1%} trim budget"
        )
    kept = values[finite]
    return MCEstimate(
        value=float(np.mean(kept)),
        se=float(np.std(kept, ddof=1) / math.sqrt(kept.size)),
        n_used=int(kept.size),
    )


def mc_f_divergence(kind, p: IsotropicGaussianMixture, q: IsotropicGaussianMixture,
                    n: int, seed: int) -> MCEstimate:
    """Monte-Carlo D_f(p || q) = E_q[f(p/q)] between two mixtures, evaluated
    in log-ratio form on n draws from q.

    Up to 0.1% non-finite f values (tail underflow at sigma=0) are trimmed;
    more is an error.
    """
    if n < 100:
        raise DomainError(f"mc_f_divergence needs n >= 100, got {n}")
    spec = catalog(kind)
    x = draw(q, int(n), rngmod.stream(seed, 0xD1))
    log_r = log_density(p, x) - log_density(q, x)
    values = _f_values_from_log_ratio(spec, log_r)
    return _trimmed_mean_se(values, f"mc_f_divergence[{spec.kind}]")


def theorem1_grad_check(kind, teacher: IsotropicGaussianMixture,
                        gen: AffineGenerator, sigma: float, n: int, seed: int,
                        fd_step: float = 1e-3) -> List[GradCheckReport]:
    """Check the analytic divergence gradient against finite differences.

    The student is affine, so its perturbed law, score and the exact density
    ratio are closed form. The analytic side is the Monte-Carlo average of
    -h(r)(s_teacher - s_student) over x = a z + b + sigma eps; the reference
    side is a central finite difference over each bias coordinate of
    D_f(b) = E_q[f(p/q)], a Gauss-Hermite sum over the Gaussian law
    q = N(b, (a^2 + sigma^2) I).
    """
    spec = catalog(kind)
    d = teacher.dim
    if gen.dim != d:
        raise DomainError("teacher and generator dimensions differ")
    nodes, weights = _gauss_hermite(d)
    s = float(sigma)
    half = max(int(n) // 2, 1)
    gen_stream = rngmod.stream(seed, 0x71)
    z0 = gen_stream.standard_normal((half, gen.latent_dim))
    eps0 = gen_stream.standard_normal((half, d))
    # Antithetic pairing: (z, eps) and (-z, -eps) share the draw, halving the
    # odd-component variance that otherwise dominates the estimator.
    z = np.concatenate([z0, -z0])
    eps = np.concatenate([eps0, -eps0])

    def q_at(bias):
        return affine_pushforward(AffineGenerator(gen.scale, bias), s)

    # Analytic side (the gradient the training loop follows).
    x = gen.scale * z + gen.bias + s * eps
    q_law = q_at(gen.bias)
    log_r = log_density(teacher, x, s) - log_density(q_law, x)
    h = weight_h_log(spec, log_r)
    diff = score(perturb(teacher, s), x) - score(q_law, x)
    values = -h[:, None] * diff
    pairs = 0.5 * (values[:half] + values[half:])
    grad_mc = pairs.mean(axis=0)
    se_mc = pairs.std(axis=0, ddof=1) / math.sqrt(half)
    # Underpowered regime: clearly non-zero gradient but SE above 20% of it.
    noisy = (se_mc > 0.2 * np.abs(grad_mc)) & (np.abs(grad_mc) > 3.0 * se_mc)
    if np.any(noisy):
        raise NumericsError(
            f"theorem-1 check for {spec.kind} at sigma={s}: standard error above "
            "20% of a non-zero gradient; increase n"
        )

    spread = math.sqrt(gen.scale**2 + s**2) * nodes

    def divergence_at(bias):
        pts = bias + spread
        f = _f_values_from_log_ratio(
            spec, log_density(teacher, pts, s) - log_density(q_at(bias), pts))
        if not np.all(np.isfinite(f)):
            raise NumericsError(
                f"finite-difference side for {spec.kind}: non-finite f at a quadrature node"
            )
        return float(weights @ f)

    reports = []
    for k in range(d):
        shift = np.zeros(d)
        shift[k] = fd_step
        grad_fd = (divergence_at(gen.bias + shift) - divergence_at(gen.bias - shift)) / (
            2.0 * fd_step)
        reports.append(
            GradCheckReport(
                kind=spec.kind,
                sigma=s,
                param_index=k,
                grad_mc=float(grad_mc[k]),
                se_mc=float(se_mc[k]),
                grad_fd=grad_fd,
            )
        )
    return reports


def normalized_variance_curve(kind, mean_gaps: Sequence[float]) -> List[float]:
    """Var_q(h(p/q) / E_q[h]) for 1-D unit Gaussians p = N(0,1), q = N(d,1).

    The scale-invariant variance of the weighting function as the teacher/
    student gap d grows, by Gauss-Hermite quadrature over q; constant-h
    divergences give exactly zero.
    """
    spec = catalog(kind)
    nodes, weights = _gauss_hermite(1)
    total = weights @ np.ones_like(weights)
    out = []
    for d in mean_gaps:
        x = float(d) + nodes[:, 0]
        # log r for N(0,1) vs N(d,1): quadratic difference, exact; a gap
        # so large that it overflows is rejected by weight_h_log
        with np.errstate(over="ignore", invalid="ignore"):
            log_r = 0.5 * (np.square(x - float(d)) - np.square(x))
        h = np.asarray(weight_h_log(spec, log_r), dtype=float)
        m1 = (weights @ h) / total
        if m1 <= 0.0:
            raise NumericsError(f"degenerate weighting for {spec.kind}")
        out.append(float((weights @ np.square(h - m1)) / total / m1**2))
    return out


def weight_score_map(kind, teacher: IsotropicGaussianMixture,
                     student: IsotropicGaussianMixture, sigma: float,
                     grid: np.ndarray):
    """Per-grid-point score-difference norm and weighting value.

    Returns (score_diff_norm, h_values) for the exact perturbed laws; used to
    visualize where the weighting suppresses unreliable score differences.
    """
    pts = np.asarray(grid, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != teacher.dim:
        raise DomainError("grid must be (n, dim) points")
    spec = catalog(kind)
    s = float(sigma)
    diff = score(teacher, pts, s) - score(student, pts, s)
    log_r = log_density(teacher, pts, s) - log_density(student, pts, s)
    h = np.asarray(weight_h_log(spec, log_r), dtype=float)
    return np.linalg.norm(diff, axis=1), h


def gradcheck_cases():
    """Teacher/student pairs for the standing gradient gate.

    Both are 2-D with bias gaps large enough that every divergence has a
    clearly non-zero gradient at sigma in {0, 0.5, 2}, yet ratios stay mild
    so n = 1e5 gives comfortably sub-tolerance standard errors.
    """
    single = IsotropicGaussianMixture(
        weights=np.array([1.0]),
        means=np.array([[0.0, 0.0]]),
        variances=np.array([1.0]),
    )
    bimodal = IsotropicGaussianMixture(
        weights=np.array([0.6, 0.4]),
        means=np.array([[-1.2, 0.0], [1.4, 0.8]]),
        variances=np.array([0.5, 0.9]),
    )
    return {
        "single": (single, AffineGenerator(scale=1.0, bias=np.array([1.2, 1.0]))),
        "bimodal": (bimodal, AffineGenerator(scale=1.3, bias=np.array([0.9, -0.8]))),
    }
