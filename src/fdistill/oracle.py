"""Independent ground truth for everything the training loop approximates.

Estimators here deliberately take a different route than the production code
they check: divergences are evaluated as plain Monte-Carlo averages of
f(p/q) under q, and the analytic score-difference gradient is compared
against central finite differences of the divergence itself, on common random
numbers so the comparison is sharp at feasible sample sizes. The gate's
students are isotropic affine maps x = a z + b, whose perturbed laws are
one-component mixtures, so teacher and student densities and scores both go
through `teacher`'s mixture functions.

`ModeCoverage` and `mode_coverage` are defined in `teacher`, next to the
mixtures they measure, and re-exported here.
"""

import math
from dataclasses import dataclass
from typing import Callable, List, Sequence

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
    "mixture_sampler",
    "theorem1_grad_check",
    "normalized_variance_curve",
    "weight_score_map",
    "mode_coverage",
    "gradcheck_cases",
]

_TRIM_BUDGET = 1e-3  # fraction of non-finite f values tolerated (then dropped)


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
    se_fd: float

    @property
    def rel_error(self) -> float:
        return abs(self.grad_mc - self.grad_fd) / max(
            abs(self.grad_mc), abs(self.grad_fd), 1e-8
        )

    def passes(self, rel_tol: float = 0.05, se_mult: float = 3.0) -> bool:
        combined_se = math.hypot(self.se_mc, self.se_fd)
        return (
            self.rel_error <= rel_tol
            or abs(self.grad_mc - self.grad_fd) <= se_mult * combined_se
        )


def _f_values_from_log_ratio(spec: DivergenceSpec, log_r: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):
        return np.asarray(spec.f_log(log_r), dtype=float)


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


def mc_f_divergence(kind, sample_q: Callable, log_p: Callable, log_q: Callable,
                    n: int, seed: int) -> MCEstimate:
    """Monte-Carlo D_f(p || q) = E_q[f(p/q)], evaluated in log-ratio form.

    sample_q(n, gen) draws from q; log_p/log_q evaluate batched log
    densities. Up to 0.1% non-finite f values (tail underflow at sigma=0) are
    trimmed; more is an error.
    """
    if n < 100:
        raise DomainError(f"mc_f_divergence needs n >= 100, got {n}")
    spec = catalog(kind)
    x = np.asarray(sample_q(int(n), rngmod.stream(seed, 0xD1)), dtype=float)
    log_r = np.asarray(log_p(x), dtype=float) - np.asarray(log_q(x), dtype=float)
    values = _f_values_from_log_ratio(spec, log_r)
    return _trimmed_mean_se(values, f"mc_f_divergence[{spec.kind}]")


def mixture_sampler(gm: IsotropicGaussianMixture) -> Callable:
    """sample_q adapter drawing from a mixture with the provided stream."""
    return lambda n, gen: draw(gm, n, gen)


def theorem1_grad_check(kind, teacher: IsotropicGaussianMixture,
                        gen: AffineGenerator, sigma: float, n: int, seed: int,
                        fd_step: float = 1e-3) -> List[GradCheckReport]:
    """Check the analytic divergence gradient against finite differences.

    The student is affine, so its perturbed law, score and the exact density
    ratio are closed form. The analytic side is the Monte-Carlo average of
    -h(r)(s_teacher - s_student) over x = a z + b + sigma eps; the reference
    side is a central finite difference of E_q[f(p/q)] over each bias
    coordinate, evaluated with the same (z, eps) draws.
    """
    spec = catalog(kind)
    d = teacher.dim
    if gen.dim != d:
        raise DomainError("teacher and generator dimensions differ")
    s = float(sigma)
    half = max(int(n) // 2, 1)
    gen_stream = rngmod.stream(seed, 0x71)
    z0 = gen_stream.standard_normal((half, gen.latent_dim))
    eps0 = gen_stream.standard_normal((half, d))
    # Antithetic pairing: (z, eps) and (-z, -eps) share the draw, halving the
    # odd-component variance that otherwise dominates both estimators.
    z = np.concatenate([z0, -z0])
    eps = np.concatenate([eps0, -eps0])

    def q_at(bias):
        return affine_pushforward(AffineGenerator(gen.scale, bias), s)

    def points_at(bias):
        return gen.scale * z + bias + s * eps

    def pair_mean_se(values):
        """Mean and SE honoring the antithetic pairing (values (2*half,...))."""
        pairs = 0.5 * (values[:half] + values[half:])
        mean = pairs.mean(axis=0)
        se = pairs.std(axis=0, ddof=1) / math.sqrt(half)
        return mean, se

    # Analytic side (the gradient the training loop follows).
    x = points_at(gen.bias)
    q_law = q_at(gen.bias)
    log_r = log_density(teacher, x, s) - log_density(q_law, x)
    h = weight_h_log(spec, log_r)
    diff = score(perturb(teacher, s), x) - score(q_law, x)
    grad_mc, se_mc = pair_mean_se(-h[:, None] * diff)
    # Underpowered regime: clearly non-zero gradient but SE above 20% of it.
    noisy = (se_mc > 0.2 * np.abs(grad_mc)) & (np.abs(grad_mc) > 3.0 * se_mc)
    if np.any(noisy):
        raise NumericsError(
            f"theorem-1 check for {spec.kind} at sigma={s}: standard error above "
            "20% of a non-zero gradient; increase n"
        )

    reports = []
    for k in range(d):
        shift = np.zeros(d)
        shift[k] = fd_step
        vals = []
        for bias in (gen.bias + shift, gen.bias - shift):
            pts = points_at(bias)
            lr = log_density(teacher, pts, s) - log_density(q_at(bias), pts)
            vals.append(_f_values_from_log_ratio(spec, lr))
        per_sample = (vals[0] - vals[1]) / (2.0 * fd_step)
        if not np.all(np.isfinite(per_sample)):
            bad = ~np.isfinite(per_sample)
            if bad.sum() > _TRIM_BUDGET * per_sample.size:
                raise NumericsError(
                    f"finite-difference side for {spec.kind}: too many non-finite values"
                )
            per_sample = np.where(bad, 0.0, per_sample)
        grad_fd, se_fd = pair_mean_se(per_sample)
        reports.append(
            GradCheckReport(
                kind=spec.kind,
                sigma=s,
                param_index=k,
                grad_mc=float(grad_mc[k]),
                se_mc=float(se_mc[k]),
                grad_fd=float(grad_fd),
                se_fd=float(se_fd),
            )
        )
    return reports


def normalized_variance_curve(kind, mean_gaps: Sequence[float], n: int,
                              seed: int) -> List[MCEstimate]:
    """Var_q(h(p/q) / E_q[h]) for 1-D unit Gaussians N(0,1) vs N(d,1).

    The scale-invariant variance of the weighting function as the teacher/
    student gap d grows; constant-h divergences give exactly zero.
    """
    spec = catalog(kind)
    out = []
    for i, d in enumerate(mean_gaps):
        gen = rngmod.stream(seed, 0x5E, i)
        x = float(d) + gen.standard_normal(int(n))
        # log r for N(0,1) vs N(d,1): quadratic difference, exact; a gap
        # so large that it overflows is rejected by weight_h_log
        with np.errstate(over="ignore", invalid="ignore"):
            log_r = 0.5 * (np.square(x - float(d)) - np.square(x))
        h = np.asarray(weight_h_log(spec, log_r), dtype=float)
        m1 = float(np.mean(h))
        if m1 <= 0.0:
            raise NumericsError(f"degenerate weighting sample for {spec.kind}")
        m2 = float(np.mean(h**2))
        value = m2 / m1**2 - 1.0
        # delta-method standard error via the influence function
        infl = (h**2 - m2) / m1**2 - 2.0 * m2 * (h - m1) / m1**3
        se = float(np.std(infl, ddof=1) / math.sqrt(n))
        out.append(MCEstimate(value=value, se=se, n_used=int(n)))
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
