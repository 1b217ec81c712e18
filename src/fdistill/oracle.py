"""Independent ground truth for everything the training loop approximates.

Estimators here deliberately take a different route than the production code
they check: the analytic score-difference gradient is compared against
central finite differences of the divergence itself. The gate's students are
isotropic affine maps x = a z + b, whose output laws are one-component
mixtures, so teacher and student densities and scores both go through
`teacher`'s mixture functions with the sigma argument the training loop passes.
The student's noised law is Gaussian, so both sides of the gate and the
weighting-variance curve are deterministic Gauss-Hermite expectations rather
than Monte-Carlo averages.

`mode_coverage` is defined in `teacher`, next to the mixtures it measures,
and re-exported here.
"""

import math
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .divergence import catalog, weight_h_log
from .errors import DomainError, NumericsError
from .teacher import (
    AffineGenerator,
    IsotropicGaussianMixture,
    log_density,
    mode_coverage,
    perturbed_variances,
    score,
)

__all__ = [
    "GradCheckReport",
    "theorem1_grad_check",
    "normalized_variance_curve",
    "weight_score_map",
    "mode_coverage",
    "gradcheck_cases",
]

_GH_NODES = 160  # Gauss-Hermite nodes per axis
# Largest |mean gap| of the variance curve: at 9 the rule matches forward-KL's
# closed form exp(d^2) - 1 to 5e-14 relative; at 12 it is 20% off.
MAX_VARIANCE_GAP = 9.0


@dataclass(frozen=True)
class GradCheckReport:
    """Analytic-vs-finite-difference gradient comparison for one bias coord."""

    kind: str
    sigma: float
    param_index: int
    grad_analytic: float
    grad_fd: float

    @property
    def rel_error(self) -> float:
        return abs(self.grad_analytic - self.grad_fd) / max(
            abs(self.grad_analytic), abs(self.grad_fd), 1e-8
        )

    def passes(self, rel_tol: float) -> bool:
        return self.rel_error <= rel_tol


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


def _expectation(weights: np.ndarray, values: np.ndarray):
    """sum_j w_j v_j / sum_j w_j over axis 0: the Gauss-Hermite expectation of
    `values`. numpy's reductions sum in a fixed order; a BLAS product would
    sum in one that depends on the BLAS thread count."""
    w = weights.reshape(-1, *([1] * (values.ndim - 1)))
    return np.sum(w * values, axis=0) / np.sum(weights)


# non-finite values at the nodes end in NumericsError, not in numpy warnings
@np.errstate(over="ignore", invalid="ignore")
def theorem1_grad_check(kind, teacher: IsotropicGaussianMixture,
                        gen: AffineGenerator, sigma: float,
                        fd_step: float) -> List[GradCheckReport]:
    """Check the analytic divergence gradient against finite differences.

    The student is affine, so its perturbed law q = N(b, (a^2 + sigma^2) I),
    its score and the exact density ratio are closed form. Both sides are
    Gauss-Hermite sums over q: the analytic side is -E_q[h(r)(s_teacher -
    s_student)], and the reference side is a central finite difference over
    each bias coordinate of D_f(b) = E_q[f(p/q)].
    """
    spec = catalog(kind)
    d = teacher.dim
    if gen.dim != d:
        raise DomainError("teacher and generator dimensions differ")
    nodes, weights = _gauss_hermite(d)
    s = float(sigma)

    def q_at(bias):
        return AffineGenerator(gen.scale, bias).exact_law()

    q_law = q_at(gen.bias)
    spread = math.sqrt(perturbed_variances(q_law.variances, s, nodes.shape[0])[0, 0]) * nodes

    def finite(values, side):
        if not np.all(np.isfinite(values)):
            raise NumericsError(
                f"{side} side for {spec.kind}: non-finite value at a quadrature node")
        return values

    # Analytic side (the gradient the training loop follows).
    x = gen.bias + spread
    log_r = finite(log_density(teacher, x, s) - log_density(q_law, x, s), "analytic")
    values = weight_h_log(kind, log_r)[:, None] * (score(teacher, x, s) - score(q_law, x, s))
    grad_analytic = -_expectation(weights, finite(values, "analytic"))

    def divergence_at(bias):
        pts = bias + spread
        f = spec.f_log(log_density(teacher, pts, s) - log_density(q_at(bias), pts, s))
        return float(_expectation(weights, finite(f, "finite-difference")))

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
                grad_analytic=float(grad_analytic[k]),
                grad_fd=grad_fd,
            )
        )
    return reports


def normalized_variance_curve(kind, mean_gaps: Sequence[float]) -> List[float]:
    """Var_q(h(p/q) / E_q[h]) for 1-D unit Gaussians p = N(0,1), q = N(d,1).

    The scale-invariant variance of the weighting function as the teacher/
    student gap d grows, by Gauss-Hermite quadrature over q; constant-h
    divergences give exactly zero. A gap beyond MAX_VARIANCE_GAP is a
    DomainError.
    """
    spec = catalog(kind)
    nodes, weights = _gauss_hermite(1)
    out = []
    for d in mean_gaps:
        if not abs(d) <= MAX_VARIANCE_GAP:
            raise DomainError(f"mean gap must be within +-{MAX_VARIANCE_GAP:g}, got {d!r}")
        x = float(d) + nodes[:, 0]
        # log r for N(0,1) vs N(d,1): quadratic difference, exact
        log_r = 0.5 * (np.square(x - float(d)) - np.square(x))
        h = weight_h_log(kind, log_r)
        m1 = _expectation(weights, h)
        if m1 <= 0.0:
            raise NumericsError(f"degenerate weighting for {spec.kind}")
        out.append(float(_expectation(weights, np.square(h - m1)) / m1**2))
    return out


# non-finite log ratios end in weight_h_log's DomainError, not in numpy warnings
@np.errstate(over="ignore", invalid="ignore")
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
    catalog(kind)   # an unknown kind is refused before any density is evaluated
    s = float(sigma)
    diff = score(teacher, pts, s) - score(student, pts, s)
    log_r = log_density(teacher, pts, s) - log_density(student, pts, s)
    h = weight_h_log(kind, log_r)
    return np.linalg.norm(diff, axis=1), h


def gradcheck_cases():
    """Teacher/student pairs for the standing gradient gate.

    Both are 2-D with bias gaps large enough that every divergence has a
    clearly non-zero gradient at sigma in {0, 0.5, 2}, yet ratios stay mild
    enough for the quadrature to resolve them.
    """
    single = AffineGenerator(1.0, np.zeros(2)).exact_law()
    bimodal = IsotropicGaussianMixture(
        weights=np.array([0.6, 0.4]),
        means=np.array([[-1.2, 0.0], [1.4, 0.8]]),
        variances=np.array([0.5, 0.9]),
    )
    return {
        "single": (single, AffineGenerator(scale=1.0, bias=np.array([1.2, 1.0]))),
        "bimodal": (bimodal, AffineGenerator(scale=1.3, bias=np.array([0.9, -0.8]))),
    }
