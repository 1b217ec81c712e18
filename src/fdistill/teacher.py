"""Exact teacher distributions and the training noise schedule.

Teachers are isotropic Gaussian mixtures: density, score, sampling, and the
noise perturbation p_sigma = p * N(0, sigma^2 I) are all closed form, so any
quantity the training loop approximates (ratios, scores, divergences) can be
checked against this module exactly. Mixture and particle log-densities
reduce their (n, K) component matrices with `_numerics.logsumexp`, which
equals SciPy's `logsumexp` bit for bit, so the training path loads numpy only.
`mode_coverage` measures how much of a sample set falls in each component's
ball, counting over row blocks so that a 1e5-sample check stays small.

`AffineGenerator` is the package's one affine student: pushing a standard
normal latent through x = a z + b gives the exactly Gaussian output law
N(b, a^2 I), a one-component mixture, so the student's perturbed density and
score are closed form too. It trains (flat parameters [a, *b]) under the
exact-oracle ratio and score sources and is the student of the gradient gate.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import rng as rngmod
from ._numerics import logsumexp, row_blocks
from .errors import DomainError

__all__ = [
    "IsotropicGaussianMixture",
    "NoiseSchedule",
    "AffineGenerator",
    "log_density",
    "score",
    "perturb",
    "sample",
    "draw",
    "affine_pushforward",
    "particle_log_density",
    "ModeCoverage",
    "mode_coverage",
    "ring8",
    "grid25",
    "make_teacher",
    "TEACHER_PRESETS",
]

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class IsotropicGaussianMixture:
    """Mixture of isotropic Gaussians: weights (K,), means (K, d), variances (K,)."""

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        mu = np.asarray(self.means, dtype=float)
        v = np.asarray(self.variances, dtype=float)
        if mu.ndim != 2:
            raise DomainError("means must have shape (K, dim)")
        if w.shape != (mu.shape[0],) or v.shape != (mu.shape[0],):
            raise DomainError("weights, means, variances must agree on component count")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(mu)) and np.all(np.isfinite(v))):
            raise DomainError("mixture parameters must be finite")
        if np.any(w < 0.0) or abs(float(w.sum()) - 1.0) > 1e-12:
            raise DomainError("weights must be non-negative and sum to 1 within 1e-12")
        if np.any(v <= 0.0):
            raise DomainError("variances must be positive")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "variances", v)

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    @property
    def n_components(self) -> int:
        return self.means.shape[0]

    def per_coord_std(self) -> float:
        """Marginal per-coordinate standard deviation of the mixture."""
        mean = self.weights @ self.means
        second = float(
            self.weights @ (self.variances * self.dim + np.sum(self.means**2, axis=1))
        )
        return math.sqrt(max((second - float(np.sum(mean**2))) / self.dim, 1e-12))


def _check_points(gm_dim: int, x) -> tuple:
    a = np.asarray(x, dtype=float)
    single = a.ndim == 1
    if single:
        a = a[None, :]
    if a.ndim != 2 or a.shape[1] != gm_dim:
        raise DomainError(f"points must have dimension {gm_dim}, got shape {np.shape(x)}")
    if not np.all(np.isfinite(a)):
        raise DomainError("points must be finite")
    return a, single


def _perturbed_variances(gm: IsotropicGaussianMixture, sigma) -> np.ndarray:
    """v_k + sigma^2, shape (1, K), or (n, K) for a per-point sigma."""
    sig = np.asarray(sigma, dtype=float)
    if np.any(sig < 0.0) or not np.all(np.isfinite(sig)):
        raise DomainError("sigma must be finite and >= 0")
    if sig.ndim:
        return gm.variances[None, :] + (sig**2).reshape(-1, 1)
    return gm.variances[None, :] + sig**2


def _gaussian_logs(const, x: np.ndarray, centers: np.ndarray, var) -> np.ndarray:
    """const - 0.5 * |x_i - c_j|^2 / var, shape (n, K), built in one buffer.

    The square is expanded as |x|^2 - (2 x) . c + |c|^2; every step keeps the
    operand order of the unfused expression, so the result is bitwise equal.
    """
    out = (2.0 * x) @ centers.T
    np.subtract(np.sum(x**2, axis=1, keepdims=True), out, out=out)
    out += np.sum(centers**2, axis=1)[None, :]
    out *= 0.5
    out /= var
    return np.subtract(const, out, out=out)


def _component_logs(gm: IsotropicGaussianMixture, x: np.ndarray, var) -> np.ndarray:
    """Per-component log joint log(w_k) + log N(x; mu_k, var_k I), shape (n, K)."""
    with np.errstate(divide="ignore"):
        logw = np.log(gm.weights)[None, :]
    const = logw - 0.5 * gm.dim * (_LOG_2PI + np.log(var))
    return _gaussian_logs(const, x, gm.means, var)


def log_density(gm: IsotropicGaussianMixture, x, sigma=0.0):
    """log p_sigma(x); `sigma` may be a scalar or per-point array."""
    pts, single = _check_points(gm.dim, x)
    comp = _component_logs(gm, pts, _perturbed_variances(gm, sigma))
    out = logsumexp(comp, overwrite_a=True)
    return float(out[0]) if single else out


def score(gm: IsotropicGaussianMixture, x, sigma=0.0):
    """grad_x log p_sigma(x): responsibility-weighted pull towards the means."""
    pts, single = _check_points(gm.dim, x)
    var = _perturbed_variances(gm, sigma)
    comp = _component_logs(gm, pts, var)
    comp -= logsumexp(comp, keepdims=True)
    resp = np.exp(comp, out=comp)
    pull = (gm.means[None, :, :] - pts[:, None, :]) / var[..., None]
    out = np.einsum("nk,nkd->nd", resp, pull)
    return out[0] if single else out


def perturb(gm: IsotropicGaussianMixture, sigma: float) -> IsotropicGaussianMixture:
    """Convolve with N(0, sigma^2 I): adds sigma^2 to every component variance."""
    s = float(sigma)
    if s < 0.0 or not math.isfinite(s):
        raise DomainError(f"sigma must be finite and >= 0, got {sigma!r}")
    if s == 0.0:
        return gm
    return IsotropicGaussianMixture(
        weights=gm.weights, means=gm.means, variances=gm.variances + s**2
    )


def sample(gm: IsotropicGaussianMixture, n: int, seed: int, counter: int = 0) -> np.ndarray:
    """n i.i.d. draws; component choice by inverse CDF over the weights.

    Deterministic in (seed, counter); disjoint counters give independent
    parallel streams.
    """
    if n < 1:
        raise DomainError(f"sample count must be >= 1, got {n}")
    return draw(gm, n, rngmod.stream(seed, counter, 0xFD))


def draw(gm: IsotropicGaussianMixture, n: int, gen: np.random.Generator) -> np.ndarray:
    """n draws from the given stream: component by inverse CDF, then noise."""
    u = gen.random(n)
    idx = np.searchsorted(np.cumsum(gm.weights), u, side="right")
    idx = np.minimum(idx, gm.n_components - 1)
    eps = gen.standard_normal((n, gm.dim))
    return gm.means[idx] + np.sqrt(gm.variances[idx])[:, None] * eps


@dataclass(frozen=True)
class NoiseSchedule:
    """Log-uniform sigma ladder with per-level time weights w_t = sigma^2."""

    sigma_min: float = 0.002
    sigma_max: float = 80.0
    n_levels: int = 64

    def __post_init__(self):
        if not (0.0 < self.sigma_min < self.sigma_max):
            raise DomainError("schedule requires 0 < sigma_min < sigma_max")
        if self.n_levels < 1:
            raise DomainError("schedule requires n_levels >= 1")

    @cached_property
    def levels(self) -> np.ndarray:
        """The sigma ladder, built once per schedule and read-only."""
        ladder = np.geomspace(self.sigma_min, self.sigma_max, self.n_levels)
        ladder.flags.writeable = False
        return ladder

    def time_weight(self, sigma):
        return np.asarray(sigma, dtype=float) ** 2

    def draw_levels(self, gen: np.random.Generator, size: int):
        """Uniformly sampled level indices and their sigmas."""
        idx = gen.integers(0, self.n_levels, size=size)
        return idx, self.levels[idx]

    def bin_ids(self, level_idx, n_bins: int):
        """Map level indices to equal-width bins in log-sigma."""
        idx = np.asarray(level_idx)
        return np.minimum(idx * n_bins // self.n_levels, n_bins - 1)


@dataclass
class AffineGenerator:
    """Isotropic student x = a z + b with standard normal latent z.

    The pushforward is exactly N(b, a^2 I), so perturbed densities, scores
    and ratios against an analytic teacher stay closed form. The flat
    training parameters are [a, *b]; a non-finite a set through `params`
    stays readable, so the training loop reports it as divergence.
    """

    scale: float
    bias: np.ndarray

    def __post_init__(self):
        self.scale = float(self.scale)
        self.bias = np.asarray(self.bias, dtype=float)
        if self.bias.ndim != 1:
            raise DomainError("affine generator needs a bias vector (d,)")

    @property
    def dim(self) -> int:
        return self.bias.shape[0]

    @property
    def latent_dim(self) -> int:
        return self.dim

    @property
    def widths(self):
        return (self.latent_dim, self.dim)

    def forward(self, z: np.ndarray) -> np.ndarray:
        return self.scale * z + self.bias

    def forward_cached(self, z: np.ndarray):
        return self.forward(z), z

    @property
    def params(self) -> np.ndarray:
        return np.concatenate([[self.scale], self.bias])

    @params.setter
    def params(self, value):
        flat = np.asarray(value, dtype=float)
        self.scale = float(flat[0])
        self.bias = flat[1:].copy()

    def backward(self, z: np.ndarray, out_grad: np.ndarray) -> np.ndarray:
        """Gradient of sum_i out_grad_i . x_i with respect to [a, *b]."""
        return np.concatenate([[float(np.sum(out_grad * z))], out_grad.sum(axis=0)])

    def exact_law(self) -> IsotropicGaussianMixture:
        if self.scale == 0.0:
            raise DomainError("affine student degenerated to zero scale")
        return affine_pushforward(self, 0.0)


def affine_pushforward(gen: AffineGenerator, sigma: float) -> IsotropicGaussianMixture:
    """Exact law of G(z) + sigma * eps for standard normal z, eps: the
    one-component mixture N(b, (a^2 + sigma^2) I)."""
    s = float(sigma)
    if s < 0.0:
        raise DomainError("sigma must be >= 0")
    return IsotropicGaussianMixture(
        weights=np.array([1.0]),
        means=gen.bias[None, :],
        variances=np.array([gen.scale**2 + s**2]),
    )


def particle_log_density(centers: np.ndarray, x: np.ndarray, sigma) -> np.ndarray:
    """Unbiased Monte-Carlo estimate of log q_sigma(x) for a pushforward law.

    q_sigma(x) = E_z[N(x; G(z), sigma^2 I)] is estimated with the m given
    centers G(z_j). Exact in expectation; the only approximation is the
    finite particle count.
    """
    centers = np.asarray(centers, dtype=float)
    pts = np.asarray(x, dtype=float)
    sig = np.asarray(sigma, dtype=float)
    if np.any(sig <= 0.0):
        raise DomainError("particle density estimate requires sigma > 0")
    m, d = centers.shape
    var = (sig**2).reshape(-1, 1) if sig.ndim else np.full((1, 1), sig**2)
    comp = _gaussian_logs(-0.5 * d * (_LOG_2PI + np.log(var)), pts, centers, var)
    out = logsumexp(comp, overwrite_a=True)
    out -= math.log(m)
    return out


@dataclass(frozen=True)
class ModeCoverage:
    per_mode_mass: np.ndarray
    covered: np.ndarray
    n_covered: int


def mode_coverage(samples, teacher: IsotropicGaussianMixture, k: float = 3.0,
                  threshold: float = 0.02) -> ModeCoverage:
    """Fraction of samples within k sqrt(v) of each component mean.

    A mode counts as covered when its fraction reaches `threshold`. Requires
    well-separated components (pairwise mean distance > 2 k sqrt(v)),
    otherwise ball membership is ambiguous. Ball counts are taken over row
    blocks, so memory stays bounded for any sample count; the mass
    count / n equals the mean of the 0/1 memberships bit for bit.
    """
    pts = np.asarray(samples, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise DomainError("mode coverage needs a non-empty (n, dim) sample set")
    if pts.shape[1] != teacher.dim:
        raise DomainError("sample dimension does not match the teacher")
    radii = k * np.sqrt(teacher.variances)
    mu = teacher.means
    for i in range(teacher.n_components):
        for j in range(i + 1, teacher.n_components):
            if np.linalg.norm(mu[i] - mu[j]) <= 2.0 * k * math.sqrt(
                max(teacher.variances[i], teacher.variances[j])
            ):
                raise DomainError(
                    "coverage undefined: teacher components "
                    f"{i} and {j} overlap at k={k}"
                )
    counts = np.zeros(teacher.n_components, dtype=np.int64)
    for start, stop in row_blocks(pts.shape[0]):
        dist = np.linalg.norm(pts[start:stop, None, :] - mu[None, :, :], axis=2)
        counts += np.count_nonzero(dist <= radii[None, :], axis=0)
    mass = counts / pts.shape[0]
    covered = mass >= threshold
    return ModeCoverage(
        per_mode_mass=mass, covered=covered, n_covered=int(covered.sum())
    )


def ring8(radius: float = 4.0, variance: float = 0.09) -> IsotropicGaussianMixture:
    """Eight equal components on a circle; the standard mode-coverage teacher."""
    angles = 2.0 * np.pi * np.arange(8) / 8.0
    means = radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return IsotropicGaussianMixture(
        weights=np.full(8, 1.0 / 8.0), means=means, variances=np.full(8, variance)
    )


def grid25(spacing: float = 2.0, variance: float = 0.01) -> IsotropicGaussianMixture:
    """5 x 5 lattice of equal components centered on the origin."""
    axis = spacing * (np.arange(5) - 2.0)
    xs, ys = np.meshgrid(axis, axis, indexing="ij")
    means = np.stack([xs.ravel(), ys.ravel()], axis=1)
    return IsotropicGaussianMixture(
        weights=np.full(25, 1.0 / 25.0), means=means, variances=np.full(25, variance)
    )


TEACHER_PRESETS = {"ring8": ring8, "grid25": grid25}


def make_teacher(spec) -> IsotropicGaussianMixture:
    """Build a teacher from a preset name or an explicit component dict."""
    if isinstance(spec, IsotropicGaussianMixture):
        return spec
    if isinstance(spec, str):
        if spec not in TEACHER_PRESETS:
            raise DomainError(
                f"unknown teacher preset {spec!r} (known: {', '.join(TEACHER_PRESETS)})"
            )
        return TEACHER_PRESETS[spec]()
    if isinstance(spec, dict):
        try:
            return IsotropicGaussianMixture(
                weights=np.asarray(spec["weights"], dtype=float),
                means=np.asarray(spec["means"], dtype=float),
                variances=np.asarray(spec["variances"], dtype=float),
            )
        except KeyError as exc:
            raise DomainError(f"teacher dict missing key {exc}") from exc
    raise DomainError(f"cannot build a teacher from {type(spec).__name__}")
