"""Exact teacher distributions, their noise perturbation, and the affine student.

Teachers are isotropic Gaussian mixtures: density, score, sampling, and the
noise perturbation p_sigma = p * N(0, sigma^2 I) are all closed form, so any
quantity the training loop approximates (ratios, scores, divergences) can be
checked against this module exactly. `perturbed_variances` is the one noise
rule: `log_density`, `score` and `particle_log_density` (a law of variance 0
at its centers) pass it their sigma, a scalar or an (n,) batch for n points,
and it adds sigma^2 to the component variances. It refuses any other shape,
a negative, NaN or infinite sigma and a zero sum with `DomainError`, and a
sum past the float range with `NumericsError`.
`sample` draws from the stream it is handed; the caller keys it. Mixture and
particle log-densities reduce their (n, K) component matrices with
`_numerics.logsumexp`, which equals SciPy's `logsumexp` bit for bit, so the
training path loads numpy only.
`mode_coverage` measures how much of a sample set, handed over as an
iterable of row blocks, falls in each component's ball; it and
`particle_log_density` hold one bounded block at a time, so their memory does
not grow with the number of samples, points or centers.

`AffineGenerator` is the package's one affine student: pushing a standard
normal latent through x = a z + b gives the exactly Gaussian output law
N(b, a^2 I) (`exact_law`), a one-component mixture, so the student's density
and score at any sigma are closed form too. It trains (flat parameters
[a, *b]) under the exact-oracle ratio and score sources and is the student of
the gradient gate.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._numerics import logsumexp, row_blocks
from .errors import DomainError, NumericsError

__all__ = [
    "IsotropicGaussianMixture",
    "AffineGenerator",
    "log_density",
    "score",
    "perturbed_variances",
    "sample",
    "particle_log_density",
    "ModeCoverage",
    "mode_coverage",
    "COVERAGE_K",
    "COVERAGE_THRESHOLD",
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
        if mu.ndim != 2 or mu.shape[1] == 0:
            raise DomainError(f"means must have shape (K, dim) with dim >= 1, got {mu.shape}")
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


def _check_points(gm_dim: int, x) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if a.ndim != 2 or a.shape[1] != gm_dim:
        raise DomainError(f"points must be an (n, {gm_dim}) batch, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DomainError("points must be finite")
    return a


def perturbed_variances(variances: np.ndarray, sigma, n: int) -> np.ndarray:
    """v_k + sigma^2 of the component variances (K,): shape (1, K) for a
    scalar sigma, (n, K) for an (n,) batch; the law of x + sigma eps at n
    points. Every analytic density reads sigma here. Another sigma shape, a
    negative, NaN or infinite sigma, or a zero sum (a particle law at
    sigma = 0, or a sigma whose square underflows) is a DomainError; a sum
    past the float range is a NumericsError."""
    sig = np.asarray(sigma, dtype=float)
    if sig.shape not in ((), (n,)):
        raise DomainError(f"sigma must be a scalar or of shape ({n},), got shape {sig.shape}")
    if not np.all((sig >= 0.0) & (sig < np.inf)):    # NaN fails both
        raise DomainError("sigma must be finite and >= 0")
    with np.errstate(over="ignore"):
        var = variances[None, :] + np.reshape(sig**2, (-1, 1))
    if not np.all(np.isfinite(var)):
        raise NumericsError(f"sigma {float(np.max(sig))!r} overflows the perturbed variance")
    if not np.all(var > 0.0):
        raise DomainError(f"sigma {float(np.min(sig))!r} leaves a zero perturbed variance")
    return var


def _gaussian_logs(const, x: np.ndarray, centers: np.ndarray, var) -> np.ndarray:
    """const - 0.5 * |x_i - c_j|^2 / var, shape (n, K), built in one buffer.

    The square is expanded as |x|^2 - (2 x) . c + |c|^2; every step keeps the
    operand order of the unfused expression, so the result is bitwise equal.
    Over a subnormal variance the quotient may overflow to inf: that log
    density rounds to -inf.
    """
    out = (2.0 * x) @ centers.T
    np.subtract(np.sum(x**2, axis=1, keepdims=True), out, out=out)
    out += np.sum(centers**2, axis=1)[None, :]
    out *= 0.5
    with np.errstate(over="ignore"):
        out /= var
    return np.subtract(const, out, out=out)


def _component_logs(gm: IsotropicGaussianMixture, x: np.ndarray, var) -> np.ndarray:
    """Per-component log joint log(w_k) + log N(x; mu_k, var_k I), shape (n, K)."""
    with np.errstate(divide="ignore"):
        logw = np.log(gm.weights)[None, :]
    const = logw - 0.5 * gm.dim * (_LOG_2PI + np.log(var))
    return _gaussian_logs(const, x, gm.means, var)


def log_density(gm: IsotropicGaussianMixture, x, sigma=0.0) -> np.ndarray:
    """log p_sigma(x) of an (n, d) batch x; `sigma` may be a scalar or per-point array."""
    pts = _check_points(gm.dim, x)
    comp = _component_logs(gm, pts, perturbed_variances(gm.variances, sigma, pts.shape[0]))
    return logsumexp(comp, overwrite_a=True)


def score(gm: IsotropicGaussianMixture, x, sigma=0.0) -> np.ndarray:
    """grad_x log p_sigma(x) of an (n, d) batch: pull towards the means by responsibility."""
    pts = _check_points(gm.dim, x)
    var = perturbed_variances(gm.variances, sigma, pts.shape[0])
    comp = _component_logs(gm, pts, var)
    comp -= logsumexp(comp, keepdims=True)
    resp = np.exp(comp, out=comp)
    pull = (gm.means[None, :, :] - pts[:, None, :]) / var[..., None]
    return np.einsum("nk,nkd->nd", resp, pull)


def sample(gm: IsotropicGaussianMixture, n: int, gen: np.random.Generator) -> np.ndarray:
    """n i.i.d. draws from the given stream: component by inverse CDF over the
    weights, then noise."""
    if n < 1:
        raise DomainError(f"sample count must be >= 1, got {n}")
    u = gen.random(n)
    idx = np.searchsorted(np.cumsum(gm.weights), u, side="right")
    idx = np.minimum(idx, gm.n_components - 1)
    eps = gen.standard_normal((n, gm.dim))
    return gm.means[idx] + np.sqrt(gm.variances[idx])[:, None] * eps


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
        """The output law N(b, a^2 I), a one-component mixture; its densities
        at sigma are those of G(z) + sigma eps. NumericsError when a^2 overflows."""
        if self.scale == 0.0:
            raise DomainError("affine student degenerated to zero scale")
        try:
            variance = self.scale**2
        except OverflowError:
            raise NumericsError(f"affine student scale {self.scale!r} overflows its variance") from None
        return IsotropicGaussianMixture(
            weights=np.array([1.0]), means=self.bias[None, :], variances=np.array([variance]),
        )


# One block of `particle_log_density`'s (points x centers) matrix: about 2^17
# entries (1 MiB); `row_blocks` rounds its rows to a multiple of 64, never
# fewer than 64, since OpenBLAS takes other GEMM kernels for blocks of a few
# rows (1- and 3-row blocks change the last bits for d >= 2).
_PARTICLE_BLOCK_ENTRIES = 1 << 17


def particle_log_density(centers: np.ndarray, x: np.ndarray, sigma) -> np.ndarray:
    """Monte-Carlo estimate of log q_sigma(x) for a pushforward law.

    q_sigma(x) = E_z[N(x; G(z), sigma^2 I)] is estimated with the m given
    centers G(z_j). The kernel mean is unbiased for q_sigma(x), but its log
    is biased downward (Jensen's inequality), by an amount that falls roughly
    like 1/m once m is large. That bias is the floor under the KLs and ratios
    computed from particles.

    The (points x centers) kernel matrix is built and reduced one row block
    at a time (`row_blocks` with about 2^17 entries and a multiple of 64
    rows per block), so memory stays bounded for any number of points and
    centers; the result equals the one-pass reduction bit for bit.
    """
    centers = np.asarray(centers, dtype=float)
    m, d = centers.shape
    pts = _check_points(d, x)
    n = pts.shape[0]
    # sigma^2 of a zero-variance law and its normalizer, stride-0 for a scalar
    var = perturbed_variances(np.zeros(1), sigma, n)
    const = np.broadcast_to(-0.5 * d * (_LOG_2PI + np.log(var)), (n, 1))
    var = np.broadcast_to(var, (n, 1))
    out = np.empty(n)
    for start, stop in row_blocks(n, _PARTICLE_BLOCK_ENTRIES // m):
        out[start:stop] = logsumexp(_gaussian_logs(
            const[start:stop], pts[start:stop], centers, var[start:stop]), overwrite_a=True)
    out -= math.log(m)
    return out


# `mode_coverage`'s ball radius in standard deviations, and its covered fraction
COVERAGE_K = 3.0
COVERAGE_THRESHOLD = 0.02


@dataclass(frozen=True)
class ModeCoverage:
    per_mode_mass: np.ndarray
    covered: np.ndarray
    n_covered: int


def mode_coverage(blocks, teacher: IsotropicGaussianMixture) -> ModeCoverage:
    """Fraction of the samples within COVERAGE_K sqrt(v) of each component mean.

    `blocks` is an iterable of (rows, dim) sample arrays, taken one at a time,
    so a lazy iterable keeps memory bounded for any sample count. A mode
    counts as covered when its fraction reaches COVERAGE_THRESHOLD. Requires
    well-separated components (pairwise mean distance > 2 COVERAGE_K sqrt(v)),
    otherwise ball membership is ambiguous; that check runs before the first
    block is taken, so a lazy iterable draws nothing for an ambiguous teacher.
    Ball counts are summed as integers and divided by the total row count
    once, so the mass equals the mean of the 0/1 memberships bit for bit
    however the rows are blocked. A distance that overflows is +inf, outside
    every ball.
    """
    radii = COVERAGE_K * np.sqrt(teacher.variances)
    mu = teacher.means
    for i in range(teacher.n_components):
        for j in range(i + 1, teacher.n_components):
            if np.linalg.norm(mu[i] - mu[j]) <= 2.0 * COVERAGE_K * math.sqrt(
                max(teacher.variances[i], teacher.variances[j])
            ):
                raise DomainError(
                    "coverage undefined: teacher components "
                    f"{i} and {j} overlap at k={COVERAGE_K}"
                )
    counts = np.zeros(teacher.n_components, dtype=np.int64)
    n = 0
    for block in blocks:
        pts = np.asarray(block, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != teacher.dim:
            raise DomainError(f"mode coverage needs (rows, {teacher.dim}) sample blocks, "
                              f"got shape {pts.shape}")
        with np.errstate(over="ignore"):
            dist = np.linalg.norm(pts[:, None, :] - mu[None, :, :], axis=2)
        counts += np.count_nonzero(dist <= radii[None, :], axis=0)
        n += pts.shape[0]
    if n == 0:
        raise DomainError("mode coverage needs a non-empty sample set")
    mass = counts / n
    covered = mass >= COVERAGE_THRESHOLD
    return ModeCoverage(
        per_mode_mass=mass, covered=covered, n_covered=int(covered.sum())
    )


def ring8() -> IsotropicGaussianMixture:
    """Eight equal components of variance 0.09 on a circle of radius 4."""
    angles = 2.0 * np.pi * np.arange(8) / 8.0
    means = 4.0 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return IsotropicGaussianMixture(
        weights=np.full(8, 1.0 / 8.0), means=means, variances=np.full(8, 0.09)
    )


def grid25() -> IsotropicGaussianMixture:
    """5 x 5 lattice, spacing 2, centered on the origin; equal components of variance 0.01."""
    axis = 2.0 * (np.arange(5) - 2.0)
    xs, ys = np.meshgrid(axis, axis, indexing="ij")
    means = np.stack([xs.ravel(), ys.ravel()], axis=1)
    return IsotropicGaussianMixture(
        weights=np.full(25, 1.0 / 25.0), means=means, variances=np.full(25, 0.01)
    )


TEACHER_PRESETS = {"ring8": ring8, "grid25": grid25}


def make_teacher(spec) -> IsotropicGaussianMixture:
    """Build a teacher from a preset name or a {weights, means, variances} dict;
    any other dict key, or any other value (a mixture object too), is rejected."""
    if isinstance(spec, str):
        if spec not in TEACHER_PRESETS:
            raise DomainError(
                f"unknown teacher preset {spec!r} (known: {', '.join(TEACHER_PRESETS)})"
            )
        return TEACHER_PRESETS[spec]()
    if isinstance(spec, dict):
        unknown = [key for key in spec if key not in ("weights", "means", "variances")]
        if unknown:
            raise DomainError(f"teacher dict has unknown key {unknown[0]!r}")
        try:
            return IsotropicGaussianMixture(
                weights=np.asarray(spec["weights"], dtype=float),
                means=np.asarray(spec["means"], dtype=float),
                variances=np.asarray(spec["variances"], dtype=float),
            )
        except KeyError as exc:
            raise DomainError(f"teacher dict missing key {exc}") from exc
    raise DomainError(f"cannot build a teacher from {type(spec).__name__}")
