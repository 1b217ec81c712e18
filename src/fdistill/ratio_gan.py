"""Discriminator: auxiliary GAN losses and the density-ratio estimate.

The scalar head output is interpreted as a logit, so D = sigmoid(logit) and

    exp(logit) = D / (1 - D)

is the density-ratio estimate; at the Bayes optimum the logit converges to
log p_sigma(x) - log q_sigma(x). Ratios are clipped in log space before any
exponentiation. Every network input passes `nets.sigma_embedding`, which
rejects sigma <= 0 before any parameter changes.

The discriminator objective is the noised logistic GAN loss plus an R1
gradient penalty on real inputs. The generator side takes the non-saturating
form -log D.
"""

from dataclasses import dataclass

import numpy as np

from ._numerics import sigma_batch, sigmoid, softplus
from .errors import DomainError, NumericsError
from .nets import (
    EMBED_DIM,
    FeedForwardNet,
    backward,
    forward,
    init_net,
    input_grad_param_grad,
    predict,
    scalar_input_grad,
    sigma_embedding,
)

__all__ = [
    "Discriminator",
    "RatioClip",
    "disc_init",
    "logit",
    "clipped_log_ratio",
    "disc_update",
    "gan_generator_grad",
]


@dataclass(frozen=True)
class RatioClip:
    r_min: float = 1e-3
    r_max: float = 1e3

    def __post_init__(self):
        if not (0.0 < self.r_min <= 1.0 <= self.r_max):
            raise DomainError(
                f"ratio clip must satisfy 0 < r_min <= 1 <= r_max, got "
                f"({self.r_min}, {self.r_max})"
            )

    @property
    def log_bounds(self):
        return np.log(self.r_min), np.log(self.r_max)


@dataclass
class Discriminator:
    net: FeedForwardNet
    sigma_data: float = 1.0
    precondition: bool = True

    @property
    def dim(self) -> int:
        return self.net.widths[0] - EMBED_DIM


def disc_init(dim, gen, sigma_data=1.0, hidden=(128, 128),
              precondition=True) -> Discriminator:
    # zero-initialized head: the initial ratio estimate is exactly 1
    net = init_net((dim + EMBED_DIM, *hidden, 1), gen, final="zero")
    return Discriminator(net=net, sigma_data=float(sigma_data), precondition=precondition)


def _c_in(disc: Discriminator, sig: np.ndarray):
    if not disc.precondition:
        return np.ones_like(sig)
    return 1.0 / np.sqrt(sig**2 + disc.sigma_data**2)


def _disc_input(disc: Discriminator, x: np.ndarray, sig: np.ndarray):
    """Network input [c_in x, embedding(sigma)] and the whitening c_in."""
    c_in = _c_in(disc, sig)
    return np.concatenate([c_in[:, None] * x, sigma_embedding(sig)], axis=1), c_in


def _logit_cached(disc: Discriminator, x: np.ndarray, sig: np.ndarray):
    inp, c_in = _disc_input(disc, x, sig)
    out, cache = forward(disc.net, inp)
    return out[:, 0], inp, cache, c_in


def logit(disc: Discriminator, x, sigma) -> np.ndarray:
    """Raw logit of D(x, sigma), shape (B,)."""
    x = np.asarray(x, dtype=float)
    sig = sigma_batch(sigma, x.shape[0])
    inp, _ = _disc_input(disc, x, sig)
    return predict(disc.net, inp)[:, 0]


def clipped_log_ratio(disc: Discriminator, x, sigma, clip: RatioClip) -> np.ndarray:
    """log of the clipped ratio estimate; stays in log space throughout."""
    ell = logit(disc, x, sigma)
    if not np.all(np.isfinite(ell)):
        raise NumericsError("non-finite discriminator logit")
    lo, hi = clip.log_bounds
    return np.clip(ell, lo, hi)


def disc_update(disc: Discriminator, adam, real, fake, sigma, noise_real,
                noise_fake, r1_gamma: float = 0.0) -> float:
    """One Adam step on the noised logistic loss with R1 on real inputs.

    Loss: mean softplus(-l(real + sigma e1)) + mean softplus(l(fake + sigma e2))
          + (gamma/2) mean ||grad_x l(real + sigma e1)||^2.
    Real and fake batches share the sigma batch but use independent noise.
    Returns the pre-step loss.

    Both batches go through the network as one stacked batch (real rows
    first). Every row of a matrix product is computed independently, and the
    parameter gradients are summed as real-rows plus fake-rows products, so
    the result is bit for bit that of separate real and fake passes. The R1
    input gradient and the parameter gradient of the penalty share one
    reverse chain on the real rows' cache (`nets.scalar_input_grad`).
    """
    real = np.asarray(real, dtype=float)
    fake = np.asarray(fake, dtype=float)
    if real.shape != fake.shape:
        raise DomainError("real and fake batches must have equal shapes")
    if real.ndim != 2 or real.shape[1] != disc.dim:
        raise DomainError(f"batches must have shape (batch, {disc.dim}), got {real.shape}")
    n, dim = real.shape[0], disc.dim
    sig = sigma_batch(sigma, n)
    c_in = _c_in(disc, sig)
    x_real = real + sig[:, None] * np.asarray(noise_real, dtype=float)
    x_fake = fake + sig[:, None] * np.asarray(noise_fake, dtype=float)
    inp = np.empty((2 * n, disc.net.widths[0]))
    inp[:n, :dim] = c_in[:, None] * x_real
    inp[n:, :dim] = c_in[:, None] * x_fake
    inp[:n, dim:] = inp[n:, dim:] = sigma_embedding(sig)

    out, cache = forward(disc.net, inp)
    ell_r, ell_f = out[:n, 0], out[n:, 0]
    loss = float(np.mean(softplus(-ell_r)) + np.mean(softplus(ell_f)))

    g = np.empty((2 * n, 1))
    g[:n, 0] = -sigmoid(-ell_r) / n
    g[n:, 0] = sigmoid(ell_f) / n
    pgrad, _ = backward(disc.net, cache, g, input_grad=False, split=n)

    if r1_gamma > 0.0:
        cache_r = cache.rows(n)
        g_net = scalar_input_grad(disc.net, cache_r)[:, :dim]
        # ||grad_x l||^2 = c_in^2 ||grad_inp l||^2 because of input whitening
        sq = np.sum(g_net**2, axis=1) * c_in**2
        loss += float(0.5 * r1_gamma * np.mean(sq))
        v = np.zeros_like(inp[:n])
        v[:, :dim] = (r1_gamma / n) * (c_in**2)[:, None] * g_net
        _, pgrad_r1 = input_grad_param_grad(disc.net, cache_r, v)
        pgrad += pgrad_r1

    if not np.isfinite(loss):
        raise NumericsError("non-finite discriminator loss")
    disc.net.params = adam.step(disc.net.params, pgrad)
    return loss


def gan_generator_grad(disc: Discriminator, y, sigma, noise):
    """Gradient w.r.t. clean generator outputs y of the non-saturating
    generator GAN loss mean -log D(y + sigma eps).

    The discriminator is frozen; gradients flow through it only. Returns
    (gradient (B, dim), the logits of the noised batch (B,)).
    """
    y = np.asarray(y, dtype=float)
    sig = sigma_batch(sigma, y.shape[0])
    x = y + sig[:, None] * np.asarray(noise, dtype=float)
    ell, _, cache, c_in = _logit_cached(disc, x, sig)
    dldell = -sigmoid(-ell) / y.shape[0]
    _, input_grad = backward(disc.net, cache, dldell[:, None], param_grad=False)
    return input_grad[:, : disc.dim] * c_in[:, None], ell
