"""Discriminator: auxiliary GAN losses and the density-ratio estimate.

The scalar head output is interpreted as a logit, so D = sigmoid(logit) and

    exp(logit) = D / (1 - D)

is the density-ratio estimate; at the Bayes optimum the logit converges to
log p_sigma(x) - log q_sigma(x). Ratios are clipped in log space before any
exponentiation, to the log bounds the caller passes (the training loop takes
them from the run config's `r_min` and `r_max`, which the config schema
bounds). Each function takes sigma as an (n,) batch of finite values > 0
and refuses any other with `_numerics.sigma_batch`'s one line before any
arithmetic reads it, so a refused call changes no parameter.

The discriminator objective is the noised logistic GAN loss plus an R1
gradient penalty on real inputs. The generator side takes the non-saturating
form -log D.
"""

import numpy as np

from ._numerics import sigma_batch, sigmoid, softplus
from .errors import DomainError, NumericsError
from .nets import (Adam, ConditionedNet, adam_step, backward, conditioned_input, forward,
                   input_grad_param_grad, predict, scalar_input_grad)

__all__ = [
    "logit",
    "clipped_log_ratio",
    "disc_update",
    "gan_generator_grad",
]


def _logit_cached(disc: ConditionedNet, x: np.ndarray, sig: np.ndarray):
    inp, c_in = conditioned_input(disc, x, sig)
    out, cache = forward(disc, inp)
    return out[:, 0], inp, cache, c_in


def logit(disc: ConditionedNet, x, sigma) -> np.ndarray:
    """Raw logit of D(x, sigma), shape (B,)."""
    x = np.asarray(x, dtype=float)
    sig = sigma_batch(sigma, x.shape[0])
    inp, _ = conditioned_input(disc, x, sig)
    return predict(disc, inp)[:, 0]


def clipped_log_ratio(disc: ConditionedNet, x, sigma, lo, hi) -> np.ndarray:
    """log of the ratio estimate clipped to the log bounds [lo, hi]; stays in
    log space throughout."""
    ell = logit(disc, x, sigma)
    if not np.all(np.isfinite(ell)):
        raise NumericsError("non-finite discriminator logit")
    return np.clip(ell, lo, hi)


def disc_update(disc: ConditionedNet, opt: Adam, real, fake, sigma, noise_real,
                noise_fake, r1_gamma: float = 0.0) -> float:
    """One Adam step on the noised logistic loss with R1 on real inputs.

    Loss: mean softplus(-l(real + sigma e1)) + mean softplus(l(fake + sigma e2))
          + (gamma/2) mean ||grad_x l(real + sigma e1)||^2.
    Real and fake batches share the sigma batch but use independent noise.
    Returns the pre-step loss.

    Both batches go through the network as one stacked forward pass (real
    rows first); the parameter gradient is the backward pass of the real
    rows' view of its cache plus the fake rows', and R1 shares the real
    view's reverse chain (`nets.scalar_input_grad`). A product's row can round
    otherwise in another stack, so the logits equal separate passes only at
    some batch sizes (the scalar head's differ at most sizes that are not a
    multiple of 4); reruns give the same bits, and at 128 rows so do separate
    passes (`TestStackedDiscUpdate`).
    """
    real = np.asarray(real, dtype=float)
    fake = np.asarray(fake, dtype=float)
    if real.shape != fake.shape:
        raise DomainError("real and fake batches must have equal shapes")
    if real.ndim != 2 or real.shape[1] != disc.dim:
        raise DomainError(f"batches must have shape (batch, {disc.dim}), got {real.shape}")
    n, dim = real.shape[0], disc.dim
    sig = sigma_batch(sigma, n)
    x = np.concatenate([real + sig[:, None] * np.asarray(noise_real, dtype=float),
                        fake + sig[:, None] * np.asarray(noise_fake, dtype=float)])
    inp, c_in = conditioned_input(disc, x, sig)

    out, cache = forward(disc, inp)
    ell_r, ell_f = out[:n, 0], out[n:, 0]
    loss = float(np.mean(softplus(-ell_r)) + np.mean(softplus(ell_f)))

    cache_r = cache.rows(0, n)
    pgrad, _ = backward(disc, cache_r, (-sigmoid(-ell_r) / n)[:, None], input_grad=False)
    pgrad += backward(disc, cache.rows(n, 2 * n), (sigmoid(ell_f) / n)[:, None],
                      input_grad=False)[0]

    if r1_gamma > 0.0:
        g_net = scalar_input_grad(disc, cache_r)[:, :dim]
        # ||grad_x l||^2 = c_in^2 ||grad_inp l||^2 because of input whitening
        sq = np.sum(g_net**2, axis=1) * c_in**2
        loss += float(0.5 * r1_gamma * np.mean(sq))
        v = np.zeros_like(inp[:n])
        v[:, :dim] = (r1_gamma / n) * (c_in**2)[:, None] * g_net
        pgrad += input_grad_param_grad(disc, cache_r, v)

    if not np.isfinite(loss):
        raise NumericsError("non-finite discriminator loss")
    disc.params = adam_step(opt, disc.params, pgrad)
    return loss


def gan_generator_grad(disc: ConditionedNet, y, sigma, noise):
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
    _, input_grad = backward(disc, cache, dldell[:, None], param_grad=False)
    return input_grad[:, : disc.dim] * c_in[:, None], ell
