"""Online student score: a sigma-conditioned denoiser trained by DSM.

The network predicts the clean sample x0_hat; the score of the smoothed
student distribution follows from Tweedie's formula,

    grad_x log q_sigma(x) = (x0_hat(x, sigma) - x) / sigma^2.

Predicting x0 keeps regression targets bounded at large sigma. With
preconditioning on (the default), the raw MLP sees a whitened input
x / sqrt(sigma^2 + sigma_data^2) and its output is mixed back as
x0_hat = c_skip x + c_out F, so one set of weights serves the whole
sigma ladder; `precondition=False` exposes the bare (x, embedding) -> x0_hat
map for analytic constructions in tests.
"""

from dataclasses import dataclass

import numpy as np

from ._numerics import sigma_batch
from .errors import DomainError, NumericsError
from .nets import (
    EMBED_DIM,
    FeedForwardNet,
    backward,
    forward,
    init_net,
    predict,
    sigma_embedding,
)

__all__ = ["Denoiser", "denoiser_init", "denoise", "fake_score", "dsm_update"]


@dataclass
class Denoiser:
    net: FeedForwardNet
    sigma_data: float = 1.0
    precondition: bool = True

    @property
    def dim(self) -> int:
        return self.net.widths[-1]


def denoiser_init(dim, gen, sigma_data=1.0, hidden=(128, 128),
                  precondition=True) -> Denoiser:
    # zero-initialized head: the initial score is that of N(0, (sigma_data^2+sigma^2) I)
    net = init_net((dim + EMBED_DIM, *hidden, dim), gen, final="zero")
    return Denoiser(net=net, sigma_data=float(sigma_data), precondition=precondition)


def _coeffs(den: Denoiser, sig: np.ndarray):
    # c_out ~ sigma^2: the raw net output is a whitened score residual, so the
    # 1/sigma^2 DSM weight exerts uniform pressure on score accuracy across
    # the ladder instead of letting small-sigma score errors hide inside
    # tiny x0 errors.
    if not den.precondition:
        ones = np.ones_like(sig)
        return ones, np.zeros_like(sig), ones
    total = sig**2 + den.sigma_data**2
    c_in = 1.0 / np.sqrt(total)
    c_skip = den.sigma_data**2 / total
    c_out = sig**2 * den.sigma_data / np.sqrt(total)
    return c_in, c_skip, c_out


def _denoise(den: Denoiser, x: np.ndarray, sig: np.ndarray, cached: bool):
    """x0_hat with (cache, c_out) for a backward pass when `cached`, else
    with (None, c_out)."""
    c_in, c_skip, c_out = _coeffs(den, sig)
    inp = np.concatenate([c_in[:, None] * x, sigma_embedding(sig)], axis=1)
    if cached:
        raw, cache = forward(den.net, inp)
    else:
        raw, cache = predict(den.net, inp), None
    x0_hat = c_skip[:, None] * x + c_out[:, None] * raw
    return x0_hat, cache, c_out


def denoise(den: Denoiser, x, sigma) -> np.ndarray:
    """Predicted clean samples x0_hat(x, sigma)."""
    x = np.asarray(x, dtype=float)
    sig = sigma_batch(sigma, x.shape[0])
    if np.any(sig <= 0.0):
        raise DomainError("denoiser conditioning requires sigma > 0")
    x0_hat, _, _ = _denoise(den, x, sig, cached=False)
    return x0_hat


def fake_score(den, x, sigma) -> np.ndarray:
    """Tweedie conversion (x0_hat - x) / sigma^2.

    Accepts anything with a denoise(x, sigma) method (e.g. analytic ideal
    denoisers in tests) in addition to Denoiser.
    """
    x = np.asarray(x, dtype=float)
    sig = sigma_batch(sigma, x.shape[0])
    if np.any(sig == 0.0):
        raise DomainError("score undefined at zero noise for denoiser parameterization")
    if np.any(sig < 0.0):
        raise DomainError("sigma must be >= 0")
    if isinstance(den, Denoiser):
        x0_hat = denoise(den, x, sig)
    else:
        x0_hat = np.asarray(den.denoise(x, sig), dtype=float)
    return (x0_hat - x) / (sig**2)[:, None]


def dsm_update(den: Denoiser, adam, x0, sigma, noise, sigma_cap: float = 0.002) -> float:
    """One Adam step of denoising score matching on generator outputs.

    Loss: mean_i w_i ||x0_hat(x0_i + sigma_i eps_i, sigma_i) - x0_i||^2 with
    w = min(1/sigma^2, 1/sigma_cap^2). Returns the pre-step loss.
    """
    x0 = np.asarray(x0, dtype=float)
    noise = np.asarray(noise, dtype=float)
    if noise.shape != x0.shape:
        raise DomainError(f"noise shape {noise.shape} must match x0 {x0.shape}")
    n = x0.shape[0]
    sig = sigma_batch(sigma, n)
    if np.any(sig <= 0.0):
        raise DomainError("DSM requires sigma > 0")
    x_noisy = x0 + sig[:, None] * noise
    x0_hat, cache, c_out = _denoise(den, x_noisy, sig, cached=True)
    w = np.minimum(sig**-2, float(sigma_cap) ** -2)
    resid = x0_hat - x0
    with np.errstate(over="ignore", invalid="ignore"):
        loss = float(np.mean(w * np.sum(resid**2, axis=1)))
    if not np.isfinite(loss):
        raise NumericsError("non-finite DSM loss: training has diverged")
    out_grad = (2.0 / n) * (w * c_out)[:, None] * resid
    pgrad, _ = backward(den.net, cache, out_grad, input_grad=False)
    den.net.params = adam.step(den.net.params, pgrad)
    return loss
