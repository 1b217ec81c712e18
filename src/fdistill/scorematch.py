"""Online student score: a sigma-conditioned denoiser trained by DSM.

The network predicts the clean sample x0_hat; the score of the smoothed
student distribution follows from Tweedie's formula,

    grad_x log q_sigma(x) = (x0_hat(x, sigma) - x) / sigma^2.

Predicting x0 keeps regression targets bounded at large sigma. The raw MLP
sees a whitened input x / sqrt(sigma^2 + sigma_data^2) and its output is
mixed back as x0_hat = c_skip x + c_out F (the EDM parameterization, Karras et
al. 2022), so one set of weights serves the whole sigma ladder.
"""

import numpy as np

from ._numerics import sigma_batch
from .errors import DomainError, NumericsError
from .nets import (Adam, ConditionedNet, adam_step, backward, conditioned_input, forward,
                   predict)

__all__ = ["fake_score", "dsm_update"]


def _coeffs(den: ConditionedNet, sig: np.ndarray):
    """(c_skip, c_out); the input whitening c_in is `nets.conditioned_input`'s."""
    # c_out ~ sigma^2: the raw net output is a whitened score residual, so the
    # 1/sigma^2 DSM weight exerts uniform pressure on score accuracy across
    # the ladder instead of letting small-sigma score errors hide inside
    # tiny x0 errors.
    total = sig**2 + den.sigma_data**2
    c_skip = den.sigma_data**2 / total
    c_out = sig**2 * den.sigma_data / np.sqrt(total)
    return c_skip, c_out


def _denoise(den: ConditionedNet, x: np.ndarray, sig: np.ndarray, cached: bool):
    """x0_hat with (cache, c_out) for a backward pass when `cached`, else
    with (None, c_out)."""
    inp, _ = conditioned_input(den, x, sig)
    c_skip, c_out = _coeffs(den, sig)
    if cached:
        raw, cache = forward(den, inp)
    else:
        raw, cache = predict(den, inp), None
    x0_hat = c_skip[:, None] * x + c_out[:, None] * raw
    return x0_hat, cache, c_out


def fake_score(den, x, sigma) -> np.ndarray:
    """Tweedie conversion (x0_hat - x) / sigma^2 at an (n,) batch of finite
    sigmas > 0 (`sigma_batch`).

    Accepts anything with a denoise(x, sigma) method (e.g. analytic ideal
    denoisers in tests) in addition to a `ConditionedNet` denoiser.
    """
    x = np.asarray(x, dtype=float)
    sig = sigma_batch(sigma, x.shape[0])
    if isinstance(den, ConditionedNet):
        x0_hat = _denoise(den, x, sig, cached=False)[0]
    else:
        x0_hat = np.asarray(den.denoise(x, sig), dtype=float)
    return (x0_hat - x) / (sig**2)[:, None]


def dsm_update(den: ConditionedNet, opt: Adam, x0, sigma, noise,
               sigma_cap: float = 0.002) -> float:
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
    x_noisy = x0 + sig[:, None] * noise
    x0_hat, cache, c_out = _denoise(den, x_noisy, sig, cached=True)
    w = np.minimum(sig**-2, float(sigma_cap) ** -2)
    resid = x0_hat - x0
    with np.errstate(over="ignore", invalid="ignore"):
        loss = float(np.mean(w * np.sum(resid**2, axis=1)))
    if not np.isfinite(loss):
        raise NumericsError("non-finite DSM loss: training has diverged")
    out_grad = (2.0 / n) * (w * c_out)[:, None] * resid
    pgrad, _ = backward(den, cache, out_grad, input_grad=False)
    den.params = adam_step(opt, den.params, pgrad)
    return loss
