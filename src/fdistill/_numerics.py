"""Helpers shared across the package, defined once so that every caller
performs the same IEEE operations: sigmoid, softplus, the sigma-batch
broadcast, and the FNV-1a 64 hash behind the random-stream keys and
version-1 checkpoint checksums."""

import numpy as np

from .errors import DomainError

MASK64 = (1 << 64) - 1
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def sigmoid(z):
    """0.5 * (1 + tanh(z / 2)), evaluated in one buffer; 0-d input gives 0-d output."""
    s = np.multiply(z, 0.5, out=np.empty(np.shape(z)))
    np.tanh(s, out=s)
    s += 1.0
    s *= 0.5
    return s


def softplus(x):
    """log(1 + e^x), stable for large |x|."""
    return np.logaddexp(0.0, x)


def sigma_batch(sigma, n: int) -> np.ndarray:
    """Per-sample sigmas of shape (n,); a scalar or length-1 sigma is broadcast."""
    sig = np.atleast_1d(np.asarray(sigma, dtype=float))
    if sig.shape == (1,):
        sig = np.full(n, sig[0])
    if sig.shape != (n,):
        raise DomainError(f"sigma batch must have shape ({n},), got {sig.shape}")
    return sig


def fnv1a64(words) -> int:
    """FNV-1a 64 over an iterable of ints (bytes iterate as ints)."""
    h = _FNV_OFFSET
    for w in words:
        h ^= w
        h = (h * _FNV_PRIME) & MASK64
    return h
