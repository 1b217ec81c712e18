"""Helpers shared across the package, defined once so that every caller
performs the same IEEE operations: sigmoid, softplus, the row-wise
log-sum-exp, the network sigma rule, the FNV-1a 64 hash behind the
random-stream keys, and the row blocks that large batches are evaluated in."""

import numpy as np

from .errors import DomainError

MASK64 = (1 << 64) - 1
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
# Fewest rows in a block of a large batch. OpenBLAS picks another kernel for
# short GEMMs (a 512-row tail on a 2-column output layer changes the last
# bits), so no block may be shorter than this. Block starts are multiples of
# 64 as well: blocks starting at odd rows gave other last bits than the one
# pass for the (18, 128, 128, 1) discriminator at 3,071 and 10,000 rows
# (multiples of 4 were enough there; 64 leaves room for wider kernels).
_BLOCK_ROWS = 1024
_BLOCK_ALIGN = 64


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


def logsumexp(a, keepdims=False, overwrite_a=False):
    """log(sum(exp(a), axis=1)) of a 2-D float array, bit for bit equal to
    SciPy's `special.logsumexp(a, axis=1)`.

    Performs SciPy's IEEE operations in its order: the row max is split out
    of the sum as its tie count m, the other terms are summed as
    exp(a - max), and the result is log1p(s / m) + log(m) + max. A row whose
    max is not finite (a NaN, a +inf, or all -inf) takes SciPy's fallback
    log(sum(exp(a))). With `overwrite_a` the caller's float64 array is the
    scratch buffer and holds garbage afterwards.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[1] == 0:
        raise DomainError(f"logsumexp needs a 2-D array with columns, got shape {a.shape}")
    top = a.max(axis=1, keepdims=True)
    ties = a == top
    m = ties.sum(axis=1, keepdims=True, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        bad = ~np.isfinite(top[:, 0])
        # read before `a` is overwritten; a finite max gives a finite result
        # (log1p(s) + log(m) is below 2 log(1 + columns))
        fallback = np.log(np.exp(a[bad]).sum(axis=1, keepdims=True)) if bad.any() else None
        e = np.subtract(a, top, out=a if overwrite_a else None)
        np.exp(e, out=e)
        e -= ties   # SciPy sets the ties to -inf first; exp(0) - 1 is the same +0
        s = e.sum(axis=1, keepdims=True)
        np.divide(s, m, out=s, where=s != 0)
        out = np.log1p(s)
        out += np.log(m)
        out += top
    if fallback is not None:
        out[bad] = fallback
    return out if keepdims else out[:, 0]


def sigma_batch(sigma, n: int) -> np.ndarray:
    """The per-sample sigmas of n network inputs: an (n,) batch of finite
    values > 0, checked before any arithmetic reads them."""
    sig = np.asarray(sigma, dtype=float)
    if sig.shape != (n,):
        raise DomainError(f"sigma batch must have shape ({n},), got {sig.shape}")
    if not np.all((sig > 0.0) & (sig < np.inf)):    # NaN fails both
        raise DomainError("network inputs need finite sigmas > 0")
    return sig


def fnv1a64(words) -> int:
    """FNV-1a 64 over an iterable of ints (bytes iterate as ints)."""
    h = _FNV_OFFSET
    for w in words:
        h ^= w
        h = (h * _FNV_PRIME) & MASK64
    return h


def row_blocks(n: int, rows: int = _BLOCK_ROWS):
    """(start, stop) row ranges that cover n rows in order.

    `rows` is first rounded down to a multiple of 64, never below 64. The n
    rows are then cut into k = max(n // rows, 1) balanced blocks: each
    interior boundary is n * i / k rounded down to a multiple of 64. So no
    block is shorter than `rows` unless n is, every block is shorter than
    n / k + 64, and fewer than 2 * rows rows are one block. A block that long,
    starting at such a row, takes the same GEMM kernel as the whole batch
    (default: 1024 rows, for `predict` and `mode_coverage`).
    """
    rows = max(_BLOCK_ALIGN, rows // _BLOCK_ALIGN * _BLOCK_ALIGN)
    k = max(n // rows, 1)
    bounds = [0, *(n * i // k // _BLOCK_ALIGN * _BLOCK_ALIGN for i in range(1, k)), n]
    return list(zip(bounds, bounds[1:]))
