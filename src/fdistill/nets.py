"""Fixed-topology MLP with explicit forward/backward passes and Adam.

This is the whole network stack: the generator, the denoiser and the
discriminator are all instances of `FeedForwardNet` with different heads
(the latter two are `ConditionedNet`s, which also carry the data scale that
whitens their input), and every hidden layer uses the silu activation
z * sigmoid(z).
Gradients are closed-form reverse mode for the scalar objective
sum_batch output . output_grad; there is no autodiff graph. A second-order
routine (`input_grad_param_grad`) differentiates the input gradient with
respect to the parameters, which is what the R1 penalty needs.

`forward` keeps what the backward passes reuse (layer inputs,
pre-activations, their sigmoids and the activation's first derivatives,
plus, once asked for, the reverse chain from a unit output gradient);
`predict` computes the same output without keeping any of it, for callers
that only read the output, and evaluates a large batch in row blocks so its
memory stays bounded.

The R1 penalty needs the input gradient of a scalar head and then its
parameter gradient. Both walk back the same chain from out_grad = ones, so
the chain is computed once per cache and shared: `scalar_input_grad` reads
the input gradient from it and `input_grad_param_grad` reuses it. Activation
derivatives and backward deltas are each computed in one buffer, with the
IEEE operations of the textbook expressions in their order, and a product
with a one-row weight (the scalar head) is a broadcast multiply that gives
the bits of the matrix product.
"""

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from ._numerics import row_blocks, sigmoid
from .errors import DomainError, NumericsError

__all__ = [
    "FeedForwardNet",
    "ForwardCache",
    "ConditionedNet",
    "Adam",
    "param_count",
    "init_net",
    "forward",
    "predict",
    "backward",
    "scalar_input_grad",
    "input_grad_param_grad",
    "adam_init",
    "adam_step",
    "ADAM_BETA1",
    "ADAM_BETA2",
    "ADAM_EPS",
    "sigma_embedding",
    "conditioned_init",
    "conditioned_input",
    "EMBED_DIM",
    "HIDDEN_WIDTHS",
]

EMBED_DIM = 16
# Hidden layer widths of the generator, denoiser and discriminator MLPs.
HIDDEN_WIDTHS = (128, 128)
# Frequency band tops out near period ~2 in log sigma: conditioning targets
# are smooth in log sigma, and finer bands let per-level noise imprint as
# wiggles on the sigma response.
_EMBED_FREQS = np.geomspace(0.2, 3.0, EMBED_DIM // 2)


# The silu value and both derivatives are written in terms of s = sigmoid(z),
# computed once per pre-activation z, so a forward pass plus any number of
# backward passes evaluate the transcendental once per layer. Each derivative
# performs the operations of the expression in its comment, in that order, in
# as few buffers as that order allows (IEEE + and * commute, so operand order
# within one operation does not matter).


def _silu_value(z, s, out=None):
    return np.multiply(z, s, out=out)


def _silu_d1(z, s):
    # s * (1.0 + z * (1.0 - s))
    d = np.subtract(1.0, s)
    d *= z
    d += 1.0
    d *= s
    return d


def _silu_d2(z, s):
    # s * (1.0 - s) * (2.0 + z * (1.0 - 2.0 * s))
    d = np.multiply(s, 2.0)
    np.subtract(1.0, d, out=d)
    d *= z
    d += 2.0
    head = np.subtract(1.0, s)
    head *= s
    d *= head
    return d


def _product(a, w):
    """a @ w, bit for bit; a one-row w (inner dimension 1) takes a broadcast
    multiply. numpy runs that shape through its non-BLAS loop, which
    computes 0 + a*b per entry, and adding +0.0 to the broadcast product
    turns its -0 into that +0; every other value is unchanged."""
    if w.shape[0] != 1:
        return a @ w
    out = np.multiply(a, w)
    out += 0.0
    return out


def param_count(widths) -> int:
    return int(sum((win + 1) * wout for win, wout in zip(widths[:-1], widths[1:])))


@dataclass
class FeedForwardNet:
    """widths = (in, hidden..., out); silu on all but the last layer."""

    widths: Tuple[int, ...]
    params: np.ndarray
    _views: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.widths = tuple(int(w) for w in self.widths)
        if len(self.widths) < 2 or any(w < 1 for w in self.widths):
            raise DomainError(f"invalid layer widths {self.widths}")
        self.params = np.asarray(self.params, dtype=float)
        if self.params.shape != (param_count(self.widths),):
            raise DomainError(
                f"parameter vector must have length {param_count(self.widths)}, "
                f"got {self.params.shape}"
            )
        if not np.all(np.isfinite(self.params)):
            raise DomainError("parameters must be finite")

    def layers(self):
        """(W, b) views into the flat parameter vector, one pair per layer;
        built once per assignment of `params`."""
        if self._views is None or self._views[0] is not self.params:
            self._views = (self.params, tuple(_layer_views(self.widths, self.params)))
        return self._views[1]


def _layer_views(widths, flat):
    """(W (out, in), b (out,)) views into a flat vector laid out like params."""
    views = []
    offset = 0
    for win, wout in zip(widths[:-1], widths[1:]):
        w = flat[offset : offset + win * wout].reshape(wout, win)
        offset += win * wout
        b = flat[offset : offset + wout]
        offset += wout
        views.append((w, b))
    return views


def init_net(widths, gen: np.random.Generator, final="he") -> FeedForwardNet:
    """He-scaled normal init; `final` is "he", "zero", or a scale multiplier
    for a Xavier-scaled last layer (biases always start at zero)."""
    chunks = []
    n_layers = len(widths) - 1
    for i, (win, wout) in enumerate(zip(widths[:-1], widths[1:])):
        if i == n_layers - 1 and final == "zero":
            w = np.zeros((wout, win))
        elif i == n_layers - 1 and not isinstance(final, str):
            w = float(final) * gen.standard_normal((wout, win)) / np.sqrt(win)
        else:
            w = gen.standard_normal((wout, win)) * np.sqrt(2.0 / win)
        chunks.append(w.ravel())
        chunks.append(np.zeros(wout))
    return FeedForwardNet(widths=tuple(widths), params=np.concatenate(chunks))


@dataclass
class ForwardCache:
    params_ref: np.ndarray      # identity-checked against net.params in backward
    inputs: list                # a_{l-1} per layer
    preacts: list               # z_l per layer
    shared: list                # sigmoid(z_l) per hidden layer
    d1: list                    # the first silu derivative at z_l per hidden layer
    chain: list = None          # per layer (du, dt) from out_grad = ones, see `_ones_chain`

    def rows(self, start: int, stop: int) -> "ForwardCache":
        """The cache of batch rows [start, stop), as views; the reverse chain
        does not carry over."""
        def part(arrays):
            return [a[start:stop] for a in arrays]

        return ForwardCache(
            params_ref=self.params_ref, inputs=part(self.inputs), preacts=part(self.preacts),
            shared=part(self.shared), d1=part(self.d1),
        )


def _check_input(net: FeedForwardNet, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != net.widths[0]:
        raise DomainError(
            f"input must have shape (batch, {net.widths[0]}), got {x.shape}"
        )
    return x


def forward(net: FeedForwardNet, x: np.ndarray):
    """Batched forward pass; returns (output (B, out), cache for backward)."""
    a = _check_input(net, x)
    layers = net.layers()
    inputs, preacts, shared, d1 = [], [], [], []
    for i, (w, b) in enumerate(layers):
        inputs.append(a)
        z = a @ w.T
        z += b
        preacts.append(z)
        if i < len(layers) - 1:
            s = sigmoid(z)
            shared.append(s)
            d1.append(_silu_d1(z, s))
            a = _silu_value(z, s)
        else:
            a = z
    cache = ForwardCache(params_ref=net.params, inputs=inputs, preacts=preacts,
                         shared=shared, d1=d1)
    return a, cache


def predict(net: FeedForwardNet, x: np.ndarray) -> np.ndarray:
    """forward(net, x)[0] bit for bit, without a cache.

    A batch of 2048 rows or more runs as consecutive balanced blocks
    (`row_blocks`: at least 1024 rows, starting at multiples of 64) written
    into one output array, so the working set is one block's activations
    whatever the batch size; smaller batches are one block.
    """
    x = _check_input(net, x)
    out = np.empty((x.shape[0], net.widths[-1]))
    for start, stop in row_blocks(x.shape[0]):
        out[start:stop] = _predict_rows(net, x[start:stop])
    return out


def _predict_rows(net: FeedForwardNet, a: np.ndarray) -> np.ndarray:
    """The forward output of one block; each layer's arrays are released
    once the next layer's exist."""
    layers = net.layers()
    for i, (w, b) in enumerate(layers):
        a = a @ w.T
        a += b
        if i < len(layers) - 1:
            a = _silu_value(a, sigmoid(a), out=a)
    return a


def backward(net: FeedForwardNet, cache: ForwardCache, out_grad: np.ndarray,
             param_grad: bool = True, input_grad: bool = True):
    """Exact gradients of sum_batch output . out_grad.

    Returns (param_grad flat, input_grad (B, in)); a gradient switched off
    with `param_grad=False` or `input_grad=False` is not computed and comes
    back as None. The cache must come from a forward pass on the current
    parameters; a row view of it (`ForwardCache.rows`) gives the gradients
    of those rows alone.
    """
    if cache.params_ref is not net.params:
        raise DomainError("stale forward cache: parameters changed since forward()")
    gy = np.asarray(out_grad, dtype=float)
    if gy.shape != cache.preacts[-1].shape:
        raise DomainError(
            f"out_grad shape {gy.shape} does not match output {cache.preacts[-1].shape}"
        )
    weights = [w for w, _ in net.layers()]
    flat = np.empty(net.params.size) if param_grad else None
    grads = _layer_views(net.widths, flat) if param_grad else None
    delta = gy
    for l in reversed(range(len(weights))):
        if param_grad:
            gw, gb = grads[l]
            np.matmul(delta.T, cache.inputs[l], out=gw)
            np.sum(delta, axis=0, out=gb)
        if l == 0 and not input_grad:
            return flat, None
        delta = _product(delta, weights[l])
        if l > 0:
            delta *= cache.d1[l - 1]
    return flat, delta


def _ones_chain(net: FeedForwardNet, cache: ForwardCache):
    """The reverse pass of a scalar head from out_grad = ones, once per cache.

    Entry l is (du, dt): the gradient at layer l's output and at its
    pre-activation, with dt = du at the head and dt = du * d1[l] below
    it; du of layer l - 1 is dt @ W_l. These are `backward`'s deltas for
    out_grad = ones, operation for operation.
    """
    if cache.chain is None:
        weights = [w for w, _ in net.layers()]
        dt = np.ones_like(cache.preacts[-1])
        chain = [(dt, dt)]
        for l in reversed(range(1, len(weights))):
            du = _product(dt, weights[l])
            dt = du * cache.d1[l - 1]
            chain.append((du, dt))
        cache.chain = chain[::-1]
    return cache.chain


def _check_scalar_cache(net: FeedForwardNet, cache: ForwardCache, what: str):
    if net.widths[-1] != 1:
        raise DomainError(f"{what} requires a scalar-output net")
    if cache.params_ref is not net.params:
        raise DomainError("stale forward cache: parameters changed since forward()")


def scalar_input_grad(net: FeedForwardNet, cache: ForwardCache) -> np.ndarray:
    """Gradient of each row's scalar output with respect to its input, (B, in).

    Bit for bit `backward(net, cache, ones, param_grad=False)[1]`; the
    reverse chain it reads stays on the cache for `input_grad_param_grad`.
    """
    _check_scalar_cache(net, cache, "scalar_input_grad")
    return _product(_ones_chain(net, cache)[0][1], net.layers()[0][0])


def input_grad_param_grad(net: FeedForwardNet, cache: ForwardCache, v: np.ndarray):
    """Parameter gradient of J = sum_i v_i . grad_x out(x_i), out scalar.

    `cache` is forward(net, x)'s and supplies the primal pass; v is treated as
    constant. Runs a forward-mode pass with tangent v, then reverse mode over
    the combined primal/tangent graph; needs the second derivative of the
    activation. Returns the flat parameter gradient of J.
    """
    _check_scalar_cache(net, cache, "input_grad_param_grad")
    v = np.asarray(v, dtype=float)
    if v.shape != cache.inputs[0].shape:
        raise DomainError(
            f"tangent shape {v.shape} must match input shape {cache.inputs[0].shape}"
        )
    weights = [w for w, _ in net.layers()]
    n_layers = len(weights)

    # Tangent forward pass through the hidden layers, whose last tangent is
    # the head's input tangent; the primal pass is in the cache.
    u = v
    tangents_in, tangents_pre = [], []
    for l, w in enumerate(weights[:-1]):
        tangents_in.append(u)
        t = u @ w.T
        tangents_pre.append(t)
        u = cache.d1[l] * t
    tangents_in.append(u)

    # Reverse over the combined graph. The primal-tangent adjoints (du, dt)
    # are the chain from out_grad = ones; the tangent-primal adjoint da
    # starts at zero, and its pre-activation adjoint is
    # dz = d2 * t * du + d1 * da, with the second silu derivative d2 computed
    # here, the one place that reads it.
    chain = _ones_chain(net, cache)
    da = np.zeros_like(cache.preacts[-1])
    flat = np.empty(net.params.size)
    grads = _layer_views(net.widths, flat)
    for l in reversed(range(n_layers)):
        du, dt = chain[l]
        if l == n_layers - 1:
            dz = da
        else:
            dz = np.multiply(_silu_d2(cache.preacts[l], cache.shared[l]), tangents_pre[l])
            dz *= du
            da *= cache.d1[l]
            dz += da
        gw, gb = grads[l]
        np.matmul(dt.T, tangents_in[l], out=gw)
        gw += dz.T @ cache.inputs[l]
        np.sum(dz, axis=0, out=gb)
        if l > 0:
            da = _product(dz, weights[l])
    return flat


def sigma_embedding(sigma) -> np.ndarray:
    """Sinusoidal features of log sigma: (B, 16), log-spaced frequencies."""
    sig = np.atleast_1d(np.asarray(sigma, dtype=float))
    if np.any(sig <= 0.0) or not np.all(np.isfinite(sig)):
        raise DomainError("sigma embedding requires sigma > 0")
    phase = np.log(sig)[:, None] * _EMBED_FREQS[None, :]
    return np.concatenate([np.sin(phase), np.cos(phase)], axis=1)


@dataclass
class ConditionedNet(FeedForwardNet):
    """A net that reads rows [c_in x, sigma_embedding(sigma)] (see
    `conditioned_input`): the denoiser (a dim-wide head) and the
    discriminator (a scalar head)."""

    sigma_data: float

    @property
    def dim(self) -> int:
        return self.widths[0] - EMBED_DIM


def conditioned_init(dim, out, gen, sigma_data) -> ConditionedNet:
    """He-initialized hidden layers and a zero head: the initial denoiser's
    score is that of N(0, (sigma_data^2 + sigma^2) I), and the initial
    discriminator's ratio estimate is exactly 1."""
    net = init_net((dim + EMBED_DIM, *HIDDEN_WIDTHS, out), gen, final="zero")
    return ConditionedNet(net.widths, net.params, float(sigma_data))


def conditioned_input(cnet: ConditionedNet, x, sig):
    """(rows [c_in x, sigma_embedding(sig)] of `cnet`, c_in), with the EDM
    whitening c_in = 1 / sqrt(sig^2 + sigma_data^2) (Karras et al. 2022).
    `x` may stack batches that share the B levels `sig`, shape (k B, dim);
    the embedding is computed once for all of them."""
    n, dim = sig.shape[0], x.shape[1]
    c_in = 1.0 / np.sqrt(sig**2 + cnet.sigma_data**2)
    inp = np.empty((x.shape[0], dim + EMBED_DIM))
    blocks = inp.reshape(-1, n, dim + EMBED_DIM)
    blocks[:, :, :dim] = c_in[:, None] * x.reshape(-1, n, dim)
    blocks[:, :, dim:] = sigma_embedding(sig)
    return inp, c_in


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class Adam:
    """One network's Adam moments, step count and learning rate. `adam_step`
    rebinds `m` and `v` to fresh arrays and never writes into them, so a
    shallow `dataclasses.replace` is a snapshot."""

    m: np.ndarray
    v: np.ndarray
    step: int
    lr: float


def adam_init(n_params: int, lr: float) -> Adam:
    return Adam(m=np.zeros(n_params), v=np.zeros(n_params), step=0, lr=lr)


def adam_step(opt: Adam, params: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """One Adam update with bias correction; advances `opt`.

    Returns the new parameters in a fresh array, so stale forward caches can
    be detected by identity. A rejected gradient leaves `opt` unchanged.
    """
    params = np.asarray(params, dtype=float)
    grads = np.asarray(grads, dtype=float)
    if params.shape != grads.shape or params.shape != opt.m.shape:
        raise DomainError("params, grads and moments must have equal length")
    if not np.isfinite(grads).all():
        raise NumericsError(
            f"non-finite gradient at index {int(np.argmin(np.isfinite(grads)))}"
        )
    step = opt.step + 1
    # The textbook expressions evaluated op for op in a few buffers.
    tmp = np.multiply(grads, 1.0 - ADAM_BETA1)
    m = np.multiply(opt.m, ADAM_BETA1)
    m += tmp                                    # m = b1 m + (1 - b1) g
    np.square(grads, out=tmp)
    tmp *= 1.0 - ADAM_BETA2
    v = np.multiply(opt.v, ADAM_BETA2)
    v += tmp                                    # v = b2 v + (1 - b2) g^2
    update = np.divide(v, 1.0 - ADAM_BETA2**step)
    np.sqrt(update, out=update)
    update += ADAM_EPS
    np.divide(m, 1.0 - ADAM_BETA1**step, out=tmp)
    np.divide(tmp, update, out=update)          # m_hat / (sqrt(v_hat) + eps)
    update *= opt.lr
    opt.m, opt.v, opt.step = m, v, step
    return np.subtract(params, update, out=update)
