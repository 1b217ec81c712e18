"""MLP stack: exact reverse-mode gradients, Adam, sigma conditioning."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fdistill import nets
from fdistill import rng as rngmod
from fdistill._numerics import sigmoid
from fdistill.errors import DomainError, NumericsError

# silu is the only activation; the tests that ran once per activation keep
# it as a parameter, so their ids still name it.
SILU = pytest.mark.parametrize("activation", ["silu"])


def random_net(gen, widths):
    return nets.init_net(widths, gen)


def scalar_objective(net, x, gy):
    y, _ = nets.forward(net, x)
    return float(np.sum(y * gy))


# Plain references with the same arithmetic as the network core: every
# activation derivative recomputed from z, gradients assembled by
# concatenation, the primal forward re-run for the second-order pass. The
# core reuses intermediates instead, which must not change a bit.
def _ref_sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def ref_act(z):
    return z * _ref_sigmoid(z)


def ref_act_d1(z):
    return _ref_sigmoid(z) * (1.0 + z * (1.0 - _ref_sigmoid(z)))


def ref_act_d2(z):
    return _ref_sigmoid(z) * (1.0 - _ref_sigmoid(z)) * (2.0 + z * (1.0 - 2.0 * _ref_sigmoid(z)))


def ref_forward(net, x):
    layers = net.layers()
    a, inputs, preacts = x, [], []
    for i, (w, b) in enumerate(layers):
        inputs.append(a)
        z = a @ w.T + b
        preacts.append(z)
        a = ref_act(z) if i < len(layers) - 1 else z
    return a, inputs, preacts


def ref_backward(net, x, gy):
    _, inputs, preacts = ref_forward(net, x)
    weights = [w for w, _ in net.layers()]
    grads = [None] * len(weights)
    delta = gy
    for l in reversed(range(len(weights))):
        grads[l] = (delta.T @ inputs[l], delta.sum(axis=0))
        delta = delta @ weights[l]
        if l > 0:
            delta = delta * ref_act_d1(preacts[l - 1])
    flat = np.concatenate([np.concatenate([gw.ravel(), gb]) for gw, gb in grads])
    return flat, delta


def ref_input_grad_param_grad(net, x, v):
    weights = [w for w, _ in net.layers()]
    n_layers = len(weights)
    a, u = x, v
    inputs, preacts, tangents_in, tangents_pre = [], [], [], []
    for i, (w, b) in enumerate(net.layers()):
        inputs.append(a)
        tangents_in.append(u)
        z = a @ w.T + b
        t = u @ w.T
        preacts.append(z)
        tangents_pre.append(t)
        if i < n_layers - 1:
            a, u = ref_act(z), ref_act_d1(z) * t
        else:
            a, u = z, t
    du, da = np.ones_like(u), np.zeros_like(a)
    grads = [None] * n_layers
    for l in reversed(range(n_layers)):
        if l == n_layers - 1:
            dt, dz = du, da
        else:
            phi1 = ref_act_d1(preacts[l])
            dt = phi1 * du
            dz = ref_act_d2(preacts[l]) * tangents_pre[l] * du + phi1 * da
        grads[l] = (dt.T @ tangents_in[l] + dz.T @ inputs[l], dz.sum(axis=0))
        du, da = dt @ weights[l], dz @ weights[l]
    flat = np.concatenate([np.concatenate([gw.ravel(), gb]) for gw, gb in grads])
    return flat


def fd_param_grad(net, x, gy, idx, step=1e-5):
    base = net.params.copy()
    out = []
    for sign in (1.0, -1.0):
        shifted = base.copy()
        shifted[idx] += sign * step
        probe = nets.FeedForwardNet(net.widths, shifted)
        out.append(scalar_objective(probe, x, gy))
    return (out[0] - out[1]) / (2 * step)


class TestForward:
    def test_zero_parameters_give_zero_output(self):
        net = nets.FeedForwardNet((3, 8, 2), np.zeros(nets.param_count((3, 8, 2))))
        y, _ = nets.forward(net, np.ones((5, 3)))
        np.testing.assert_array_equal(y, np.zeros((5, 2)))

    def test_identity_single_layer(self):
        params = np.concatenate([np.eye(3).ravel(), np.zeros(3)])
        net = nets.FeedForwardNet((3, 3), params)
        x = rngmod.stream(1, 1).standard_normal((4, 3))
        y, _ = nets.forward(net, x)
        np.testing.assert_array_equal(y, x)

    def test_forward_is_deterministic(self):
        gen = rngmod.stream(2, 1)
        net = random_net(gen, (4, 16, 16, 2))
        x = gen.standard_normal((6, 4))
        y1, _ = nets.forward(net, x)
        y2, _ = nets.forward(net, x)
        np.testing.assert_array_equal(y1, y2)

    def test_shape_mismatch_rejected(self):
        gen = rngmod.stream(2, 2)
        net = random_net(gen, (4, 8, 2))
        with pytest.raises(DomainError):
            nets.forward(net, np.zeros((3, 5)))

    def test_layer_views_follow_params_assignment(self):
        net = random_net(rngmod.stream(2, 3), (4, 8, 2))
        first = net.layers()
        assert net.layers() is first
        net.params = 2.0 * net.params
        second = net.layers()
        assert second is not first
        for (w, b), (w0, b0) in zip(second, first):
            assert np.shares_memory(w, net.params) and np.shares_memory(b, net.params)
            np.testing.assert_array_equal(w, 2.0 * w0)
            np.testing.assert_array_equal(b, 2.0 * b0)


class TestPredict:
    @pytest.mark.parametrize("batch", [1, 128, 10000])
    @SILU
    def test_equals_forward_output_bitwise(self, activation, batch):
        gen = rngmod.stream(3, 20)
        net = random_net(gen, (18, 128, 128, 2))
        x = gen.standard_normal((batch, 18))
        x_before = x.copy()
        out = nets.predict(net, x)
        assert out.tobytes() == nets.forward(net, x)[0].tobytes()
        assert out.tobytes() == ref_forward(net, x)[0].tobytes()
        np.testing.assert_array_equal(x, x_before)

    def test_bad_input_shape_rejected(self):
        net = random_net(rngmod.stream(3, 21), (4, 3, 2))
        with pytest.raises(DomainError, match="shape"):
            nets.predict(net, np.zeros((3, 5)))

    # Generator (2-D latent, 2 outputs) and discriminator (data plus sigma
    # embedding in, 1 output) shapes; the 100001-row case runs on the
    # generator only, where one full hidden activation is 100 MB. The
    # discriminator's 4097 and 12345 rows are pinned below, against a
    # one-thread reference.
    @pytest.mark.parametrize("widths, batch", [
        *[((2, 128, 128, 2), n) for n in (1, 128, 2047, 2048, 2049, 3071, 10000, 100001)],
        *[((18, 128, 128, 1), n) for n in (1, 128, 2047, 2048, 2049, 3071, 10000)],
        *[((2, 128, 128, 2), n) for n in (4097, 12345)],
    ])
    @SILU
    def test_blocked_equals_one_shot_bitwise(self, activation, widths, batch):
        """A batch evaluated in row blocks gives the bits of one pass over
        the whole batch, at and around the block boundaries."""
        net = random_net(rngmod.stream(3, 23), widths)
        x = rngmod.stream(3, 24, batch).standard_normal((batch, widths[0]))
        layers = net.layers()
        expected = x
        for i, (w, b) in enumerate(layers):     # the single-pass loop
            expected = expected @ w.T
            expected += b
            if i < len(layers) - 1:
                expected = nets._silu_value(expected, sigmoid(expected), out=expected)
        out = nets.predict(net, x)
        assert out.shape == (batch, widths[-1])
        assert out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("batch", [4097, 12345])
    def test_blocked_discriminator_equals_one_thread_one_shot_bitwise(self, batch, tmp_path):
        """At these odd sizes one pass over the discriminator shape gives
        other last bits at 2 BLAS threads than at 1, so the reference is the
        one pass in a child process with one BLAS thread. The blocks give
        its bits at any thread count."""
        widths = (18, 128, 128, 1)
        script = ("import sys\n"
                  "import numpy as np\n"
                  "from fdistill import nets, rng as rngmod\n"
                  "batch = int(sys.argv[1])\n"
                  f"net = nets.init_net({widths}, rngmod.stream(3, 23))\n"
                  f"x = rngmod.stream(3, 24, batch).standard_normal((batch, {widths[0]}))\n"
                  "np.save(sys.argv[2], nets.forward(net, x)[0])\n")
        src = str(Path(nets.__file__).resolve().parents[1])
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        ref = tmp_path / "one_shot.npy"
        proc = subprocess.run([sys.executable, "-c", script, str(batch), str(ref)], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        net = random_net(rngmod.stream(3, 23), widths)
        x = rngmod.stream(3, 24, batch).standard_normal((batch, widths[0]))
        assert nets.predict(net, x).tobytes() == np.load(ref).tobytes()

    def test_blocked_peak_is_that_of_one_short_block(self):
        """10,000 rows run as balanced blocks of at most 1,168 rows, so
        `predict` peaks no higher than one pass over 1,300 rows, although it
        also holds the whole 10,000-row output."""
        net = random_net(rngmod.stream(3, 23), (2, 128, 128, 2))
        x = rngmod.stream(3, 24, 10000).standard_normal((10000, 2))
        peaks = []
        for rows in (x, x[:1300]):
            tracemalloc.start()
            try:
                nets.predict(net, rows)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= peaks[1], peaks


# Values where the order or buffer of an operation could show: signed zeros,
# infinities, NaN, subnormals and magnitudes near overflow and underflow.
SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                    2.2250738585072014e-308, -1e-200, 1e-200, 1e300, -1e300, 1.0, -1.0])


def special_mix(gen, shape):
    """Normals of random decimal magnitude, about a third replaced by SPECIAL."""
    a = gen.standard_normal(shape) * 10.0 ** gen.integers(-200, 200, shape)
    mask = gen.random(shape) < 0.3
    a[mask] = gen.choice(SPECIAL, int(mask.sum()))
    return a


class TestHeadProduct:
    """A product with a one-row weight runs as a broadcast multiply plus
    +0.0, which must give the bits of numpy's matmul."""

    def test_one_row_weight_matches_matmul_bitwise(self):
        gen = np.random.default_rng(7)
        for case in range(200):
            n = int(gen.choice([1, 2, 3, 7, 128, 256]))
            m = int(gen.choice([1, 2, 5, 128]))
            a = special_mix(gen, (n, 1))
            w = special_mix(gen, (1, m))
            if case % 3 == 0:   # strided views of larger buffers
                a = np.repeat(a, 3, axis=1)[:, 1:2]
                w = np.repeat(w, 2, axis=0)[1:2].repeat(2, axis=1)[:, ::2]
            with np.errstate(all="ignore"):
                expected = a @ w
                out = nets._product(a, w)
            assert out.tobytes() == expected.tobytes(), (n, m)

    def test_product_with_zero_weights_has_no_negative_zero(self):
        a = np.array([[-1.0], [2.0], [-1e-200]])
        out = nets._product(a, np.array([[0.0, -0.0, 1e-200]]))
        assert out.tobytes() == (a @ np.array([[0.0, -0.0, 1e-200]])).tobytes()
        assert not np.signbit(out[:, :2]).any()


class TestActivationDerivatives:
    """The one-buffer derivatives give the bits of the one-line expressions."""

    @SILU
    def test_match_one_line_expressions_bitwise(self, activation):
        gen = np.random.default_rng(11)
        z = np.concatenate([SPECIAL, gen.standard_normal(2000) * 4.0,
                            special_mix(gen, 2000)]).reshape(-1, 6)
        for zz in (z, z[:, ::2]):
            with np.errstate(all="ignore"):
                s = sigmoid(zz)
                one_d1 = s * (1.0 + zz * (1.0 - s))
                one_d2 = s * (1.0 - s) * (2.0 + zz * (1.0 - 2.0 * s))
                assert nets._silu_d1(zz, s).tobytes() == one_d1.tobytes()
                assert nets._silu_d2(zz, s).tobytes() == one_d2.tobytes()


class TestBackward:
    @SILU
    def test_matches_reference_bitwise(self, activation):
        gen = rngmod.stream(3, 22)
        net = random_net(gen, (18, 128, 128, 2))
        x = gen.standard_normal((128, 18))
        gy = gen.standard_normal((128, 2))
        _, cache = nets.forward(net, x)
        pgrad, xgrad = nets.backward(net, cache, gy)
        ref_pgrad, ref_xgrad = ref_backward(net, x, gy)
        assert pgrad.tobytes() == ref_pgrad.tobytes()
        assert xgrad.tobytes() == ref_xgrad.tobytes()
        only_params, none = nets.backward(net, cache, gy, input_grad=False)
        none2, only_input = nets.backward(net, cache, gy, param_grad=False)
        assert none is None and none2 is None
        assert only_params.tobytes() == ref_pgrad.tobytes()
        assert only_input.tobytes() == ref_xgrad.tobytes()

    @pytest.mark.parametrize("k", [16, 77, 128, 240])
    def test_row_views_match_separate_passes_bitwise(self, k):
        """backward on a row view of a stacked cache gives the bits of a
        pass over those rows alone. Both views keep at least 16 rows: a
        forward pass over fewer rows can round its hidden layers otherwise
        than the stacked pass does."""
        gen = rngmod.stream(3, 23)
        net = random_net(gen, (18, 128, 128, 1))
        x = gen.standard_normal((256, 18))
        gy = gen.standard_normal((256, 1))
        _, cache = nets.forward(net, x)
        for start, stop in ((0, k), (k, 256)):
            pgrad, xgrad = nets.backward(net, cache.rows(start, stop), gy[start:stop])
            ref_pgrad, ref_xgrad = ref_backward(net, x[start:stop], gy[start:stop])
            assert pgrad.tobytes() == ref_pgrad.tobytes()
            assert xgrad.tobytes() == ref_xgrad.tobytes()

    def test_zero_out_grad_gives_zero_grads(self):
        gen = rngmod.stream(3, 1)
        net = random_net(gen, (3, 10, 2))
        x = gen.standard_normal((7, 3))
        y, cache = nets.forward(net, x)
        pgrad, xgrad = nets.backward(net, cache, np.zeros_like(y))
        assert not pgrad.any() and not xgrad.any()

    def test_linear_net_input_grad_is_w_transpose(self):
        gen = rngmod.stream(3, 2)
        w = gen.standard_normal((2, 4))
        net = nets.FeedForwardNet((4, 2), np.concatenate([w.ravel(), np.zeros(2)]))
        x = gen.standard_normal((5, 4))
        gy = gen.standard_normal((5, 2))
        _, cache = nets.forward(net, x)
        _, xgrad = nets.backward(net, cache, gy)
        np.testing.assert_allclose(xgrad, gy @ w, atol=1e-14)

    @SILU
    def test_param_grads_match_finite_differences(self, activation):
        """20 random (net, input, out_grad) triples."""
        gen = rngmod.stream(3, 3)
        worst = 0.0
        for trial in range(20):
            widths = (3, 6, 5, 2)
            net = random_net(gen, widths)
            x = gen.standard_normal((4, 3))
            gy = gen.standard_normal((4, 2))
            _, cache = nets.forward(net, x)
            pgrad, _ = nets.backward(net, cache, gy)
            idxs = gen.integers(0, net.params.size, size=12)
            for idx in idxs:
                fd = fd_param_grad(net, x, gy, int(idx))
                denom = max(abs(fd), abs(pgrad[idx]), 1e-8)
                worst = max(worst, abs(fd - pgrad[idx]) / denom)
        assert worst <= 1e-4

    def test_input_grads_match_finite_differences(self):
        gen = rngmod.stream(3, 4)
        net = random_net(gen, (3, 8, 1))
        x = gen.standard_normal((2, 3))
        gy = gen.standard_normal((2, 1))
        _, cache = nets.forward(net, x)
        _, xgrad = nets.backward(net, cache, gy)
        step = 1e-6
        for i in range(x.shape[0]):
            for j in range(x.shape[1]):
                xp, xm = x.copy(), x.copy()
                xp[i, j] += step
                xm[i, j] -= step
                fd = (scalar_objective(net, xp, gy) - scalar_objective(net, xm, gy)) / (
                    2 * step
                )
                assert xgrad[i, j] == pytest.approx(fd, rel=1e-4, abs=1e-7)

    def test_stale_cache_rejected(self):
        gen = rngmod.stream(3, 5)
        net = random_net(gen, (3, 8, 2))
        x = gen.standard_normal((4, 3))
        y, cache = nets.forward(net, x)
        net.params = net.params.copy()  # fresh array = parameters "changed"
        with pytest.raises(DomainError, match="stale"):
            nets.backward(net, cache, y)

    def test_chain_rule_composition(self):
        """Backward through stacked nets equals backward through their
        concatenation (same weights, activation applied at the junction)."""
        gen = rngmod.stream(3, 6)
        net1 = random_net(gen, (3, 6, 4))
        net2 = random_net(gen, (4, 5, 2))
        joined = nets.FeedForwardNet(
            (3, 6, 4, 5, 2), np.concatenate([net1.params, net2.params])
        )
        x = gen.standard_normal((5, 3))
        gy = gen.standard_normal((5, 2))

        yj, cache_j = nets.forward(joined, x)
        pg_joined, xg_joined = nets.backward(joined, cache_j, gy)

        y1, cache1 = nets.forward(net1, x)
        a1 = nets._silu_value(y1, sigmoid(y1))
        y2, cache2 = nets.forward(net2, a1)
        pg2, ga1 = nets.backward(net2, cache2, gy)
        gy1 = ga1 * nets._silu_d1(y1, sigmoid(y1))
        pg1, xg_stacked = nets.backward(net1, cache1, gy1)

        np.testing.assert_allclose(yj, y2, atol=1e-12)
        np.testing.assert_allclose(
            pg_joined, np.concatenate([pg1, pg2]), atol=1e-10
        )
        np.testing.assert_allclose(xg_joined, xg_stacked, atol=1e-10)


class TestInputGradParamGrad:
    """Second-order path used by the R1 penalty."""

    @SILU
    def test_matches_finite_difference_over_params(self, activation):
        gen = rngmod.stream(4, 1)
        net = random_net(gen, (3, 6, 4, 1))
        x = gen.standard_normal((5, 3))
        v = gen.standard_normal((5, 3))

        def objective(params):
            probe = nets.FeedForwardNet(net.widths, params)
            _, cache = nets.forward(probe, x)
            _, xgrad = nets.backward(probe, cache, np.ones((5, 1)))
            return float(np.sum(xgrad * v))

        _, cache = nets.forward(net, x)
        pgrad = nets.input_grad_param_grad(net, cache, v)
        step = 1e-6
        idxs = gen.integers(0, net.params.size, size=25)
        for idx in idxs:
            plus, minus = net.params.copy(), net.params.copy()
            plus[int(idx)] += step
            minus[int(idx)] -= step
            fd = (objective(plus) - objective(minus)) / (2 * step)
            assert pgrad[int(idx)] == pytest.approx(fd, rel=2e-4, abs=1e-7)

    @SILU
    def test_matches_reference_bitwise(self, activation):
        """The cache's primal pass and derivatives, reused, give the bits of
        a pass that recomputes them; so does the cache of leading rows."""
        gen = rngmod.stream(4, 3)
        net = random_net(gen, (18, 128, 128, 1))
        x = gen.standard_normal((256, 18))
        v = gen.standard_normal((128, 18))
        _, cache = nets.forward(net, x)
        real = cache.rows(0, 128)
        # both row views' backward passes first, as disc_update runs them
        nets.backward(net, real, np.ones((128, 1)))
        nets.backward(net, cache.rows(128, 256), np.ones((128, 1)))
        pgrad = nets.input_grad_param_grad(net, real, v)
        ref_pgrad = ref_input_grad_param_grad(net, x[:128], v)
        assert pgrad.tobytes() == ref_pgrad.tobytes()

    def test_stale_cache_rejected(self):
        gen = rngmod.stream(4, 4)
        net = random_net(gen, (3, 6, 1))
        _, cache = nets.forward(net, np.zeros((2, 3)))
        net.params = net.params.copy()
        with pytest.raises(DomainError, match="stale"):
            nets.input_grad_param_grad(net, cache, np.zeros((2, 3)))
        with pytest.raises(DomainError, match="stale"):
            nets.scalar_input_grad(net, cache)

    def test_requires_scalar_head(self):
        gen = rngmod.stream(4, 2)
        net = random_net(gen, (3, 6, 2))
        _, cache = nets.forward(net, np.zeros((2, 3)))
        with pytest.raises(DomainError):
            nets.input_grad_param_grad(net, cache, np.zeros((2, 3)))
        with pytest.raises(DomainError):
            nets.scalar_input_grad(net, cache)

    @pytest.mark.parametrize("head", ["random", "zero"])
    @SILU
    @pytest.mark.parametrize("input_grad_first", [True, False])
    def test_shared_chain_matches_references_bitwise(self, activation, head,
                                                      input_grad_first):
        """The input gradient and the second-order pass share one reverse
        chain on the cache; in either call order each gives the bits of its
        reference, also with the zero-initialised head, whose products are
        signed zeros."""
        gen = rngmod.stream(4, 5)
        net = nets.init_net((18, 128, 128, 1), gen, final="zero" if head == "zero" else "he")
        x = gen.standard_normal((128, 18))
        v = gen.standard_normal((128, 18))
        _, cache = nets.forward(net, x)
        if input_grad_first:
            xgrad = nets.scalar_input_grad(net, cache)
            pgrad = nets.input_grad_param_grad(net, cache, v)
        else:
            pgrad = nets.input_grad_param_grad(net, cache, v)
            xgrad = nets.scalar_input_grad(net, cache)
        ref_pgrad = ref_input_grad_param_grad(net, x, v)
        assert xgrad.tobytes() == ref_backward(net, x, np.ones((128, 1)))[1].tobytes()
        assert pgrad.tobytes() == ref_pgrad.tobytes()


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        opt = nets.adam_init(4, lr=0.1)
        params = np.array([1.0, -2.0, 0.5, 3.0])
        new_params = nets.adam_step(opt, params, np.zeros(4))
        np.testing.assert_array_equal(new_params, params)
        assert opt.step == 1

    def test_first_step_is_bias_corrected_unit_step(self):
        opt = nets.adam_init(1, lr=0.1)
        params = np.array([5.0])
        new_params = nets.adam_step(opt, params, np.array([1.0]))
        assert new_params[0] == pytest.approx(5.0 - 0.1, abs=1e-8)

    def test_identical_inputs_identical_updates(self):
        gen = rngmod.stream(5, 1)
        params = gen.standard_normal(10)
        grads = gen.standard_normal(10)
        a1, a2 = nets.adam_init(10, lr=0.01), nets.adam_init(10, lr=0.01)
        p1 = nets.adam_step(a1, params.copy(), grads.copy())
        p2 = nets.adam_step(a2, params.copy(), grads.copy())
        np.testing.assert_array_equal(p1, p2)

    def test_matches_textbook_update_bitwise(self):
        """The textbook update with the module's constant betas and eps; the
        step returns fresh arrays and leaves the ones held before it as they
        were, parameters and moments alike."""
        gen = rngmod.stream(5, 2)
        opt = nets.adam_init(50, lr=2e-3)
        b1, b2, eps = nets.ADAM_BETA1, nets.ADAM_BETA2, nets.ADAM_EPS
        assert (b1, b2, eps) == (0.9, 0.999, 1e-8)
        params = gen.standard_normal(50)
        for _ in range(3):
            grads = gen.standard_normal(50)
            step = opt.step + 1
            m = b1 * opt.m + (1.0 - b1) * grads
            v = b2 * opt.v + (1.0 - b2) * grads**2
            update = (m / (1.0 - b1**step)) / (np.sqrt(v / (1.0 - b2**step)) + eps)
            expected = params - opt.lr * update
            held = (params, opt.m, opt.v)
            copies = [a.copy() for a in held]
            new_params = nets.adam_step(opt, params, grads)
            assert new_params.tobytes() == expected.tobytes()
            assert opt.m.tobytes() == m.tobytes()
            assert opt.v.tobytes() == v.tobytes()
            assert opt.step == step
            assert all(new is not old for new, old in zip((new_params, opt.m, opt.v), held))
            for old, copy in zip(held, copies):
                assert old.tobytes() == copy.tobytes()
            params = new_params

    def test_nonfinite_gradient_reports_index(self):
        opt = nets.adam_init(3, lr=0.1)
        grads = np.array([0.0, np.nan, 0.0])
        with pytest.raises(NumericsError, match="index 1"):
            nets.adam_step(opt, np.zeros(3), grads)
        assert opt.step == 0

    def test_first_nonfinite_index_reported(self):
        opt = nets.adam_init(5, lr=0.1)
        grads = np.array([1.0, 2.0, -np.inf, np.nan, np.inf])
        with pytest.raises(NumericsError, match="index 2"):
            nets.adam_step(opt, np.zeros(5), grads)


class TestSigmaEmbedding:
    def test_shape_and_determinism(self):
        emb = nets.sigma_embedding(np.array([0.01, 1.0, 50.0]))
        assert emb.shape == (3, nets.EMBED_DIM)
        np.testing.assert_array_equal(emb, nets.sigma_embedding([0.01, 1.0, 50.0]))

    def test_rejects_zero_sigma(self):
        with pytest.raises(DomainError):
            nets.sigma_embedding(0.0)

    def test_smooth_in_log_sigma(self):
        a = nets.sigma_embedding(1.0)
        b = nets.sigma_embedding(1.0 * (1 + 1e-4))
        assert np.max(np.abs(a - b)) < 1e-2
