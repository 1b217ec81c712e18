"""Discriminator: ratio estimates, GAN losses, R1 penalty."""

from dataclasses import replace

import numpy as np
import pytest

from fdistill import nets, ratio_gan as rg
from fdistill import rng as rngmod
from fdistill._numerics import sigmoid
from test_nets import ref_backward, ref_forward, ref_input_grad_param_grad

R_MIN, R_MAX = 1e-3, 1e3
LOG_BOUNDS = (np.log(R_MIN), np.log(R_MAX))


def identity_logit_disc():
    """1-D discriminator computing l(x) = x exactly for sigma^2 < 128: the
    whitening is c_in = 2**-30 at sigma_data = 2**30 and the weight on x is
    2**30 (test_scorematch.TestExactConstruction)."""
    w = np.zeros((1, 1 + nets.EMBED_DIM))
    w[0, 0] = 2.0**30
    return nets.ConditionedNet(
        (1 + nets.EMBED_DIM, 1), np.concatenate([w.ravel(), np.zeros(1)]), 2.0**30
    )


def train_two_gaussians(lr0=3e-3, lr1=3e-4, steps=6000, batch=1024, seed=1,
                        gap=1.0, r1_gamma=0.0, sigma=0.05):
    """Logistic training to near-optimality on real ~ N(0,1) vs fake ~ N(gap,1).

    The decayed learning rate settles the logit onto the analytic log ratio;
    a constant rate leaves ulp-of-the-tolerance jitter.
    """
    gen = rngmod.stream(seed, 0xD)
    disc = nets.conditioned_init(1, 1, gen, 1.0)
    adam = nets.adam_init(disc.params.size, lr=lr0)
    sig = np.full(batch, sigma)
    last = None
    for step in range(steps):
        adam.lr = lr0 * (lr1 / lr0) ** (step / steps)
        real = gen.standard_normal((batch, 1))
        fake = gen.standard_normal((batch, 1)) + gap
        er = gen.standard_normal((batch, 1))
        ef = gen.standard_normal((batch, 1))
        last = rg.disc_update(disc, adam, real, fake, sig, er, ef, r1_gamma=r1_gamma)
    return disc, last


@pytest.fixture(scope="module")
def near_optimal_disc():
    """One shared near-optimal discriminator for the recovery checks."""
    disc, _ = train_two_gaussians(seed=1)
    return disc


class TestRatioEstimate:
    """The ratio estimate exp(clipped_log_ratio) = clamp(D / (1 - D), r_min, r_max),
    with the log bounds (log r_min, log r_max)."""

    def test_zero_logit_means_ratio_one(self):
        disc = nets.conditioned_init(1, 1, rngmod.stream(1, 1), 1.0)  # zero head
        r = np.exp(rg.clipped_log_ratio(disc, np.zeros((4, 1)), np.full(4, 0.5), *LOG_BOUNDS))
        np.testing.assert_array_equal(r, np.ones(4))

    def test_clipping_applies(self):
        disc = identity_logit_disc()
        r = np.exp(rg.clipped_log_ratio(disc, np.array([[10.0]]), np.full(1, 0.5),
                                        np.log(1e-3), np.log(4.0)))
        assert r[0] == pytest.approx(4.0)

    def test_always_inside_clip_range(self):
        disc = identity_logit_disc()
        gen = rngmod.stream(1, 2)
        x = 50.0 * gen.standard_normal((128, 1))
        r = np.exp(rg.clipped_log_ratio(disc, x, np.full(128, 0.5), *LOG_BOUNDS))
        assert np.all((r >= R_MIN) & (r <= R_MAX))


class TestDiscUpdate:
    def test_indistinguishable_batches_converge_to_2log2(self):
        """Real and fake from the same law: optimum is D = 1/2."""
        gen = rngmod.stream(2, 1)
        disc = nets.conditioned_init(1, 1, gen, 1.0)
        adam = nets.adam_init(disc.params.size, lr=1e-3)
        sig = np.full(256, 0.3)
        losses = []
        for _ in range(800):
            real = gen.standard_normal((256, 1))
            fake = gen.standard_normal((256, 1))
            er = gen.standard_normal((256, 1))
            ef = gen.standard_normal((256, 1))
            losses.append(rg.disc_update(disc, adam, real, fake, sig, er, ef,
                                          r1_gamma=0.0))
        assert np.mean(losses[-100:]) == pytest.approx(2 * np.log(2), abs=0.05)

    def test_gamma_zero_is_bitwise_plain_logistic(self):
        gen = rngmod.stream(2, 2)
        params0 = None
        losses = []
        for gamma in (0.0, 0.0):
            g = rngmod.stream(2, 3)
            disc = nets.conditioned_init(2, 1, g, 1.0)
            adam = nets.adam_init(disc.params.size, lr=1e-3)
            real = g.standard_normal((64, 2))
            fake = g.standard_normal((64, 2)) + 1.0
            sig = np.full(64, 0.5)
            er = g.standard_normal((64, 2))
            ef = g.standard_normal((64, 2))
            losses.append(
                rg.disc_update(disc, adam, real, fake, sig, er, ef, r1_gamma=gamma)
            )
            if params0 is None:
                params0 = disc.params
            else:
                np.testing.assert_array_equal(disc.params, params0)
        assert losses[0] == losses[1]

    def test_separable_clusters_drive_loss_to_zero(self):
        gen = rngmod.stream(2, 4)
        disc = nets.conditioned_init(1, 1, gen, 1.0)
        adam = nets.adam_init(disc.params.size, lr=5e-3)
        sig = np.full(256, 0.05)
        loss = None
        for _ in range(1500):
            real = 0.1 * gen.standard_normal((256, 1)) - 10.0
            fake = 0.1 * gen.standard_normal((256, 1)) + 10.0
            er = gen.standard_normal((256, 1))
            ef = gen.standard_normal((256, 1))
            loss = rg.disc_update(disc, adam, real, fake, sig, er, ef, r1_gamma=0.0)
        assert loss < 0.05

    def test_r1_gradient_matches_finite_difference(self):
        """Full disc_update gradient (logistic + R1) vs FD of the loss."""
        gen = rngmod.stream(2, 5)
        disc = nets.conditioned_init(2, 1, gen, 1.0)
        disc.params = 0.3 * gen.standard_normal(disc.params.size)
        real = gen.standard_normal((8, 2))
        fake = gen.standard_normal((8, 2)) + 0.5
        sig = np.full(8, 0.4)
        er = gen.standard_normal((8, 2))
        ef = gen.standard_normal((8, 2))
        gamma = 0.7

        def loss_at(params):
            probe = nets.ConditionedNet(disc.widths, params, disc.sigma_data)
            xr = real + sig[:, None] * er
            xf = fake + sig[:, None] * ef
            ell_r, inp_r, cache_r, c_in = rg._logit_cached(probe, xr, sig)
            ell_f = rg.logit(probe, xf, sig)
            loss = float(
                np.mean(np.logaddexp(0.0, -ell_r)) + np.mean(np.logaddexp(0.0, ell_f))
            )
            _, igrad = nets.backward(probe, cache_r, np.ones((8, 1)))
            gx = igrad[:, :2] * c_in[:, None]
            return loss + 0.5 * gamma * float(np.mean(np.sum(gx**2, axis=1)))

        # recover the analytic update direction from one Adam step at step 0:
        # first step moves params by -lr * sign-ish, so instead grab gradient
        # directly through a tiny lr and invert the bias-corrected formula.
        base = disc.params.copy()
        probe_disc = nets.ConditionedNet(disc.widths, base.copy(), disc.sigma_data)

        # reimplement the gradient assembly to compare against FD
        xr = real + sig[:, None] * er
        xf = fake + sig[:, None] * ef
        ell_r, inp_r, cache_r, c_in = rg._logit_cached(probe_disc, xr, sig)
        ell_f, _, cache_f, _ = rg._logit_cached(probe_disc, xf, sig)
        g_real = (-sigmoid(-ell_r) / 8)[:, None]
        g_fake = (sigmoid(ell_f) / 8)[:, None]
        pg_r, _ = nets.backward(probe_disc, cache_r, g_real)
        pg_f, _ = nets.backward(probe_disc, cache_f, g_fake)
        _, igrad = nets.backward(probe_disc, cache_r, np.ones((8, 1)))
        g_net = igrad[:, :2]
        v = np.zeros_like(inp_r)
        v[:, :2] = (gamma / 8) * (c_in**2)[:, None] * g_net
        pg_r1 = nets.input_grad_param_grad(probe_disc, cache_r, v)
        analytic = pg_r + pg_f + pg_r1

        step = 1e-6
        idxs = rngmod.stream(2, 6).integers(0, base.size, size=20)
        for idx in idxs:
            plus, minus = base.copy(), base.copy()
            plus[int(idx)] += step
            minus[int(idx)] -= step
            fd = (loss_at(plus) - loss_at(minus)) / (2 * step)
            assert analytic[int(idx)] == pytest.approx(fd, rel=2e-4, abs=1e-8)


class TestStackedDiscUpdate:
    """disc_update runs real and fake rows as one stacked batch and shares
    the real rows' forward pass and reverse chain with R1; a reference built
    from separate passes of the plain reference network code in
    test_nets.py must give the same bits. The batches have 128 rows because
    the stacked forward equals separate passes only at some sizes: at most
    sizes that are not a multiple of 4 the scalar head's product rounds some
    rows otherwise (see `ratio_gan.disc_update`)."""

    @staticmethod
    def reference_update(disc, adam, real, fake, sig, er, ef, r1_gamma):
        n, dim = real.shape
        inp_r, c_in = nets.conditioned_input(disc, real + sig[:, None] * er, sig)
        inp_f, _ = nets.conditioned_input(disc, fake + sig[:, None] * ef, sig)
        ell_r = ref_forward(disc, inp_r)[0][:, 0]
        ell_f = ref_forward(disc, inp_f)[0][:, 0]
        loss = float(np.mean(np.logaddexp(0.0, -ell_r)) + np.mean(np.logaddexp(0.0, ell_f)))
        pg_r, _ = ref_backward(disc, inp_r, (-sigmoid(-ell_r) / n)[:, None])
        pg_f, _ = ref_backward(disc, inp_f, (sigmoid(ell_f) / n)[:, None])
        pgrad = pg_r + pg_f
        if r1_gamma > 0.0:
            _, igrad = ref_backward(disc, inp_r, np.ones((n, 1)))
            g_net = igrad[:, :dim]
            loss += float(0.5 * r1_gamma * np.mean(np.sum(g_net**2, axis=1) * c_in**2))
            v = np.zeros_like(inp_r)
            v[:, :dim] = (r1_gamma / n) * (c_in**2)[:, None] * g_net
            pg_r1 = ref_input_grad_param_grad(disc, inp_r, v)
            pgrad = pgrad + pg_r1
        state_ref = replace(adam)
        new_params = nets.adam_step(state_ref, disc.params, pgrad)
        return loss, new_params, state_ref

    def check_three_steps(self, gen, disc, adam, r1_gamma):
        for _ in range(3):
            real = gen.standard_normal((128, 2))
            fake = gen.standard_normal((128, 2)) + 0.5
            sig = np.exp(gen.uniform(np.log(0.002), np.log(80.0), 128))
            er = gen.standard_normal((128, 2))
            ef = gen.standard_normal((128, 2))
            loss_ref, params_ref, state_ref = self.reference_update(
                disc, adam, real, fake, sig, er, ef, r1_gamma
            )
            loss = rg.disc_update(disc, adam, real, fake, sig, er, ef, r1_gamma=r1_gamma)
            assert loss == loss_ref
            assert disc.params.tobytes() == params_ref.tobytes()
            assert adam.m.tobytes() == state_ref.m.tobytes()
            assert adam.v.tobytes() == state_ref.v.tobytes()

    @pytest.mark.parametrize("r1_gamma", [0.0, 1.0])
    def test_matches_separate_passes_bitwise(self, r1_gamma):
        gen = rngmod.stream(2, 9)
        disc = nets.conditioned_init(2, 1, gen, 1.0)
        disc.params = 0.3 * gen.standard_normal(disc.params.size)
        adam = nets.adam_init(disc.params.size, lr=2e-3)
        self.check_three_steps(gen, disc, adam, r1_gamma)

    # conditioned_init's zero head makes the first step's head products signed
    # zeros. The Adam moments start at -0.0: then m keeps the sign of a zero
    # gradient entry (-0 + -0 = -0, -0 + +0 = +0) and a wrong sign shows in
    # the compared bytes.
    @pytest.mark.parametrize("r1_gamma", [0.0, 1.0])
    def test_zero_head_matches_separate_passes_bitwise(self, r1_gamma):
        gen = rngmod.stream(2, 9)
        disc = nets.conditioned_init(2, 1, gen, 1.0)
        adam = nets.adam_init(disc.params.size, lr=2e-3)
        adam.m[:] = -0.0
        adam.v[:] = -0.0
        self.check_three_steps(gen, disc, adam, r1_gamma)


@pytest.mark.slow
class TestBayesOptimalRecovery:
    SIGMA = 0.05

    def target_logit(self, x):
        # noised pair: N(0, 1+s^2) vs N(1, 1+s^2) -> logit (1/2 - x)/(1+s^2)
        return (0.5 - x) / (1.0 + self.SIGMA**2)

    def test_logit_recovers_analytic_log_ratio(self, near_optimal_disc):
        """N(0,1) vs N(1,1): trained logit ~= 1/2 - x with MAE <= 0.1 on |x| <= 2."""
        xs = np.linspace(-2.0, 2.0, 201)[:, None]
        ell = rg.logit(near_optimal_disc, xs, np.full(201, self.SIGMA))
        assert float(np.mean(np.abs(ell - self.target_logit(xs[:, 0])))) <= 0.1

    def test_ratio_matches_analytic_within_15_percent(self, near_optimal_disc):
        # region where both densities exceed 1e-3 of their max
        xs = np.linspace(-2.717, 3.717, 257)[:, None]
        sig = np.full(xs.shape[0], self.SIGMA)
        est = np.exp(rg.logit(near_optimal_disc, xs, sig))
        truth = np.exp(self.target_logit(xs[:, 0]))
        assert np.max(np.abs(est / truth - 1.0)) <= 0.15

    def test_expected_ratio_under_fake_is_near_one(self, near_optimal_disc):
        gen = rngmod.stream(3, 1)
        xq = gen.standard_normal((10000, 1)) + 1.0
        est = np.exp(rg.logit(near_optimal_disc, xq, np.full(10000, self.SIGMA)))
        assert 0.8 <= float(est.mean()) <= 1.2


class TestGeneratorGrad:
    def test_constant_half_discriminator_gives_zero_gradient(self):
        disc = nets.conditioned_init(2, 1, rngmod.stream(4, 1), 1.0)  # logit == 0
        y = rngmod.stream(4, 2).standard_normal((16, 2))
        g, _ = rg.gan_generator_grad(disc, y, np.full(16, 0.5), np.zeros((16, 2)))
        np.testing.assert_array_equal(g, np.zeros_like(y))

    def test_identity_logit_hand_value(self):
        disc = identity_logit_disc()
        g, _ = rg.gan_generator_grad(
            disc, np.zeros((1, 1)), np.full(1, 0.5), np.zeros((1, 1))
        )
        assert g[0, 0] == pytest.approx(-0.5)

    def test_matches_finite_difference(self):
        gen = rngmod.stream(4, 3)
        disc = nets.conditioned_init(2, 1, gen, 1.0)
        disc.params = 0.3 * gen.standard_normal(disc.params.size)
        y = gen.standard_normal((6, 2))
        sig = np.full(6, 0.7)
        noise = gen.standard_normal((6, 2))
        g, ell = rg.gan_generator_grad(disc, y, sig, noise)
        np.testing.assert_array_equal(ell, rg.logit(disc, y + sig[:, None] * noise, sig))

        def loss_at(y_probe):
            ell = rg.logit(disc, y_probe + sig[:, None] * noise, sig)
            return float(np.mean(np.logaddexp(0.0, -ell)))

        step = 1e-6
        for i in range(y.shape[0]):
            for j in range(2):
                plus, minus = y.copy(), y.copy()
                plus[i, j] += step
                minus[i, j] -= step
                fd = (loss_at(plus) - loss_at(minus)) / (2 * step)
                assert g[i, j] == pytest.approx(fd, rel=1e-4, abs=1e-9)
