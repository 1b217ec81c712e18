"""Denoiser-as-score: Tweedie conversion, DSM training, score recovery."""

import numpy as np
import pytest

from fdistill import nets, ratio_gan as rg, scorematch as sm
from fdistill import rng as rngmod
from fdistill import teacher as tc
from fdistill.errors import DomainError


class IdealGaussianDenoiser:
    """Closed-form posterior mean for a single-Gaussian data law N(mu, v I)."""

    def __init__(self, mu, v):
        self.mu = np.asarray(mu, dtype=float)
        self.v = float(v)

    def denoise(self, x, sigma):
        sig = np.atleast_1d(np.asarray(sigma, dtype=float))
        shrink = (self.v / (self.v + sig**2))[:, None]
        return self.mu + shrink * (x - self.mu)


class IdealMixtureDenoiser:
    """Tweedie inversion of the exact mixture score: x + sigma^2 score."""

    def __init__(self, gm):
        self.gm = gm

    def denoise(self, x, sigma):
        sig = np.atleast_1d(np.asarray(sigma, dtype=float))
        return x + (sig**2)[:, None] * tc.score(self.gm, x, sig)


class TestFakeScore:
    def test_ideal_gaussian_denoiser_gives_perturbed_score(self):
        mu, v = np.array([1.5, -0.5]), 0.8
        den = IdealGaussianDenoiser(mu, v)
        gen = rngmod.stream(1, 1)
        x = gen.standard_normal((64, 2)) * 2.0
        for sigma in (0.1, 1.0, 5.0):
            got = sm.fake_score(den, x, np.full(64, sigma))
            expected = (mu - x) / (v + sigma**2)
            np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-12)

    def test_identity_net_scores_zero(self):
        dim = 2
        # exact construction (see TestExactConstruction): c_skip = 1, zero head
        den = nets.conditioned_init(dim, dim, rngmod.stream(1, 1), 2**30)
        x = rngmod.stream(1, 2).standard_normal((8, dim))
        np.testing.assert_allclose(sm.fake_score(den, x, np.full(8, 0.7)), np.zeros_like(x),
                                   atol=1e-14)

    def test_zero_sigma_rejected(self):
        den = IdealGaussianDenoiser(np.zeros(1), 1.0)
        with pytest.raises(DomainError, match="finite sigmas > 0"):
            sm.fake_score(den, np.zeros((3, 1)), np.zeros(3))

    def test_continuity_in_sigma(self):
        gen = rngmod.stream(1, 3)
        den = nets.conditioned_init(2, 2, gen, 1.0)
        x = gen.standard_normal((32, 2)) * 3.0
        for sigma in (0.05, 0.5, 5.0):
            a = sm.fake_score(den, x, np.full(32, sigma))
            b = sm.fake_score(den, x, np.full(32, sigma * (1 + 1e-4)))
            bound = 1e-2 * (1.0 + np.abs(a))
            assert np.all(np.abs(a - b) <= bound)

    def test_zero_init_denoiser_scores_like_prior(self):
        """Zero head + preconditioning: score of N(0, (sigma_d^2+sigma^2) I)."""
        gen = rngmod.stream(1, 4)
        den = nets.conditioned_init(2, 2, gen, 2.0)
        x = gen.standard_normal((16, 2))
        got = sm.fake_score(den, x, np.full(16, 0.5))
        np.testing.assert_allclose(got, -x / (4.0 + 0.25), rtol=1e-12)


class TestDsmUpdate:
    def _raw_identity_denoiser(self, dim):
        """x0_hat(x, sigma) = x exactly for sigma^2 < 128 (TestExactConstruction)."""
        return nets.conditioned_init(dim, dim, rngmod.stream(1, 1), 2**30)

    def test_perfect_denoiser_zero_noise_no_update(self):
        den = self._raw_identity_denoiser(2)
        adam = nets.adam_init(den.params.size, lr=0.1)
        x0 = rngmod.stream(2, 1).standard_normal((16, 2))
        before = den.params.copy()
        loss = sm.dsm_update(den, adam, x0, np.full(16, 0.3), np.zeros((16, 2)))
        assert loss == 0.0
        np.testing.assert_array_equal(den.params, before)

    def test_loss_decreases_during_training(self):
        """Median over 5 seeds: first-50 mean loss > last-50 mean loss."""
        teacher = tc.IsotropicGaussianMixture(
            weights=np.array([0.5, 0.5]),
            means=np.array([[-1.0, 0.0], [1.0, 0.5]]),
            variances=np.array([0.3, 0.5]),
        )
        sched = tc.NoiseSchedule(0.01, 5.0, 32)
        drops = []
        for seed in range(5):
            gen = rngmod.stream(seed, 0xA)
            den = nets.conditioned_init(2, 2, gen, teacher.per_coord_std())
            adam = nets.adam_init(den.params.size, lr=2e-3)
            x0 = tc.sample(teacher, 256, rngmod.stream(seed, 99, rngmod.TEACHER_SAMPLE))
            losses = []
            for step in range(500):
                _, sig = sched.draw_levels(gen, 256)
                noise = gen.standard_normal((256, 2))
                losses.append(
                    sm.dsm_update(den, adam, x0, sig, noise, sigma_cap=sched.sigma_min)
                )
            drops.append(np.mean(losses[:50]) - np.mean(losses[-50:]))
        assert np.median(drops) > 0.0

    def test_misaligned_batches_rejected(self):
        den = self._raw_identity_denoiser(2)
        adam = nets.adam_init(den.params.size, lr=0.1)
        with pytest.raises(DomainError):
            sm.dsm_update(den, adam, np.zeros((4, 2)), np.full(4, 1.0), np.zeros((3, 2)))


class TestScoreRecovery:
    def test_fake_score_matches_frozen_affine_student(self):
        """2000 DSM steps on a frozen affine student: RMS score error <= 0.1
        over the middle half of the schedule, 4096 q_t samples per level."""
        student = tc.AffineGenerator(scale=1.2, bias=np.array([0.8, -0.4]))
        sched = tc.NoiseSchedule()
        gen = rngmod.stream(31, 0xB)
        den = nets.conditioned_init(2, 2, gen, 1.2)
        adam = nets.adam_init(den.params.size, lr=1e-2)
        batch = 1024
        for step in range(2000):
            z = gen.standard_normal((batch, 2))
            x0 = student.forward(z)
            _, sig = sched.draw_levels(gen, batch)
            noise = gen.standard_normal((batch, 2))
            sm.dsm_update(den, adam, x0, sig, noise, sigma_cap=sched.sigma_min)

        levels = sched.levels[16:48]  # middle half
        eval_gen = rngmod.stream(32, 0xC)
        worst = 0.0
        for sigma in levels[:: 4]:
            law = student.exact_law()
            z = eval_gen.standard_normal((4096, 2))
            eps = eval_gen.standard_normal((4096, 2))
            x = student.forward(z) + float(sigma) * eps
            got = sm.fake_score(den, x, np.full(4096, float(sigma)))
            want = tc.score(law, x, float(sigma))
            rms = float(np.sqrt(np.mean(np.sum((got - want) ** 2, axis=1))))
            worst = max(worst, rms)
        assert worst <= 0.1


class TestExactConstruction:
    """sigma_data = 2**30 makes the preconditioning exact: sigma^2 + 2**60
    rounds to 2**60 while sigma^2 < 128 (half an ulp of 2**60), so
    c_in = 2**-30, c_skip = 1 and c_out = sigma^2, all without rounding.
    Tests build analytic nets on this."""

    @pytest.mark.parametrize("sigma", [0.002, 0.3, 0.5, 11.0])
    def test_coefficients_exact(self, sigma):
        sig = np.full(3, sigma)
        den = nets.conditioned_init(2, 2, rngmod.stream(1, 1), 2**30)
        c_skip, c_out = sm._coeffs(den, sig)
        np.testing.assert_array_equal(c_skip, np.ones(3))
        np.testing.assert_array_equal(c_out, sig**2)
        # the whitening both the denoiser and the discriminator use
        x = rngmod.stream(1, 2).standard_normal((3, 2))
        inp, c_in = nets.conditioned_input(den, x, sig)
        np.testing.assert_array_equal(c_in, np.full(3, 2.0**-30))
        np.testing.assert_array_equal(inp[:, :2] * 2.0**30, x)
        disc = nets.conditioned_init(2, 1, rngmod.stream(1, 3), 2**30)
        np.testing.assert_array_equal(rg._logit_cached(disc, x, sig)[3], c_in)

    def test_breaks_once_sigma_squared_exceeds_128(self):
        # sigma^2 + 2**60 rounds up to 2**60 + 256, so c_skip is below 1
        den = nets.conditioned_init(2, 2, rngmod.stream(1, 1), 2**30)
        c_skip, _ = sm._coeffs(den, np.full(1, 12.0))
        assert c_skip[0] < 1.0
