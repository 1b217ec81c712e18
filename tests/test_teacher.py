"""Teacher distributions: exact densities, scores, sampling, perturbation."""

import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import energy_distance

from fdistill import _numerics as nm
from fdistill import rng as rngmod
from fdistill import teacher as tc
from fdistill.errors import DomainError, NumericsError

STANDARD_1D = tc.IsotropicGaussianMixture(
    weights=np.array([1.0]), means=np.array([[0.0]]), variances=np.array([1.0])
)

TWO_COMP_1D = tc.IsotropicGaussianMixture(
    weights=np.array([0.5, 0.5]),
    means=np.array([[-1.0], [1.0]]),
    variances=np.array([1.0, 1.0]),
)

MIX_2D = tc.IsotropicGaussianMixture(
    weights=np.array([0.3, 0.45, 0.25]),
    means=np.array([[-2.0, 0.5], [1.0, 1.0], [0.0, -2.0]]),
    variances=np.array([0.6, 1.2, 0.4]),
)


class TestLogDensity:
    def test_standard_normal_at_origin(self):
        assert tc.log_density(STANDARD_1D, np.array([[0.0]]))[0] == pytest.approx(
            -0.5 * np.log(2 * np.pi)
        )

    def test_two_component_hand_value(self):
        # log[(N(-1;0,1)+N(1;0,1))/2] = log N(0;0,1) - 1/2 by symmetry
        got = tc.log_density(TWO_COMP_1D, np.array([[0.0]]))[0]
        assert got == pytest.approx(-0.5 * np.log(2 * np.pi) - 0.5)

    def test_nan_input_rejected(self):
        with pytest.raises(DomainError):
            tc.log_density(STANDARD_1D, np.array([[np.nan]]))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DomainError):
            tc.log_density(MIX_2D, np.array([[1.0]]))

    def test_density_integrates_to_one_1d(self):
        for gm in (STANDARD_1D, TWO_COMP_1D):
            total, _ = integrate.quad(
                lambda x: np.exp(tc.log_density(gm, np.array([[x]]))[0]), -12, 12,
                limit=200,
            )
            assert total == pytest.approx(1.0, abs=1e-3)

    def test_per_sample_sigma_matches_perturb(self):
        """A per-row sigma perturbs each row as that scalar sigma does, bit
        for bit; 2.759 and 4.536 are sigmas whose square Python's `**`
        rounds differently from numpy's."""
        x = np.array([[0.3, -0.5], [1.0, 2.0], [-1.5, 0.2], [2.5, -3.0]])
        sig = np.array([0.5, 2.0, 2.759, 4.536])
        batched = tc.log_density(MIX_2D, x, sig)
        batched_score = tc.score(MIX_2D, x, sig)
        for i, s in enumerate(sig):
            assert batched[i] == tc.log_density(MIX_2D, x[i:i + 1], s)[0]
            assert batched_score[i].tobytes() == tc.score(MIX_2D, x[i:i + 1], s)[0].tobytes()

    def test_subnormal_variance_rounds_without_warning(self):
        """Over a subnormal variance the log density off the mean is below
        the float range and rounds to -inf, and at the mean it is finite;
        neither evaluation warns."""
        gm = tc.make_teacher({"weights": [1], "means": [[0, 0]], "variances": [5e-324]})
        got = tc.log_density(gm, np.array([[1.0, 0.0], [0.0, 0.0]]), 0.0)
        assert got[0] == -np.inf
        assert got[1] == pytest.approx(-np.log(2 * np.pi) - np.log(5e-324))


class TestScore:
    def test_single_gaussian_linear_pull(self):
        gm = tc.IsotropicGaussianMixture(
            weights=np.array([1.0]),
            means=np.array([[0.0, 0.0]]),
            variances=np.array([1.0]),
        )
        np.testing.assert_allclose(
            tc.score(gm, np.array([[2.0, 0.0]]))[0], np.array([-2.0, 0.0])
        )

    def test_zero_at_isolated_mode(self):
        gm = tc.IsotropicGaussianMixture(
            weights=np.array([0.99, 0.01]),
            means=np.array([[0.0, 0.0], [40.0, 0.0]]),
            variances=np.array([0.5, 0.5]),
        )
        assert np.linalg.norm(tc.score(gm, np.array([[0.0, 0.0]]))[0]) <= 1e-6

    def test_matches_finite_difference_of_log_density(self):
        gen = rngmod.stream(7, 0x100)
        idx = gen.integers(0, MIX_2D.n_components, size=100)
        probes = MIX_2D.means[idx] + 5.0 * np.sqrt(
            MIX_2D.variances[idx]
        )[:, None] * gen.uniform(-1, 1, size=(100, 2))
        analytic = tc.score(MIX_2D, probes)
        step = 1e-5
        for axis in range(2):
            shift = np.zeros(2)
            shift[axis] = step
            fd = (
                tc.log_density(MIX_2D, probes + shift)
                - tc.log_density(MIX_2D, probes - shift)
            ) / (2 * step)
            np.testing.assert_allclose(analytic[:, axis], fd, atol=1e-5)


class TestPerturb:
    def test_zero_sigma_is_identity(self):
        x = np.array([[0.3, -0.5], [1.0, 2.0]])
        assert tc.log_density(MIX_2D, x, 0.0).tobytes() == tc.log_density(MIX_2D, x).tobytes()

    def test_variance_additivity(self):
        assert tc.perturbed_variances(STANDARD_1D.variances, 2.0, 1).tolist() == [[5.0]]

    @pytest.mark.parametrize("variance, sigma", [(1.0, 1e200), (1e308, 1e154),
                                                 (1.0, np.array([0.5, 1e200]))],
                             ids=["1.0-1e+200", "1e+308-1e+154", "per-row"])
    def test_overflow_is_one_line_numerics_error(self, variance, sigma):
        """sigma^2 beyond the float range (1e200), a finite sigma^2 whose sum
        with a variance is (1e308 + 1e308), or one such row in a per-row
        batch: no numpy warning, one line naming the largest sigma, from the
        variances and from the density and score that add them."""
        gm = tc.IsotropicGaussianMixture(weights=np.array([1.0]), means=np.zeros((1, 2)),
                                         variances=np.array([variance]))
        x = np.zeros((np.size(sigma), 2))
        want = f"sigma {float(np.max(sigma))!r} overflows the perturbed variance"
        for call in (lambda: tc.perturbed_variances(gm.variances, sigma, x.shape[0]),
                     lambda: tc.log_density(gm, x, sigma), lambda: tc.score(gm, x, sigma)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NumericsError) as info:
                    call()
            assert str(info.value) == want

    def test_sampling_perturbed_equals_sample_plus_noise(self):
        """The mixture with the perturbed variances is the law of x + sigma
        eps: a two-sample energy-distance test on axis projections at n = 1e5."""
        n, sigma = 100000, 1.3
        law = tc.IsotropicGaussianMixture(weights=MIX_2D.weights, means=MIX_2D.means,
                                          variances=tc.perturbed_variances(MIX_2D.variances,
                                                                           sigma, n)[0])
        direct = teacher_draws(law, n, seed=11)
        base = teacher_draws(MIX_2D, n, seed=12)
        noised = base + sigma * rngmod.stream(13, 0x7).standard_normal((n, 2))
        gen = rngmod.stream(14, 0x8)
        for _ in range(4):
            direction = gen.standard_normal(2)
            direction /= np.linalg.norm(direction)
            observed = energy_distance(direct @ direction, noised @ direction)
            # permutation reference: distance between shuffled halves
            pooled = np.concatenate([direct @ direction, noised @ direction])
            null = []
            for _ in range(9):
                gen.shuffle(pooled)
                null.append(energy_distance(pooled[:n], pooled[n:]))
            assert observed <= 2.0 * max(null)


def teacher_draws(gm, n, seed, counter=0):
    """`sample` on the stream the training loop keys its teacher draws by."""
    return tc.sample(gm, n, rngmod.stream(seed, counter, rngmod.TEACHER_SAMPLE))


class TestSample:
    def test_deterministic_given_seed(self):
        a = teacher_draws(MIX_2D, 3, seed=5)
        b = teacher_draws(MIX_2D, 3, seed=5)
        np.testing.assert_array_equal(a, b)

    def test_sample_mean_clt_bound(self):
        gm = tc.IsotropicGaussianMixture(
            weights=np.array([1.0]), means=np.array([[2.5]]), variances=np.array([0.7])
        )
        n = 1000000
        xs = teacher_draws(gm, n, seed=3)
        assert abs(float(xs.mean()) - 2.5) <= 4.0 * np.sqrt(0.7 / n)

    def test_degenerate_weights_pick_single_component(self):
        gm = tc.IsotropicGaussianMixture(
            weights=np.array([1.0, 0.0]),
            means=np.array([[0.0], [100.0]]),
            variances=np.array([1.0, 1.0]),
        )
        xs = teacher_draws(gm, 1000, seed=4)
        assert np.all(np.abs(xs) < 50.0)

    def test_sample_count_validated(self):
        with pytest.raises(DomainError):
            teacher_draws(MIX_2D, 0, seed=1)

    def test_density_ratio_expectation_is_one(self):
        """E_q[p/q] = 1: the identity behind stage-1 ratio normalization."""
        p = TWO_COMP_1D
        q = tc.IsotropicGaussianMixture(
            weights=np.array([1.0]), means=np.array([[0.3]]), variances=np.array([2.0])
        )
        n = 100000
        xs = teacher_draws(q, n, seed=21)
        log_r = tc.log_density(p, xs) - tc.log_density(q, xs)
        r = np.exp(log_r)
        se = r.std(ddof=1) / np.sqrt(n)
        assert abs(r.mean() - 1.0) <= 3.0 * se


class TestValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(DomainError):
            tc.IsotropicGaussianMixture(
                weights=np.array([0.5, 0.4]),
                means=np.array([[0.0], [1.0]]),
                variances=np.array([1.0, 1.0]),
            )

    def test_variances_positive(self):
        with pytest.raises(DomainError):
            tc.IsotropicGaussianMixture(
                weights=np.array([1.0]), means=np.array([[0.0]]),
                variances=np.array([0.0]),
            )

    def test_nonfinite_means_rejected(self):
        with pytest.raises(DomainError):
            tc.IsotropicGaussianMixture(
                weights=np.array([1.0]), means=np.array([[np.inf]]),
                variances=np.array([1.0]),
            )


class TestAffinePushforward:
    def test_identity_map(self):
        gen = tc.AffineGenerator(scale=1.0, bias=np.zeros(2))
        law = gen.exact_law()
        assert isinstance(law, tc.IsotropicGaussianMixture)
        assert law.variances[0] == pytest.approx(1.0)
        np.testing.assert_array_equal(law.means[0], np.zeros(2))

    def test_variance_additivity_with_noise(self):
        gen = tc.AffineGenerator(scale=1.0, bias=np.array([1.0, 0.0]))
        assert tc.perturbed_variances(gen.exact_law().variances, 1.0, 1)[0, 0] == pytest.approx(2.0)

    def test_score_zero_at_bias(self):
        gen = tc.AffineGenerator(scale=0.8, bias=np.array([0.4, -0.2]))
        np.testing.assert_allclose(tc.score(gen.exact_law(), gen.bias[None, :], 0.5)[0],
                                   np.zeros(2), atol=1e-14)

    def test_pushforward_matches_sampled_moments(self):
        gen = tc.AffineGenerator(scale=1.5, bias=np.array([2.0, -1.0]))
        law = gen.exact_law()
        stream = rngmod.stream(9, 0x33)
        z = stream.standard_normal((200000, 2))
        eps = stream.standard_normal((200000, 2))
        xs = gen.forward(z) + 0.7 * eps
        np.testing.assert_allclose(xs.mean(axis=0), law.means[0], atol=0.02)
        np.testing.assert_allclose(xs.var(axis=0),
                                   tc.perturbed_variances(law.variances, 0.7, 1)[0, 0], rtol=0.02)

    def test_overflowing_variance_is_numerics_error(self):
        gen = tc.AffineGenerator(scale=1e300, bias=np.zeros(2))
        with pytest.raises(NumericsError, match="overflows"):
            gen.exact_law()


def ref_student(a, b):
    """The trainable isotropic student x = a z + b, written out directly."""

    def forward(z):
        return a * z + b

    def backward(z, g):
        return np.concatenate([[float(np.sum(g * z))], g.sum(axis=0)])

    return forward, backward


class TestAffineTrainingInterface:
    @pytest.mark.parametrize("a", [1.0, 0.37, -1.25])
    @pytest.mark.parametrize("batch", [1, 7, 128])
    def test_matches_direct_arithmetic_bitwise(self, a, batch):
        b = np.array([0.3, -1.7])
        gen = tc.AffineGenerator(scale=1.0, bias=np.zeros(2))
        gen.params = np.concatenate([[a], b])
        stream = rngmod.stream(11, batch)
        z = stream.standard_normal((batch, 2))
        g = stream.standard_normal((batch, 2))
        forward, backward = ref_student(a, b)
        assert gen.forward(z).tobytes() == forward(z).tobytes()
        y, ctx = gen.forward_cached(z)
        assert y.tobytes() == forward(z).tobytes()
        assert gen.backward(ctx, g).tobytes() == backward(z, g).tobytes()

    def test_params_round_trip(self):
        gen = tc.AffineGenerator(scale=1.0, bias=np.zeros(3))
        flat = np.array([-0.8, 1.0, 2.5, -3.0])
        gen.params = flat
        assert gen.params.tobytes() == flat.tobytes()
        assert gen.scale == -0.8
        assert gen.widths == (3, 3)

    def test_exact_law(self):
        gen = tc.AffineGenerator(scale=-1.5, bias=np.array([0.5, 1.0]))
        law = gen.exact_law()
        assert law.variances.tolist() == [2.25]
        assert law.means.tolist() == [[0.5, 1.0]]

    def test_zero_scale_rejected(self):
        gen = tc.AffineGenerator(scale=1.0, bias=np.zeros(2))
        gen.params = np.zeros(3)
        with pytest.raises(DomainError, match="zero scale"):
            gen.exact_law()

    def test_non_finite_scale_stays_readable(self):
        gen = tc.AffineGenerator(scale=1.0, bias=np.zeros(2))
        gen.params = np.array([np.nan, 0.0, 1.0])
        assert np.isnan(gen.params[0]) and gen.params[2] == 1.0


class TestParticleDensity:
    def test_matches_exact_law_for_affine(self):
        gen = tc.AffineGenerator(scale=1.0, bias=np.array([0.5, 0.5]))
        stream = rngmod.stream(17, 0x44)
        centers = gen.forward(stream.standard_normal((20000, 2)))
        x = stream.standard_normal((64, 2))
        approx = tc.particle_log_density(centers, x, 1.0)
        exact = tc.log_density(gen.exact_law(), x, 1.0)
        np.testing.assert_allclose(approx, exact, atol=0.05)

    def test_requires_positive_sigma(self):
        with pytest.raises(DomainError):
            tc.particle_log_density(np.zeros((10, 2)), np.zeros((2, 2)), 0.0)

    def test_peak_memory_stays_bounded(self):
        """2048 points against 8192 centers run in 64-row blocks; one pass
        over the whole (2048, 8192) matrix would need about 128 MB."""
        centers = rngmod.stream(17, 0x45).standard_normal((8192, 2))
        x = rngmod.stream(17, 0x46).standard_normal((2048, 2))
        tracemalloc.start()
        try:
            tc.particle_log_density(centers, x, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_subnormal_sigma_squared_rounds_without_warning(self):
        """sigma = 1e-160 squares to a subnormal variance: points at distance
        sqrt(2) from every center have log density -inf, without a warning."""
        got = tc.particle_log_density(np.ones((10, 2)), np.zeros((5, 2)), 1e-160)
        assert np.all(got == -np.inf)

    def test_per_row_sigma_must_match_points(self):
        with pytest.raises(DomainError, match=r"scalar or of shape \(300,\), got shape \(200,\)"):
            tc.particle_log_density(np.zeros((10, 2)), np.zeros((300, 2)), np.ones(200))


class TestSchedule:
    def test_levels_log_uniform_and_increasing(self):
        sched = tc.NoiseSchedule()
        levels = sched.levels
        assert len(levels) == 64
        assert levels[0] == pytest.approx(0.002)
        assert levels[-1] == pytest.approx(80.0)
        ratios = levels[1:] / levels[:-1]
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-9)

    def test_levels_built_once_read_only_and_bitwise_geomspace(self, monkeypatch):
        sched = tc.NoiseSchedule(sigma_min=0.01, sigma_max=50.0, n_levels=40)
        levels = sched.levels
        assert levels.tobytes() == np.geomspace(0.01, 50.0, 40).tobytes()
        assert not levels.flags.writeable
        calls = []
        real = np.geomspace
        monkeypatch.setattr(np, "geomspace", lambda *a, **k: calls.append(a) or real(*a, **k))
        for i in range(3):
            idx, sig = sched.draw_levels(rngmod.stream(0, i), 16)
            assert sig.tobytes() == levels[idx].tobytes()
        assert calls == [] and sched.levels is levels

    def test_weights_positive_finite(self):
        sched = tc.NoiseSchedule()
        w = sched.time_weight(sched.levels)
        assert np.all(w > 0) and np.all(np.isfinite(w))

    def test_invalid_bounds_rejected(self):
        with pytest.raises(DomainError):
            tc.NoiseSchedule(sigma_min=1.0, sigma_max=0.5)

    def test_bin_ids_cover_range(self):
        sched = tc.NoiseSchedule(n_levels=64)
        ids = sched.bin_ids(np.arange(64), 8)
        assert ids.min() == 0 and ids.max() == 7
        assert np.all(np.diff(ids) >= 0)


class TestPresets:
    def test_ring8_geometry(self):
        gm = tc.ring8()
        assert gm.n_components == 8
        np.testing.assert_allclose(np.linalg.norm(gm.means, axis=1), 4.0)
        np.testing.assert_allclose(gm.variances, 0.09)

    def test_grid25_geometry(self):
        gm = tc.grid25()
        assert gm.n_components == 25
        assert gm.dim == 2

    def test_make_teacher_from_dict(self):
        gm = tc.make_teacher(
            {"weights": [1.0], "means": [[0.0, 1.0]], "variances": [2.0]}
        )
        assert gm.dim == 2

    def test_unknown_preset(self):
        with pytest.raises(DomainError):
            tc.make_teacher("ring9")

    def test_unknown_dict_key_is_named(self):
        with pytest.raises(DomainError, match="unknown key 'foo'"):
            tc.make_teacher({"weights": [1.0], "means": [[0.0, 0.0]], "variances": [1.0],
                             "foo": 3})


class TestModeCoverage:
    @pytest.mark.parametrize("preset", ["ring8", "grid25"])
    @pytest.mark.parametrize("n", [1, 4097, 100000])
    def test_blocked_counts_equal_one_shot_bitwise(self, preset, n):
        """Ball counts taken over row blocks give the mass, flags and count of
        the mean over one (n, K) membership matrix, bit for bit."""
        gm = tc.make_teacher(preset)
        # skewed weights and widened components: some modes fall below the
        # threshold and some samples land outside every ball
        weights = 0.7 ** np.arange(gm.n_components)
        spread = tc.IsotropicGaussianMixture(
            weights=weights / weights.sum(), means=gm.means, variances=4.0 * gm.variances)
        samples = teacher_draws(spread, n, seed=41)
        cov = tc.mode_coverage((samples[a:b] for a, b in nm.row_blocks(n)), gm)

        dist = np.linalg.norm(samples[:, None, :] - gm.means[None, :, :], axis=2)
        mass = (dist <= 3.0 * np.sqrt(gm.variances)[None, :]).mean(axis=0)
        covered = mass >= 0.02
        assert cov.per_mode_mass.tobytes() == mass.tobytes()
        assert cov.covered.tobytes() == covered.tobytes()
        assert cov.n_covered == int(covered.sum())
        if n == 100000:
            assert 0 < cov.n_covered < gm.n_components
            assert mass.sum() < 1.0

    def test_oracle_reexports_the_same_objects(self):
        from fdistill import oracle

        assert oracle.mode_coverage is tc.mode_coverage
