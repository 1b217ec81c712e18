"""Training loop: weighting path, normalizations, sign convention, schedule."""

import copy
import dataclasses
import functools
import inspect
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import t as student_t

from fdistill import distill, divergence as dv, oracle, vsd
from fdistill import rng as rngmod
from fdistill import teacher as tc
from fdistill.errors import ConfigError, DomainError, TrainingDiverged

SINGLE_2D = {"weights": [1.0], "means": [[0.0, 0.0]], "variances": [1.0]}


def gaussian_cfg(**overrides):
    base = dict(
        divergence="reverse-kl",
        batch_size=64,
        total_iters=10,
        tau=5,
        gan_weight=0.0,
        teacher=SINGLE_2D,
        generator_kind="affine",
        ratio_source="exact-oracle",
        score_source="exact-oracle",
        time_bins=8,
        metrics_interval=0,
        seed=0,
    )
    base.update(overrides)
    return distill.RunConfig(**base)


class TestRunConfig:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            distill.RunConfig.from_dict({"divergance": "jensen-shannon"})

    def test_unknown_divergence_rejected(self):
        with pytest.raises(ConfigError, match="divergence"):
            distill.RunConfig(divergence="alpha-divergence")
        # a catalog row is not a name: the config must stay JSON round-trippable
        with pytest.raises(ConfigError, match="divergence"):
            distill.RunConfig(divergence=dv.catalog("reverse-kl"))

    def test_batch_must_cover_time_bins(self):
        with pytest.raises(ConfigError, match="per time bin"):
            distill.RunConfig(batch_size=8, time_bins=8)

    def test_exact_score_needs_affine(self):
        with pytest.raises(ConfigError, match="affine"):
            distill.RunConfig(score_source="exact-oracle", generator_kind="mlp")

    @pytest.mark.parametrize("key, value", [*distill.RETIRED_KEYS.items(),
                                            ("weight_decay", 0), ("weight_decay", -0.0)])
    def test_retired_key_at_its_fixed_value_is_dropped(self, key, value):
        """Configs and checkpoint echoes written before a key was retired load."""
        assert distill.RunConfig.from_dict({"seed": 3, key: value}) == distill.RunConfig(seed=3)

    @pytest.mark.parametrize("key, value", [
        ("stage1_mode", "batch-sum"), ("gan_loss_form", "minimax"),
        ("time_weight_rescale", True), ("weight_decay", 0.01), ("ratio_at_clean", True),
        ("time_weight_rescale", 0), ("weight_decay", False), ("weight_decay", None),
        ("latent_dim", 2), ("latent_dim", 0), ("metrics_sigma", 0.2), ("coverage_k", 2.0),
        ("coverage_threshold", 0.05), ("coverage_k", None),
    ])
    def test_retired_key_at_another_value_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"'{key}': retired"):
            distill.RunConfig.from_dict({key: value})

    def test_round_trip_dict(self):
        cfg = gaussian_cfg(divergence="forward-kl")
        again = distill.RunConfig.from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()

    def test_derived_values_built_once(self):
        cfg = distill.RunConfig(teacher=SINGLE_2D)
        assert cfg.teacher_law is cfg.teacher_law and cfg.levels is cfg.levels
        law = cfg.teacher_law
        assert [law.weights.tolist(), law.means.tolist(), law.variances.tolist()] == [
            SINGLE_2D["weights"], SINGLE_2D["means"], SINGLE_2D["variances"]]

    def test_teacher_built_once_and_each_rule_run_once(self, monkeypatch):
        """`from_dict` leaves the key rules to `__post_init__`, and the mixture
        the `teacher` rule builds is the config's `teacher_law`: one run of a
        counted rule and one `make_teacher` call per config, however often a
        run reads the teacher."""
        data = gaussian_cfg(tau=3).to_dict()
        calls = []
        make_teacher = distill.make_teacher
        monkeypatch.setattr(distill, "make_teacher",
                            lambda spec: calls.append("make_teacher") or make_teacher(spec))
        default, rule = distill._RUN_KEYS["tau"]
        monkeypatch.setitem(distill._RUN_KEYS, "tau",
                            (default, lambda value: calls.append("tau") or rule(value)))
        cfg = distill.RunConfig.from_dict(data)
        assert calls == ["tau", "make_teacher"]
        law = cfg.teacher_law
        state = distill.init_state(cfg)
        distill.train_step(state, cfg)
        distill.compute_metrics(state, cfg)
        assert cfg.teacher_law is law and calls == ["tau", "make_teacher"]

    def test_keys_are_frozen(self):
        cfg = distill.RunConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.seed = 1

    def test_to_dict_holds_the_keys_only(self):
        """Reading the derived values leaves the config echo as it was."""
        cfg = gaussian_cfg()
        assert cfg.teacher_law.dim == 2 and cfg.levels.size == 64   # both built
        keys = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)}
        assert cfg.to_dict() == keys and len(keys) == 27
        assert json.loads(json.dumps(cfg.to_dict())) == keys


class TestOneFormPerArgument:
    """Points are (n, d) batches, a divergence is named by its kind, and a
    teacher is a preset name or a mixture dict; each other form is refused
    with one line."""

    @pytest.mark.parametrize("call, error, message", [
        (lambda: tc.log_density(tc.ring8(), np.zeros(2)), DomainError,
         "points must be an (n, 2) batch, got shape (2,)"),
        (lambda: tc.score(tc.ring8(), np.zeros(2)), DomainError,
         "points must be an (n, 2) batch, got shape (2,)"),
        (lambda: dv.catalog(dv.catalog("reverse-kl")), DomainError,
         "unsupported divergence: a DivergenceSpec (known: reverse-kl, "),
        (lambda: distill.RunConfig(teacher=tc.ring8()), ConfigError,
         "config field 'teacher': cannot build a teacher from IsotropicGaussianMixture"),
    ], ids=["log_density_point", "score_point", "catalog_row", "config_mixture"])
    def test_second_form_refused_with_one_line(self, call, error, message):
        with pytest.raises(error) as info:
            call()
        assert str(info.value).startswith(message)
        assert len(str(info.value).splitlines()) == 1

    @pytest.mark.parametrize("points, message", [
        (np.zeros(2), "points must be an (n, 2) batch, got shape (2,)"),
        (np.zeros((3, 3)), "points must be an (n, 2) batch, got shape (3, 3)"),
        (np.array([[0.0, np.nan]]), "points must be finite"),
    ], ids=["point", "wrong_dim", "nan"])
    def test_particle_points_refused_with_one_line(self, points, message):
        """The particle estimate checks its points as the laws do, against
        the dimension of its 10 centers."""
        with pytest.raises(DomainError) as info:
            tc.particle_log_density(np.zeros((10, 2)), points, 0.5)
        assert str(info.value) == message


class TestSignal:
    def test_matched_scores_give_zero(self):
        x = np.ones((4, 2))
        s = np.full((4, 2), 0.7)
        g = distill.fdistill_generator_signal(x, s, s, np.ones(4), np.ones(4))
        np.testing.assert_array_equal(g, np.zeros_like(x))

    def test_negative_h_rejected(self):
        x = np.ones((4, 2))
        with pytest.raises(DomainError, match="non-negative"):
            distill.fdistill_generator_signal(
                x, x, 0.5 * x, np.array([1.0, -1.0, 1.0, 1.0]), np.ones(4)
            )

    def test_misaligned_batches_rejected(self):
        with pytest.raises(DomainError):
            distill.fdistill_generator_signal(
                np.ones((4, 2)), np.ones((3, 2)), np.ones((4, 2)),
                np.ones(4), np.ones(4),
            )

    def test_unit_weights_reduce_to_score_difference(self):
        gen = rngmod.stream(1, 1)
        x = gen.standard_normal((8, 2))
        ts = gen.standard_normal((8, 2))
        fs = gen.standard_normal((8, 2))
        g = distill.fdistill_generator_signal(x, ts, fs, np.ones(8), np.ones(8))
        np.testing.assert_array_equal(g, ts - fs)


POSITIVE_BATCHES = st.lists(
    st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=1, max_size=128,
)


def mean_rounding_bound(n):
    """Largest |np.mean(x / np.mean(x)) - 1| rounding allows for n positive
    normal values, with u = 2**-53: each np.mean is a sum of n non-negative
    terms (relative error <= (n - 1) u in any order) and one division by n
    (<= u), so each mean is off by <= n u relatively; each x_i / m adds <= u.
    To first order that is (2n + 1) u; the second-order terms are far below
    one u, the spacing of floats just under 1, so they cannot reach another
    float."""
    return (2 * n + 1) * 2.0**-53


class TestNormalization:
    def test_stage1_hand_example(self):
        out = distill.normalize_stage1(
            np.array([2.0, 4.0, 1.0, 1.0]), np.array([0, 0, 1, 1])
        )
        np.testing.assert_allclose(out, [2 / 3, 4 / 3, 1.0, 1.0])

    def test_stage1_already_normalized_unchanged(self):
        out = distill.normalize_stage1(np.array([0.5, 1.0, 1.5]), np.zeros(3, int))
        np.testing.assert_allclose(out, [0.5, 1.0, 1.5])

    def test_stage1_constant_bin(self):
        out = distill.normalize_stage1(np.array([2.0, 2.0, 2.0]), np.zeros(3, int))
        np.testing.assert_array_equal(out, np.ones(3))

    def test_stage2_hand_example(self):
        np.testing.assert_allclose(
            distill.normalize_stage2(np.array([1.0, 2.0, 3.0])), [0.5, 1.0, 1.5]
        )

    def test_stage2_constant_input_gives_equal_values_near_one(self):
        out = distill.normalize_stage2(np.full(7, 0.37))
        assert np.all(out == out[0])
        assert abs(out[0] - 1.0) <= np.spacing(1.0)

    def test_all_ones_stay_ones(self):
        ones = np.ones(13)
        np.testing.assert_array_equal(distill.normalize_stage2(ones), ones)
        np.testing.assert_array_equal(
            distill.normalize_stage1(ones, np.arange(13) % 4), ones
        )

    def test_empty_batch_rejected(self):
        with pytest.raises(DomainError):
            distill.normalize_stage1(np.array([]), np.array([], dtype=int))
        with pytest.raises(DomainError):
            distill.normalize_stage2(np.array([]))

    def test_all_zero_weights_rejected(self):
        with pytest.raises(DomainError, match="degenerate"):
            distill.normalize_stage2(np.zeros(5))

    @settings(max_examples=1000, deadline=None)
    @given(POSITIVE_BATCHES, st.integers(min_value=1, max_value=6))
    def test_stage1_is_one_division_per_bin(self, values, n_bins):
        r = np.asarray(values)
        bins = np.arange(len(values)) % n_bins
        out = distill.normalize_stage1(r, bins)
        for b in np.unique(bins):
            mask = bins == b
            np.testing.assert_array_equal(out[mask], r[mask] / np.mean(r[mask]))

    @settings(max_examples=1000, deadline=None)
    @given(POSITIVE_BATCHES)
    def test_stage2_is_one_division(self, values):
        h = np.asarray(values)
        np.testing.assert_array_equal(distill.normalize_stage2(h), h / np.mean(h))

    @settings(max_examples=1000, deadline=None)
    @given(POSITIVE_BATCHES, st.integers(min_value=1, max_value=6))
    def test_stage1_per_bin_mean_within_rounding_of_one(self, values, n_bins):
        bins = np.arange(len(values)) % n_bins
        out = distill.normalize_stage1(np.asarray(values), bins)
        for b in np.unique(bins):
            part = out[bins == b]
            assert abs(float(np.mean(part)) - 1.0) <= mean_rounding_bound(part.size)

    @settings(max_examples=1000, deadline=None)
    @given(POSITIVE_BATCHES)
    def test_stage2_batch_mean_within_rounding_of_one(self, values):
        out = distill.normalize_stage2(np.asarray(values))
        assert abs(float(np.mean(out)) - 1.0) <= mean_rounding_bound(out.size)


class TestSignConvention:
    @pytest.mark.parametrize("kind", dv.KINDS)
    def test_single_update_shrinks_gaussian_gap(self, kind):
        """Teacher N(0,1), affine student N(b,1): one generator step must
        strictly shrink |b| for every divergence at every probed sigma."""
        for sigma in (0.002, 0.05, 0.8, 5.0, 80.0):
            cfg = gaussian_cfg(
                divergence=kind,
                lr_generator=5e-3,
                sigma_min=sigma,
                sigma_max=sigma * (1 + 1e-9),
                n_levels=1,
                time_bins=1,
                batch_size=64,
            )
            state = distill.init_state(cfg)
            state.generator.bias = np.array([0.4, -0.3])
            before = np.abs(state.generator.bias.copy())
            batch = distill.draw_batch(cfg, 0)
            distill.generator_step(state, cfg, batch)
            after = np.abs(state.generator.bias)
            assert np.all(after < before), (kind, sigma, before, after)


EXPECTATION_BATCHES = 400
# Each bias component of each kind is compared with its exact value: 12
# comparisons, held to a family-wise false-alarm rate of 1e-6 by a two-sided
# Bonferroni bound on Student's t with EXPECTATION_BATCHES - 1 degrees of freedom.
EXPECTATION_K = float(student_t.ppf(1.0 - 1e-6 / (2 * 12), EXPECTATION_BATCHES - 1))


def mean_weighting(kind, teacher, student, sigma):
    """E_q[h(r_sigma)] on the gate's Gauss-Hermite nodes."""
    q = student.exact_law()
    nodes, weights = oracle._gauss_hermite(teacher.dim)
    x = student.bias + math.sqrt(tc.perturbed_variances(q.variances, sigma, 1)[0, 0]) * nodes
    log_r = tc.log_density(teacher, x, sigma) - tc.log_density(q, x, sigma)
    return float(oracle._expectation(weights, dv.weight_h_log(kind, log_r)))


def generator_step_deviations(monkeypatch, kind, normalize=False):
    """|batch mean - exact| / standard error of each bias component of the
    gradient `generator_step` hands to Adam, over EXPECTATION_BATCHES
    iterations with the gate's `bimodal` student held fixed.

    Both sources are exact oracles, the clip sits at its schema bounds, and
    the GAN term is off. With both normalizations off the exact expectation
    is mean_l sigma_l^2 grad_b D_f(p_sigma_l || q_sigma_l), each term the
    gate's quadrature. With both on it is c times that: stage 1 divides by a
    mean whose expectation E_q[r] is 1, and stage 2 by the batch mean of h,
    whose expectation is 1 / c = mean_l E_q[h(r_sigma_l)]."""
    teacher, student = oracle.gradcheck_cases()["bimodal"]
    cfg = distill.RunConfig(
        divergence=kind, teacher={"weights": teacher.weights.tolist(),
                                  "means": teacher.means.tolist(),
                                  "variances": teacher.variances.tolist()},
        generator_kind="affine", ratio_source="exact-oracle", score_source="exact-oracle",
        gan_weight=0.0, normalize_stage1=normalize, normalize_stage2=normalize, r_min=1e-150,
        r_max=1e150, tau=1, batch_size=1024, sigma_min=0.05, sigma_max=2.0, n_levels=8,
        time_bins=4, metrics_interval=0, seed=0,
    )
    state = distill.init_state(cfg)
    state.generator = tc.AffineGenerator(student.scale, student.bias)
    grads = []

    def recording_adam_step(opt, params, g):
        grads.append(g)
        return params

    monkeypatch.setattr(distill, "adam_step", recording_adam_step)
    for _ in range(EXPECTATION_BATCHES):
        distill.train_step(state, cfg)
    bias = np.array(grads)[:, 1:]
    exact = np.mean([sigma**2 * np.array([rep.grad_analytic for rep in
                                          oracle.theorem1_grad_check(kind, teacher, student,
                                                                     sigma, fd_step=1e-3)])
                     for sigma in cfg.levels], axis=0)
    if normalize:
        exact /= np.mean([mean_weighting(kind, teacher, student, sigma)
                          for sigma in cfg.levels])
    se = bias.std(axis=0, ddof=1) / math.sqrt(EXPECTATION_BATCHES)
    return np.abs(bias.mean(axis=0) - exact) / se


def some_kind_deviates(monkeypatch, normalize=False):
    """Whether a bias component of some kind lies beyond EXPECTATION_K."""
    return any(np.any(generator_step_deviations(monkeypatch, kind, normalize) > EXPECTATION_K)
               for kind in dv.KINDS)


def another_kinds_weighting(monkeypatch):
    shifted = dict(zip(dv.KINDS, dv.KINDS[1:] + dv.KINDS[:1]))
    monkeypatch.setattr(distill, "weight_h", lambda kind, r: dv.weight_h(shifted[kind], r))


def unit_time_weight(monkeypatch):
    monkeypatch.setattr(distill, "time_weight", np.ones_like)


def flipped_output_gradient(monkeypatch):
    backward = tc.AffineGenerator.backward
    monkeypatch.setattr(tc.AffineGenerator, "backward",
                        lambda self, z, out_grad: backward(self, z, -out_grad))


def stage2_off(monkeypatch):
    """Stage 1 on alone: the weights keep their scale 1 / c."""
    monkeypatch.setattr(distill, "normalize_stage2", lambda h: np.asarray(h, dtype=float))


class TestExpectedGeneratorStep:
    """The training step follows the exact divergence gradient in expectation:
    the signs, the time weight sigma^2, the clip and the affine backward
    together, checked against the gate's quadrature."""

    def test_bias_gradient_is_the_exact_gradient_in_expectation(self, monkeypatch):
        deviations = {kind: generator_step_deviations(monkeypatch, kind).tolist()
                      for kind in dv.KINDS}
        assert all(d <= EXPECTATION_K for row in deviations.values() for d in row), (
            EXPECTATION_K, deviations)

    def test_another_kinds_weighting_deviates(self, monkeypatch):
        another_kinds_weighting(monkeypatch)
        assert some_kind_deviates(monkeypatch)

    def test_unit_time_weight_deviates(self, monkeypatch):
        unit_time_weight(monkeypatch)
        assert some_kind_deviates(monkeypatch)

    def test_flipped_output_gradient_deviates(self, monkeypatch):
        flipped_output_gradient(monkeypatch)
        assert some_kind_deviates(monkeypatch)

    def test_normalized_bias_gradient_is_the_scaled_exact_gradient(self, monkeypatch):
        deviations = {kind: generator_step_deviations(monkeypatch, kind, True).tolist()
                      for kind in dv.KINDS}
        assert all(d <= EXPECTATION_K for row in deviations.values() for d in row), (
            EXPECTATION_K, deviations)

    @pytest.mark.parametrize("mutation", [another_kinds_weighting, unit_time_weight,
                                          flipped_output_gradient, stage2_off],
                             ids=lambda f: f.__name__)
    def test_mutation_deviates_with_normalizations_on(self, monkeypatch, mutation):
        mutation(monkeypatch)
        assert some_kind_deviates(monkeypatch, normalize=True)


class TestVsdEquivalence:
    @pytest.mark.parametrize("normalize", [False, True], ids=["off", "on"])
    def test_reverse_kl_unit_weighting_is_bitwise_vsd(self, normalize):
        """h == 1 reproduces the independently coded plain score-difference
        update exactly, on shared randomness, with both normalizations off or
        on: h ignores the normalized ratios, and stage 2 divides the ones by
        their mean, exactly 1.0."""
        cfg = gaussian_cfg(
            divergence="reverse-kl",
            normalize_stage1=normalize,
            normalize_stage2=normalize,
            generator_kind="mlp",
            ratio_source="discriminator",
            score_source="denoiser",
            batch_size=64,
            seed=3,
        )
        state_a = distill.init_state(cfg)
        state_b = copy.deepcopy(state_a)
        batch = distill.draw_batch(cfg, 0)

        distill.generator_step(state_a, cfg, batch)
        vsd.vsd_generator_step(state_b, cfg, batch)

        np.testing.assert_array_equal(state_a.generator.params, state_b.generator.params)
        np.testing.assert_array_equal(state_a.opt_generator.m, state_b.opt_generator.m)


class TestTrainStep:
    def test_tau_pattern_over_ten_steps(self):
        cfg = gaussian_cfg(total_iters=10, tau=5)
        state = distill.init_state(cfg)
        updated = []
        for _ in range(10):
            report = distill.train_step(state, cfg)
            updated.append(report.updated)
        generator_iters = [i for i, u in enumerate(updated) if u == ("generator",)]
        assert generator_iters == [0, 5]
        assert all(
            u == ("denoiser", "discriminator")
            for i, u in enumerate(updated) if i not in (0, 5)
        )

    def test_divergence_abort_carries_report(self):
        cfg = gaussian_cfg(lr_generator=1e308)
        state = distill.init_state(cfg)
        state.generator.bias = np.array([0.4, -0.3])
        with pytest.raises(TrainingDiverged) as err:
            for _ in range(10):
                distill.train_step(state, cfg)
        assert err.value.report is not None

    def test_domain_error_in_a_step_is_a_numerical_abort(self):
        """A bias of 1e160 makes |x|^2 overflow in the exact student law, so
        the ratios are NaN and stage 1 rejects them; that is divergence
        (CLI exit 3), not a usage error (exit 2)."""
        cfg = gaussian_cfg(teacher="ring8", batch_size=32, time_bins=4, tau=1)
        state = distill.init_state(cfg)
        state.generator.bias = np.array([1e160, 0.0])
        with pytest.raises(TrainingDiverged, match="^iteration 0: ratios must be finite") as err:
            distill.train_step(state, cfg)
        assert isinstance(err.value.__cause__, DomainError)
        assert err.value.report is not None and err.value.report.iteration == 0
        assert state.iteration == 0

    def test_non_finite_parameters_abort_with_the_step_report(self):
        """An infinite learning rate leaves every generator output finite but
        makes the updated parameters non-finite; the abort names the
        iteration first and carries the report of the step that ran."""
        cfg = gaussian_cfg()
        state = distill.init_state(cfg)
        state.opt_generator.lr = math.inf
        with pytest.raises(TrainingDiverged,
                           match="^iteration 0: non-finite generator parameters") as err:
            distill.train_step(state, cfg)
        assert err.value.report.updated == ("generator",)
        assert err.value.report.fdistill_loss is not None

    def test_noise_is_drawn_on_generator_iterations_only(self):
        """The auxiliary step never reads the output noise, so it is drawn
        only where iteration % tau == 0, from the same stream as before."""
        cfg = gaussian_cfg(tau=4, batch_size=16)
        for it in range(9):
            batch = distill.draw_batch(cfg, it)
            if it % 4:
                assert batch.eps is None
            else:
                want = rngmod.stream(cfg.seed, it, rngmod.STEP_NOISE).standard_normal((16, 2))
                assert batch.eps.tobytes() == want.tobytes()

    def test_mlp_discriminator_path_runs(self):
        cfg = distill.RunConfig(
            divergence="jensen-shannon",
            batch_size=32,
            time_bins=4,
            total_iters=6,
            tau=3,
            gan_weight=1e-3,
            teacher=SINGLE_2D,
            metrics_interval=0,
            seed=7,
        )
        state, metrics, _ = distill.train(cfg)
        assert state.iteration == 6
        assert metrics == []

    def test_exact_oracle_particle_ratio_path_runs(self):
        cfg = distill.RunConfig(
            divergence="forward-kl",
            batch_size=32,
            time_bins=4,
            total_iters=4,
            tau=2,
            gan_weight=0.0,
            ratio_source="exact-oracle",
            oracle_ratio_particles=64,
            teacher=SINGLE_2D,
            metrics_interval=0,
            seed=9,
        )
        state, _, _ = distill.train(cfg)
        assert state.iteration == 4


class TestTrain:
    def test_zero_iterations(self):
        cfg = gaussian_cfg(total_iters=0)
        state, metrics, _ = distill.train(cfg)
        assert state.iteration == 0
        assert metrics == []

    def test_metric_log_deterministic_across_runs(self):
        cfg = distill.RunConfig(
            divergence="jensen-shannon",
            batch_size=32,
            time_bins=4,
            total_iters=8,
            tau=4,
            teacher=SINGLE_2D,
            metrics_interval=4,
            metrics_samples=64,
            metrics_centers=64,
            seed=11,
        )
        _, m1, _ = distill.train(cfg)
        _, m2, _ = distill.train(cfg)
        assert [row["iteration"] for row in m1] == [4, 8]
        for r1, r2 in zip(m1, m2):
            assert r1.keys() == r2.keys()
            for key in r1:
                a, b = r1[key], r2[key]
                assert (a == b) or (math.isnan(a) and math.isnan(b)), key

    @pytest.mark.slow
    @pytest.mark.parametrize("kind", dv.KINDS)
    def test_gaussian_shrink_all_divergences(self, kind):
        """Affine student on a shifted Gaussian teacher: the bias gap falls
        below 0.05 within 2000 steps with the online denoiser fake score."""
        mu = np.array([1.2, -0.8])
        cfg = gaussian_cfg(
            divergence=kind,
            teacher={"weights": [1.0], "means": [mu.tolist()], "variances": [1.0]},
            score_source="denoiser",
            lr_generator=1e-2,
            lr_denoiser=1e-2,
            r1_gamma=0.0,
            total_iters=2000,
            batch_size=1024,
            seed=13,
        )
        state = distill.init_state(cfg)
        best = np.inf
        for it in range(cfg.total_iters):
            distill.train_step(state, cfg)
            if it % 25 == 24:
                best = min(best, float(np.linalg.norm(state.generator.bias - mu)))
                if best < 0.045:
                    break
        assert best < 0.05, best


class PerfectStudent:
    """A generator whose outputs are fresh teacher draws: every true KL is 0,
    so what `compute_metrics` reports is the particle estimator's floor."""

    def __init__(self, teacher, seed):
        self.teacher, self.seed, self.calls = teacher, seed, 0
        self.latent_dim = teacher.dim

    def exact_law(self):
        return None

    def forward(self, z):
        self.calls += 1
        return tc.sample(self.teacher, z.shape[0],
                         rngmod.stream(self.seed, 1000 + self.calls, rngmod.TEACHER_SAMPLE))


@functools.lru_cache(maxsize=None)
def perfect_student_kl(preset, centers):
    """(forward_kl, reverse_kl) that `compute_metrics` reports for a perfect
    student at the default 512 points and sigma 0.1, one row per seed 0-19."""
    teacher = tc.make_teacher(preset)
    rows = []
    for seed in range(20):
        cfg = distill.RunConfig(teacher=preset, seed=seed, metrics_centers=centers)
        state = distill.TrainState(PerfectStudent(teacher, seed), *[None] * 5)
        row = distill.compute_metrics(state, cfg)
        rows.append((row["forward_kl"], row["reverse_kl"]))
    return np.array(rows)


class TestParticleKlFloor:
    """The particle estimator's floor under metrics.csv's KL columns. The
    expected means were measured on these settings; each bound is 5
    standard errors of the 20-seed mean."""

    @pytest.mark.parametrize("preset, centers, forward, reverse", [
        ("ring8", 1024, 0.141, -0.137),
        ("ring8", 4096, 0.043, -0.037),
        ("grid25", 1024, 0.050, -0.041),
    ], ids=["ring8-1024", "ring8-4096", "grid25-1024"])
    def test_floor(self, preset, centers, forward, reverse):
        kl = perfect_student_kl(preset, centers)
        bound = 5.0 * kl.std(axis=0, ddof=1) / math.sqrt(kl.shape[0])
        assert abs(kl[:, 0].mean() - forward) <= bound[0], (kl.mean(axis=0), bound)
        assert abs(kl[:, 1].mean() - reverse) <= bound[1], (kl.mean(axis=0), bound)

    def test_more_centres_lower_the_forward_floor(self):
        assert (perfect_student_kl("ring8", 4096)[:, 0].mean()
                < 0.5 * perfect_student_kl("ring8", 1024)[:, 0].mean())


def perfect_student_log_ratio(sigma):
    """(mean log ratio, fraction at r_max) of the clipped training ratio under
    `ratio_source: exact-oracle` for a perfect ring8 student: 512 noised
    points at one sigma, the default 512 particles, one row per seed 0-19."""
    teacher = tc.make_teacher("ring8")
    rows = []
    for seed in range(20):
        cfg = distill.RunConfig(teacher="ring8", seed=seed, ratio_source="exact-oracle")
        state = distill.TrainState(PerfectStudent(teacher, seed), *[None] * 5)
        sig = np.full(512, sigma)
        noise = rngmod.stream(seed, 0, rngmod.METRICS, 1).standard_normal((512, 2))
        x = state.generator.forward(np.zeros((512, 2))) + sig[:, None] * noise
        log_r = np.log(distill._ratio_batch(state, cfg, x, sig, 0))
        rows.append((log_r.mean(), np.mean(log_r >= np.log(cfg.r_max) - 1e-9)))
    return np.array(rows)


class TestParticleRatioFloor:
    """For an MLP student the "exact-oracle" ratio is a 512-particle kernel
    estimate. Every true log ratio of a perfect student is 0, yet at small
    sigma the estimate of log q falls far below log p and most ratios clip at
    r_max. The expected means were measured on these settings; each bound is
    5 standard errors of the 20-seed mean."""

    @pytest.mark.parametrize("sigma, mean_log_ratio, at_r_max", [
        (0.002, 6.80, 0.982),
        (0.01, 5.34, 0.718),
        (0.05, 0.97, 0.056),
        (0.3, 0.028, 0.0),
    ])
    def test_floor(self, sigma, mean_log_ratio, at_r_max):
        rows = perfect_student_log_ratio(sigma)
        mean = rows.mean(axis=0)
        bound = 5.0 * rows.std(axis=0, ddof=1) / math.sqrt(rows.shape[0])
        assert np.all(np.abs(mean - [mean_log_ratio, at_r_max]) <= bound), (mean, bound)


class TestCheckpointBridge:
    def test_payload_round_trip_is_exact(self, tmp_path):
        from fdistill.checkpoint import load_checkpoint, save_checkpoint

        cfg = distill.RunConfig(
            divergence="jensen-shannon", batch_size=32, time_bins=4, total_iters=7,
            tau=3, teacher=SINGLE_2D, metrics_interval=0, seed=17,
        )
        state, _, _ = distill.train(cfg)
        path = tmp_path / "state.fdst"
        save_checkpoint(path, cfg.to_dict(), state.iteration, distill.state_payloads(state))
        config_echo, iteration, payloads = load_checkpoint(path)
        restored = distill.restore_state(
            distill.RunConfig.from_dict(config_echo), iteration, payloads
        )
        np.testing.assert_array_equal(restored.generator.params, state.generator.params)
        np.testing.assert_array_equal(
            restored.denoiser.params, state.denoiser.params
        )
        np.testing.assert_array_equal(restored.opt_discriminator.v, state.opt_discriminator.v)
        assert restored.iteration == state.iteration

    @pytest.mark.parametrize("generator_kind", ["mlp", "affine"])
    def test_init_state_builds_the_shapes_restore_state_expects(self, generator_kind):
        """The networks of a fresh state have the widths and parameter counts
        `restore_state` holds a checkpoint's records to."""
        cfg = distill.RunConfig(teacher=SINGLE_2D, generator_kind=generator_kind)
        state = distill.init_state(cfg)
        built = {name: (tuple(holder.widths), holder.params.size)
                 for name, holder, _ in distill._trained_nets(state)}
        assert built == distill._net_shapes(cfg)

    def test_init_state_is_restore_state_of_the_initial_records(self, monkeypatch):
        """A fresh state is built where a checkpoint's is: `init_state` hands
        its three initial records to `restore_state` at iteration 0."""
        cfg = distill.RunConfig(teacher=SINGLE_2D)
        seen = []
        restore_state = distill.restore_state

        def spy(cfg_, iteration, payloads):
            seen.append((cfg_, iteration, [p.name for p in payloads]))
            seen.append(restore_state(cfg_, iteration, payloads))
            return seen[-1]

        monkeypatch.setattr(distill, "restore_state", spy)
        state = distill.init_state(cfg)
        assert seen[0] == (cfg, 0, ["generator", "denoiser", "discriminator"])
        assert len(seen) == 2 and seen[1] is state

    def test_train_state_is_built_in_restore_state_only(self):
        assert inspect.getsource(distill).count("TrainState(") == 1
        assert "TrainState(" in inspect.getsource(distill.restore_state)

    def test_payloads_are_a_snapshot(self):
        """A later step leaves the payloads taken before it unchanged: the
        parameters, both Adam moments and the step count."""
        cfg = distill.RunConfig(
            divergence="jensen-shannon", batch_size=32, time_bins=4, tau=3,
            teacher=SINGLE_2D, metrics_interval=0, seed=23,
        )
        state = distill.init_state(cfg)
        for _ in range(4):
            distill.train_step(state, cfg)

        def contents(payloads):
            return [(p.params.tobytes(), p.adam.m.tobytes(), p.adam.v.tobytes(), p.adam.step)
                    for p in payloads]

        payloads = distill.state_payloads(state)
        before = contents(payloads)
        for _ in range(3):   # a generator and an auxiliary step both run
            distill.train_step(state, cfg)
        assert contents(payloads) == before
        assert contents(distill.state_payloads(state)) != before

    def test_resume_is_bitwise_identical(self, tmp_path):
        from fdistill.checkpoint import load_checkpoint, save_checkpoint

        cfg = distill.RunConfig(
            divergence="jensen-shannon", batch_size=32, time_bins=4, total_iters=10,
            tau=3, teacher=SINGLE_2D, metrics_interval=0, seed=19,
        )
        state = distill.init_state(cfg)
        for _ in range(6):
            distill.train_step(state, cfg)
        path = tmp_path / "mid.fdst"
        save_checkpoint(path, cfg.to_dict(), state.iteration, distill.state_payloads(state))

        config_echo, iteration, payloads = load_checkpoint(path)
        resumed = distill.restore_state(
            distill.RunConfig.from_dict(config_echo), iteration, payloads
        )
        for _ in range(4):
            distill.train_step(state, cfg)
            distill.train_step(resumed, cfg)
        np.testing.assert_array_equal(state.generator.params, resumed.generator.params)
        np.testing.assert_array_equal(
            state.discriminator.params, resumed.discriminator.params
        )
