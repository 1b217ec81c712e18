"""Ground-truth machinery: estimator cross-checks and closed-form anchors."""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import spearmanr

from fdistill import oracle, rng as rngmod
from fdistill import teacher as tc
from fdistill.divergence import KINDS, catalog, weight_h_log
from fdistill.errors import DomainError, NumericsError


def gauss1d(mean, var=1.0):
    return tc.IsotropicGaussianMixture(
        weights=np.array([1.0]), means=np.array([[float(mean)]]),
        variances=np.array([float(var)]),
    )


_TRIM_BUDGET = 1e-3  # fraction of non-finite f values tolerated (then dropped)


@dataclass(frozen=True)
class MCEstimate:
    value: float
    se: float
    n_used: int


def _trimmed_mean_se(values: np.ndarray, what: str) -> MCEstimate:
    finite = np.isfinite(values)
    n_bad = int(values.size - finite.sum())
    if n_bad > _TRIM_BUDGET * values.size:
        raise NumericsError(
            f"{what}: {n_bad}/{values.size} non-finite values exceeds the "
            f"{_TRIM_BUDGET:.1%} trim budget"
        )
    kept = values[finite]
    return MCEstimate(
        value=float(np.mean(kept)),
        se=float(np.std(kept, ddof=1) / math.sqrt(kept.size)),
        n_used=int(kept.size),
    )


def mc_f_divergence(kind, p: tc.IsotropicGaussianMixture, q: tc.IsotropicGaussianMixture,
                    n: int, seed: int) -> MCEstimate:
    """Monte-Carlo D_f(p || q) = E_q[f(p/q)] between two mixtures, evaluated
    in log-ratio form on n draws from q.

    Up to 0.1% non-finite f values (tail underflow at sigma=0) are trimmed;
    more is an error.
    """
    if n < 100:
        raise DomainError(f"mc_f_divergence needs n >= 100, got {n}")
    spec = catalog(kind)
    x = tc.sample(q, int(n), rngmod.stream(seed, 0xD1))
    log_r = tc.log_density(p, x) - tc.log_density(q, x)
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.asarray(spec.f_log(log_r), dtype=float)
    return _trimmed_mean_se(values, f"mc_f_divergence[{spec.kind}]")


class TestMcDivergence:
    def test_identical_distributions_give_zero(self):
        p = gauss1d(0.3, 1.2)
        est = mc_f_divergence("jensen-shannon", p, p, n=10000, seed=1)
        assert abs(est.value) <= max(3.0 * est.se, 1e-12)

    def test_gaussian_kl_closed_forms(self):
        # KL between unit-variance Gaussians a mean-gap 1 apart is 1/2
        p, q = gauss1d(0.0), gauss1d(1.0)
        rkl = mc_f_divergence("reverse-kl", p, q, n=1000000, seed=2)
        assert abs(rkl.value - 0.5) <= 3.0 * rkl.se
        fkl = mc_f_divergence("forward-kl", p, q, n=1000000, seed=3)
        assert abs(fkl.value - 0.5) <= 3.0 * fkl.se

    def test_small_n_rejected(self):
        p, q = gauss1d(0.0), gauss1d(1.0)
        with pytest.raises(DomainError):
            mc_f_divergence("reverse-kl", p, q, n=10, seed=1)

    @pytest.mark.parametrize("kind", KINDS)
    def test_nonnegative_within_noise(self, kind):
        p = tc.IsotropicGaussianMixture(
            weights=np.array([0.4, 0.6]), means=np.array([[-0.5], [0.7]]),
            variances=np.array([0.8, 1.1]),
        )
        q = gauss1d(0.2, 1.3)
        est = mc_f_divergence(kind, p, q, n=200000, seed=4)
        assert est.value >= -3.0 * est.se


def quadrature_f_divergence_1d(kind, p: tc.IsotropicGaussianMixture,
                               q: tc.IsotropicGaussianMixture) -> float:
    """Adaptive quadrature of q(x) f(p(x)/q(x)) for 1-D mixtures."""
    spec = catalog(kind)
    if p.dim != 1 or q.dim != 1:
        raise DomainError("quadrature oracle is one-dimensional")
    sd = np.sqrt(np.concatenate([p.variances, q.variances]))
    centers = np.concatenate([p.means[:, 0], q.means[:, 0]])
    lo = float(np.min(centers - 10.0 * np.max(sd)))
    hi = float(np.max(centers + 10.0 * np.max(sd)))

    def integrand(x):
        pt = np.array([[x]])
        lp = tc.log_density(p, pt)
        lq = tc.log_density(q, pt)
        val = spec.f_log(lp - lq) * np.exp(lq)
        return float(val[0])

    points = sorted(set(float(c) for c in centers))
    value, err = integrate.quad(
        integrand, lo, hi, points=points, limit=400, epsabs=1e-10, epsrel=1e-10
    )
    if not math.isfinite(value) or err > 1e-8:
        raise NumericsError(
            f"quadrature for {spec.kind} did not converge (err={err:.2e})"
        )
    return value


class TestQuadrature:
    def test_identical_mixtures_give_zero(self):
        p = tc.IsotropicGaussianMixture(
            weights=np.array([0.5, 0.5]), means=np.array([[-1.0], [1.0]]),
            variances=np.array([0.4, 0.4]),
        )
        assert abs(quadrature_f_divergence_1d("forward-kl", p, p)) <= 1e-8

    @pytest.mark.parametrize("gap", [0.5, 1.0, 2.0])
    def test_forward_kl_gaussian_closed_form(self, gap):
        val = quadrature_f_divergence_1d("forward-kl", gauss1d(0.0), gauss1d(gap))
        assert val == pytest.approx(gap**2 / 2.0, abs=1e-6)

    def test_js_bounded_by_its_max(self):
        # the unnormalized JS (f = r log r - (r+1) log((r+1)/2)) peaks at 2 log 2
        for gap in (0.5, 2.0, 6.0, 12.0):
            val = quadrature_f_divergence_1d(
                "jensen-shannon", gauss1d(0.0), gauss1d(gap)
            )
            assert -1e-10 <= val <= 2.0 * np.log(2.0) + 1e-8

    def test_needs_one_dimension(self):
        p2 = tc.IsotropicGaussianMixture(
            weights=np.array([1.0]), means=np.array([[0.0, 0.0]]),
            variances=np.array([1.0]),
        )
        with pytest.raises(DomainError):
            quadrature_f_divergence_1d("forward-kl", p2, p2)

    @pytest.mark.parametrize("kind", KINDS)
    def test_cross_oracle_agreement(self, kind):
        """MC and quadrature agree within 3 SE on random 1-D mixture pairs."""
        gen = rngmod.stream(5, 0xAB)
        for trial in range(10):
            k_p, k_q = int(gen.integers(1, 4)), int(gen.integers(1, 4))

            def rand_mix(k):
                w = gen.dirichlet(np.ones(k))
                means = gen.uniform(-1.2, 1.2, size=(k, 1))
                variances = gen.uniform(0.5, 2.0, size=k)
                return tc.IsotropicGaussianMixture(w, means, variances)

            p, q = rand_mix(k_p), rand_mix(k_q)
            exact = quadrature_f_divergence_1d(kind, p, q)
            est = mc_f_divergence(kind, p, q, n=200000, seed=600 + trial)
            assert abs(est.value - exact) <= max(3.0 * est.se, 1e-9), (
                kind, trial, est.value, exact
            )


class TestTheorem1:
    def test_zero_gradient_at_symmetric_optimum(self):
        teacher = gauss1d(0.0)
        gen = tc.AffineGenerator(scale=1.0, bias=np.zeros(1))
        for kind in KINDS:
            rep = oracle.theorem1_grad_check(kind, teacher, gen, 0.5)[0]
            assert abs(rep.grad_fd) <= 1e-12
            assert abs(rep.grad_analytic) <= 1e-15

    @pytest.mark.parametrize("sigma,expected", [(0.0, 1.0), (1.0, 0.5)])
    def test_forward_kl_gaussian_anchor(self, sigma, expected):
        """KL(p_t || q_t) between N(0, 1+s^2) and N(b, 1+s^2): grad_b = b/(1+s^2)."""
        teacher = gauss1d(0.0)
        gen = tc.AffineGenerator(scale=1.0, bias=np.array([1.0]))
        rep = oracle.theorem1_grad_check("forward-kl", teacher, gen, sigma)[0]
        assert rep.grad_analytic == pytest.approx(expected, rel=1e-6)
        assert rep.grad_fd == pytest.approx(expected, rel=1e-6)

    def test_reverse_kl_gaussian_anchor(self):
        """KL(q || p) for unit variances: grad_b = b at sigma = 0."""
        teacher = gauss1d(0.0)
        gen = tc.AffineGenerator(scale=1.0, bias=np.array([1.0]))
        rep = oracle.theorem1_grad_check("reverse-kl", teacher, gen, 0.0)[0]
        assert rep.grad_analytic == pytest.approx(1.0, rel=1e-6)
        assert rep.grad_fd == pytest.approx(1.0, rel=1e-6)

    def test_three_dimensions_rejected(self):
        """The quadrature's tensor grid has 160**d nodes, so d is at most 2."""
        teacher = tc.IsotropicGaussianMixture(
            weights=np.array([1.0]), means=np.zeros((1, 3)), variances=np.array([1.0]))
        gen = tc.AffineGenerator(scale=1.0, bias=np.ones(3))
        with pytest.raises(DomainError, match="exceeds 2"):
            oracle.theorem1_grad_check("forward-kl", teacher, gen, 0.5)

    def test_non_finite_node_raises(self):
        """A bias so far out that the log ratio overflows at the nodes."""
        teacher = gauss1d(0.0)
        gen = tc.AffineGenerator(scale=1.0, bias=np.array([1e200]))
        with pytest.raises(NumericsError, match="analytic side .* non-finite"):
            oracle.theorem1_grad_check("forward-kl", teacher, gen, 0.5)

    @pytest.mark.parametrize("kind", KINDS)
    def test_analytic_side_is_the_training_path_bitwise(self, kind):
        """The analytic side is -E_q[h(r)(s_teacher - s_student)] with every
        density and score taken at sigma, as the training loop takes them, on
        the gate's nodes; 4.536 is a sigma whose square Python's `**` rounds
        one ULP off numpy's."""
        teacher, gen = oracle.gradcheck_cases()["single"]
        s = 4.536
        q = gen.exact_law()
        nodes, weights = oracle._gauss_hermite(teacher.dim)
        x = gen.bias + math.sqrt(tc.perturbed_variances(q.variances, s, 1)[0, 0]) * nodes
        log_r = tc.log_density(teacher, x, s) - tc.log_density(q, x, s)
        want = -oracle._expectation(weights, weight_h_log(kind, log_r)[:, None] * (
            tc.score(teacher, x, s) - tc.score(q, x, s)))
        got = [rep.grad_analytic for rep in oracle.theorem1_grad_check(kind, teacher, gen, s)]
        assert got == want.tolist()

    def test_full_gate(self):
        """All six divergences x sigma in {0, 0.5, 2} x both teacher presets
        agree within the default relative tolerance."""
        failed = [(kind, rep.sigma, rep.param_index, rep.grad_analytic, rep.grad_fd)
                  for kind in KINDS for rep in gate_reports(kind) if not rep.passes()]
        assert failed == []


def gate_reports(kind):
    """The standing gate's reports for one divergence."""
    return [
        rep
        for teacher, gen in oracle.gradcheck_cases().values()
        for sigma in (0.0, 0.5, 2.0)
        for rep in oracle.theorem1_grad_check(kind, teacher, gen, sigma)
    ]


def sampled_analytic_side(kind, teacher, gen, sigma, seed, n=100000):
    """Antithetic Monte-Carlo estimate and standard error of the analytic side
    -E_q[h(r)(s_teacher - s_student)] on n draws x = a z + b + sigma eps."""
    half = n // 2
    stream = rngmod.stream(seed, 0x71)
    z0 = stream.standard_normal((half, gen.latent_dim))
    eps0 = stream.standard_normal((half, teacher.dim))
    z, eps = np.concatenate([z0, -z0]), np.concatenate([eps0, -eps0])
    x = gen.scale * z + gen.bias + sigma * eps
    q_law = gen.exact_law()
    log_r = tc.log_density(teacher, x, sigma) - tc.log_density(q_law, x, sigma)
    values = -weight_h_log(kind, log_r)[:, None] * (
        tc.score(teacher, x, sigma) - tc.score(q_law, x, sigma))
    pairs = 0.5 * (values[:half] + values[half:])
    return pairs.mean(axis=0), pairs.std(axis=0, ddof=1) / math.sqrt(half)


class TestGatePower:
    @pytest.mark.parametrize("seed", [33, 49, 66, 622929773])
    def test_passes_where_a_sampled_reference_failed(self, seed):
        """Seeds at which a Monte-Carlo finite-difference reference failed 1-3
        of the 72 reports: the gate passes every report, and its analytic side
        is what the sampled analytic side at that seed estimates, within 5% or
        three standard errors."""
        failed, off = [], []
        for teacher, gen in oracle.gradcheck_cases().values():
            for sigma in (0.0, 0.5, 2.0):
                for kind in KINDS:
                    reps = oracle.theorem1_grad_check(kind, teacher, gen, sigma)
                    mean, se = sampled_analytic_side(kind, teacher, gen, sigma, seed)
                    for rep in reps:
                        if not rep.passes():
                            failed.append((kind, sigma, rep.param_index))
                        gap = abs(mean[rep.param_index] - rep.grad_analytic)
                        if gap > max(0.05 * abs(rep.grad_analytic), 3.0 * se[rep.param_index]):
                            off.append((kind, sigma, rep.param_index,
                                        rep.grad_analytic, mean[rep.param_index]))
        assert failed == []
        assert off == []

    @pytest.mark.parametrize("kind, wrong",
                             [(k, w) for k in KINDS for w in KINDS if w != k])
    def test_wrong_weighting_fails_the_gate(self, monkeypatch, kind, wrong):
        """The analytic side computed with another divergence's h fails at
        least one of the divergence's reports."""
        monkeypatch.setattr(oracle, "weight_h_log",
                            lambda spec, log_r: weight_h_log(wrong, log_r))
        assert not all(rep.passes() for rep in gate_reports(kind))

    @pytest.mark.parametrize("kind", KINDS)
    def test_one_percent_wrong_weighting_fails_the_gate(self, monkeypatch, kind):
        """The right h scaled by 1.01 fails every one of the divergence's
        reports."""
        monkeypatch.setattr(oracle, "weight_h_log",
                            lambda spec, log_r: 1.01 * weight_h_log(spec, log_r))
        assert not any(rep.passes() for rep in gate_reports(kind))


class TestVarianceCurve:
    def test_reverse_kl_variance_identically_zero(self):
        for est in oracle.normalized_variance_curve("reverse-kl", [0.5, 1.0, 2.0]):
            assert est == 0.0

    def test_forward_kl_closed_form_at_unit_gap(self):
        # Var_q(p/q) = exp(d^2) - 1 for unit-variance Gaussians
        est = oracle.normalized_variance_curve("forward-kl", [1.0])[0]
        assert est == pytest.approx(np.e - 1.0, rel=0.05)

    def test_forward_kl_closed_form_at_largest_gap(self):
        est = oracle.normalized_variance_curve("forward-kl", [9.0])[0]
        assert est == pytest.approx(math.expm1(81.0), rel=1e-12)

    @pytest.mark.parametrize("gap", [9.5, -9.5, float("nan")])
    def test_gap_beyond_nine_rejected(self, gap):
        with pytest.raises(DomainError, match="mean gap"):
            oracle.normalized_variance_curve("forward-kl", [1.0, gap])

    def test_squared_hellinger_closed_form(self):
        # h = sqrt(r)/4: normalized variance = exp(d^2/4) - 1
        est = oracle.normalized_variance_curve("squared-hellinger", [2.0])[0]
        assert est == pytest.approx(np.e - 1.0, rel=0.05)

    def test_high_variance_family_dominates_at_gap_two(self):
        values = {
            kind: oracle.normalized_variance_curve(kind, [2.0])[0]
            for kind in ("forward-kl", "jeffreys", "jensen-shannon", "squared-hellinger")
        }
        low = max(values["jensen-shannon"], values["squared-hellinger"])
        assert values["forward-kl"] > low
        assert values["jeffreys"] > low


class TestWeightScoreMap:
    def test_identical_laws_flat_map(self):
        ring = tc.ring8()
        grid = rngmod.stream(1, 0x9).uniform(-6, 6, size=(128, 2))
        diff, h = oracle.weight_score_map("jensen-shannon", ring, ring, 0.5, grid)
        np.testing.assert_allclose(diff, 0.0, atol=1e-9)
        np.testing.assert_allclose(h, 0.5, atol=1e-12)

    def test_forward_kl_weight_tracks_teacher_density(self):
        ring = tc.ring8()
        student = tc.IsotropicGaussianMixture(
            weights=np.array([1.0]), means=np.array([[0.0, 0.0]]),
            variances=np.array([8.0]),
        )
        grid = rngmod.stream(2, 0x9).uniform(-6, 6, size=(400, 2))
        sigma = 0.4
        _, h = oracle.weight_score_map("forward-kl", ring, student, sigma, grid)
        # h = r is monotone in p/q; against a nearly flat student it should
        # rank like the teacher density itself
        p_vals = tc.log_density(ring, grid, sigma) - tc.log_density(student, grid, sigma)
        rho = spearmanr(h, p_vals).statistic
        assert rho == pytest.approx(1.0, abs=1e-12)

    def test_ring_vs_collapsed_student_anticorrelation(self):
        """The weighting suppresses regions of large score disagreement."""
        ring = tc.ring8()
        mean = ring.weights @ ring.means
        student = tc.IsotropicGaussianMixture(
            weights=np.array([1.0]), means=mean[None, :],
            variances=np.array([ring.per_coord_std() ** 2]),
        )
        axis = np.linspace(-6.0, 6.0, 48)
        xs, ys = np.meshgrid(axis, axis, indexing="ij")
        grid = np.stack([xs.ravel(), ys.ravel()], axis=1)
        diff, h = oracle.weight_score_map("forward-kl", ring, student, 0.4, grid)
        rho = spearmanr(h, diff).statistic
        assert rho < 0.0


class TestModeCoverage:
    def test_ring8_self_samples_cover_everything(self):
        ring = tc.ring8()
        samples = tc.sample(ring, 100000, rngmod.stream(37, 0, rngmod.TEACHER_SAMPLE))
        cov = oracle.mode_coverage([samples], ring)
        assert cov.n_covered == 8
        np.testing.assert_allclose(cov.per_mode_mass, 1.0 / 8.0, atol=0.02)

    def test_collapsed_samples_cover_one_mode(self):
        ring = tc.ring8()
        samples = np.tile(ring.means[2], (500, 1))
        cov = oracle.mode_coverage([samples], ring)
        assert cov.n_covered == 1

    def test_empty_samples_rejected(self):
        with pytest.raises(DomainError):
            oracle.mode_coverage([np.zeros((0, 2))], tc.ring8())

    def test_bare_array_rejected(self):
        """A bare (n, d) array is not read as n blocks of one 1-D row each."""
        with pytest.raises(DomainError, match="sample blocks"):
            oracle.mode_coverage(np.zeros((10, 2)), tc.ring8())

    def test_overlapping_teacher_rejected(self):
        blob = tc.IsotropicGaussianMixture(
            weights=np.array([0.5, 0.5]),
            means=np.array([[0.0, 0.0], [0.5, 0.0]]),
            variances=np.array([1.0, 1.0]),
        )

        def blocks():   # the check runs before a lazy iterable is drawn from
            raise AssertionError("block drawn for an ambiguous teacher")
            yield

        with pytest.raises(DomainError, match="coverage undefined"):
            oracle.mode_coverage([np.zeros((10, 2))], blob)
        with pytest.raises(DomainError, match="coverage undefined"):
            oracle.mode_coverage(blocks(), blob)
