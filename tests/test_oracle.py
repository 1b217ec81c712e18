"""Ground-truth machinery: estimator cross-checks and closed-form anchors."""

import math

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import spearmanr

from fdistill import oracle, rng as rngmod
from fdistill import teacher as tc
from fdistill.divergence import KINDS, catalog
from fdistill.errors import DomainError, NumericsError


def gauss1d(mean, var=1.0):
    return tc.IsotropicGaussianMixture(
        weights=np.array([1.0]), means=np.array([[float(mean)]]),
        variances=np.array([float(var)]),
    )


def mc_between(kind, p, q, n, seed):
    return oracle.mc_f_divergence(
        kind, oracle.mixture_sampler(q),
        lambda x: tc.log_density(p, x), lambda x: tc.log_density(q, x),
        n=n, seed=seed,
    )


class TestMcDivergence:
    def test_identical_distributions_give_zero(self):
        p = gauss1d(0.3, 1.2)
        est = mc_between("jensen-shannon", p, p, n=10000, seed=1)
        assert abs(est.value) <= max(3.0 * est.se, 1e-12)

    def test_gaussian_kl_closed_forms(self):
        # KL between unit-variance Gaussians a mean-gap 1 apart is 1/2
        p, q = gauss1d(0.0), gauss1d(1.0)
        rkl = mc_between("reverse-kl", p, q, n=1000000, seed=2)
        assert abs(rkl.value - 0.5) <= 3.0 * rkl.se
        fkl = mc_between("forward-kl", p, q, n=1000000, seed=3)
        assert abs(fkl.value - 0.5) <= 3.0 * fkl.se

    def test_small_n_rejected(self):
        p, q = gauss1d(0.0), gauss1d(1.0)
        with pytest.raises(DomainError):
            mc_between("reverse-kl", p, q, n=10, seed=1)

    @pytest.mark.parametrize("kind", KINDS)
    def test_nonnegative_within_noise(self, kind):
        p = tc.IsotropicGaussianMixture(
            weights=np.array([0.4, 0.6]), means=np.array([[-0.5], [0.7]]),
            variances=np.array([0.8, 1.1]),
        )
        q = gauss1d(0.2, 1.3)
        est = mc_between(kind, p, q, n=200000, seed=4)
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
            est = mc_between(kind, p, q, n=200000, seed=600 + trial)
            assert abs(est.value - exact) <= max(3.0 * est.se, 1e-9), (
                kind, trial, est.value, exact
            )


class TestTheorem1:
    def test_zero_gradient_at_symmetric_optimum(self):
        teacher = gauss1d(0.0)
        gen = tc.AffineGenerator(scale=1.0, bias=np.zeros(1))
        for kind in KINDS:
            reports = oracle.theorem1_grad_check(kind, teacher, gen, 0.5, 100000, 7)
            rep = reports[0]
            combined = np.hypot(rep.se_mc, rep.se_fd)
            assert abs(rep.grad_mc - rep.grad_fd) <= 3.0 * combined
            assert abs(rep.grad_mc) <= 3.0 * rep.se_mc

    @pytest.mark.parametrize("sigma,expected", [(0.0, 1.0), (1.0, 0.5)])
    def test_forward_kl_gaussian_anchor(self, sigma, expected):
        """KL(p_t || q_t) between N(0, 1+s^2) and N(b, 1+s^2): grad_b = b/(1+s^2)."""
        teacher = gauss1d(0.0)
        gen = tc.AffineGenerator(scale=1.0, bias=np.array([1.0]))
        rep = oracle.theorem1_grad_check("forward-kl", teacher, gen, sigma, 100000, 11)[0]
        assert rep.grad_mc == pytest.approx(expected, rel=0.05)
        assert rep.grad_fd == pytest.approx(expected, rel=0.05)

    def test_reverse_kl_gaussian_anchor(self):
        """KL(q || p) for unit variances: grad_b = b at sigma = 0."""
        teacher = gauss1d(0.0)
        gen = tc.AffineGenerator(scale=1.0, bias=np.array([1.0]))
        rep = oracle.theorem1_grad_check("reverse-kl", teacher, gen, 0.0, 100000, 13)[0]
        assert rep.grad_mc == pytest.approx(1.0, rel=0.05)
        assert rep.grad_fd == pytest.approx(1.0, rel=0.05)

    def test_full_gate(self):
        """All six divergences x sigma in {0, 0.5, 2} x both teacher presets
        agree within 5% (or 3 SE at zero gradients)."""
        for name, (teacher, gen) in oracle.gradcheck_cases().items():
            for kind in KINDS:
                for sigma in (0.0, 0.5, 2.0):
                    reports = oracle.theorem1_grad_check(
                        kind, teacher, gen, sigma, n=100000, seed=17
                    )
                    for rep in reports:
                        assert rep.passes(rel_tol=0.05), (
                            name, kind, sigma, rep.param_index,
                            rep.grad_mc, rep.grad_fd, rep.rel_error,
                        )


class TestVarianceCurve:
    def test_reverse_kl_variance_identically_zero(self):
        for est in oracle.normalized_variance_curve("reverse-kl", [0.5, 1.0, 2.0],
                                                    10000, 19):
            assert est.value == 0.0

    def test_forward_kl_closed_form_at_unit_gap(self):
        # Var_q(p/q) = exp(d^2) - 1 for unit-variance Gaussians
        est = oracle.normalized_variance_curve("forward-kl", [1.0], 1000000, 23)[0]
        assert est.value == pytest.approx(np.e - 1.0, rel=0.05)

    def test_squared_hellinger_closed_form(self):
        # h = sqrt(r)/4: normalized variance = exp(d^2/4) - 1
        est = oracle.normalized_variance_curve("squared-hellinger", [2.0], 1000000, 29)[0]
        assert est.value == pytest.approx(np.e - 1.0, rel=0.05)

    def test_high_variance_family_dominates_at_gap_two(self):
        values = {
            kind: oracle.normalized_variance_curve(kind, [2.0], 1000000, 31)[0].value
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
        samples = tc.sample(ring, 100000, seed=37)
        cov = oracle.mode_coverage(samples, ring, k=3.0)
        assert cov.n_covered == 8
        np.testing.assert_allclose(cov.per_mode_mass, 1.0 / 8.0, atol=0.02)

    def test_collapsed_samples_cover_one_mode(self):
        ring = tc.ring8()
        samples = np.tile(ring.means[2], (500, 1))
        cov = oracle.mode_coverage(samples, ring, k=3.0)
        assert cov.n_covered == 1

    def test_empty_samples_rejected(self):
        with pytest.raises(DomainError):
            oracle.mode_coverage(np.zeros((0, 2)), tc.ring8())

    def test_overlapping_teacher_rejected(self):
        blob = tc.IsotropicGaussianMixture(
            weights=np.array([0.5, 0.5]),
            means=np.array([[0.0, 0.0], [0.5, 0.0]]),
            variances=np.array([1.0, 1.0]),
        )
        with pytest.raises(DomainError, match="coverage undefined"):
            oracle.mode_coverage(np.zeros((10, 2)), blob)
