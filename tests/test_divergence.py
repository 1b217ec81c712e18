"""Catalog fidelity: closed forms, derivative consistency, growth probes."""

import numpy as np
import pytest

from fdistill import divergence as dv
from fdistill.errors import DomainError

GRID = np.geomspace(1e-2, 1e2, 200)

INCREASING_H = ("forward-kl", "jeffreys", "jensen-shannon", "squared-hellinger")
FINITE_LIMIT = ("reverse-kl", "softened-rkl", "jensen-shannon", "squared-hellinger")
UNBOUNDED = ("forward-kl", "jeffreys")


@pytest.mark.parametrize("kind", dv.KINDS)
class TestCatalogRow:
    def test_f_at_one_is_zero(self, kind):
        assert float(dv.catalog(kind).f(1.0)) == 0.0

    def test_convexity_on_grid(self, kind):
        assert np.all(dv.catalog(kind).f_second(GRID) >= 0.0)

    def test_h_equals_fsecond_r_squared(self, kind):
        spec = dv.catalog(kind)
        h = spec.h(GRID)
        target = spec.f_second(GRID) * GRID**2
        assert np.max(np.abs(h - target) / np.maximum(1.0, np.abs(h))) <= 1e-12

    def test_f_prime_matches_finite_difference(self, kind):
        # relative step 1e-5 r: keeps truncation ~1e-10 across the log grid
        spec = dv.catalog(kind)
        step = 1e-5 * GRID
        fd = (spec.f(GRID + step) - spec.f(GRID - step)) / (2 * step)
        exact = spec.f_prime(GRID)
        rel = np.abs(fd - exact) / np.maximum(np.abs(exact), 1e-10)
        assert np.max(rel) <= 1e-6

    def test_f_second_matches_finite_difference(self, kind):
        spec = dv.catalog(kind)
        step = 1e-5 * GRID
        fd = (spec.f_prime(GRID + step) - spec.f_prime(GRID - step)) / (2 * step)
        exact = spec.f_second(GRID)
        rel = np.abs(fd - exact) / np.maximum(np.abs(exact), 1e-10)
        assert np.max(rel) <= 1e-6

    def test_log_forms_agree_with_ratio_forms(self, kind):
        spec = dv.catalog(kind)
        u = np.log(GRID)
        np.testing.assert_allclose(spec.f_log(u), spec.f(GRID), rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(spec.h_log(u), spec.h(GRID), rtol=1e-9, atol=1e-14)


class TestClosedFormAnchors:
    """Hand-checked values for specific catalog entries."""

    def test_reverse_kl_f_at_e(self):
        assert dv.catalog("reverse-kl").f(np.e) == pytest.approx(-1.0, abs=1e-12)

    def test_js_second_derivative_at_one(self):
        # f''(r) = 1/(r(r+1)) by differentiating the closed form twice
        assert dv.catalog("jensen-shannon").f_second(1.0) == pytest.approx(0.5)

    def test_weight_values(self):
        assert dv.weight_h("reverse-kl", 7.3) == pytest.approx(1.0)
        assert dv.weight_h("jensen-shannon", 1.0) == pytest.approx(0.5)
        assert dv.weight_h("squared-hellinger", 4.0) == pytest.approx(0.5)
        assert dv.weight_h("forward-kl", 2.0) == pytest.approx(2.0)
        assert dv.weight_h("jeffreys", 2.0) == pytest.approx(3.0)
        assert dv.weight_h("softened-rkl", 1.0) == pytest.approx(0.5)

    def test_weight_domain_errors(self):
        with pytest.raises(DomainError):
            dv.weight_h("reverse-kl", 0.0)
        with pytest.raises(DomainError):
            dv.weight_h("reverse-kl", -1.0)
        with pytest.raises(DomainError):
            dv.weight_h("reverse-kl", np.inf)
        with pytest.raises(DomainError):
            dv.weight_h("reverse-kl", np.nan)

    def test_unknown_kind(self):
        with pytest.raises(DomainError, match="unsupported divergence"):
            dv.catalog("total-variation")


def growth(kind, r=1e6):
    """f(r)/r at a large ratio, through the log-ratio form: bounded for the
    mode-seeking rows, unbounded for the mode-covering ones."""
    return float(dv.catalog(kind).f_log(np.log(r))) / r


class TestGrowthProbe:
    def test_js_limit_is_log2(self):
        assert growth("jensen-shannon") == pytest.approx(np.log(2.0), abs=1e-3)

    def test_reverse_kl_limit_is_zero(self):
        assert abs(growth("reverse-kl")) <= 1e-4

    def test_forward_kl_grows_like_log(self):
        assert growth("forward-kl") == pytest.approx(np.log(1e6), rel=1e-12)

    def test_mode_seeking_classifier(self):
        # bounded-growth family vs unbounded family at r = 1e6
        for kind in FINITE_LIMIT:
            assert growth(kind) < 1.0
        for kind in UNBOUNDED:
            assert growth(kind) > 10.0


class TestMonotonicity:
    def test_h_monotone_per_kind(self):
        for kind in INCREASING_H:
            assert np.all(np.diff(dv.catalog(kind).h(GRID)) > 0.0), kind
        assert np.all(np.diff(dv.catalog("reverse-kl").h(GRID)) == 0.0)
        assert np.all(np.diff(dv.catalog("softened-rkl").h(GRID)) < 0.0)


# Asymptotic exponents of f''(r): (r -> inf rate, r -> 0 rate).
TAIL_RATES = {
    "reverse-kl": (-2.0, -2.0),
    "softened-rkl": (-3.0, -2.0),
    "jensen-shannon": (-2.0, -1.0),
    "squared-hellinger": (-1.5, -1.5),
    "forward-kl": (-1.0, -1.0),
    "jeffreys": (-1.0, -2.0),
}


class TestTailRates:
    @pytest.mark.parametrize("kind", dv.KINDS)
    def test_rates_match_numeric_slopes(self, kind):
        spec = dv.catalog(kind)
        right, left = TAIL_RATES[kind]
        slope_right = (np.log(spec.f_second(1e8)) - np.log(spec.f_second(1e6))) / (
            np.log(1e8) - np.log(1e6)
        )
        slope_left = (np.log(spec.f_second(1e-6)) - np.log(spec.f_second(1e-8))) / (
            np.log(1e-6) - np.log(1e-8)
        )
        assert slope_right == pytest.approx(right, abs=1e-3)
        assert slope_left == pytest.approx(left, abs=1e-3)
