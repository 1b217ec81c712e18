"""Shared numerics: bitwise pins for sigmoid, the row-wise log-sum-exp,
FNV-1a 64 and the stream keys."""

import math

import numpy as np
import pytest
from scipy.special import logsumexp as scipy_logsumexp

from fdistill import _numerics as nm
from fdistill import rng as rngmod
from fdistill import teacher as tc
from fdistill.errors import DomainError


def ref_sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def ref_fnv1a64(data: bytes) -> int:
    # the textbook byte loop
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & ((1 << 64) - 1)
    return h


class TestSigmoid:
    def test_array_matches_tanh_form_bitwise(self):
        x = np.concatenate([
            rngmod.stream(3, 1).standard_normal(4096) * 30.0,
            [0.0, -0.0, 1e-300, -745.0, 745.0, np.inf, -np.inf],
        ])
        out = nm.sigmoid(x)
        assert out.tobytes() == ref_sigmoid(x).tobytes()
        assert out is not x

    def test_strided_2d_input(self):
        x = rngmod.stream(3, 2).standard_normal((64, 3))[:, 0]
        assert nm.sigmoid(x).tobytes() == ref_sigmoid(x).tobytes()

    @pytest.mark.parametrize("value", [0.0, -2.5, 17.25, 1e-8])
    def test_zero_d_input(self, value):
        for x in (value, np.asarray(value), np.float64(value)):
            out = nm.sigmoid(x)
            assert np.ndim(out) == 0
            assert float(out) == float(ref_sigmoid(np.asarray(value)))

    def test_input_is_not_modified(self):
        x = np.array([0.5, -1.0])
        nm.sigmoid(x)
        np.testing.assert_array_equal(x, [0.5, -1.0])


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


_INF, _NAN = np.inf, np.nan


def _underflow_rows():
    """Rows whose differences from the row max fall where exp underflows:
    in its subnormal band (-745.2, -708.4) and below it, where it returns 0,
    as many entries of the particle matrices in `compute_metrics` do. The
    first 16 rows also hold ordinary terms; in the others the max's
    neighbours are all subnormal or zero. The last 16 rows have max 0, so
    their result log1p(s) is the subnormal sum s itself, and a kernel that
    drops those terms shows."""
    gen = rngmod.stream(5, 5)
    diff = np.concatenate([
        np.zeros((48, 1)),
        gen.uniform(-745.0, -708.6, (48, 6)),
        gen.uniform(-1500.0, -745.5, (48, 6)),
    ], axis=1)
    diff[:16, 1:4] = gen.standard_normal((16, 3)) * 2.0 - 3.0
    top = gen.standard_normal((48, 1)) * 50.0
    top[32:] = 0.0
    return top + gen.permuted(diff, axis=1)


LSE_CASES = {
    "random": rngmod.stream(5, 1).standard_normal((64, 9)) * 20.0,
    "ties": np.array([
        [1.5, 1.5, -3.0, 0.25],        # 2-way tie at the max
        [2.0, -1.0, 2.0, 2.0],         # 3-way tie
        [7.0, 7.0, 7.0, 7.0],          # all tied
        [-0.5, 3.0, 1.0, 3.0],
    ]),
    "neg_inf": np.array([
        [-_INF, 0.0, 1.0, -_INF],
        [-_INF, -_INF, -_INF, -_INF],  # all -inf: -inf
        [-_INF, -_INF, 4.0, -_INF],
    ]),
    "non_finite": np.array([
        [_INF, 0.0, 1.0],              # +inf
        [_NAN, 0.0, 1.0],              # NaN
        [_INF, -_INF, 2.0],
        [0.5, 1.0, 2.0],
    ]),
    "huge": np.array([[1.7e308, 1.7e308, 1.0], [1.79e308, -1.79e308, 0.0]]),
    "single_column": rngmod.stream(5, 2).standard_normal((17, 1)) * 3.0,
    "metrics_size": rngmod.stream(5, 3).standard_normal((512, 1024)) * 8.0 - 40.0,
    "exp_underflow": _underflow_rows(),
}


class TestLogSumExp:
    @pytest.mark.parametrize("keepdims", [False, True])
    @pytest.mark.parametrize("name", sorted(LSE_CASES))
    def test_matches_scipy_bitwise(self, name, keepdims):
        a = LSE_CASES[name]
        want = scipy_logsumexp(a, axis=1, keepdims=keepdims)
        before = a.copy()
        assert_same_bits(nm.logsumexp(a, keepdims=keepdims), want)
        assert_same_bits(a, before)
        scratch = a.copy()
        assert_same_bits(nm.logsumexp(scratch, keepdims=keepdims, overwrite_a=True), want)

    def test_strided_and_fortran_input(self):
        base = rngmod.stream(5, 4).standard_normal((60, 90)) * 10.0
        for a in (base[::2, ::3], np.asfortranarray(base)):
            assert_same_bits(nm.logsumexp(a), scipy_logsumexp(a, axis=1))

    @pytest.mark.parametrize("shape", [(3,), (2, 3, 4), (4, 0)])
    def test_needs_2d_input_with_columns(self, shape):
        with pytest.raises(DomainError, match="2-D"):
            nm.logsumexp(np.zeros(shape))


# The teacher's expressions before they used the fused buffer and the kernel
# above; kept here as the bitwise reference.
_LOG_2PI = math.log(2.0 * math.pi)


def ref_component_logs(gm, x, sigma):
    sig = np.asarray(sigma, dtype=float)
    var = gm.variances[None, :] + (sig**2).reshape(-1, 1) if sig.ndim else gm.variances[None, :] + sig**2
    sq = (
        np.sum(x**2, axis=1, keepdims=True)
        - 2.0 * x @ gm.means.T
        + np.sum(gm.means**2, axis=1)[None, :]
    )
    d = gm.dim
    with np.errstate(divide="ignore"):
        logw = np.log(gm.weights)[None, :]
    return logw - 0.5 * d * (_LOG_2PI + np.log(var)) - 0.5 * sq / var, var


def ref_log_density(gm, x, sigma):
    comp, _ = ref_component_logs(gm, x, sigma)
    return scipy_logsumexp(comp, axis=1)


def ref_score(gm, x, sigma):
    comp, var = ref_component_logs(gm, x, sigma)
    resp = np.exp(comp - scipy_logsumexp(comp, axis=1, keepdims=True))
    pull = (gm.means[None, :, :] - x[:, None, :]) / var[..., None]
    return np.einsum("nk,nkd->nd", resp, pull)


def ref_particle_log_density(centers, x, sigma):
    sig = np.asarray(sigma, dtype=float)
    m, d = centers.shape
    sq = (
        np.sum(x**2, axis=1, keepdims=True)
        - 2.0 * x @ centers.T
        + np.sum(centers**2, axis=1)[None, :]
    )
    var = (sig**2).reshape(-1, 1) if sig.ndim else np.full((1, 1), sig**2)
    comp = -0.5 * d * (_LOG_2PI + np.log(var)) - 0.5 * sq / var
    return scipy_logsumexp(comp, axis=1) - math.log(m)


MIXTURES = {
    "ring8": tc.ring8(),
    "grid25": tc.grid25(),
    "zero_weight": tc.IsotropicGaussianMixture(
        weights=np.array([0.0, 0.7, 0.3]),
        means=np.array([[-2.0, 0.5, 1.0], [1.0, 1.0, 0.0], [0.0, -2.0, 3.0]]),
        variances=np.array([0.6, 1.2, 0.4]),
    ),
}


def points_for(gm, n, key):
    return rngmod.stream(11, key).standard_normal((n, gm.dim)) * 3.0


def sigmas(n, key):
    return {"zero": 0.0, "scalar": 0.7, "per_row": np.exp(rngmod.stream(12, key).uniform(-5, 3, n))}


class TestTeacherKernelPins:
    @pytest.mark.parametrize("sigma_kind", ["zero", "scalar", "per_row"])
    @pytest.mark.parametrize("name", sorted(MIXTURES))
    def test_log_density_and_score_bitwise(self, name, sigma_kind):
        gm = MIXTURES[name]
        x = points_for(gm, 300, 1)
        sigma = sigmas(300, 2)[sigma_kind]
        assert_same_bits(tc.log_density(gm, x, sigma), ref_log_density(gm, x, sigma))
        assert_same_bits(tc.score(gm, x, sigma), ref_score(gm, x, sigma))

    @pytest.mark.parametrize("sigma_kind", ["scalar", "per_row"])
    @pytest.mark.parametrize("shape", [(512, 1024, 2), (128, 1, 2), (33, 70, 3)])
    def test_particle_log_density_bitwise(self, shape, sigma_kind):
        n, m, d = shape
        centers = rngmod.stream(13, m).standard_normal((m, d)) * 2.0
        x = rngmod.stream(14, n).standard_normal((n, d)) * 4.0
        sigma = sigmas(n, 3)[sigma_kind]
        assert_same_bits(
            tc.particle_log_density(centers, x, sigma), ref_particle_log_density(centers, x, sigma)
        )


class TestSigmaBatch:
    def test_scalar_broadcast(self):
        np.testing.assert_array_equal(nm.sigma_batch(0.5, 3), [0.5, 0.5, 0.5])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DomainError, match="shape"):
            nm.sigma_batch(np.ones(4), 3)


class TestFnv1a64:
    @pytest.mark.parametrize("data", [b"", b"FDST", bytes(range(256)) * 3])
    def test_matches_byte_loop(self, data):
        assert nm.fnv1a64(data) == ref_fnv1a64(data)

    def test_known_values(self):
        assert nm.fnv1a64(b"") == 0xCBF29CE484222325
        assert nm.fnv1a64(b"FDST") == 0x58322685CBDD9498


class TestStreamKey:
    def test_golden_draw(self):
        # pins the Philox key (seed, FNV-1a 64 of the path): changing either
        # changes every run's random numbers
        draw = rngmod.stream(2025, 7, rngmod.STEP_LATENT).standard_normal(3)
        assert [float(v).hex() for v in draw] == [
            "0x1.5040db1a2f9c2p-5", "-0x1.bea1c9e37e19ap-1", "-0x1.efe2884a740e9p-2",
        ]

    def test_seed_and_path_words_are_masked_to_64_bits(self):
        draw = rngmod.stream(-1, 2**64 + 5, 0).integers(0, 2**62, size=2)
        assert draw.tolist() == [3384666588619793435, 3520406905823498959]
