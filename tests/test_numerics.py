"""Shared numerics: bitwise pins for sigmoid, the row-wise log-sum-exp,
FNV-1a 64 and the stream keys, and the row-block rule."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp as scipy_logsumexp

from fdistill import _numerics as nm
from fdistill import nets, ratio_gan as rg, scorematch as sm
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
    # SciPy's reference logsumexp overflows on the huge rows
    @pytest.mark.parametrize("name", [
        pytest.param(name, marks=pytest.mark.filterwarnings(
            "ignore:overflow encountered:RuntimeWarning")) if name == "huge" else name
        for name in sorted(LSE_CASES)])
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
    @pytest.mark.parametrize("shape", [
        (512, 1024, 2), (128, 1, 2), (33, 70, 3),
        # several row blocks with a folded, odd-length tail
        (1000, 1024, 1), (700, 4096, 3), (129, 2048, 3),
    ])
    def test_particle_log_density_bitwise(self, shape, sigma_kind):
        n, m, d = shape
        centers = rngmod.stream(13, m).standard_normal((m, d)) * 2.0
        x = rngmod.stream(14, n).standard_normal((n, d)) * 4.0
        sigma = sigmas(n, 3)[sigma_kind]
        assert_same_bits(
            tc.particle_log_density(centers, x, sigma), ref_particle_log_density(centers, x, sigma)
        )


class TestRowBlocks:
    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(0, 5000), rows=st.integers(1, 23).map(lambda r: 64 * r))
    def test_blocks_cover_in_order_and_none_is_short(self, n, rows):
        """Balanced blocks with starts at multiples of 64, none shorter
        than `rows` (a multiple of 64), all within 64 rows of n / k."""
        blocks = nm.row_blocks(n, rows)
        assert blocks[0][0] == 0 and blocks[-1][1] == n
        assert all(stop == nxt for (_, stop), (nxt, _) in zip(blocks, blocks[1:]))
        assert all(start % 64 == 0 for start, _ in blocks)
        lengths = [stop - start for start, stop in blocks]
        if n < 2 * rows:
            assert lengths == [n]
        else:
            k = n // rows
            assert len(lengths) == k
            assert all(length >= rows and abs(length - n / k) < 64 for length in lengths)

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(0, 5000), rows=st.integers(1, 3000))
    def test_rows_are_rounded_to_a_multiple_of_64(self, n, rows):
        """Any `rows` is rounded down to a multiple of 64, never below 64."""
        assert nm.row_blocks(n, rows) == nm.row_blocks(n, max(64, rows // 64 * 64))

    def test_default_block_length(self):
        assert nm.row_blocks(5000) == [(0, 1216), (1216, 2496), (2496, 3712), (3712, 5000)]
        assert nm.row_blocks(2047) == [(0, 2047)]
        assert max(stop - start for start, stop in nm.row_blocks(10000)) == 1168
        assert max(stop - start for start, stop in nm.row_blocks(100000)) == 1088


def _network_entries():
    """name -> (net, its Adam record or None, call(sigma)) for each function
    that reads a network at an (n,) batch of sigmas; n = 4 rows in 2-D."""
    x = rngmod.stream(5, 1).standard_normal((4, 2))
    noise = rngmod.stream(5, 2).standard_normal((4, 2))
    disc = nets.conditioned_init(2, 1, rngmod.stream(5, 3), 1.0)
    den = nets.conditioned_init(2, 2, rngmod.stream(5, 4), 1.0)
    disc_opt = nets.adam_init(disc.params.size, 1e-3)
    den_opt = nets.adam_init(den.params.size, 1e-3)
    return {
        "logit": (disc, None, lambda s: rg.logit(disc, x, s)),
        "clipped_log_ratio": (disc, None, lambda s: rg.clipped_log_ratio(disc, x, s, -1, 1)),
        "disc_update": (disc, disc_opt, lambda s: rg.disc_update(
            disc, disc_opt, x, -x, s, noise, noise, r1_gamma=0.1)),
        "gan_generator_grad": (disc, None, lambda s: rg.gan_generator_grad(disc, x, s, noise)),
        "fake_score": (den, None, lambda s: sm.fake_score(den, x, s)),
        "dsm_update": (den, den_opt, lambda s: sm.dsm_update(den, den_opt, x, s, noise)),
    }


class TestSigmaBatch:
    def test_scalar_rejected(self):
        with pytest.raises(DomainError, match=r"shape \(3,\), got \(\)"):
            nm.sigma_batch(0.5, 3)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DomainError, match="shape"):
            nm.sigma_batch(np.ones(4), 3)

    @pytest.mark.parametrize("entry", list(_network_entries()))
    @pytest.mark.parametrize("sigma, message", [
        (np.zeros(4), "network inputs need finite sigmas > 0"),
        (np.full(4, -1.0), "network inputs need finite sigmas > 0"),
        (np.full(4, np.nan), "network inputs need finite sigmas > 0"),
        (np.full(4, np.inf), "network inputs need finite sigmas > 0"),
        (np.array([0.5, 0.5, 0.0, 0.5]), "network inputs need finite sigmas > 0"),
        (0.5, "sigma batch must have shape (4,), got ()"),
    ], ids=["zero", "negative", "nan", "inf", "one_zero", "scalar"])
    def test_network_entries_refuse_before_any_change(self, entry, sigma, message):
        """Every network entry refuses a bad sigma with `sigma_batch`'s one
        line, before the net's parameters or its Adam record change."""
        net, opt, call = _network_entries()[entry]
        params = net.params.copy()
        record = None if opt is None else (opt.m.copy(), opt.v.copy(), opt.step)
        with pytest.raises(DomainError) as info:
            call(sigma)
        assert str(info.value) == message
        assert net.params.tobytes() == params.tobytes()
        if opt is not None:
            assert opt.m.tobytes() == record[0].tobytes()
            assert opt.v.tobytes() == record[1].tobytes()
            assert opt.step == record[2]


def _analytic_entries(n=4, m=10):
    """name -> call(sigma) for each function that reads an analytic law at a
    sigma: the ring8 density and score, and a particle estimate from m
    centers; n points in 2-D."""
    x = rngmod.stream(6, n).standard_normal((n, 2)) * 3.0
    centers = rngmod.stream(7, m).standard_normal((m, 2)) * 2.0
    gm = tc.ring8()
    return {
        "log_density": lambda s: tc.log_density(gm, x, s),
        "score": lambda s: tc.score(gm, x, s),
        "particle_log_density": lambda s: tc.particle_log_density(centers, x, s),
    }


_SHAPE_REFUSAL = "sigma must be a scalar or of shape (4,), got shape {}"
_ANALYTIC_REFUSALS = {
    "shape_3": (np.ones(3), _SHAPE_REFUSAL.format("(3,)")),
    "column": (np.ones((4, 1)), _SHAPE_REFUSAL.format("(4, 1)")),
    "row": (np.ones((1, 4)), _SHAPE_REFUSAL.format("(1, 4)")),
    "shape_1": (np.ones(1), _SHAPE_REFUSAL.format("(1,)")),
    "negative": (-1.0, "sigma must be finite and >= 0"),
    "nan": (np.nan, "sigma must be finite and >= 0"),
    "inf": (np.inf, "sigma must be finite and >= 0"),
    "one_nan": (np.array([0.5, np.nan, 0.5, 0.5]), "sigma must be finite and >= 0"),
}
# a particle law has variance 0 at its centers, so sigma^2 must stay above 0
_PARTICLE_REFUSALS = {
    "zero": (0.0, "sigma 0.0 leaves a zero perturbed variance"),
    "underflow": (1e-170, "sigma 1e-170 leaves a zero perturbed variance"),
}


class TestPerturbedVariances:
    @pytest.mark.parametrize("entry, case", [
        *((entry, case) for entry in _analytic_entries() for case in _ANALYTIC_REFUSALS),
        *(("particle_log_density", case) for case in _PARTICLE_REFUSALS),
    ])
    def test_analytic_entries_refuse_with_one_line(self, entry, case):
        """Every analytic entry refuses a bad sigma with `perturbed_variances`'
        one line, not a numpy error, NaN or -inf; a RuntimeWarning on the way
        fails the test (pytest.ini)."""
        sigma, message = {**_ANALYTIC_REFUSALS, **_PARTICLE_REFUSALS}[case]
        with pytest.raises(DomainError) as info:
            _analytic_entries()[entry](sigma)
        assert str(info.value) == message

    @pytest.mark.parametrize("entry", list(_analytic_entries()))
    def test_repeated_sigma_batch_equals_scalar_bitwise(self, entry):
        """An (n,) batch of one sigma gives the scalar sigma's bits; the
        particle estimate spans five row blocks of 1024 centers."""
        call = _analytic_entries(n=700, m=1024)[entry]
        assert_same_bits(call(np.full(700, 0.7)), call(0.7))


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
