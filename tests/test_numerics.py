"""Shared numerics: bitwise pins for sigmoid, FNV-1a 64 and the stream keys."""

import numpy as np
import pytest

from fdistill import _numerics as nm
from fdistill import checkpoint as ckpt
from fdistill import rng as rngmod
from fdistill.errors import DomainError


def ref_sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def ref_fnv1a64(data: bytes) -> int:
    # byte loop of the version-1 checkpoint checksum
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
        assert ckpt.fnv1a64(data) == ref_fnv1a64(data)

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
