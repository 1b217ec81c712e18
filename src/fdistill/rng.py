"""Counter-based random streams.

Every random draw in the package comes from a Philox generator keyed by
(seed, path...), where the path is a tuple of small integers naming the
consumer (e.g. (iteration, STREAM_LATENT)). Streams with distinct paths are
statistically independent and can be regenerated at any point, which is what
makes checkpoint-resume bitwise exact: step i consumes exactly the streams
keyed by i, never a shared cursor.
"""

import numpy as np

from ._numerics import MASK64, fnv1a64

# Stream purposes. Values are part of the determinism contract: changing them
# changes every run's random numbers.
INIT_GENERATOR = 1
INIT_DENOISER = 2
INIT_DISCRIMINATOR = 3
STEP_TIME = 10
STEP_LATENT = 11
STEP_NOISE = 12
STEP_GAN_NOISE = 13
STEP_DSM_NOISE = 14
STEP_REAL_NOISE = 16
STEP_FAKE_NOISE = 17
STEP_PARTICLES = 18
METRICS = 20
# teacher batches: (seed, iteration << 2 | k, TEACHER_SAMPLE), k = 1 for the
# discriminator's real batch, k = 2 for the metrics batch
TEACHER_SAMPLE = 0xFD


def stream(seed: int, *path: int) -> np.random.Generator:
    """Independent Philox stream for the given (seed, path) coordinates."""
    key = np.array([int(seed) & MASK64, fnv1a64(int(v) & MASK64 for v in path)],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
