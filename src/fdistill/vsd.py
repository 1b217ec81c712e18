"""Plain variational score distillation update, coded independently.

The update direction is the unweighted, time-weighted teacher-minus-student
score difference

    E[ w_t (s_teacher(x) - s_student(x)) grad_theta G(z) ],   x = G(z) + sigma eps,

with no density ratios, no weighting function and no normalization anywhere
on the path. It exists as a reference implementation: the weighted objective
with constant unit weighting and normalizations disabled must reproduce this
update bit for bit on shared randomness.
"""

import numpy as np

from .nets import adam_step
from .teacher import score

__all__ = ["vsd_generator_signal", "vsd_generator_step"]


def vsd_generator_signal(teacher_score, fake_score, w_t) -> np.ndarray:
    """Per-sample update signal w_t (teacher - fake)."""
    ts = np.asarray(teacher_score, dtype=float)
    fs = np.asarray(fake_score, dtype=float)
    w = np.asarray(w_t, dtype=float)
    return w[:, None] * (ts - fs)


def vsd_generator_step(state, cfg, batch) -> None:
    """One generator update along the plain score-difference direction.

    Mirrors the weighted generator step's plumbing (same forward, same
    backward, same optimizer) but computes the signal directly from the score
    difference. GAN coupling is intentionally absent.
    """
    from .distill import _fake_score_batch  # shared score-source dispatch

    n = cfg.batch_size
    y, ctx = state.generator.forward_cached(batch.z)
    x = y + batch.sigma[:, None] * batch.eps
    ts = score(cfg.teacher_law, x, batch.sigma)
    fs = _fake_score_batch(state, cfg, x, batch.sigma)
    g = vsd_generator_signal(ts, fs, batch.sigma**2)
    pgrad = state.generator.backward(ctx, -g / n)
    state.generator.params = adam_step(state.opt_generator, state.generator.params, pgrad)
