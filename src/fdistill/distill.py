"""Weighted score-difference distillation: objective, normalizations, loop.

The generator follows the exact divergence gradient

    grad_theta D_f(p_t || q_t) = -E[ h(r_t(x)) (s_teacher(x) - s_student(x)) grad_theta G ]

with x = G(z) + sigma eps and r_t the teacher/student density ratio. The
per-sample signal g_i = w_t h(r_i) (s_teacher - s_student) is treated as a
constant; parameters move along -grad_theta D_f, i.e. the loop ascends the
surrogate mean_i g_i . x_i. (Descent on the divergence is the convention that
makes a Gaussian student provably shrink its mean gap for every catalog
divergence; see tests.)

Ratios come from the discriminator logit or from an exact oracle (closed form
for affine students, particle Monte Carlo for MLP students), are clipped in log
space, bin-normalized over noise levels (their expectation under the student
is 1), passed through h, and batch-normalized again so the weighting keeps a
stable scale relative to the GAN term.

Every iteration updates either the generator (iteration % tau == 0) or the
denoiser plus discriminator, mirroring the two time-scale schedule. The
frozen `RunConfig` is the run: each function takes it, and reads the teacher
mixture and the sigma ladder it derives once (`teacher_law`, `levels`).
"""

import math
import numbers
import operator
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from typing import Optional, Tuple, Union

import numpy as np

from . import rng as rngmod
from ._numerics import row_blocks
from .divergence import KINDS, weight_h
from .errors import CheckpointError, ConfigError, DomainError, NumericsError, TrainingDiverged
from .nets import (HIDDEN_WIDTHS, Adam, ConditionedNet, FeedForwardNet, NetworkPayload,
                   adam_init, adam_step, backward, conditioned_init, conditioned_widths,
                   forward, init_net, param_count, predict)
from .ratio_gan import clipped_log_ratio, disc_update, gan_generator_grad
from .scorematch import dsm_update, fake_score
from .teacher import (
    AffineGenerator,
    log_density,
    make_teacher,
    mode_coverage,
    particle_log_density,
    sample,
    score,
)

__all__ = [
    "RunConfig",
    "TrainState",
    "StepReport",
    "Batch",
    "MLPGenerator",
    "REPORT_FIELDS",
    "METRICS_COLUMNS",
    "METRICS_SIGMA",
    "fdistill_generator_signal",
    "normalize_stage1",
    "normalize_stage2",
    "init_state",
    "draw_batch",
    "train_step",
    "train",
    "compute_metrics",
]

def _rule(what, ok, convert=lambda v: v):
    """A config key's rule: it returns an accepted value through `convert` and
    raises DomainError, saying `what` the value must be, for any other."""
    def check(value):
        if not ok(value):
            raise DomainError(f"must be {what}, got {value!r}")
        return convert(value)
    return check


_BOUNDS = {"ge": (">=", operator.ge), "gt": (">", operator.gt),
           "le": ("<=", operator.le), "lt": ("<", operator.lt)}


def _bounded(kind, is_kind, bounds, convert=lambda v: v):
    what = " and ".join(f"{_BOUNDS[k][0]} {b}" for k, b in bounds.items())
    return _rule(f"{kind} {what}".rstrip(),
                 lambda v: not isinstance(v, bool) and is_kind(v)
                 and all(_BOUNDS[k][1](v, b) for k, b in bounds.items()), convert)


def integer(**bounds):
    """An int within `bounds` (ge, gt, le, lt); bools and floats are rejected."""
    return _bounded("an integer", lambda v: isinstance(v, numbers.Integral), bounds)


def number(**bounds):
    """A finite int or float within `bounds` (ge, gt, le, lt), returned as a float;
    bools, NaN, infinities and ints beyond the float range are rejected."""
    return _bounded("a finite number", lambda v: isinstance(v, numbers.Real)
                    and abs(v) <= sys.float_info.max, bounds, float)


def one_of(choices):
    """A string from `choices`."""
    return _rule(f"one of {', '.join(choices)}",
                 lambda v: isinstance(v, str) and v in choices)


def optional(rule):
    """`rule`, or null."""
    return lambda v: None if v is None else rule(v)


def list_of(rule, nonempty=False):
    """A list whose items each pass `rule`; at least one when `nonempty`."""
    return _rule("a non-empty list" if nonempty else "a list",
                 lambda v: isinstance(v, list) and (bool(v) or not nonempty),
                 lambda v: [rule(x) for x in v])


def teacher_spec(spec):
    """A teacher preset name or {weights, means, variances} dict, never a
    mixture object; returns the mixture `make_teacher` builds from it."""
    try:
        return make_teacher(spec)
    except (TypeError, ValueError, OverflowError) as exc:  # also numpy's, on bad arrays
        raise DomainError(str(exc)) from exc


BOOL = _rule("true or false", lambda v: isinstance(v, bool))


def _reject_unknown(keys, given, prefix=""):
    for key in given:
        if key not in keys:
            raise ConfigError(prefix + key, "unknown config key")


def checked(keys, given, prefix=""):
    """Every key of the schema `keys`, {name: (default, rule)}, passed through
    its rule, the value in `given` in place of the default. An unknown key or
    a rejected value raises ConfigError naming '<prefix><key>'."""
    _reject_unknown(keys, given, prefix)
    out = {}
    for name, (default, rule) in keys.items():
        try:
            out[name] = rule(given.get(name, default))
        except DomainError as exc:
            raise ConfigError(prefix + name, str(exc)) from exc
    return out


def _key(default, rule):
    return field(default=default, metadata={"rule": rule})


@dataclass(frozen=True)
class RunConfig:
    """Every hyperparameter of a training run, each declared with its default
    and rule. JSON round-trippable and frozen: `teacher_law` is the mixture its
    `teacher` rule built, and `levels` the noise ladder, derived on first use."""

    divergence: str = _key("jensen-shannon", one_of(KINDS))
    batch_size: int = _key(128, integer(ge=1))
    total_iters: int = _key(20000, integer(ge=0))
    tau: int = _key(5, integer(ge=1))
    gan_weight: float = _key(1e-3, number(ge=0))
    # the ratio clip, 0 < r_min <= 1 <= r_max; a bin-normalized ratio stays >= 1e-300
    r_min: float = _key(1e-3, number(ge=1e-150, le=1))
    r_max: float = _key(1e3, number(ge=1, le=1e150))
    time_bins: int = _key(8, integer(ge=1))
    normalize_stage1: bool = _key(True, BOOL)
    normalize_stage2: bool = _key(True, BOOL)
    lr_generator: float = _key(2e-3, number(gt=0))
    lr_denoiser: float = _key(2e-3, number(gt=0))
    lr_discriminator: float = _key(2e-3, number(gt=0))
    r1_gamma: float = _key(1.0, number(ge=0))
    # rng.stream keys on the seed as a uint64; any other int would alias one
    seed: int = _key(0, integer(ge=0, lt=2**64))
    teacher: Union[str, dict] = _key("ring8", teacher_spec)
    # sigma**2 and sigma**-2 stay finite and non-zero at both ends of the ladder
    sigma_min: float = _key(0.002, number(ge=1e-150))
    sigma_max: float = _key(80.0, number(le=1e150))
    n_levels: int = _key(64, integer(ge=1))
    ratio_source: str = _key("discriminator", one_of(("discriminator", "exact-oracle")))
    score_source: str = _key("denoiser", one_of(("denoiser", "exact-oracle")))
    generator_kind: str = _key("mlp", one_of(("mlp", "affine")))
    oracle_ratio_particles: int = _key(512, integer(ge=1))
    metrics_interval: int = _key(100, integer(ge=0))
    metrics_samples: int = _key(512, integer(ge=2))   # ddof=1 standard errors
    metrics_centers: int = _key(1024, integer(ge=1))
    checkpoint_interval: int = _key(0, integer(ge=0))

    def __post_init__(self):
        """Each key against its rule, once, then the checks that span keys.
        Values are kept as given (an int stays an int on a number key), so a
        checkpoint's config echo is the config's own; `teacher_law` keeps the
        teacher rule's mixture, whose std (the nets' data scale) must be finite."""
        object.__setattr__(self, "teacher_law", checked(_RUN_KEYS, self.to_dict())["teacher"])
        with np.errstate(over="ignore", invalid="ignore"):
            if not math.isfinite(self.teacher_law.per_coord_std()):
                raise ConfigError("teacher", "the mixture's per-coordinate std is not finite")
        if self.batch_size < 2 * self.time_bins:
            raise ConfigError(
                "batch_size",
                f"must average >= 2 samples per time bin ({2 * self.time_bins} for "
                f"{self.time_bins} bins)",
            )
        if not self.sigma_min < self.sigma_max:
            raise ConfigError("sigma_min", "requires 0 < sigma_min < sigma_max")
        if self.score_source == "exact-oracle" and self.generator_kind != "affine":
            raise ConfigError(
                "score_source", "exact-oracle fake scores require an affine generator"
            )

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        """Strict construction: unknown keys are rejected, not ignored; the key
        rules run in `__post_init__`. A retired key (see RETIRED_KEYS) is
        dropped when it holds its fixed value and rejected otherwise."""
        if not isinstance(data, dict):
            raise ConfigError("<root>", "config must be a JSON object")
        data = dict(data)
        for key, fixed in RETIRED_KEYS.items():
            # a bool and a number never match, though False == 0.0
            value = data.pop(key, fixed)
            if value != fixed or isinstance(value, bool) != isinstance(fixed, bool):
                raise ConfigError(key, f"retired; only {fixed!r} is accepted, got {value!r}")
        _reject_unknown(_RUN_KEYS, data)
        return cls(**data)

    def to_dict(self) -> dict:
        """The keys and their values; never the derived values."""
        return {name: getattr(self, name) for name in _RUN_KEYS}

    @cached_property
    def levels(self) -> np.ndarray:
        """The noise ladder: n_levels sigmas, log-uniform from sigma_min to
        sigma_max (np.geomspace), read-only."""
        ladder = np.geomspace(self.sigma_min, self.sigma_max, self.n_levels)
        ladder.flags.writeable = False
        return ladder


_RUN_KEYS = {f.name: (f.default, f.metadata["rule"]) for f in fields(RunConfig)}

# Run keys of earlier versions, each with the one value the training loop now
# hard-wires. Config files and the config echo of older checkpoints may still
# carry them.
RETIRED_KEYS = {
    "stage1_mode": "bin-mean",
    "gan_loss_form": "nonsaturating",
    "time_weight_rescale": False,
    "weight_decay": 0.0,
    "ratio_at_clean": False,
    "latent_dim": None,         # an MLP generator's latent width is the teacher's dim
    "metrics_sigma": 0.1,       # METRICS_SIGMA
    "coverage_k": 3.0,          # teacher.COVERAGE_K
    "coverage_threshold": 0.02,  # teacher.COVERAGE_THRESHOLD
}


class MLPGenerator(FeedForwardNet):
    """One-step student G(z), itself a FeedForwardNet of widths (latent,
    hidden..., dim). Its `forward` is `nets.predict`, the cache-free pass;
    `forward_cached` is `nets.forward`."""

    @property
    def latent_dim(self):
        return self.widths[0]

    def forward_cached(self, z):
        return forward(self, z)

    def forward(self, z):
        return predict(self, z)

    def backward(self, ctx, out_grad):
        pgrad, _ = backward(self, ctx, out_grad, input_grad=False)
        return pgrad

    def exact_law(self):
        return None


@dataclass
class TrainState:
    generator: Union[MLPGenerator, AffineGenerator]
    denoiser: ConditionedNet
    discriminator: ConditionedNet
    opt_generator: Adam
    opt_denoiser: Adam
    opt_discriminator: Adam
    iteration: int = 0


@dataclass
class StepReport:
    iteration: int
    updated: Tuple[str, ...]
    fdistill_loss: Optional[float] = None
    gan_loss: Optional[float] = None
    dsm_loss: Optional[float] = None
    disc_loss: Optional[float] = None
    mean_h: Optional[float] = None
    var_h: Optional[float] = None
    mean_ratio: Optional[float] = None


# The per-step statistics after `iteration` and `updated`: what `train` carries
# forward between steps and what each metrics row reports.
REPORT_FIELDS = tuple(f.name for f in fields(StepReport)[2:])

# The noise level at which `compute_metrics` estimates forward and reverse KL.
METRICS_SIGMA = 0.1

# The keys of a `compute_metrics` row, in metrics.csv column order.
METRICS_COLUMNS = ("iteration", *REPORT_FIELDS, "forward_kl", "forward_kl_se",
                   "reverse_kl", "reverse_kl_se", "modes_covered", "min_mode_mass")


@dataclass
class Batch:
    t_idx: np.ndarray
    sigma: np.ndarray
    z: np.ndarray
    eps: Optional[np.ndarray]   # drawn on generator iterations only


def fdistill_generator_signal(x, teacher_score, fake_score, h, w_t) -> np.ndarray:
    """Per-sample stop-gradient signal g_i = w_i h_i (teacher_i - fake_i).

    The generator descends the divergence by ascending mean_i g_i . x_i; the
    caller backpropagates -g/B through the generator.
    """
    x = np.asarray(x, dtype=float)
    ts = np.asarray(teacher_score, dtype=float)
    fs = np.asarray(fake_score, dtype=float)
    h = np.asarray(h, dtype=float)
    w = np.asarray(w_t, dtype=float)
    if not (x.shape == ts.shape == fs.shape):
        raise DomainError("sample and score batches must be aligned")
    if h.shape != (x.shape[0],) or w.shape != (x.shape[0],):
        raise DomainError("h and w_t must be per-sample vectors aligned with x")
    if np.any(h < 0.0) or not np.all(np.isfinite(h)):
        raise DomainError("weighting h must be finite and non-negative")
    return (w * h)[:, None] * (ts - fs)


def _unit_mean(values: np.ndarray, what: str) -> np.ndarray:
    """values divided by their np.mean, which must be finite and positive."""
    out = np.asarray(values, dtype=float)
    if out.size == 0:
        raise DomainError(f"cannot normalize an empty {what} batch")
    mean = float(np.mean(out))
    if not math.isfinite(mean) or mean <= 0.0:
        raise DomainError(f"degenerate {what} batch: mean {mean}")
    return out / mean


def normalize_stage1(ratios, time_bin_ids) -> np.ndarray:
    """Normalize clipped ratios within noise-level bins to mean 1.

    Exploits E_q[r_t] = 1: each bin's ratios are divided by their empirical
    mean, so the bin's mean is 1 up to rounding.
    """
    r = np.asarray(ratios, dtype=float)
    ids = np.asarray(time_bin_ids)
    if r.size == 0:
        raise DomainError("cannot normalize an empty ratio batch")
    if r.shape != ids.shape:
        raise DomainError("ratios and time_bin_ids must be aligned")
    if np.any(r < 0.0) or not np.all(np.isfinite(r)):
        raise DomainError("ratios must be finite and non-negative")
    out = np.empty_like(r)
    # the bins in ascending order, as np.unique gives them, without the
    # numpy.ma import that np.unique costs on first use
    for b in sorted(set(ids.ravel().tolist())):
        mask = ids == b
        out[mask] = _unit_mean(r[mask], f"ratio (bin {b})")
    return out


def normalize_stage2(h) -> np.ndarray:
    """Normalize weights to batch mean 1 (up to rounding): the weights divided
    by their empirical mean."""
    values = np.asarray(h, dtype=float)
    if not np.all(np.isfinite(values)) or np.any(values < 0.0):
        raise DomainError("weighting batch must be finite and non-negative")
    return _unit_mean(values, "weighting")


def _net_shapes(cfg: RunConfig) -> dict:
    """(widths, parameter count) of each trained network of a `cfg` run, by
    name: the shapes `restore_state` holds every record to, `init_state`'s
    and a checkpoint's alike."""
    dim = cfg.teacher_law.dim
    widths = {"generator": (dim, *HIDDEN_WIDTHS, dim), "denoiser": conditioned_widths(dim, dim),
              "discriminator": conditioned_widths(dim, 1)}
    shapes = {name: (w, param_count(w)) for name, w in widths.items()}
    if cfg.generator_kind == "affine":
        shapes["generator"] = ((dim, dim), dim + 1)    # x = a z + b, parameters [a, *b]
    return shapes


def init_state(cfg: RunConfig) -> TrainState:
    """`restore_state` of a run's initial records: an affine student at x = z or
    an MLP student from its init stream, the denoiser and discriminator from
    `conditioned_init`, and fresh Adam records at the config's rates."""
    dim, sigma_data = cfg.teacher_law.dim, cfg.teacher_law.per_coord_std()
    if cfg.generator_kind == "affine":
        generator = AffineGenerator(scale=1.0, bias=np.zeros(dim))
    else:
        generator = init_net(_net_shapes(cfg)["generator"][0],
                             rngmod.stream(cfg.seed, rngmod.INIT_GENERATOR), final=0.1)
    den = conditioned_init(dim, dim, rngmod.stream(cfg.seed, rngmod.INIT_DENOISER), sigma_data)
    disc = conditioned_init(dim, 1, rngmod.stream(cfg.seed, rngmod.INIT_DISCRIMINATOR), sigma_data)
    return restore_state(cfg, 0, [
        NetworkPayload(name, net.widths, net.params, adam_init(net.params.size, lr))
        for name, net, lr in (("generator", generator, cfg.lr_generator),
                              ("denoiser", den, cfg.lr_denoiser),
                              ("discriminator", disc, cfg.lr_discriminator))])


def draw_batch(cfg: RunConfig, iteration: int) -> Batch:
    """The iteration's noise levels (uniform indices into `cfg.levels`) and
    latents, and on generator iterations (iteration % tau == 0) the noise
    that perturbs the outputs; the auxiliary step never reads it. Each is
    drawn from its own stream."""
    n, dim = cfg.batch_size, cfg.teacher_law.dim
    t_idx = rngmod.stream(cfg.seed, iteration, rngmod.STEP_TIME).integers(0, cfg.n_levels, size=n)
    z = rngmod.stream(cfg.seed, iteration, rngmod.STEP_LATENT).standard_normal((n, dim))
    eps = None
    if iteration % cfg.tau == 0:
        eps = rngmod.stream(cfg.seed, iteration, rngmod.STEP_NOISE).standard_normal((n, dim))
    return Batch(t_idx=t_idx, sigma=cfg.levels[t_idx], z=z, eps=eps)


def time_weight(sigma: np.ndarray) -> np.ndarray:
    """The generator signal's time weight w_t = sigma^2 at each noise level."""
    return sigma**2


@contextmanager
def _aborts_at(iteration: int, report: StepReport):
    """Numpy's overflow and invalid warnings off, and a NumericsError or
    DomainError re-raised as TrainingDiverged naming `iteration` and carrying
    `report` (the CLI's exit 3); a TrainingDiverged passes through unchanged."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            yield
    except TrainingDiverged:
        raise
    except (NumericsError, DomainError) as exc:
        raise TrainingDiverged(f"iteration {iteration}: {exc}", report=report) from exc


def _finite_output(y: np.ndarray) -> np.ndarray:
    """Generator outputs y, or NumericsError when one is not finite; the
    teacher's densities reject such points."""
    if not np.all(np.isfinite(y)):
        raise NumericsError("non-finite generator output")
    return y


def _student_log_density(state: TrainState, points, sigma,
                         stream: np.random.Generator, n_particles: int) -> np.ndarray:
    """log q_sigma(points): exact for an affine student, otherwise estimated
    from n_particles generator outputs drawn with `stream`."""
    law = state.generator.exact_law()
    if law is not None:
        return log_density(law, points, sigma)
    z = stream.standard_normal((n_particles, state.generator.latent_dim))
    centers = _finite_output(state.generator.forward(z))
    return particle_log_density(centers, points, sigma)


def _ratio_batch(state, cfg, x, sigma, iteration) -> np.ndarray:
    """Density-ratio estimates at the noised samples x, clipped to [r_min, r_max]."""
    lo, hi = np.log(cfg.r_min), np.log(cfg.r_max)
    if cfg.ratio_source == "discriminator":
        log_r = clipped_log_ratio(state.discriminator, x, sigma, lo, hi)
    else:
        log_r = np.clip(log_density(cfg.teacher_law, x, sigma) - _student_log_density(
            state, x, sigma,
            rngmod.stream(cfg.seed, iteration, rngmod.STEP_PARTICLES),
            cfg.oracle_ratio_particles,
        ), lo, hi)
    return np.exp(log_r)


def _fake_score_batch(state, cfg, x, sigma) -> np.ndarray:
    if cfg.score_source == "exact-oracle":
        return score(state.generator.exact_law(), x, sigma)
    return fake_score(state.denoiser, x, sigma)


def _trained_nets(state: TrainState):
    """(name, parameter holder, optimizer) for each trained network."""
    return [(name, getattr(state, name), getattr(state, f"opt_{name}"))
            for name in ("generator", "denoiser", "discriminator")]


def _check_finite_params(state: TrainState, report: StepReport):
    """TrainingDiverged with `report` when a net the step updated is non-finite."""
    for name, holder, _ in _trained_nets(state):
        if name in report.updated and not np.all(np.isfinite(holder.params)):
            raise TrainingDiverged(
                f"iteration {report.iteration}: non-finite {name} parameters",
                report=report,
            )


def generator_step(state: TrainState, cfg: RunConfig, batch: Batch) -> StepReport:
    """The iteration % tau == 0 branch: one weighted-score update of G."""
    it = state.iteration
    n = cfg.batch_size
    y, ctx = state.generator.forward_cached(batch.z)
    _finite_output(y)
    x = y + batch.sigma[:, None] * batch.eps
    ts = score(cfg.teacher_law, x, batch.sigma)
    fs = _fake_score_batch(state, cfg, x, batch.sigma)

    r = _ratio_batch(state, cfg, x, batch.sigma, it)
    if cfg.normalize_stage1:
        # equal-width bins in log sigma
        bins = np.minimum(batch.t_idx * cfg.time_bins // cfg.n_levels, cfg.time_bins - 1)
        r_used = normalize_stage1(r, bins)
    else:
        r_used = r
    h = weight_h(cfg.divergence, r_used)
    h_used = normalize_stage2(h) if cfg.normalize_stage2 else h

    g = fdistill_generator_signal(x, ts, fs, h_used, time_weight(batch.sigma))
    out_grad = -g / n
    gan_loss = None
    if cfg.gan_weight > 0.0:
        eps2 = rngmod.stream(cfg.seed, it, rngmod.STEP_GAN_NOISE).standard_normal(y.shape)
        gg, ell = gan_generator_grad(state.discriminator, y, batch.sigma, eps2)
        out_grad = out_grad + cfg.gan_weight * gg
        gan_loss = float(np.mean(np.logaddexp(0.0, -ell)))

    pgrad = state.generator.backward(ctx, out_grad)
    state.generator.params = adam_step(state.opt_generator, state.generator.params, pgrad)

    return StepReport(
        iteration=it,
        updated=("generator",),
        fdistill_loss=float(-np.mean(np.sum(g * x, axis=1))),
        gan_loss=gan_loss,
        mean_h=float(np.mean(h_used)),
        var_h=float(np.var(h_used)),
        mean_ratio=float(np.mean(r)),
    )


def auxiliary_step(state: TrainState, cfg: RunConfig, batch: Batch) -> StepReport:
    """The other branch: one DSM step and one discriminator step."""
    it = state.iteration
    n = cfg.batch_size
    y = state.generator.forward(batch.z)

    eps_dsm = rngmod.stream(cfg.seed, it, rngmod.STEP_DSM_NOISE).standard_normal(y.shape)
    dsm_loss = dsm_update(state.denoiser, state.opt_denoiser, y, batch.sigma, eps_dsm,
                          sigma_cap=cfg.sigma_min)

    real = sample(cfg.teacher_law, n, rngmod.stream(cfg.seed, (it << 2) | 1, rngmod.TEACHER_SAMPLE))
    eps_r = rngmod.stream(cfg.seed, it, rngmod.STEP_REAL_NOISE).standard_normal(y.shape)
    eps_f = rngmod.stream(cfg.seed, it, rngmod.STEP_FAKE_NOISE).standard_normal(y.shape)
    disc_loss = disc_update(state.discriminator, state.opt_discriminator, real, y, batch.sigma,
                            eps_r, eps_f, r1_gamma=cfg.r1_gamma)

    return StepReport(iteration=it, updated=("denoiser", "discriminator"),
                      dsm_loss=dsm_loss, disc_loss=disc_loss)


def train_step(state: TrainState, cfg: RunConfig) -> StepReport:
    """One Algorithm-style iteration; increments the counter afterwards.

    Any non-finite loss, gradient or parameter, and any value a step's
    arithmetic drives outside a function's domain (say, ratios that are not
    finite), surfaces as TrainingDiverged: a non-finite parameter with the
    step's report, anything else with the iteration's empty one.
    """
    it = state.iteration
    batch = draw_batch(cfg, it)
    with _aborts_at(it, StepReport(iteration=it, updated=())):
        if it % cfg.tau == 0:
            report = generator_step(state, cfg, batch)
        else:
            report = auxiliary_step(state, cfg, batch)
        _check_finite_params(state, report)
    state.iteration += 1
    return report


def compute_metrics(state: TrainState, cfg: RunConfig,
                    last: Optional[StepReport] = None) -> dict:
    """Monte-Carlo forward/reverse KL against the teacher at METRICS_SIGMA,
    mode coverage of clean samples, and the latest weighting statistics: one
    row keyed by METRICS_COLUMNS, in that order."""
    it = state.iteration
    s = METRICS_SIGMA
    n = cfg.metrics_samples
    teacher = cfg.teacher_law

    xs_p = sample(teacher, n, rngmod.stream(cfg.seed, (it << 2) | 2, rngmod.TEACHER_SAMPLE))
    xs_p += s * rngmod.stream(cfg.seed, it, rngmod.METRICS, 1).standard_normal((n, teacher.dim))
    log_p = log_density(teacher, xs_p, s)
    log_q = _student_log_density(
        state, xs_p, s, rngmod.stream(cfg.seed, it, rngmod.METRICS, 2), cfg.metrics_centers
    )
    fwd = log_p - log_q
    forward_kl = float(np.mean(fwd))
    forward_kl_se = float(np.std(fwd, ddof=1) / math.sqrt(n))

    z = rngmod.stream(cfg.seed, it, rngmod.METRICS, 3).standard_normal(
        (n, state.generator.latent_dim))
    y = _finite_output(state.generator.forward(z))
    xs_q = y + s * rngmod.stream(cfg.seed, it, rngmod.METRICS, 4).standard_normal(y.shape)
    log_q2 = _student_log_density(
        state, xs_q, s, rngmod.stream(cfg.seed, it, rngmod.METRICS, 5), cfg.metrics_centers
    )
    rev = log_q2 - log_density(teacher, xs_q, s)
    reverse_kl = float(np.mean(rev))
    reverse_kl_se = float(np.std(rev, ddof=1) / math.sqrt(n))

    try:
        coverage = mode_coverage((y[start:stop] for start, stop in row_blocks(n)), teacher)
        modes_covered = coverage.n_covered
        min_mode_mass = float(np.min(coverage.per_mode_mass))
    except DomainError:
        modes_covered = -1
        min_mode_mass = float("nan")

    row = {
        "iteration": it,
        "forward_kl": forward_kl,
        "forward_kl_se": forward_kl_se,
        "reverse_kl": reverse_kl,
        "reverse_kl_se": reverse_kl_se,
        "modes_covered": modes_covered,
        "min_mode_mass": min_mode_mass,
    }
    for key in REPORT_FIELDS:
        value = None if last is None else getattr(last, key)
        row[key] = float("nan") if value is None else value
    return {key: row[key] for key in METRICS_COLUMNS}


def state_payloads(state: TrainState):
    """Serializable (name, widths, params, adam) payloads for checkpointing: a
    snapshot that later steps leave unchanged (see `nets.Adam`)."""
    return [NetworkPayload(name, holder.widths, holder.params, replace(opt))
            for name, holder, opt in _trained_nets(state)]


def restore_state(cfg: RunConfig, iteration: int, payloads) -> TrainState:
    """The one builder of a TrainState, from network records alone (a
    checkpoint's or `init_state`'s); exact inverse of state_payloads given the
    same config. A record unlike the config's net (in parameter count or widths,
    `_net_shapes`), with a non-finite parameter, or with an Adam record no run
    can hold (a NaN moment or a negative v) is a CheckpointError; Adam's v may
    be inf in a valid run (Adam then moves that parameter by 0)."""
    by_name = {p.name: p for p in payloads}
    shapes = _net_shapes(cfg)
    missing = set(shapes) - set(by_name)
    if missing:
        raise CheckpointError(f"checkpoint missing networks: {sorted(missing)}")
    for name, (widths, count) in shapes.items():
        payload = by_name[name]
        if payload.params.shape != (count,):
            raise CheckpointError(
                f"checkpoint {name} has {payload.params.size} parameters, config implies {count}")
        if payload.widths != widths:
            raise CheckpointError(
                f"checkpoint {name} has widths {payload.widths}, config implies {widths}")
        if not np.all(np.isfinite(payload.params)):
            raise CheckpointError(f"checkpoint {name} has a non-finite parameter")
        if np.isnan(payload.adam.m).any() or not np.all(payload.adam.v >= 0.0):
            raise CheckpointError(f"checkpoint {name} has a NaN Adam moment or a negative Adam v")
    g, d, c = (by_name[name] for name in shapes)
    params = g.params.copy()
    generator = (AffineGenerator(params[0], params[1:]) if cfg.generator_kind == "affine"
                 else MLPGenerator(shapes["generator"][0], params))
    sigma_data = float(cfg.teacher_law.per_coord_std())
    return TrainState(generator,
                      ConditionedNet(shapes["denoiser"][0], d.params.copy(), sigma_data),
                      ConditionedNet(shapes["discriminator"][0], c.params.copy(), sigma_data),
                      replace(g.adam), replace(d.adam), replace(c.adam), int(iteration))


def train(cfg: RunConfig, checkpoint_callback=None):
    """Run total_iters steps; returns (state, metrics rows, samples).

    Metrics are logged every metrics_interval iterations and at the end.
    `checkpoint_callback(state, iteration)` fires every checkpoint_interval
    iterations when set. `samples` are 10,000 final generator outputs from the
    (seed, total_iters, METRICS, 99) stream. A numerical failure of any
    generator evaluation ends the run in TrainingDiverged (see `_aborts_at`).
    """
    state = init_state(cfg)
    metrics = []
    merged = StepReport(iteration=0, updated=())
    for _ in range(cfg.total_iters):
        report = train_step(state, cfg)
        for key in REPORT_FIELDS:
            value = getattr(report, key)
            if value is not None:
                setattr(merged, key, value)
        done = merged.iteration = state.iteration
        if cfg.metrics_interval > 0 and (
            done % cfg.metrics_interval == 0 or done == cfg.total_iters
        ):
            with _aborts_at(done, merged):
                metrics.append(compute_metrics(state, cfg, merged))
        if (
            checkpoint_callback is not None
            and cfg.checkpoint_interval > 0
            and done % cfg.checkpoint_interval == 0
        ):
            checkpoint_callback(state, done)
    z = rngmod.stream(cfg.seed, cfg.total_iters, rngmod.METRICS, 99).standard_normal(
        (10000, state.generator.latent_dim)
    )
    with _aborts_at(state.iteration, merged):
        samples = _finite_output(state.generator.forward(z))
    return state, metrics, samples
