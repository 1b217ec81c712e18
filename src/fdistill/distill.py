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
denoiser plus discriminator, mirroring the two time-scale schedule.
"""

import math
import numbers
import operator
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from typing import Optional, Tuple, Union

import numpy as np

from . import rng as rngmod
from ._numerics import row_blocks
from .divergence import KINDS, weight_h
from .errors import CheckpointError, ConfigError, DomainError, NumericsError, TrainingDiverged
from .nets import (HIDDEN_WIDTHS, Adam, ConditionedNet, FeedForwardNet, adam_init, adam_step,
                   backward, conditioned_init, forward, init_net, predict)
from .ratio_gan import clipped_log_ratio, disc_update, gan_generator_grad
from .scorematch import dsm_update, fake_score
from .teacher import (
    AffineGenerator,
    IsotropicGaussianMixture,
    NoiseSchedule,
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
    """A teacher preset name or {weights, means, variances} dict, never a mixture object."""
    try:
        make_teacher(spec)
    except (TypeError, ValueError, OverflowError) as exc:  # also numpy's, on bad arrays
        raise DomainError(str(exc)) from exc
    return spec


BOOL = _rule("true or false", lambda v: isinstance(v, bool))


def checked(keys, given, prefix=""):
    """Every key of the schema `keys`, {name: (default, rule)}, passed through
    its rule, the value in `given` in place of the default. An unknown key or
    a rejected value raises ConfigError naming '<prefix><key>'."""
    for key in given:
        if key not in keys:
            raise ConfigError(prefix + key, "unknown config key")
    out = {}
    for name, (default, rule) in keys.items():
        try:
            out[name] = rule(given.get(name, default))
        except DomainError as exc:
            raise ConfigError(prefix + name, str(exc)) from exc
    return out


def _key(default, rule):
    return field(default=default, metadata={"rule": rule})


@dataclass
class RunConfig:
    """Every hyperparameter of a training run, each declared with its default
    and rule. JSON round-trippable."""

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
        self.validate()

    def validate(self):
        """Each key against its rule, then the checks that span keys. Values
        are kept as given (an int stays an int on a number key), so the
        config echo a checkpoint stores is the config's own."""
        checked(_RUN_KEYS, vars(self))
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
        """Strict construction: unknown keys are rejected, not ignored. A
        retired key (see RETIRED_KEYS) is dropped when it holds its fixed
        value and rejected otherwise."""
        if not isinstance(data, dict):
            raise ConfigError("<root>", "config must be a JSON object")
        data = dict(data)
        for key, fixed in RETIRED_KEYS.items():
            # a bool and a number never match, though False == 0.0
            value = data.pop(key, fixed)
            if value != fixed or isinstance(value, bool) != isinstance(fixed, bool):
                raise ConfigError(key, f"retired; only {fixed!r} is accepted, got {value!r}")
        checked(_RUN_KEYS, data)
        return cls(**data)

    def to_dict(self) -> dict:
        return dict(vars(self))

    def schedule(self) -> NoiseSchedule:
        return NoiseSchedule(self.sigma_min, self.sigma_max, self.n_levels)


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


def init_state(cfg: RunConfig, teacher: IsotropicGaussianMixture) -> TrainState:
    dim = teacher.dim
    sigma_data = teacher.per_coord_std()
    if cfg.generator_kind == "affine":
        generator = AffineGenerator(scale=1.0, bias=np.zeros(dim))
    else:
        net = init_net((dim, *HIDDEN_WIDTHS, dim),
                       rngmod.stream(cfg.seed, rngmod.INIT_GENERATOR), final=0.1)
        generator = MLPGenerator(net.widths, net.params)
    denoiser = conditioned_init(dim, dim, rngmod.stream(cfg.seed, rngmod.INIT_DENOISER),
                                sigma_data)
    disc = conditioned_init(dim, 1, rngmod.stream(cfg.seed, rngmod.INIT_DISCRIMINATOR),
                            sigma_data)
    return TrainState(
        generator=generator,
        denoiser=denoiser,
        discriminator=disc,
        opt_generator=adam_init(generator.params.size, cfg.lr_generator),
        opt_denoiser=adam_init(denoiser.params.size, cfg.lr_denoiser),
        opt_discriminator=adam_init(disc.params.size, cfg.lr_discriminator),
    )


def draw_batch(cfg: RunConfig, schedule: NoiseSchedule, iteration: int, dim: int) -> Batch:
    """The iteration's noise levels and latents, and on generator iterations
    (iteration % tau == 0) the noise that perturbs the outputs; the auxiliary
    step never reads it. Each is drawn from its own stream."""
    t_idx, sigma = schedule.draw_levels(
        rngmod.stream(cfg.seed, iteration, rngmod.STEP_TIME), cfg.batch_size
    )
    z = rngmod.stream(cfg.seed, iteration, rngmod.STEP_LATENT).standard_normal(
        (cfg.batch_size, dim)
    )
    eps = None
    if iteration % cfg.tau == 0:
        eps = rngmod.stream(cfg.seed, iteration, rngmod.STEP_NOISE).standard_normal(
            (cfg.batch_size, dim)
        )
    return Batch(t_idx=t_idx, sigma=sigma, z=z, eps=eps)


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


def _ratio_batch(state, cfg, teacher, x, sigma, iteration) -> np.ndarray:
    """Density-ratio estimates at the noised samples x, clipped to [r_min, r_max]."""
    lo, hi = np.log(cfg.r_min), np.log(cfg.r_max)
    if cfg.ratio_source == "discriminator":
        log_r = clipped_log_ratio(state.discriminator, x, sigma, lo, hi)
    else:
        log_r = np.clip(log_density(teacher, x, sigma) - _student_log_density(
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
    return (
        ("generator", state.generator, state.opt_generator),
        ("denoiser", state.denoiser, state.opt_denoiser),
        ("discriminator", state.discriminator, state.opt_discriminator),
    )


def _check_finite_params(state: TrainState, report: StepReport):
    """TrainingDiverged with `report` when a net the step updated is non-finite."""
    for name, holder, _ in _trained_nets(state):
        if name in report.updated and not np.all(np.isfinite(holder.params)):
            raise TrainingDiverged(
                f"iteration {report.iteration}: non-finite {name} parameters",
                report=report,
            )


def generator_step(state: TrainState, cfg: RunConfig,
                   teacher: IsotropicGaussianMixture, schedule: NoiseSchedule,
                   batch: Batch) -> StepReport:
    """The iteration % tau == 0 branch: one weighted-score update of G."""
    it = state.iteration
    n = cfg.batch_size
    y, ctx = state.generator.forward_cached(batch.z)
    _finite_output(y)
    x = y + batch.sigma[:, None] * batch.eps
    ts = score(teacher, x, batch.sigma)
    fs = _fake_score_batch(state, cfg, x, batch.sigma)

    r = _ratio_batch(state, cfg, teacher, x, batch.sigma, it)
    if cfg.normalize_stage1:
        bins = schedule.bin_ids(batch.t_idx, cfg.time_bins)
        r_used = normalize_stage1(r, bins)
    else:
        r_used = r
    h = weight_h(cfg.divergence, r_used)
    h_used = normalize_stage2(h) if cfg.normalize_stage2 else h

    w = schedule.time_weight(batch.sigma)
    g = fdistill_generator_signal(x, ts, fs, h_used, w)
    out_grad = -g / n
    gan_loss = None
    if cfg.gan_weight > 0.0:
        eps2 = rngmod.stream(cfg.seed, it, rngmod.STEP_GAN_NOISE).standard_normal(
            (n, teacher.dim)
        )
        gg, ell = gan_generator_grad(state.discriminator, y, batch.sigma, eps2)
        out_grad = out_grad + cfg.gan_weight * gg
        gan_loss = float(np.mean(np.logaddexp(0.0, -ell)))

    pgrad = state.generator.backward(ctx, out_grad)
    state.generator.params = adam_step(state.opt_generator, state.generator.params, pgrad)

    report = StepReport(
        iteration=it,
        updated=("generator",),
        fdistill_loss=float(-np.mean(np.sum(g * x, axis=1))),
        gan_loss=gan_loss,
        mean_h=float(np.mean(h_used)),
        var_h=float(np.var(h_used)),
        mean_ratio=float(np.mean(r)),
    )
    return report


def auxiliary_step(state: TrainState, cfg: RunConfig,
                   teacher: IsotropicGaussianMixture, schedule: NoiseSchedule,
                   batch: Batch) -> StepReport:
    """The other branch: one DSM step and one discriminator step."""
    it = state.iteration
    n = cfg.batch_size
    y = state.generator.forward(batch.z)

    eps_dsm = rngmod.stream(cfg.seed, it, rngmod.STEP_DSM_NOISE).standard_normal(y.shape)
    dsm_loss = dsm_update(
        state.denoiser, state.opt_denoiser, y, batch.sigma, eps_dsm,
        sigma_cap=cfg.sigma_min,
    )

    real = sample(teacher, n, rngmod.stream(cfg.seed, (it << 2) | 1, rngmod.TEACHER_SAMPLE))
    eps_r = rngmod.stream(cfg.seed, it, rngmod.STEP_REAL_NOISE).standard_normal(y.shape)
    eps_f = rngmod.stream(cfg.seed, it, rngmod.STEP_FAKE_NOISE).standard_normal(y.shape)
    disc_loss = disc_update(
        state.discriminator, state.opt_discriminator, real, y, batch.sigma,
        eps_r, eps_f, r1_gamma=cfg.r1_gamma,
    )

    report = StepReport(
        iteration=it,
        updated=("denoiser", "discriminator"),
        dsm_loss=dsm_loss,
        disc_loss=disc_loss,
    )
    return report


def train_step(state: TrainState, cfg: RunConfig,
               teacher: IsotropicGaussianMixture, schedule: NoiseSchedule) -> StepReport:
    """One Algorithm-style iteration; increments the counter afterwards.

    Any non-finite loss, gradient or parameter, and any value a step's
    arithmetic drives outside a function's domain (say, ratios that are not
    finite), surfaces as TrainingDiverged: a non-finite parameter with the
    step's report, anything else with the iteration's empty one.
    """
    it = state.iteration
    batch = draw_batch(cfg, schedule, it, teacher.dim)
    with _aborts_at(it, StepReport(iteration=it, updated=())):
        if it % cfg.tau == 0:
            report = generator_step(state, cfg, teacher, schedule, batch)
        else:
            report = auxiliary_step(state, cfg, teacher, schedule, batch)
        _check_finite_params(state, report)
    state.iteration += 1
    return report


def compute_metrics(state: TrainState, cfg: RunConfig,
                    teacher: IsotropicGaussianMixture,
                    last: Optional[StepReport] = None) -> dict:
    """Monte-Carlo forward/reverse KL against the teacher at METRICS_SIGMA,
    mode coverage of clean samples, and the latest weighting statistics: one
    row keyed by METRICS_COLUMNS, in that order."""
    it = state.iteration
    s = METRICS_SIGMA
    n = cfg.metrics_samples

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
        (n, state.generator.latent_dim)
    )
    y = _finite_output(state.generator.forward(z))
    xs_q = y + s * rngmod.stream(cfg.seed, it, rngmod.METRICS, 4).standard_normal(
        (n, teacher.dim)
    )
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
    from .checkpoint import NetworkPayload  # loaded at the first save, not before training

    return [NetworkPayload(name, holder.widths, holder.params, replace(opt))
            for name, holder, opt in _trained_nets(state)]


def restore_state(cfg: RunConfig, iteration: int, payloads) -> TrainState:
    """Rebuild a TrainState from checkpoint payloads; exact inverse of
    state_payloads given the same config. A record unlike the config's net (in
    parameter count or widths), with a non-finite parameter, or with an Adam
    record no run can hold (a NaN moment or a negative v) is a CheckpointError;
    Adam's v may be inf in a valid run (Adam then moves that parameter by 0)."""
    by_name = {p.name: p for p in payloads}
    missing = {"generator", "denoiser", "discriminator"} - set(by_name)
    if missing:
        raise CheckpointError(f"checkpoint missing networks: {sorted(missing)}")
    teacher = make_teacher(cfg.teacher)
    state = init_state(cfg, teacher)
    for name, holder, _ in _trained_nets(state):
        payload = by_name[name]
        if payload.params.shape != holder.params.shape:
            raise CheckpointError(
                f"checkpoint {name} has {payload.params.size} parameters, "
                f"config implies {holder.params.size}"
            )
        if payload.widths != holder.widths:
            raise CheckpointError(
                f"checkpoint {name} has widths {payload.widths}, config implies {holder.widths}")
        if not np.all(np.isfinite(payload.params)):
            raise CheckpointError(f"checkpoint {name} has a non-finite parameter")
        if np.isnan(payload.adam.m).any() or not np.all(payload.adam.v >= 0.0):
            raise CheckpointError(f"checkpoint {name} has a NaN Adam moment or a negative Adam v")
        holder.params = payload.params.copy()
        setattr(state, f"opt_{name}", replace(payload.adam))
    state.iteration = int(iteration)
    return state


def train(cfg: RunConfig, checkpoint_callback=None):
    """Run total_iters steps; returns (state, metrics rows, samples).

    Metrics are logged every metrics_interval iterations and at the end.
    `checkpoint_callback(state, iteration)` fires every checkpoint_interval
    iterations when set. `samples` are 10,000 final generator outputs from the
    (seed, total_iters, METRICS, 99) stream. A numerical failure of any
    generator evaluation ends the run in TrainingDiverged (see `_aborts_at`).
    """
    teacher = make_teacher(cfg.teacher)
    schedule = cfg.schedule()
    state = init_state(cfg, teacher)
    metrics = []
    merged = StepReport(iteration=0, updated=())
    for _ in range(cfg.total_iters):
        report = train_step(state, cfg, teacher, schedule)
        for key in REPORT_FIELDS:
            value = getattr(report, key)
            if value is not None:
                setattr(merged, key, value)
        done = merged.iteration = state.iteration
        if cfg.metrics_interval > 0 and (
            done % cfg.metrics_interval == 0 or done == cfg.total_iters
        ):
            with _aborts_at(done, merged):
                metrics.append(compute_metrics(state, cfg, teacher, merged))
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
