"""Closed-form catalog of f-divergences and their ratio weighting functions.

Each divergence is defined by a convex f on (0, inf) with f(1) = 0. The
quantity that actually drives generator updates is the weighting function

    h(r) = f''(r) * r^2,

evaluated at the teacher/student density ratio r. Every entry carries f, f',
f'' and h in closed form, plus log-ratio entry points (`f_log`, `h_log`) so
callers can work with log r directly; ratios reach e^{+-30} early in training
and evaluating through exp(r) first would overflow.

Catalog rows (f, h):

    reverse-kl        -log r                              1
    softened-rkl      (r+1) log((r+1)/(2r))               1/(r+1)
    jensen-shannon    r log r - (r+1) log((r+1)/2)        r/(r+1)
    squared-hellinger 1 - sqrt(r)                         (1/4) sqrt(r)
    forward-kl        r log r                             r
    jeffreys          (r-1) log r                         r + 1

The constant-h row (reverse-kl) reproduces plain variational score
distillation; increasing-h rows downweight samples where the teacher density
is low relative to the student.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np

from ._numerics import sigmoid, softplus
from .errors import DomainError

__all__ = [
    "KINDS",
    "DivergenceSpec",
    "CustomWeighting",
    "catalog",
    "weight_h",
    "weight_h_log",
    "growth_limit_probe",
    "tail_weight_rates",
    "make_custom",
]

KINDS = (
    "reverse-kl",
    "softened-rkl",
    "jensen-shannon",
    "squared-hellinger",
    "forward-kl",
    "jeffreys",
)

_LOG2 = np.log(2.0)


def _as_float_array(x, name: str):
    a = np.asarray(x, dtype=float)
    bad = ~np.isfinite(a)
    if bad.any():   # one line, whatever the array's size
        raise DomainError(f"{name} must be finite, got {float(a[bad][0])!r} "
                          f"({int(bad.sum())} of {a.size} values)")
    return a


def _check_positive_ratio(r):
    a = _as_float_array(r, "ratio r")
    if np.any(a <= 0.0):
        raise DomainError(f"ratio r must be > 0, got {r!r}")
    return a


def _scalar_like(value, template):
    if np.ndim(template) == 0:
        return float(value)
    return value


@dataclass(frozen=True)
class DivergenceSpec:
    """One row of the catalog, or a custom weighting wrapper.

    For non-custom kinds all six callables are closed forms; custom specs
    only carry `h`/`h_log` (gradient-only use) and the f-side callables are
    None.
    """

    kind: str
    f: Optional[Callable] = None
    f_prime: Optional[Callable] = None
    f_second: Optional[Callable] = None
    h: Optional[Callable] = None
    f_log: Optional[Callable] = None
    h_log: Optional[Callable] = None


@dataclass(frozen=True)
class CustomWeighting:
    """User-supplied weighting function plus the grid it was validated on."""

    h: Callable
    probe_grid: np.ndarray = field(
        default_factory=lambda: np.geomspace(1e-4, 1e4, 512)
    )

    def validate(self):
        grid = np.asarray(self.probe_grid, dtype=float)
        try:
            values = np.asarray(self.h(grid), dtype=float)
        except Exception as exc:  # surfacing shape/type bugs as validation
            raise DomainError(f"custom h failed on probe grid: {exc}") from exc
        if values.shape != grid.shape:
            raise DomainError(
                "custom h must be vectorized over the probe grid "
                f"(got shape {values.shape} for grid {grid.shape})"
            )
        bad = ~np.isfinite(values) | (values < 0.0)
        if np.any(bad):
            offenders = grid[bad][:8]
            raise DomainError(
                "custom h must be finite and non-negative on the probe grid; "
                f"violated at r={offenders.tolist()}"
            )
        return values


def _row_reverse_kl():
    return DivergenceSpec(
        kind="reverse-kl",
        f=lambda r: -np.log(r),
        f_prime=lambda r: -1.0 / np.asarray(r, dtype=float),
        f_second=lambda r: np.asarray(r, dtype=float) ** -2.0,
        h=lambda r: np.ones_like(np.asarray(r, dtype=float)),
        f_log=lambda u: -np.asarray(u, dtype=float),
        h_log=lambda u: np.ones_like(np.asarray(u, dtype=float)),
    )


def _row_softened_rkl():
    def f_log(u):
        u = np.asarray(u, dtype=float)
        return (np.exp(u) + 1.0) * (softplus(-u) - _LOG2)

    return DivergenceSpec(
        kind="softened-rkl",
        f=lambda r: f_log(np.log(r)),
        f_prime=lambda r: np.log((np.asarray(r) + 1.0) / (2.0 * np.asarray(r)))
        - 1.0 / np.asarray(r, dtype=float),
        f_second=lambda r: 1.0
        / (np.asarray(r, dtype=float) ** 2 * (np.asarray(r, dtype=float) + 1.0)),
        h=lambda r: 1.0 / (np.asarray(r, dtype=float) + 1.0),
        f_log=f_log,
        h_log=lambda u: sigmoid(-np.asarray(u, dtype=float)),
    )


def _row_jensen_shannon():
    def f_log(u):
        u = np.asarray(u, dtype=float)
        r = np.exp(u)
        return u * r - (r + 1.0) * (softplus(u) - _LOG2)

    return DivergenceSpec(
        kind="jensen-shannon",
        f=lambda r: f_log(np.log(r)),
        f_prime=lambda r: np.log(
            2.0 * np.asarray(r, dtype=float) / (np.asarray(r, dtype=float) + 1.0)
        ),
        f_second=lambda r: 1.0
        / (np.asarray(r, dtype=float) * (np.asarray(r, dtype=float) + 1.0)),
        h=lambda r: np.asarray(r, dtype=float) / (np.asarray(r, dtype=float) + 1.0),
        f_log=f_log,
        h_log=lambda u: sigmoid(np.asarray(u, dtype=float)),
    )


def _row_squared_hellinger():
    return DivergenceSpec(
        kind="squared-hellinger",
        f=lambda r: -np.expm1(0.5 * np.log(r)),
        f_prime=lambda r: -0.5 * np.asarray(r, dtype=float) ** -0.5,
        f_second=lambda r: 0.25 * np.asarray(r, dtype=float) ** -1.5,
        h=lambda r: 0.25 * np.sqrt(np.asarray(r, dtype=float)),
        f_log=lambda u: -np.expm1(0.5 * np.asarray(u, dtype=float)),
        h_log=lambda u: 0.25 * np.exp(0.5 * np.asarray(u, dtype=float)),
    )


def _row_forward_kl():
    return DivergenceSpec(
        kind="forward-kl",
        f=lambda r: np.asarray(r, dtype=float) * np.log(r),
        f_prime=lambda r: np.log(r) + 1.0,
        f_second=lambda r: 1.0 / np.asarray(r, dtype=float),
        h=lambda r: np.asarray(r, dtype=float),
        f_log=lambda u: np.asarray(u, dtype=float) * np.exp(u),
        h_log=lambda u: np.exp(np.asarray(u, dtype=float)),
    )


def _row_jeffreys():
    # f'' = (r+1)/r^2, derived symbolically from f = (r-1) log r
    return DivergenceSpec(
        kind="jeffreys",
        f=lambda r: (np.asarray(r, dtype=float) - 1.0) * np.log(r),
        f_prime=lambda r: np.log(r) + 1.0 - 1.0 / np.asarray(r, dtype=float),
        f_second=lambda r: (np.asarray(r, dtype=float) + 1.0)
        / np.asarray(r, dtype=float) ** 2,
        h=lambda r: np.asarray(r, dtype=float) + 1.0,
        f_log=lambda u: np.expm1(u) * np.asarray(u, dtype=float),
        h_log=lambda u: np.exp(np.asarray(u, dtype=float)) + 1.0,
    )


_CATALOG = {
    "reverse-kl": _row_reverse_kl(),
    "softened-rkl": _row_softened_rkl(),
    "jensen-shannon": _row_jensen_shannon(),
    "squared-hellinger": _row_squared_hellinger(),
    "forward-kl": _row_forward_kl(),
    "jeffreys": _row_jeffreys(),
}

# Asymptotic exponents of f''(r): (r -> inf rate, r -> 0 rate).
_TAIL_RATES = {
    "reverse-kl": (-2.0, -2.0),
    "softened-rkl": (-3.0, -2.0),
    "jensen-shannon": (-2.0, -1.0),
    "squared-hellinger": (-1.5, -1.5),
    "forward-kl": (-1.0, -1.0),
    "jeffreys": (-1.0, -2.0),
}


def _resolve(kind) -> DivergenceSpec:
    if isinstance(kind, DivergenceSpec):
        return kind
    if kind in _CATALOG:
        return _CATALOG[kind]
    raise DomainError(f"unsupported divergence: {kind!r} (known: {', '.join(KINDS)})")


def catalog(kind: str) -> DivergenceSpec:
    """Look up a non-custom catalog row."""
    if isinstance(kind, DivergenceSpec):
        if kind.kind == "custom":
            raise DomainError("unsupported divergence: custom specs have no catalog row")
        return kind
    return _resolve(kind)


def weight_h(kind, r):
    """h(r) = f''(r) r^2 for r > 0; array-valued for array input."""
    spec = _resolve(kind)
    a = _check_positive_ratio(r)
    return _scalar_like(spec.h(a), r)


def weight_h_log(kind, log_r):
    """h evaluated at log-ratio input (no exp of the raw ratio)."""
    spec = _resolve(kind)
    u = _as_float_array(log_r, "log ratio")
    return _scalar_like(spec.h_log(u), log_r)


def growth_limit_probe(kind, r_large: float) -> float:
    """f(r)/r at a large probe ratio.

    Bounded values identify mode-seeking divergences, unbounded growth the
    mode-covering ones.
    """
    spec = catalog(kind)
    r = float(r_large)
    if not np.isfinite(r) or r < 1e4:
        raise DomainError(f"growth probe requires r_large >= 1e4, got {r_large!r}")
    u = np.log(r)
    with np.errstate(over="raise"):
        try:
            value = float(spec.f_log(u)) / r
        except FloatingPointError as exc:
            raise DomainError(
                f"growth probe overflowed for kind={spec.kind} at r={r!r}"
            ) from exc
    if not np.isfinite(value):
        raise DomainError(f"growth probe overflowed for kind={spec.kind} at r={r!r}")
    return value


def tail_weight_rates(kind) -> Tuple[float, float]:
    """Asymptotic exponents of f''(r) as r -> inf and r -> 0."""
    spec = _resolve(kind)
    if spec.kind == "custom":
        raise DomainError("rates undefined for custom h")
    return _TAIL_RATES[spec.kind]


def make_custom(h: Callable, probe_grid=None) -> DivergenceSpec:
    """Wrap a user weighting function as a gradient-only divergence spec.

    Any continuous non-negative h is the weighting function of *some*
    f-divergence, so validation only checks finiteness and sign on a
    log-spaced probe grid spanning the ratio-clipping range with margin.
    """
    if probe_grid is None:
        custom = CustomWeighting(h=h)
    else:
        custom = CustomWeighting(h=h, probe_grid=np.asarray(probe_grid, dtype=float))
    custom.validate()

    def h_checked(r):
        a = np.asarray(r, dtype=float)
        return np.asarray(custom.h(a), dtype=float)

    return DivergenceSpec(
        kind="custom",
        h=h_checked,
        h_log=lambda u: h_checked(np.exp(np.asarray(u, dtype=float))),
    )
