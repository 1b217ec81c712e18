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

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._numerics import sigmoid, softplus
from .errors import DomainError

__all__ = [
    "KINDS",
    "DivergenceSpec",
    "catalog",
    "weight_h",
    "weight_h_log",
]

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
    bad = a <= 0.0
    if bad.any():   # one line, whatever the array's size
        raise DomainError(f"ratio r must be > 0, got {float(a[bad][0])!r} "
                          f"({int(bad.sum())} of {a.size} values)")
    return a


@dataclass(frozen=True)
class DivergenceSpec:
    """One row of the catalog: f, f', f'' and h of the ratio r, and f and h
    of the log ratio u = log r, all in closed form."""

    kind: str
    f: Callable
    f_prime: Callable
    f_second: Callable
    h: Callable
    f_log: Callable
    h_log: Callable


def _softened_rkl_f_log(u):
    u = np.asarray(u, dtype=float)
    return (np.exp(u) + 1.0) * (softplus(-u) - _LOG2)


def _jensen_shannon_f_log(u):
    u = np.asarray(u, dtype=float)
    r = np.exp(u)
    return u * r - (r + 1.0) * (softplus(u) - _LOG2)


_CATALOG = {spec.kind: spec for spec in (
    DivergenceSpec(
        kind="reverse-kl",
        f=lambda r: -np.log(r),
        f_prime=lambda r: -1.0 / np.asarray(r, dtype=float),
        f_second=lambda r: np.asarray(r, dtype=float) ** -2.0,
        h=lambda r: np.ones_like(np.asarray(r, dtype=float)),
        f_log=lambda u: -np.asarray(u, dtype=float),
        h_log=lambda u: np.ones_like(np.asarray(u, dtype=float)),
    ),
    DivergenceSpec(
        kind="softened-rkl",
        f=lambda r: _softened_rkl_f_log(np.log(r)),
        f_prime=lambda r: np.log((np.asarray(r) + 1.0) / (2.0 * np.asarray(r)))
        - 1.0 / np.asarray(r, dtype=float),
        f_second=lambda r: 1.0
        / (np.asarray(r, dtype=float) ** 2 * (np.asarray(r, dtype=float) + 1.0)),
        h=lambda r: 1.0 / (np.asarray(r, dtype=float) + 1.0),
        f_log=_softened_rkl_f_log,
        h_log=lambda u: sigmoid(-np.asarray(u, dtype=float)),
    ),
    DivergenceSpec(
        kind="jensen-shannon",
        f=lambda r: _jensen_shannon_f_log(np.log(r)),
        f_prime=lambda r: np.log(
            2.0 * np.asarray(r, dtype=float) / (np.asarray(r, dtype=float) + 1.0)
        ),
        f_second=lambda r: 1.0
        / (np.asarray(r, dtype=float) * (np.asarray(r, dtype=float) + 1.0)),
        h=lambda r: np.asarray(r, dtype=float) / (np.asarray(r, dtype=float) + 1.0),
        f_log=_jensen_shannon_f_log,
        h_log=lambda u: sigmoid(np.asarray(u, dtype=float)),
    ),
    DivergenceSpec(
        kind="squared-hellinger",
        f=lambda r: -np.expm1(0.5 * np.log(r)),
        f_prime=lambda r: -0.5 * np.asarray(r, dtype=float) ** -0.5,
        f_second=lambda r: 0.25 * np.asarray(r, dtype=float) ** -1.5,
        h=lambda r: 0.25 * np.sqrt(np.asarray(r, dtype=float)),
        f_log=lambda u: -np.expm1(0.5 * np.asarray(u, dtype=float)),
        h_log=lambda u: 0.25 * np.exp(0.5 * np.asarray(u, dtype=float)),
    ),
    DivergenceSpec(
        kind="forward-kl",
        f=lambda r: np.asarray(r, dtype=float) * np.log(r),
        f_prime=lambda r: np.log(r) + 1.0,
        f_second=lambda r: 1.0 / np.asarray(r, dtype=float),
        h=lambda r: np.asarray(r, dtype=float),
        f_log=lambda u: np.asarray(u, dtype=float) * np.exp(u),
        h_log=lambda u: np.exp(np.asarray(u, dtype=float)),
    ),
    # f'' = (r+1)/r^2, derived symbolically from f = (r-1) log r
    DivergenceSpec(
        kind="jeffreys",
        f=lambda r: (np.asarray(r, dtype=float) - 1.0) * np.log(r),
        f_prime=lambda r: np.log(r) + 1.0 - 1.0 / np.asarray(r, dtype=float),
        f_second=lambda r: (np.asarray(r, dtype=float) + 1.0)
        / np.asarray(r, dtype=float) ** 2,
        h=lambda r: np.asarray(r, dtype=float) + 1.0,
        f_log=lambda u: np.expm1(u) * np.asarray(u, dtype=float),
        h_log=lambda u: np.exp(np.asarray(u, dtype=float)) + 1.0,
    ),
)}

KINDS = tuple(_CATALOG)


def catalog(kind: str) -> DivergenceSpec:
    """The catalog row named `kind`, one of KINDS."""
    if isinstance(kind, str) and kind in _CATALOG:
        return _CATALOG[kind]
    given = repr(kind) if isinstance(kind, str) else f"a {type(kind).__name__}"
    raise DomainError(f"unsupported divergence: {given} (known: {', '.join(KINDS)})")


def weight_h(kind: str, r):
    """h(r) = f''(r) r^2 for r > 0, as the row's `h` returns it."""
    spec = catalog(kind)
    return spec.h(_check_positive_ratio(r))


def weight_h_log(kind: str, log_r):
    """h at log-ratio input (no exp of the raw ratio), as the row's `h_log` returns it."""
    spec = catalog(kind)
    return spec.h_log(_as_float_array(log_r, "log ratio"))
