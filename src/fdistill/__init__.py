"""One-step generator distillation against analytic teachers, with the
divergence being minimized selectable from a closed-form catalog and every
approximated quantity checkable against exact oracles."""

import importlib

__version__ = "0.1.0"

# Public name -> submodule that defines it. The submodules are imported on
# first attribute access (PEP 562), so importing the package loads no numpy:
# `python -m fdistill.cli` can still cap the BLAS threads before numpy starts.
_EXPORTS = {
    "RunConfig": "distill",
    "TrainState": "distill",
    "train": "distill",
    "train_step": "distill",
    "catalog": "divergence",
    "weight_h": "divergence",
    "FDistillError": "errors",
    "IsotropicGaussianMixture": "teacher",
    "NoiseSchedule": "teacher",
    "make_teacher": "teacher",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
