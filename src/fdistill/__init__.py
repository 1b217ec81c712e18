"""One-step generator distillation against analytic teachers, with the
divergence being minimized selectable from a closed-form catalog and every
approximated quantity checkable against exact oracles. Names are imported
from the submodules; importing the package loads no numpy, so `python -m
fdistill.cli` can cap the BLAS threads before numpy starts."""

__version__ = "0.1.0"
