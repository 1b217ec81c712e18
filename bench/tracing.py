"""Span tracing of fdistill's public functions, applied from outside the package.

`Tracer.install()` replaces every traced function with a timing wrapper in
each `fdistill` module namespace that binds it: a name imported with
`from .nets import forward` is a separate binding in `distill`, `ratio_gan`
and `scorematch`, and a lazy `from .oracle import mode_coverage` inside a
function body reads the defining module at call time, so patching every
binding that is the original function object covers both. `uninstall()`
puts the originals back. The package source is not modified.

Spans are kept in memory as parallel lists; a stack of open spans gives each
span its parent, so self time is the span's duration minus its children's.
"""

import importlib
import sys
from time import perf_counter

# Traced functions by defining module; the per-layer metric names derive
# from this table (see `per_layer_names`).
TRACED = {
    "nets": ("forward", "backward", "input_grad_param_grad", "adam_step"),
    "ratio_gan": ("disc_update", "gan_generator_grad", "clipped_log_ratio"),
    "scorematch": ("dsm_update", "fake_score"),
    "teacher": ("score", "log_density", "particle_log_density", "sample"),
    "divergence": ("weight_h", "weight_h_log"),
    "distill": ("generator_step", "auxiliary_step", "compute_metrics", "draw_batch",
                "normalize_stage1"),
    "oracle": ("theorem1_grad_check", "mode_coverage"),
    "checkpoint": ("save_checkpoint", "load_checkpoint"),
    "rng": ("stream",),
    "cli": ("main",),
}

# Functions called fewer than 11 times in a traced repetition: a tail
# percentile with ten samples beyond it does not exist, so none is listed.
NO_TAIL = ("cli.main", "checkpoint.save_checkpoint", "checkpoint.load_checkpoint",
           "distill.compute_metrics", "oracle.mode_coverage")

SUBCOMMANDS = ("train", "modes", "gradcheck")
PER_ITER = ("nets.forward", "nets.backward", "rng.stream")


def traced_names():
    return [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]


def per_layer_names():
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for name in traced_names():
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s"),
                (f"{name}.p50_ms", "ms")]
        if name not in NO_TAIL:
            out.append((f"{name}.tail_ms", "ms"))
    out += [(f"cli.main.{sub}.self_s", "s") for sub in SUBCOMMANDS]
    out += [(f"{name}.per_iter", "calls/iter") for name in PER_ITER]
    out += [("checkpoint.save_checkpoint.bytes", "B"),
            ("distill.compute_metrics.wall_share", "fraction"),
            ("trace.overhead_frac", "fraction")]
    return out


class Tracer:
    def __init__(self):
        self.name = []     # traced function per span
        self.parent = []   # index of the enclosing span, -1 at top level
        self.start = []
        self.end = []
        self.tag = []      # subcommand for cli.main spans, else None
        self._stack = []
        self._patched = []  # (module, attribute, original)

    def _wrap(self, name, fn):
        names, parents, starts, ends, tags, stack = (
            self.name, self.parent, self.start, self.end, self.tag, self._stack)
        tagged = name == "cli.main"

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            tags.append(args[0][0] if tagged and args and args[0] else None)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self):
        for mod_name in TRACED:
            importlib.import_module(f"fdistill.{mod_name}")
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "fdistill" or key.startswith("fdistill."))]
        for mod_name, fns in TRACED.items():
            home = sys.modules[f"fdistill.{mod_name}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for mod in modules:
                    if mod.__dict__.get(fn_name) is original:
                        setattr(mod, fn_name, wrapper)
                        self._patched.append((mod, fn_name, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def mark(self) -> int:
        """Span index at which the next repetition starts."""
        return len(self.start)

    def write(self, path):
        """All spans as CSV: index, parent, name, tag, start_s, end_s."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,parent,name,tag,start_s,end_s\n")
            for i, (name, parent, tag, t0, t1) in enumerate(
                    zip(self.name, self.parent, self.tag, self.start, self.end)):
                fh.write(f"{i},{parent},{name},{tag or ''},{t0:.9f},{t1:.9f}\n")

    def summarize(self, lo: int, hi: int):
        """Per-function call count, total self time and inclusive durations
        for the spans with index in [lo, hi)."""
        child = [0.0] * (hi - lo)
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= lo:
                child[p - lo] += self.end[i] - self.start[i]
        stats = {name: {"calls": 0, "self_s": 0.0, "durations": []}
                 for name in traced_names()}
        sub_self = {sub: 0.0 for sub in SUBCOMMANDS}
        for i in range(lo, hi):
            dur = self.end[i] - self.start[i]
            own = dur - child[i - lo]
            entry = stats[self.name[i]]
            entry["calls"] += 1
            entry["self_s"] += own
            entry["durations"].append(dur)
            if self.tag[i] in sub_self:
                sub_self[self.tag[i]] += own
        return stats, sub_self


def tail(sorted_values):
    """Highest percentile with at least ten samples beyond it: the eleventh
    largest value. With fewer samples there is none, and the maximum is
    returned instead."""
    if not sorted_values:
        return 0.0
    return sorted_values[-11] if len(sorted_values) >= 11 else sorted_values[-1]
