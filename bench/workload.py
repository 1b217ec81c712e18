"""One benchmark workload, run in a single process with one BLAS thread.

run.py starts this file with OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS set to 1 in its environment, so the limits hold before numpy
is first imported, and with PYTHONPATH pointing at the checkout's `src`. The
program is driven only through `fdistill.cli.main`, which receives the seed
as `--seed`. The workload's command sequence is repeated with that one seed
until the run length is used up; the outputs are then checked and
`record.json` is written to the output directory.

    python3 bench/workload.py --workload NAME --seed N --seconds S --trace 0|1 \
                              --config CFG --out DIR
    python3 bench/workload.py --probe --workload NAME --seed N --config CFG --out DIR

`--probe` runs the workload's first command and prints "ready" when that
command reaches its first unit of work (the first training step, or the
first gradient-gate case); run.py times that from the process start. It then
prints the mean slowdown of a few speed-probe bursts and exits.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import re
import resource
import statistics
import sys
import traceback
from pathlib import Path
from statistics import median
from time import perf_counter

import speed
import tracing

# BENCHMARK.json lists the first two: gradcheck_gate fails a few gate reports
# on some seeds (bench/README.md, "Known failures on the current code").
WORKLOADS = ("train_gan_r1", "train_particle_ckpt", "gradcheck_gate")
CONFIGS = {
    "train_gan_r1": "configs/ring8_gan.json",
    "train_particle_ckpt": "configs/ring8_js.json",
    "gradcheck_gate": "configs/default.json",
}
ITERS = 500                 # training iterations per `fdistill train` call
CHECKPOINT_INTERVAL = 250   # added to ring8_js.json for train_particle_ckpt
GATE_REPORTS = 72           # 2 cases x 6 divergences x 3 sigmas x 2 bias coordinates

# Traced functions each workload must call; every other traced function must
# not be called. train_particle_ckpt has no R1 and no GAN term, and the gate
# runs no networks.
_TRAIN_CALLS = {
    "nets.forward", "nets.backward", "nets.adam_step",
    "ratio_gan.disc_update",
    "scorematch.dsm_update", "scorematch.fake_score",
    "teacher.score", "teacher.log_density", "teacher.particle_log_density",
    "teacher.sample",
    "divergence.weight_h",
    "distill.generator_step", "distill.auxiliary_step", "distill.compute_metrics",
    "distill.draw_batch", "distill.normalize_stage1",
    "oracle.mode_coverage",
    "checkpoint.save_checkpoint",
    "rng.stream",
    "cli.main",
}
EXPECTED_CALLS = {
    "train_gan_r1": _TRAIN_CALLS | {
        "nets.input_grad_param_grad", "ratio_gan.gan_generator_grad",
        "ratio_gan.clipped_log_ratio",
    },
    "train_particle_ckpt": _TRAIN_CALLS | {"checkpoint.load_checkpoint"},
    "gradcheck_gate": {
        "teacher.score", "teacher.log_density", "divergence.weight_h_log",
        "oracle.theorem1_grad_check", "rng.stream", "cli.main",
    },
}


def config_path(name: str, out: Path) -> str:
    """The workload's config; train_particle_ckpt writes a derived copy of
    ring8_js.json that only adds a fixed checkpoint interval."""
    if name != "train_particle_ckpt":
        return CONFIGS[name]
    with open(CONFIGS[name], encoding="utf-8") as fh:
        cfg = json.load(fh)
    cfg["checkpoint_interval"] = CHECKPOINT_INTERVAL
    path = out / "ring8_js_ckpt.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=4)
    return str(path)


def first_command(name: str, seed: int, cfg: str, out: Path):
    base = ["--config", cfg, "--out", str(out), "--seed", str(seed)]
    if name == "gradcheck_gate":
        return ["gradcheck", *base]
    return ["train", *base, "--iters", str(ITERS)]


def expected_checkpoints():
    steps = range(CHECKPOINT_INTERVAL, ITERS + 1, CHECKPOINT_INTERVAL)
    return [(f"checkpoint_{i:07d}.fdst", i) for i in steps] + [("checkpoint_final.fdst", ITERS)]


def live_threads() -> int:
    return len(os.listdir("/proc/self/task"))


def sha256(path: Path):
    if not path.is_file():
        return None
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Ledger:
    """Operations attempted and failed, with a line for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def ops(self, attempted: int, failed: int, what: str):
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures.append(f"{what}: {failed} of {attempted} failed")

    def check(self, ok: bool, what: str):
        self.ops(1, 0 if ok else 1, what)


def call_cli(argv, probe):
    """Run one fdistill command in this process; returns its exit code (None
    if it raised), wall time with and without the speed probe's bursts, and
    captured stderr."""
    from fdistill import cli

    err = io.StringIO()
    burst_s = probe.burst_s
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception:
        rc = None
        err.write(traceback.format_exc())
    wall = perf_counter() - t0
    return {"command": argv[0], "rc": rc, "wall_s": wall,
            "net_s": wall - (probe.burst_s - burst_s), "stderr": err.getvalue()[-2000:]}


def run_rep(name, seed, cfg, rep_dir: Path, probe):
    """One pass of the workload's command sequence."""
    calls = [call_cli(first_command(name, seed, cfg, rep_dir), probe)]
    if name == "train_particle_ckpt":
        for fname, _ in expected_checkpoints():
            ckpt = rep_dir / fname
            if ckpt.is_file():
                calls.append(call_cli([
                    "modes", "--config", cfg, "--out", str(rep_dir / f"modes_{ckpt.stem}"),
                    "--checkpoint", str(ckpt),
                ], probe))
    return calls


def check_metrics_csv(path: Path, gan_weight: float) -> bool:
    """Every value finite, except gan_loss, which is nan in every row when
    the config turns the GAN term off."""
    if not path.is_file():
        return False
    lines = path.read_text(encoding="utf-8").splitlines()
    if len(lines) < 2:
        return False
    header = lines[0].split(",")
    for line in lines[1:]:
        for key, text in zip(header, line.split(",")):
            value = float(text)
            if key == "gan_loss" and gan_weight == 0.0:
                if not math.isnan(value):
                    return False
            elif not math.isfinite(value):
                return False
    return True


def assess_rep(name, r, cfg, rep_dir: Path, calls, ledger: Ledger):
    """Count the repetition's operations and run its per-repetition checks."""
    for c in calls:
        ledger.check(c["rc"] == 0, f"rep {r}: {c['command']} exited with {c['rc']}")
    first = calls[0]
    if name == "gradcheck_gate":
        report = rep_dir / "report.json"
        cases = json.loads(report.read_text())["cases"] if report.is_file() else []
        n = len(cases) or GATE_REPORTS
        ledger.ops(n, n - sum(1 for c in cases if c["pass"]), f"rep {r}: gate reports")
        return
    done = ITERS
    if first["rc"] != 0:
        found = re.search(r"iteration (\d+)", first["stderr"])
        done = int(found.group(1)) if found else 0
    ledger.ops(ITERS, ITERS - done, f"rep {r}: training iterations")
    with open(cfg, encoding="utf-8") as fh:
        gan_weight = float(json.load(fh).get("gan_weight", 1e-3))
    ledger.check(check_metrics_csv(rep_dir / "metrics.csv", gan_weight),
                 f"rep {r}: metrics.csv has a non-finite value or no rows")
    if name != "train_particle_ckpt":
        return
    written = 0
    for fname, iteration in expected_checkpoints():
        report = rep_dir / f"modes_{Path(fname).stem}" / "modes.json"
        ok = (rep_dir / fname).is_file() and report.is_file()
        written += ok
        if ok:
            ledger.check(json.loads(report.read_text())["iteration"] == iteration,
                         f"rep {r}: modes.json iteration for {fname}")
    n = len(expected_checkpoints())
    ledger.ops(n, n - written, f"rep {r}: checkpoint write and read-back")


def op_count(name, rep_dir: Path) -> int:
    """Training iterations run, or gate reports written."""
    if name != "gradcheck_gate":
        return ITERS
    report = rep_dir / "report.json"
    return len(json.loads(report.read_text())["cases"]) if report.is_file() else 0


def digests(name, rep_dir: Path):
    files = ["report.json"] if name == "gradcheck_gate" else [
        "metrics.csv", "samples.csv", "checkpoint_final.fdst"]
    return {f: sha256(rep_dir / f) for f in files}


def restore_reproduces_samples(rep_dir: Path) -> bool:
    """checkpoint_final restored through load_checkpoint + restore_state, run
    on the CLI's sample latent, gives samples.csv bit for bit."""
    import numpy as np

    from fdistill import rng as rngmod
    from fdistill.checkpoint import load_checkpoint
    from fdistill.distill import RunConfig, restore_state

    samples_csv = rep_dir / "samples.csv"
    if not samples_csv.is_file() or not (rep_dir / "checkpoint_final.fdst").is_file():
        return False
    written = np.loadtxt(samples_csv, delimiter=",", skiprows=1, ndmin=2)
    config_echo, iteration, payloads = load_checkpoint(rep_dir / "checkpoint_final.fdst")
    cfg = RunConfig.from_dict(config_echo)
    state = restore_state(cfg, iteration, payloads)
    z = rngmod.stream(cfg.seed, cfg.total_iters, rngmod.METRICS, 99).standard_normal(
        (written.shape[0], state.generator.latent_dim))
    return state.generator.forward(z).tobytes() == written.tobytes()


def quality(rep_dir: Path):
    """Final-row quality of one training run; recorded, not gated."""
    path = rep_dir / "metrics.csv"
    if not path.is_file():
        return None
    lines = path.read_text(encoding="utf-8").splitlines()
    last = dict(zip(lines[0].split(","), lines[-1].split(",")))
    return {k: float(last[k]) for k in ("reverse_kl", "forward_kl", "modes_covered")}


def versions():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def ref_s(call, rep):
    """A command's time at the probe's reference speed."""
    return call["net_s"] / rep["slowdown"]


def end_to_end(name, reps):
    """Workload-side end-to-end metrics over the untraced repetitions, at
    reference speed; `details` also keeps the raw wall-clock figures."""
    timed = [rep for rep in reps if not rep["traced"]]
    ops = median([rep["ops"] / ref_s(rep["calls"][0], rep) for rep in timed])
    metrics = {"ops_per_s": ops, "job_s": median([rep["job_s"] for rep in timed])}
    details = {
        "repetitions": len(timed),
        "ops_per_s_wall": median([rep["ops"] / rep["calls"][0]["wall_s"] for rep in timed]),
        "job_s_wall": median([rep["job_wall_s"] for rep in timed]),
        "slowdown": median([rep["slowdown"] for rep in timed]),
        "iters_per_s" if name != "gradcheck_gate" else "gate_cases_per_s": ops,
    }
    modes = [ref_s(c, rep) for rep in timed for c in rep["calls"][1:]]
    if modes:
        details["modes_s"] = median(modes)
        details["modes_calls"] = len(modes)
    return metrics, details


def per_layer(tracer, reps, iters):
    """Per-layer metrics from the traced repetitions, and the tracing overhead
    against the untraced ones after the first (warm-up) repetition."""
    traced = [rep for rep in reps if rep["traced"]]
    summaries = [tracer.summarize(*rep["spans"]) for rep in traced]
    out = {}
    for fn in tracing.traced_names():
        calls = [s[fn]["calls"] for s, _ in summaries]
        durations = sorted(d for s, _ in summaries for d in s[fn]["durations"])
        out[f"{fn}.calls"] = sum(calls) / len(calls)
        out[f"{fn}.self_s"] = median([s[fn]["self_s"] for s, _ in summaries])
        out[f"{fn}.p50_ms"] = 1e3 * median(durations) if durations else 0.0
        if fn not in tracing.NO_TAIL:
            out[f"{fn}.tail_ms"] = 1e3 * tracing.tail(durations)
    for sub in tracing.SUBCOMMANDS:
        out[f"cli.main.{sub}.self_s"] = median([sub_self[sub] for _, sub_self in summaries])
    for fn in tracing.PER_ITER:
        out[f"{fn}.per_iter"] = out[f"{fn}.calls"] / iters if iters else 0.0
    out["checkpoint.save_checkpoint.bytes"] = median([rep["checkpoint_bytes"] for rep in traced])
    out["distill.compute_metrics.wall_share"] = median([
        sum(s["distill.compute_metrics"]["durations"]) / rep["job_wall_s"]
        for (s, _), rep in zip(summaries, traced)])
    untraced = [rep["job_s"] for rep in reps[1:] if not rep["traced"]]
    out["trace.overhead_frac"] = median([rep["job_s"] for rep in traced]) / median(untraced) - 1.0
    return out


def coverage_failures(name, per_layer_metrics):
    want = EXPECTED_CALLS[name]
    bad = []
    for fn in tracing.traced_names():
        called = per_layer_metrics[f"{fn}.calls"] > 0
        if called != (fn in want):
            bad.append(f"{fn} {'called' if called else 'not called'}")
    return bad


def run(args):
    out = Path(args.out)
    root = Path.cwd().resolve()
    threads = {"at_start": live_threads()}
    import fdistill

    if not Path(fdistill.__file__).resolve().is_relative_to(root / "src"):
        raise SystemExit(f"fdistill imported from {fdistill.__file__}, not from ./src")
    threads["after_import"] = live_threads()
    name = args.workload
    cfg = args.config
    tracer = tracing.Tracer()
    ledger = Ledger()
    reps = []
    min_reps = 3 if args.trace else 2
    start = perf_counter()
    with speed.SpeedProbe() as probe:
        while len(reps) < min_reps or (
                perf_counter() - start + reps[-1]["job_wall_s"] <= args.seconds):
            r = len(reps)
            traced = bool(args.trace) and r % 2 == 1
            rep_dir = out / f"rep{r}"
            if traced:
                tracer.install()
            lo, b0 = tracer.mark(), len(probe.bursts)
            calls = run_rep(name, args.seed, cfg, rep_dir, probe)
            hi, bursts = tracer.mark(), probe.bursts[b0:]
            tracer.uninstall()
            slow = speed.slowdown(bursts)
            reps.append({
                "traced": traced,
                "spans": [lo, hi],
                "calls": calls,
                "bursts": len(bursts),
                "slowdown": slow,
                "job_wall_s": sum(c["wall_s"] for c in calls),
                "job_s": sum(c["net_s"] for c in calls) / slow,
                "ops": op_count(name, rep_dir),
                "checkpoint_bytes": sum(
                    p.stat().st_size for p in rep_dir.glob("checkpoint_*.fdst")),
                "digests": digests(name, rep_dir),
            })
            assess_rep(name, r, cfg, rep_dir, calls, ledger)
    measured_s = perf_counter() - start
    threads["after_work"] = live_threads()

    first = reps[0]["digests"]
    ledger.check(all(v is not None for v in first.values())
                 and all(rep["digests"] == first for rep in reps),
                 "reruns with one seed are not byte-identical")
    if name != "gradcheck_gate":
        ledger.check(restore_reproduces_samples(out / "rep0"),
                     "restored checkpoint_final does not reproduce samples.csv")
    ledger.check(all(n == 1 for n in threads.values()),
                 f"workload process ran {max(threads.values())} threads")

    iters = ITERS if name != "gradcheck_gate" else 0
    if args.trace:
        metrics = per_layer(tracer, reps, iters)
        for miss in coverage_failures(name, metrics):
            ledger.check(False, f"trace coverage: {miss}")
        tracer.write(out / "spans.csv")
        details = {}
    else:
        metrics, details = end_to_end(name, reps)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not args.trace:
        metrics["peak_rss_mb"] = rss_mb

    record = {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workload_args": first_command(name, args.seed, cfg, out / "rep<k>"),
        "iterations_per_train": iters,
        "repetitions": len(reps),
        "measured_s": measured_s,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failures": ledger.failures,
        "metrics": metrics,
        "details": details,
        "peak_rss_mb": rss_mb,
        "threads": threads,
        "thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "FDISTILL_THREADS")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "versions": versions(),
        "quality": quality(out / "rep0") if iters else None,
        "digests": first,
        "reps": [{k: v for k, v in rep.items() if k != "spans"} for rep in reps],
    }
    with open(out / "record.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)


def probe(args):
    from fdistill import cli

    def reached(*_args, **_kwargs):
        os.write(1, b"ready\n")   # fd 1: the CLI's stdout is redirected below
        speed_probe = speed.SpeedProbe()
        speed_probe.burst()
        slow = statistics.fmean(speed_probe.burst() for _ in range(8))
        os.write(1, f"{slow!r}\n".encode())
        os._exit(0)

    if args.workload == "gradcheck_gate":
        from fdistill import oracle

        oracle.theorem1_grad_check = reached
    else:
        from fdistill import distill

        distill.train_step = reached
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(first_command(args.workload, args.seed, args.config, Path(args.out)))
    raise SystemExit("the first unit of work was never reached")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--config", required=True, help="from config_path()")
    parser.add_argument("--out", required=True)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()
    if args.probe:
        probe(args)
    else:
        run(args)


if __name__ == "__main__":
    main()
