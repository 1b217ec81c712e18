"""fdistill benchmark: the workloads of bench/workload.py, run through the
`fdistill` CLI, with end-to-end metrics, output checks and a traced run.

    python3 bench/run.py                                  # every workload
    python3 bench/run.py --workload train_gan_r1 --seed 3 --seconds 40 --trace 0

Run it from the repository root. Each workload runs in a process of its own
(bench/workload.py), one after another, with one BLAS thread. With
`--trace 0` the last line of output is a JSON object with `correct`,
`attempted`, `failed` and every end-to-end metric; with `--trace 1` it holds
the per-layer metrics of a traced run instead. Outputs, the run record and
the spans go to .bench_out/<workload>/. See bench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workload  # noqa: E402

SETUP_PROBES = 15       # timed fresh interpreters per run, after one untimed warm-up
PROBE_TIMEOUT_S = 60
CHILD_SLACK_S = 120     # beyond --seconds before a hung workload process is killed


class BenchError(Exception):
    pass


def pinned_env(root: Path):
    """Environment of every workload process: one BLAS thread from the start,
    the checkout's src on the path, FDISTILL_THREADS unset."""
    env = dict(os.environ)
    env.pop("FDISTILL_THREADS", None)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=str(root / "src"))
    return env


def setup_seconds(name, seed, cfg, out: Path, env, root: Path):
    """Median time from starting a fresh interpreter to the workload's first
    unit of work, over SETUP_PROBES probes, at the speed probe's reference
    speed (bursts timed right after each probe reached its first unit)."""
    argv = [sys.executable, str(BENCH / "workload.py"), "--probe", "--workload", name,
            "--seed", str(seed), "--config", cfg, "--out", str(out / "probe")]
    times = []
    for _ in range(SETUP_PROBES + 1):
        t0 = perf_counter()
        proc = subprocess.Popen(argv, cwd=root, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            rest, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"{name}: setup probe did not finish")
        if line.strip() != "ready" or proc.returncode != 0:
            raise BenchError(f"{name}: setup probe failed: {err.strip()[-1500:]}")
        times.append((elapsed, elapsed / float(rest)))
    return (statistics.median(t for _, t in times[1:]),
            statistics.median(t for t, _ in times[1:]))


def run_workload(name, seed, seconds, trace, root: Path):
    out = Path(".bench_out", name)   # relative to root, the working directory
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = pinned_env(root)
    cfg = workload.config_path(name, out)
    setup = None if trace else setup_seconds(name, seed, cfg, out, env, root)
    argv = [sys.executable, str(BENCH / "workload.py"), "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            "--config", cfg, "--out", str(out)]
    try:
        proc = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True,
                              timeout=seconds + CHILD_SLACK_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{name}: workload process ran past {seconds + CHILD_SLACK_S} s")
    record_path = out / "record.json"
    if proc.returncode != 0 or not record_path.is_file():
        raise BenchError(f"{name}: workload process failed:\n{proc.stderr.strip()[-3000:]}")
    record = json.loads(record_path.read_text())
    if setup is not None:
        record["metrics"] = {"setup_s": setup[0], **record["metrics"]}
        record["details"]["setup_s_wall"] = setup[1]
    return record


def git_hash(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest(root: Path):
    """SHA-256 over the package sources and configs, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted([*(root / "src").rglob("*.py"), *(root / "configs").glob("*.json")]):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def declared_metrics(spec, trace):
    if trace:
        return {m["name"]: m["unit"] for m in spec["per_layer"]}
    return {m["name"]: m["unit"] for m in spec["end_to_end"]}


def report(record, units, provenance):
    """Human-readable lines for one workload; returns its result object."""
    metrics = record["metrics"]
    if set(metrics) != set(units):
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")
    print(f"== {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"{record['repetitions']} repetitions in {record['measured_s']:.1f} s")
    for name, unit in units.items():
        print(f"  {name:<44} {metrics[name]:>14.6g} {unit}")
    details = record["details"]
    rate = record["failed"] / record["attempted"]
    print(f"  {'error_rate':<44} {rate:>14.6g} failed/attempted "
          f"({record['failed']}/{record['attempted']})")
    if "iters_per_s" in details:
        print(f"  {'iters_per_s':<44} {details['iters_per_s']:>14.6g} 1/s "
              f"({workload.ITERS} iterations per train call)")
    if "modes_s" in details:
        print(f"  {'modes_s':<44} {details['modes_s']:>14.6g} s per call "
              f"(median of {details['modes_calls']} calls, 100000 samples each)")
    if "gate_cases_per_s" in details:
        print(f"  {'gate_cases_per_s':<44} {details['gate_cases_per_s']:>14.6g} 1/s "
              f"(reports at n = 1e5)")
    raw = {k: v for k, v in details.items() if k.endswith("_wall") or k == "slowdown"}
    if raw:
        print("  wall clock before the speed correction " + json.dumps(raw))
    for line in record["failures"]:
        print(f"  FAILED {line}")
    print("  threads " + json.dumps({"live": record["threads"], "env": record["thread_env"]}))
    if record["quality"]:
        print("  quality " + json.dumps({"final": record["quality"], "digests": record["digests"]}))
    print("  provenance " + json.dumps({
        **provenance, "versions": record["versions"], "nproc": record["nproc"],
        "affinity": record["affinity"], "seed": record["seed"],
        "workload_args": record["workload_args"], "seconds": record["seconds"],
        "measured_s": record["measured_s"], "repetitions": record["repetitions"]}))
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }


def main():
    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "fdistill" / "cli.py").is_file() or not spec_path.is_file():
        print("error: run from the repository root; src/fdistill or BENCHMARK.json is missing",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    names = list(workload.WORKLOADS)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*names, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    declared = {w["name"] for w in spec["workloads"]}
    if not declared <= set(names) or set(declared_metrics(spec, 1)) != {
            n for n, _ in tracing.per_layer_names()}:
        print("error: BENCHMARK.json does not match bench/workload.py and bench/tracing.py",
              file=sys.stderr)
        return 2

    provenance = {"git": git_hash(root), "source_sha256": source_digest(root)}
    units = declared_metrics(spec, args.trace)
    chosen = names if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in chosen:
            record = run_workload(name, args.seed, args.seconds, args.trace, root)
            results[name] = report(record, units, provenance)
            if len(chosen) > 1:
                print(json.dumps(results[name]))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(chosen) == 1:
        final = results[chosen[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{n}": m for w, r in results.items() for n, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
