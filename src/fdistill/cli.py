"""Command-line entry point.

Subcommands:
    train      run a distillation, writing metrics.csv, samples.csv, checkpoints
    gradcheck  run the analytic-vs-finite-difference gradient gate -> report.json
    variance   normalized weighting variance vs Gaussian mean gap -> variance.csv
    table      serialize the divergence catalog over a ratio grid -> catalog.csv
    weightmap  score-difference / weighting map on a 2-D grid -> map.csv
    modes      mode-coverage report for a checkpointed generator -> modes.json

All take --config <json> and --out <dir>; --seed/--divergence/--iters override
the seed, divergence and total_iters keys, which only train reads (weightmap
reads the divergence; modes runs under its checkpoint's config echo). Exit
codes: 0 success, 1 gate failure, 2 malformed config, usage, unreadable
checkpoint or a value outside a command's domain (DomainError), 3 numerical
abort (NumericsError).

FDISTILL_THREADS caps the BLAS worker pool (default: machine parallelism). The
cap is set through the BLAS environment variables, which numpy reads when it
is first imported; the `fdistill` script and `python -m fdistill.cli` apply it
before that happens.
"""

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

__all__ = ["main"]


def _apply_thread_cap():
    raw = os.environ.get("FDISTILL_THREADS")
    if not raw:
        return
    try:
        n = max(1, int(raw))
    except ValueError:
        print(f"error: FDISTILL_THREADS={raw!r} is not an integer", file=sys.stderr)
        raise SystemExit(2)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)


def _fmt(value) -> str:
    """17 significant digits: lossless round-trip for 64-bit floats."""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _write_csv(path: Path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _float_rows(a) -> str:
    """The rows of a 2-D float array as CSV lines, each value as `_fmt`
    writes it, formatted by one template instead of one call per value."""
    line = ",".join(["%.17g"] * a.shape[1]) + "\n"
    return (line * a.shape[0]) % tuple(a.ravel().tolist())


def _section_keys():
    """Each command section's keys: {section: {key: (default, rule)}}."""
    from .distill import integer, list_of, number, one_of, optional, teacher_spec
    from .divergence import KINDS

    return {
        "gradcheck": {
            "fd_step": (1e-3, number(gt=0)),
            "sigmas": ([0.0, 0.5, 2.0], list_of(number(ge=0), nonempty=True)),
            "rel_tol": (1e-4, number(gt=0)),
        },
        "variance": {
            # +-oracle.MAX_VARIANCE_GAP; beyond it the curve's quadrature leaves the closed forms
            "gaps": ([0.25, 0.5, 1.0, 1.5, 2.0], list_of(number(ge=-9, le=9))),
            "kinds": (list(KINDS), list_of(one_of(KINDS))),
        },
        "table": {
            # ratios within 1e+-100 keep every catalog f, f', f'' and h finite
            "r_min": (1e-2, number(ge=1e-100, le=1e100)),
            "r_max": (1e2, number(ge=1e-100, le=1e100)),
            "n_points": (200, integer(ge=1)),
            "r_values": (None, optional(list_of(number(ge=1e-100, le=1e100), nonempty=True))),
        },
        "weightmap": {
            "sigma": (0.5, number(ge=0)),
            "bound": (6.0, number(gt=0)),
            "resolution": (64, integer(ge=1)),
            "student": (None, optional(teacher_spec)),
        },
        "modes": {"n_samples": (100000, integer(ge=1))},
    }


def _load_config(path, overrides):
    """The run config and every command section, each key checked."""
    from .distill import RunConfig, checked
    from .errors import ConfigError

    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ConfigError("<file>", f"config file not found: {path}")
    except (OSError, UnicodeDecodeError) as exc:   # a directory, say, or bytes not UTF-8
        raise ConfigError("<file>", f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}")
    except (json.JSONDecodeError, RecursionError) as exc:   # RecursionError: nested too deep
        raise ConfigError("<file>", f"invalid JSON: {exc}")
    if not isinstance(data, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    section_keys = _section_keys()
    base = {k: v for k, v in data.items() if k not in section_keys}
    base.update((k, v) for k, v in overrides.items() if v is not None)
    cfg = RunConfig.from_dict(base)
    sections = {}
    for name, keys in section_keys.items():
        given = data.get(name, {})
        if not isinstance(given, dict):
            raise ConfigError(name, "command section must be an object")
        sections[name] = checked(keys, given, f"{name}.")
    return cfg, sections


def _save_state(path, cfg, state):
    from .checkpoint import save_checkpoint
    from .distill import state_payloads

    save_checkpoint(path, cfg.to_dict(), state.iteration, state_payloads(state))


def _cmd_train(cfg, params, out_dir: Path) -> int:
    from .distill import METRICS_COLUMNS, train

    def checkpoint_callback(state, iteration):
        _save_state(out_dir / f"checkpoint_{iteration:07d}.fdst", cfg, state)

    state, metrics, samples = train(cfg, checkpoint_callback=checkpoint_callback)

    _write_csv(out_dir / "metrics.csv", METRICS_COLUMNS,
               [list(row.values()) for row in metrics])
    with open(out_dir / "samples.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(f"x{i}" for i in range(samples.shape[1])) + "\n")
        fh.write(_float_rows(samples))

    _save_state(out_dir / "checkpoint_final.fdst", cfg, state)
    print(f"train: {state.iteration} iterations, outputs in {out_dir}")
    return 0


def _cmd_gradcheck(cfg, params, out_dir: Path) -> int:
    from .divergence import KINDS
    from .oracle import gradcheck_cases, theorem1_grad_check

    cases = []
    all_pass = True
    for teacher_name, (teacher, gen) in gradcheck_cases().items():
        for kind in KINDS:
            for sigma in params["sigmas"]:
                reports = theorem1_grad_check(kind, teacher, gen, sigma,
                                              fd_step=params["fd_step"])
                for rep in reports:
                    ok = rep.passes(rel_tol=params["rel_tol"])
                    all_pass = all_pass and ok
                    cases.append({"teacher": teacher_name, **dataclasses.asdict(rep),
                                  "rel_error": rep.rel_error, "pass": ok})
    report = {"fd_step": params["fd_step"], "all_pass": all_pass, "cases": cases}
    with open(out_dir / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
    n_fail = sum(1 for c in cases if not c["pass"])
    print(f"gradcheck: {len(cases) - n_fail}/{len(cases)} cases pass")
    return 0 if all_pass else 1


def _cmd_variance(cfg, params, out_dir: Path) -> int:
    from .oracle import normalized_variance_curve

    rows = []
    for kind in params["kinds"]:
        estimates = normalized_variance_curve(kind, params["gaps"])
        rows += [[kind, gap, est] for gap, est in zip(params["gaps"], estimates)]
    _write_csv(out_dir / "variance.csv", ["kind", "d", "estimate"], rows)
    print(f"variance: {len(rows)} rows")
    return 0


def _cmd_table(cfg, params, out_dir: Path) -> int:
    import numpy as np

    from .divergence import KINDS, catalog
    from .errors import ConfigError

    if params["r_values"] is not None:
        grid = np.asarray(params["r_values"])
    elif params["r_min"] < params["r_max"]:
        grid = np.geomspace(params["r_min"], params["r_max"], params["n_points"])
    else:
        raise ConfigError("table.r_min", f"must be < table.r_max, got {params['r_min']!r}")
    rows = []
    for kind in KINDS:
        spec = catalog(kind)
        for r in grid:
            rows.append([
                kind, float(r), float(spec.f(r)), float(spec.f_prime(r)),
                float(spec.f_second(r)), float(spec.h(r)),
            ])
    _write_csv(out_dir / "catalog.csv",
               ["kind", "r", "f", "f_prime", "f_second", "h"], rows)
    print(f"table: {len(rows)} rows")
    return 0


def _cmd_weightmap(cfg, params, out_dir: Path) -> int:
    import numpy as np

    from .errors import ConfigError
    from .oracle import weight_score_map
    from .teacher import AffineGenerator

    teacher = cfg.teacher_law
    if teacher.dim != 2:
        raise ConfigError("teacher", "weightmap requires a 2-D teacher")
    student = params["student"]   # the mixture the section's rule built, or None
    if student is None:
        # moment-matched single Gaussian: the canonical collapsed student
        student = AffineGenerator(
            teacher.per_coord_std(), teacher.weights @ teacher.means).exact_law()
    elif student.dim != 2:
        raise ConfigError("weightmap.student", "weightmap requires a 2-D student")
    # a bound past half the float range overflows the axis span; the map then
    # refuses the non-finite points with one DomainError line
    with np.errstate(over="ignore", invalid="ignore"):
        axis = np.linspace(-params["bound"], params["bound"], params["resolution"])
    xs, ys = np.meshgrid(axis, axis, indexing="ij")
    grid = np.stack([xs.ravel(), ys.ravel()], axis=1)
    score_diff, h = weight_score_map(cfg.divergence, teacher, student, params["sigma"], grid)
    with open(out_dir / "map.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("x,y,score_diff,h\n")
        fh.write(_float_rows(np.column_stack([grid, score_diff, h])))
    print(f"weightmap: {grid.shape[0]} cells")
    return 0


def _cmd_modes(cfg, params, out_dir: Path, checkpoint_path) -> int:
    import numpy as np

    from . import rng as rngmod
    from ._numerics import row_blocks
    from .checkpoint import load_checkpoint
    from .distill import RunConfig, restore_state
    from .errors import ConfigError
    from .teacher import mode_coverage

    if checkpoint_path is None:
        raise ConfigError("--checkpoint", "the modes command needs a checkpoint file")
    n_samples = params["n_samples"]
    try:
        config_echo, iteration, payloads = load_checkpoint(checkpoint_path)
    except OSError as exc:
        raise ConfigError(
            "--checkpoint", f"cannot read {checkpoint_path}: {exc.strerror or exc}"
        ) from exc
    saved_cfg = RunConfig.from_dict(config_echo)
    state = restore_state(saved_cfg, iteration, payloads)
    # the samples are drawn, generated and counted one row block at a time (draws
    # from one stream equal the one-shot draw); an overflowed output is in no ball
    gen = state.generator
    latents = rngmod.stream(saved_cfg.seed, iteration, rngmod.METRICS, 7)
    with np.errstate(over="ignore", invalid="ignore"):
        coverage = mode_coverage(
            (gen.forward(latents.standard_normal((stop - start, gen.latent_dim)))
             for start, stop in row_blocks(n_samples)),
            saved_cfg.teacher_law,
        )
    report = {
        "checkpoint": str(checkpoint_path),
        "iteration": iteration,
        "n_samples": n_samples,
        "modes_covered": coverage.n_covered,
        "n_modes": len(coverage.per_mode_mass),
        "per_mode_mass": [float(m) for m in coverage.per_mode_mass],
        "covered": [bool(c) for c in coverage.covered],
    }
    with open(out_dir / "modes.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
    print(f"modes: {coverage.n_covered}/{len(coverage.per_mode_mass)} covered")
    return 0


_COMMANDS = {"train": _cmd_train, "gradcheck": _cmd_gradcheck, "variance": _cmd_variance,
             "table": _cmd_table, "weightmap": _cmd_weightmap, "modes": _cmd_modes}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="fdistill",
        description="Distillation of analytic teachers under selectable f-divergences.",
    )
    sub = parser.add_subparsers(dest="command")
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--divergence", type=str, default=None)
        p.add_argument("--iters", type=int, default=None)
        if name == "modes":
            p.add_argument("--checkpoint", type=str, default=None)
    return parser


def main(argv=None) -> int:
    _apply_thread_cap()
    parser = _build_parser()
    args, unknown = parser.parse_known_args(argv)
    if unknown or args.command is None:
        parser.print_usage(sys.stderr)
        return 2

    from .errors import CheckpointError, ConfigError, DomainError, NumericsError

    try:
        overrides = {
            "seed": args.seed,
            "divergence": args.divergence,
            "total_iters": args.iters,
        }
        cfg, sections = _load_config(args.config, overrides)
        out_dir = Path(args.out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError("--out", f"cannot create {out_dir}: {exc.strerror or exc}")
        params = sections.get(args.command)  # the command's checked section; train has none
        if args.command == "modes":
            return _cmd_modes(cfg, params, out_dir, args.checkpoint)
        return _COMMANDS[args.command](cfg, params, out_dir)
    except (ConfigError, CheckpointError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:    # TrainingDiverged also carries its step report
        print(f"numerical abort: {exc}", file=sys.stderr)
        if getattr(exc, "report", None) is not None:
            print(f"step report: {exc.report}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
