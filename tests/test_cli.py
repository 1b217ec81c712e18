"""Command-line surface: config handling, outputs, checkpoint format."""

import contextlib
import importlib
import io
import json
import math
import os
import pkgutil
import re
import runpy
import struct
import subprocess
import sys
import tempfile
import warnings
import zlib
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fdistill
from fdistill import _numerics as nm
from fdistill import checkpoint as ckpt
from fdistill import cli
from fdistill.distill import RETIRED_KEYS, RunConfig, checked
from fdistill.divergence import KINDS
from fdistill.errors import CheckpointError, ConfigError, DomainError
from fdistill.nets import adam_init
from fdistill.teacher import IsotropicGaussianMixture

TINY_TRAIN = {
    "divergence": "jensen-shannon",
    "batch_size": 32,
    "time_bins": 4,
    "total_iters": 8,
    "tau": 4,
    "teacher": {"weights": [1.0], "means": [[0.0, 0.0]], "variances": [1.0]},
    "metrics_interval": 4,
    "metrics_samples": 64,
    "metrics_centers": 64,
    "seed": 5,
}

AFFINE_EXACT = {"generator_kind": "affine", "ratio_source": "exact-oracle",
                "score_source": "exact-oracle"}


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestConfigHandling:
    def test_unknown_key_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"divergense": "jensen-shannon"})
        code = cli.main(["table", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "divergense" in capsys.readouterr().err

    def test_bad_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code = cli.main(["table", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2

    def test_missing_file_exits_2(self, tmp_path):
        code = cli.main(
            ["table", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]
        )
        assert code == 2

    @pytest.mark.parametrize("case, message", [
        ("out-is-a-file", "'--out': cannot create "),
        ("config-is-a-directory", "'<file>': cannot read "),
        ("config-is-not-utf8", "'<file>': cannot read "),
        ("config-nested-too-deep", "'<file>': invalid JSON: "),
    ], ids=["out-is-a-file", "config-is-a-directory", "config-is-not-utf8",
            "config-nested-too-deep"])
    def test_unusable_out_or_config_exits_2_with_one_line(self, tmp_path, case, message):
        """An --out that names a file, or a --config that names a directory,
        holds bytes that are not UTF-8 or nests deeper than the JSON parser's
        recursion limit: one `error:` line, no traceback."""
        config, out = tmp_path / "config.json", tmp_path / "o"
        config.write_text('{"teacher": "ring8"}')
        if case == "out-is-a-file":
            out.write_text("")
        elif case == "config-is-a-directory":
            config = tmp_path / "configs"
            config.mkdir()
        elif case == "config-is-not-utf8":
            config.write_bytes('{"teacher": "ring\u00e98"}'.encode("latin-1"))
        else:
            config.write_text("[" * 100000 + "]" * 100000)
        code, err = main_outcome(["table", "--config", str(config), "--out", str(out)])
        assert code == 2
        assert err.startswith(f"error: config field {message}")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("seed", [-1, 2**64], ids=["minus-one", "two-to-the-64"])
    def test_seed_outside_uint64_exits_2_with_one_line(self, tmp_path, seed):
        """Streams key on the seed as a uint64, so a seed outside [0, 2**64)
        would rerun another seed's streams; it is refused instead."""
        cfg = write_config(tmp_path, TINY_TRAIN)
        code, err = main_outcome(["train", "--config", cfg, "--out", str(tmp_path / "o"),
                                  "--seed", str(seed)])
        assert code == 2
        assert err.startswith("error: config field 'seed': must be an integer >= 0 and < ")
        assert len(err.splitlines()) == 1

    def test_largest_seed_trains(self, tmp_path):
        cfg = write_config(tmp_path, TINY_TRAIN)
        out = tmp_path / "o"
        code, err = main_outcome(["train", "--config", cfg, "--out", str(out),
                                  "--seed", str(2**64 - 1), "--iters", "1"])
        assert (code, err) == (0, "")
        assert (out / "checkpoint_final.fdst").exists()

    def test_unknown_subcommand_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            cli.main(["transmogrify", "--config", "x", "--out", "y"])
        assert err.value.code == 2

    def test_no_subcommand_exits_2(self):
        assert cli.main([]) == 2

    def test_bad_field_value_names_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"tau": 0})
        code = cli.main(["table", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "tau" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("batch_size", 32.5),      # float on an int field
        ("total_iters", 3.0),      # integral float on an int field
        ("seed", True),            # bool on an int field
        ("gan_weight", "x"),       # string on a float field
        # JSON NaN and Infinity on number keys
        ("gan_weight", float("nan")),
        ("coverage_k", float("inf")),
        ("metrics_sigma", float("nan")),
        ("sigma_max", float("inf")),
        ("lr_generator", float("nan")),
        ("weight_decay", float("nan")),
        ("r1_gamma", float("inf")),
        ("metrics_samples", 1),    # its standard errors need two samples
        # the ratio clip needs 0 < r_min <= 1 <= r_max
        ("r_min", 2.0),
        ("r_max", 0.9),
        ("r_min", 0.0),
        ("teacher", {"weights": [1], "means": [[0, 0]], "variances": [1], "foo": 3}),
    ])
    def test_mistyped_value_exits_2_with_one_line(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, {**TINY_TRAIN, key: value})
        code = cli.main(["train", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config field '{key}'")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("key, overrides", [
        ("sigma_min", {"sigma_min": 1e-200, **AFFINE_EXACT}),
        ("sigma_min", {"sigma_min": 1e-200, "ratio_source": "exact-oracle"}),
        ("sigma_max", {"sigma_max": 1e200, **AFFINE_EXACT}),
        ("r_min", {"r_min": 1e-151}),
        ("r_max", {"r_max": 1e151}),
    ], ids=["sigma_min-affine", "sigma_min-mlp", "sigma_max-affine", "r_min", "r_max"])
    def test_sigma_whose_square_leaves_the_float_range_exits_2(self, tmp_path, capsys,
                                                               key, overrides):
        """sigma**2 or sigma**-2 of these overflows or underflows once training
        runs, and a ratio clip this wide can normalize a ratio to 0; the
        schema rejects the value before any step."""
        cfg = write_config(tmp_path, {"teacher": "ring8", "tau": 2, "total_iters": 3,
                                      **overrides})
        code = cli.main(["train", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config field '{key}'")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("overrides", [
        {"sigma_min": 1e-150, **AFFINE_EXACT},
        {"sigma_max": 1e150, **AFFINE_EXACT},
        {"sigma_min": 1e-150, "ratio_source": "exact-oracle"},
        {"sigma_max": 1e150},
        {"r_min": 1e-150, "r_max": 1e150, "ratio_source": "exact-oracle"},
    ], ids=["sigma_min-affine", "sigma_max-affine", "sigma_min-mlp", "sigma_max-mlp",
            "ratio_clip"])
    def test_sigma_at_its_bound_trains(self, tmp_path, capsys, overrides):
        cfg = write_config(tmp_path, {"teacher": "ring8", "tau": 2, "total_iters": 6,
                                      **overrides})
        assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command", ["train", "modes", "weightmap"])
    @pytest.mark.parametrize("teacher, message", [
        ({"weights": [1], "means": [[]], "variances": [1]},
         "means must have shape (K, dim) with dim >= 1, got (1, 0)"),
        ({"weights": [0.5, 0.5], "means": [[1e160, 0], [-1e160, 0]], "variances": [1, 1]},
         "the mixture's per-coordinate std is not finite"),
    ], ids=["zero-width", "overflowing-moments"])
    def test_teacher_without_a_finite_data_scale_exits_2_with_one_line(
            self, tmp_path, command, teacher, message):
        """A teacher of no coordinates, or one whose per-coordinate std (the
        nets' data scale) overflows, is refused with the config, before any
        command runs: one line and no numpy warning, with warnings raised as
        errors and with warnings shown."""
        cfg = write_config(tmp_path, {**TINY_TRAIN, "teacher": teacher})
        argv = [command, "--config", cfg, "--out", str(tmp_path / "o")]
        line = f"error: config field 'teacher': {message}\n"
        assert main_outcome(argv) == (2, line)
        proc = run_python(WARNINGS_SHOWN_MAIN, argv)
        assert (proc.returncode, proc.stderr) == (2, line)

    def test_unknown_teacher_preset_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**TINY_TRAIN, "teacher": "ring9"})
        code = cli.main(["train", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "ring9" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("command, section, field", [
        ("weightmap", {"student": "nope"}, "weightmap.student"),
        ("weightmap", {"student": {"weights": [1.0], "means": [[0.0, 0.0, 0.0]],
                                   "variances": [1.0]}}, "weightmap.student"),
        ("weightmap", {"sigma": -1}, "weightmap.sigma"),
        ("weightmap", {"sigma": "x"}, "weightmap.sigma"),
        ("variance", {"kinds": ["bogus"]}, "variance.kinds"),
        ("variance", {"kinds": "reverse-kl"}, "variance.kinds"),
        ("weightmap", {"resolution": "x"}, "weightmap.resolution"),
        ("weightmap", {"resolution": -3}, "weightmap.resolution"),
        ("weightmap", {"resolution": 0}, "weightmap.resolution"),
        ("weightmap", {"resolution": 2.5}, "weightmap.resolution"),
        ("weightmap", {"resolution": 8.0}, "weightmap.resolution"),
        ("weightmap", {"resolution": True}, "weightmap.resolution"),
        ("variance", {"n": "abc"}, "variance.n"),
        ("variance", {"n": 1}, "variance.n"),
        ("variance", {"n": 0}, "variance.n"),
        ("variance", {"n": 2.5}, "variance.n"),
        ("variance", {"n": 1000.0}, "variance.n"),
        ("variance", {"n": True}, "variance.n"),
        ("weightmap", {"bound": "x"}, "weightmap.bound"),
        ("table", {"n_points": "x"}, "table.n_points"),
        ("table", {"r_min": "x"}, "table.r_min"),
        ("variance", {"gaps": "x"}, "variance.gaps"),
        ("gradcheck", {"n": "x"}, "gradcheck.n"),
        ("gradcheck", {"sigmas": "x"}, "gradcheck.sigmas"),
        ("table", {"r_min": 0.0}, "table.r_min"),
        ("table", {"r_min": 5.0, "r_max": 2.0}, "table.r_min"),
        ("table", {"n_points": 0}, "table.n_points"),
        ("table", {"r_values": [-1.0, 2.0]}, "table.r_values"),
        ("table", {"r_values": []}, "table.r_values"),
        ("table", {"r_values": [2.0, float("inf")]}, "table.r_values"),
        ("gradcheck", {"n": 3}, "gradcheck.n"),
        ("gradcheck", {"fd_step": -1}, "gradcheck.fd_step"),
        ("gradcheck", {"fd_step": 0.0}, "gradcheck.fd_step"),
        ("gradcheck", {"rel_tol": 0}, "gradcheck.rel_tol"),
        ("gradcheck", {"sigmas": [0.5, -0.5]}, "gradcheck.sigmas"),
        ("gradcheck", {"sigmas": [float("nan")]}, "gradcheck.sigmas"),
        ("weightmap", {"bound": 0}, "weightmap.bound"),
        ("weightmap", {"bound": -1.0}, "weightmap.bound"),
        ("variance", {"gaps": [1.0, float("inf")]}, "variance.gaps"),
        ("gradcheck", {"sigmas": []}, "gradcheck.sigmas"),
        ("table", {"r_min": 1e-101}, "table.r_min"),
        ("table", {"r_max": 1e101}, "table.r_max"),
        ("table", {"r_values": [1e101]}, "table.r_values"),
        ("weightmap", {"student": {"weights": [1], "means": [[0, 0]], "variances": [1],
                                   "foo": 3}}, "weightmap.student"),
    ])
    def test_bad_command_section_value_exits_2(self, tmp_path, capsys, command, section,
                                               field):
        cfg = write_config(tmp_path, {"teacher": "ring8", command: section})
        code = cli.main([command, "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config field '{field}'")
        assert len(err.strip().splitlines()) == 1

    def test_domain_error_in_command_exits_2_with_one_line(self, tmp_path, capsys):
        """A checkpoint of a teacher the schema accepts whose modes overlap,
        so mode coverage is undefined."""
        blob = {"weights": [0.5, 0.5], "means": [[0.0, 0.0], [0.5, 0.0]],
                "variances": [1.0, 1.0]}
        cfg = write_config(tmp_path, {**TINY_TRAIN, "teacher": blob})
        out = tmp_path / "o"
        assert cli.main(["train", "--config", cfg, "--out", str(out), "--iters", "1"]) == 0
        capsys.readouterr()
        code = cli.main(["modes", "--config", cfg, "--out", str(out),
                         "--checkpoint", str(out / "checkpoint_final.fdst")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "coverage undefined" in err
        assert len(err.strip().splitlines()) == 1
        # training's metrics rows record the undefined coverage instead of failing
        rows = (out / "metrics.csv").read_text().strip().splitlines()
        row = dict(zip(rows[0].split(","), rows[-1].split(",")))
        assert row["modes_covered"] == "-1" and row["min_mode_mass"] == "nan"

    @pytest.mark.parametrize("gap", [9.5, -9.5, 1e300])
    def test_variance_gap_beyond_nine_exits_2_with_one_line(self, tmp_path, capsys, gap):
        """Past a gap of 9 the variance curve's quadrature drifts from the
        closed forms (20% off at 12), so such gaps are refused."""
        cfg = write_config(tmp_path, {"variance": {"gaps": [1.0, gap]}})
        code = cli.main(["variance", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config field 'variance.gaps': must be a finite number "
                              ">= -9 and <= 9")
        assert len(err.strip().splitlines()) == 1

    def test_numerics_error_in_command_exits_3_with_one_line(self, tmp_path, capsys):
        """A finite-difference step the schema accepts that moves the student
        so far that the log ratio overflows at the quadrature nodes."""
        cfg = write_config(tmp_path, {"gradcheck": {"fd_step": 1e300}})
        code = cli.main(["gradcheck", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical abort: ") and "quadrature node" in err
        assert len(err.strip().splitlines()) == 1

    def test_sigma_whose_square_overflows_exits_3_with_one_line(self, tmp_path, capsys):
        """A gate sigma the schema accepts whose square leaves the float
        range: the perturbed variance names sigma, with no numpy warning."""
        cfg = write_config(tmp_path, {"gradcheck": {"sigmas": [1e200]}})
        code, err = main_outcome(["gradcheck", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 3
        assert err == "numerical abort: sigma 1e+200 overflows the perturbed variance\n"

    @pytest.mark.parametrize("command", ["gradcheck", "variance"])
    def test_removed_sample_count_is_an_unknown_key(self, tmp_path, capsys, command):
        """Both commands are deterministic quadratures and take no `n`."""
        cfg = write_config(tmp_path, {command: {"n": 100000}})
        code = cli.main([command, "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: config field '{command}.n': unknown config key\n"

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.name)
    def test_shipped_config_validates(self, path):
        """Run keys and every command section, at its defaults, pass the schema,
        and the run config round-trips through JSON text, as a checkpoint echoes it."""
        cfg, sections = cli._load_config(path, {})
        assert cfg.to_dict() == {**RunConfig().to_dict(), **json.loads(path.read_text())}
        assert set(sections) == set(cli._section_keys())
        assert RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

    def test_console_script_usage(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fdistill.cli"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert "usage" in proc.stderr.lower()


SECTION_KEYS = cli._section_keys()
KEY_PATHS = (
    [f.name for f in fields(RunConfig)] + list(RETIRED_KEYS) + list(SECTION_KEYS)
    + ["bogus", "table.bogus"]
    + [f"{name}.{key}" for name, keys in SECTION_KEYS.items() for key in keys]
)
# JSON values of every kind; NaN, infinities and ints beyond the float range
# are drawn often, and so are the names that string keys take
EDGES = st.sampled_from([math.inf, -math.inf, math.nan, 10 ** 400, -(10 ** 400), 0, 0.5, 4,
                         True, None, "x"])
SCALARS = (EDGES | st.integers() | st.floats() | st.text(max_size=4)
           | st.sampled_from(KINDS + ("ring8", "grid25", "mlp", "affine", "exact-oracle",
                                      "bin-mean", "minimax", "discriminator", "denoiser")))
VALUES = (EDGES | SCALARS | st.lists(SCALARS, max_size=4)
          | st.lists(st.lists(SCALARS, max_size=2), max_size=2)
          | st.dictionaries(st.text(max_size=4), SCALARS, max_size=3))
MIXTURE_ARRAYS = st.lists(SCALARS | st.lists(SCALARS, min_size=1, max_size=2), min_size=1,
                          max_size=3)
MIXTURES = st.fixed_dictionaries(dict.fromkeys(("weights", "means", "variances"),
                                               MIXTURE_ARRAYS))


def all_floats(value):
    if isinstance(value, float):
        yield value
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from all_floats(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from all_floats(item)


class TestConfigFuzz:
    """Random values for run keys and section keys, through config loading and
    section validation only: each ends in checked values or ConfigError."""

    def load(self, tmp_path, path, value):
        section, _, key = path.rpartition(".")
        data = {**TINY_TRAIN, **({section: {key: value}} if section else {key: value})}
        try:
            cfg, sections = cli._load_config(write_config(tmp_path, data), {})
        except ConfigError:
            return
        assert RunConfig.from_dict(cfg.to_dict()) == cfg
        # the student rule hands on the mixture it built; every other value is its own check
        student = sections["weightmap"]["student"]
        assert student is None or isinstance(student, IsotropicGaussianMixture)
        for name, keys in SECTION_KEYS.items():
            values = {**sections[name], "student": None} if name == "weightmap" else sections[name]
            assert checked(keys, values, f"{name}.") == values
        assert all(math.isfinite(v) for v in all_floats([cfg.to_dict(), sections]))

    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(path=st.sampled_from(KEY_PATHS), value=VALUES)
    def test_values_end_checked_or_config_error(self, tmp_path, path, value):
        self.load(tmp_path, path, value)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(path=st.sampled_from(["teacher", "weightmap.student"]), mixture=MIXTURES)
    def test_mixtures_end_checked_or_config_error(self, tmp_path, path, mixture):
        self.load(tmp_path, path, mixture)


def extreme(lo, hi):
    """Floats from lo to hi (0 < lo), log-uniform, with both ends drawn often."""
    return st.sampled_from([lo, hi]) | st.floats(math.log10(lo), math.log10(hi)).map(
        lambda e: 10.0 ** e)


LEARNING_RATES = extreme(1e-150, 1e308)
TERM_WEIGHTS = st.just(0.0) | extreme(1e-150, 1e300)
SIGMA_LADDER = (1e-150, 1e-3, 1.0, 80.0, 1e150)   # the schema allows 1e-150 to 1e150
RUNS = st.fixed_dictionaries({
    "teacher": st.sampled_from([
        {"weights": [0.5, 0.5], "means": [[-2.0], [2.0]], "variances": [0.25, 0.25]},
        "ring8", "grid25",
        {"weights": [0.5, 0.5], "means": [[-2.0, 0.0, 1.0], [2.0, 0.0, -1.0]],
         "variances": [0.25, 0.25]},
    ]),
    "divergence": st.sampled_from(KINDS),
    "generator_kind": st.sampled_from(["mlp", "affine"]),
    "ratio_source": st.sampled_from(["discriminator", "exact-oracle"]),
    "score_source": st.sampled_from(["denoiser", "exact-oracle"]),
    "lr_generator": LEARNING_RATES,
    "lr_denoiser": LEARNING_RATES,
    "lr_discriminator": LEARNING_RATES,
    "gan_weight": TERM_WEIGHTS,
    "r1_gamma": TERM_WEIGHTS,
    "r_min": st.sampled_from([1e-150, 1e-100, 1e-3, 1.0]),   # the schema allows 1e-150 to 1
    "r_max": st.sampled_from([1.0, 1e3, 1e100, 1e150]),     # and 1 to 1e150
    "normalize_stage1": st.booleans(),
    "normalize_stage2": st.booleans(),
    "tau": st.integers(1, 2),
    "time_bins": st.integers(1, 2),
    "metrics_interval": st.integers(0, 2),
    "checkpoint_interval": st.integers(0, 2),
    "total_iters": st.integers(1, 6),
    "seed": st.integers(0, 2**16),
}).flatmap(lambda run: st.lists(st.sampled_from(SIGMA_LADDER), min_size=2, max_size=2,
                                unique=True).map(
    lambda ends: {**run, "sigma_min": min(ends), "sigma_max": max(ends)}))
# small batches keep an example to a few tens of milliseconds
SMALL = {"batch_size": 8, "metrics_samples": 16, "metrics_centers": 16,
         "oracle_ratio_particles": 16, "modes": {"n_samples": 4096}}


def main_outcome(argv):
    """(exit code, stderr) of `cli.main(argv)` run in-process, with every
    warning raised as an error."""
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("error")
        code = cli.main(argv)
    return code, err.getvalue()


def keeps_exit_code_contract(code, err):
    """Exit 0 prints nothing to stderr, exit 2 one `error:` line, exit 3 one
    `numerical abort: iteration N` line and at most its step report."""
    lines = err.splitlines()
    if code == 0:
        return err == ""
    if code == 2:
        return len(lines) == 1 and lines[0].startswith("error: ")
    return (code == 3 and len(lines) in (1, 2)
            and re.match(r"numerical abort: iteration \d+: ", lines[0]) is not None
            and all(line.startswith("step report: StepReport(") for line in lines[1:]))


class TestExitCodeFuzz:
    """Schema-valid runs biased to the extremes: `train` for a few iterations,
    then `modes` on every checkpoint it wrote. Each command ends in one of the
    documented outcomes, with no warning, traceback or other output."""

    @settings(max_examples=800, deadline=None)
    @given(run=RUNS)
    def test_train_and_modes_keep_the_exit_code_contract(self, run):
        with tempfile.TemporaryDirectory() as tmp:
            cfg = write_config(Path(tmp), {**run, **SMALL})
            out = Path(tmp) / "o"
            outcomes = [main_outcome(["train", "--config", cfg, "--out", str(out)])]
            for checkpoint in sorted(out.glob("checkpoint_*.fdst")):
                outcomes.append(main_outcome(["modes", "--config", cfg, "--out", str(out),
                                              "--checkpoint", str(checkpoint)]))
        for code, err in outcomes:
            assert keeps_exit_code_contract(code, err), (code, err)


# The values the figure-command fuzz draws: numbers at the extremes (each key
# takes those its schema rule accepts), small counts, kind names and teachers
# (one 1-D, two with extreme parameters).
FIGURE_VALUES = (
    -sys.float_info.max, -1e300, -9.0, -1.0, 0.0, 5e-324, 1e-300, 1e-100, 1e-3, 0.5, 2.0,
    9.0, 1e100, 1e300, sys.float_info.max, 1, 2, 4, *KINDS, "ring8", "grid25",
    {"weights": [1.0], "means": [[0.0]], "variances": [1.0]},
    {"weights": [1.0], "means": [[1e300, -1e300]], "variances": [5e-324]},
    {"weights": [0.5, 0.5], "means": [[0.0, 0.0], [1e-300, 9.0]], "variances": [1e300, 1e-300]},
)


def accepted_values(rule):
    """The FIGURE_VALUES `rule` accepts; failing any, lists of at most two
    FIGURE_VALUES it accepts as items (empty if it takes []); None too where
    the rule takes it."""
    def takes(value):
        try:
            rule(value)
        except DomainError:
            return False
        return True

    scalars = [v for v in FIGURE_VALUES if takes(v)]
    if scalars:
        return st.sampled_from(scalars)
    items = [v for v in FIGURE_VALUES if takes([v])]
    lists = st.lists(st.sampled_from(items), min_size=0 if takes([]) else 1, max_size=2)
    return st.none() | lists if takes(None) else lists


def figure_config(command):
    """A config of a drawn teacher and divergence and a drawn `command` section."""
    return st.fixed_dictionaries({
        "teacher": accepted_values(RunConfig.__dataclass_fields__["teacher"].metadata["rule"]),
        "divergence": st.sampled_from(KINDS),
        command: st.fixed_dictionaries({key: accepted_values(rule) for key, (_, rule)
                                        in SECTION_KEYS[command].items()}),
    })


def keeps_figure_contract(command, code, err):
    """Exit 0 prints nothing to stderr, exit 1 (the gate only) nothing, exit 2
    one `error:` line and exit 3 one `numerical abort:` line."""
    lines = err.splitlines()
    if code in (0, 1):
        return err == "" and (code == 0 or command == "gradcheck")
    prefix = {2: "error: ", 3: "numerical abort: "}.get(code)
    return prefix is not None and len(lines) == 1 and lines[0].startswith(prefix)


class TestFigureExitCodeFuzz:
    """Schema-valid `gradcheck`, `variance`, `table` and `weightmap` sections
    with their numbers at the extremes: each command ends in one of the
    documented outcomes, with no warning, traceback or other output."""

    # the gate takes up to a second an example, the other commands milliseconds
    @pytest.mark.parametrize("command, examples", [("gradcheck", 24), ("variance", 60),
                                                   ("table", 60), ("weightmap", 60)])
    def test_figure_commands_keep_the_exit_code_contract(self, command, examples):
        @settings(max_examples=examples, deadline=None)
        @given(data=figure_config(command))
        def keeps_contract(data):
            with tempfile.TemporaryDirectory() as tmp:
                cfg = write_config(Path(tmp), data)
                code, err = main_outcome([command, "--config", cfg, "--out",
                                          str(Path(tmp) / "o")])
            assert keeps_figure_contract(command, code, err), (code, err)

        keeps_contract()


class TestTableCommand:
    def test_catalog_row_values(self, tmp_path):
        cfg = write_config(tmp_path, {"table": {"r_values": [2.0]}})
        out = tmp_path / "out"
        assert cli.main(["table", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "catalog.csv").read_text().strip().splitlines()
        assert lines[0] == "kind,r,f,f_prime,f_second,h"
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert row["kind"] == "reverse-kl"
        assert float(row["r"]) == 2.0
        assert float(row["f"]) == pytest.approx(-np.log(2.0))
        assert float(row["h"]) == 1.0

    def test_ratios_at_both_bounds_give_finite_rows(self, tmp_path):
        """On a grid over the whole accepted range [1e-100, 1e100], every f,
        f', f'' and h of every kind is finite, with no numpy warning."""
        cfg = write_config(tmp_path, {"table": {"r_min": 1e-100, "r_max": 1e100,
                                                "n_points": 401}})
        out = tmp_path / "out"
        assert main_outcome(["table", "--config", cfg, "--out", str(out)]) == (0, "")
        rows = (out / "catalog.csv").read_text().strip().splitlines()[1:]
        assert len(rows) == 401 * len(KINDS)
        assert {float(row.split(",")[1]) for row in rows} >= {1e-100, 1e100}
        assert all(math.isfinite(float(v)) for row in rows for v in row.split(",")[1:])

    def test_given_ratios_leave_the_bounds_unchecked(self, tmp_path):
        """With `r_values` given, the grid never reads `r_min` or `r_max`, so
        a reversed pair of them is no error."""
        cfg = write_config(tmp_path, {"table": {"r_values": [2.0], "r_min": 5, "r_max": 1}})
        out = tmp_path / "out"
        assert main_outcome(["table", "--config", cfg, "--out", str(out)]) == (0, "")
        rows = (out / "catalog.csv").read_text().strip().splitlines()[1:]
        assert [float(row.split(",")[1]) for row in rows] == [2.0] * len(KINDS)

    def test_floats_round_trip_exactly(self, tmp_path):
        cfg = write_config(tmp_path, {"table": {"n_points": 7}})
        out = tmp_path / "out"
        cli.main(["table", "--config", cfg, "--out", str(out)])
        lines = (out / "catalog.csv").read_text().strip().splitlines()[1:]
        from fdistill.divergence import catalog

        for line in lines[:7]:
            kind, r, f, _, _, _ = line.split(",")
            assert float(f) == float(catalog(kind).f(float(r)))


class TestTrainCommand:
    def test_outputs_and_determinism(self, tmp_path):
        cfg = write_config(tmp_path, TINY_TRAIN)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["train", "--config", cfg, "--out", str(out1)]) == 0
        assert cli.main(["train", "--config", cfg, "--out", str(out2)]) == 0
        metrics1 = (out1 / "metrics.csv").read_bytes()
        metrics2 = (out2 / "metrics.csv").read_bytes()
        assert metrics1 == metrics2
        assert (out1 / "samples.csv").exists()
        assert (out1 / "checkpoint_final.fdst").exists()
        header = metrics1.decode().splitlines()[0]
        assert header.startswith("iteration,")
        samples = (out1 / "samples.csv").read_text().strip().splitlines()
        assert samples[0] == "x0,x1"
        assert len(samples) == 10001

    def test_final_checkpoint_reproduces_samples_bitwise(self, tmp_path):
        from fdistill import rng as rngmod
        from fdistill.distill import RunConfig, restore_state

        cfg = write_config(tmp_path, TINY_TRAIN)
        out = tmp_path / "o"
        assert cli.main(["train", "--config", cfg, "--out", str(out)]) == 0
        config_echo, iteration, payloads = ckpt.load_checkpoint(out / "checkpoint_final.fdst")
        saved = RunConfig.from_dict(config_echo)
        state = restore_state(saved, iteration, payloads)
        z = rngmod.stream(saved.seed, saved.total_iters, rngmod.METRICS, 99).standard_normal(
            (10000, state.generator.latent_dim))
        rows = cli._float_rows(state.generator.forward(z))
        assert (out / "samples.csv").read_text() == "x0,x1\n" + rows

    @pytest.mark.parametrize("columns", [1, 2, 3])
    def test_float_rows_match_per_value_format(self, columns):
        """samples.csv's one-template formatting gives the bytes of `_fmt`
        on every value, special values and strided views included."""
        gen = np.random.default_rng(columns)
        special = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324,
                   2.2250738585072014e-308 / 3, 1.7976931348623157e308, 1e-300, 0.1, -1.0]
        values = np.concatenate([
            special, gen.standard_normal(200) * 10.0 ** gen.integers(-300, 300, 200),
        ])
        values = values[: values.size // columns * columns].reshape(-1, columns)
        strided = np.repeat(values, 2, axis=1)[::2, ::2]
        for a in (values, strided):
            expected = "".join(",".join(cli._fmt(v) for v in row) + "\n" for row in a.tolist())
            assert cli._float_rows(a) == expected

    def test_iters_override(self, tmp_path):
        cfg = write_config(tmp_path, TINY_TRAIN)
        out = tmp_path / "o"
        assert cli.main(
            ["train", "--config", cfg, "--out", str(out), "--iters", "4"]
        ) == 0
        config_echo, iteration, _ = ckpt.load_checkpoint(out / "checkpoint_final.fdst")
        assert iteration == 4
        assert config_echo["total_iters"] == 4

    def test_numerical_abort_exits_3(self, tmp_path, capsys):
        bad = dict(TINY_TRAIN)
        bad["lr_generator"] = 1e308
        bad["generator_kind"] = "affine"
        bad["ratio_source"] = "exact-oracle"
        bad["score_source"] = "exact-oracle"
        cfg = write_config(tmp_path, bad)
        code = cli.main(["train", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 3
        assert "abort" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides", [
        {"tau": 1, "metrics_interval": 10},     # overflows inside a generator step
        {"metrics_interval": 1},                # overflows inside the metrics
    ])
    def test_overflowing_generator_exits_3_with_one_line(self, tmp_path, overrides):
        """An MLP generator whose outputs overflow aborts as numerical, naming
        the iteration, with no numpy warning or traceback on stderr."""
        cfg = write_config(tmp_path, {"teacher": "ring8", "lr_generator": 1e300,
                                      "total_iters": 30, **overrides})
        proc = run_python(WARNINGS_SHOWN_MAIN,
                          ["train", "--config", cfg, "--out", str(tmp_path / "o")])
        assert proc.returncode == 3, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 2, proc.stderr
        assert lines[0].startswith("numerical abort: iteration ")
        assert lines[1].startswith("step report: StepReport(")

    @pytest.mark.parametrize("overrides", [
        {},                                     # discriminator ratio, denoiser score
        {"ratio_source": "exact-oracle", "score_source": "exact-oracle"},
    ])
    def test_overflowing_affine_scale_exits_3_with_one_line(self, tmp_path, overrides):
        """An affine student whose squared scale overflows aborts as numerical
        when its exact law is formed for the metrics, with no traceback or
        numpy warning; the step report holds the generator step that ran."""
        cfg = write_config(tmp_path, {"teacher": "ring8", "generator_kind": "affine",
                                      "lr_generator": 1e300, "total_iters": 30,
                                      "metrics_interval": 1, **overrides})
        proc = run_python(WARNINGS_SHOWN_MAIN,
                          ["train", "--config", cfg, "--out", str(tmp_path / "o")])
        assert proc.returncode == 3, proc.stderr
        assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 2, proc.stderr
        assert lines[0].startswith("numerical abort: iteration ")
        assert lines[1].startswith("step report: StepReport(")
        assert "fdistill_loss=None" not in lines[1] and "fdistill_loss=" in lines[1]

    def test_overflowing_final_samples_exit_3_and_write_nothing(self, tmp_path):
        """One generator step at lr 1e308 leaves outputs that overflow only
        in the final samples draw; with metrics off, that draw is the run's
        only evaluation after the step, and it aborts like any other."""
        cfg = write_config(tmp_path, {"teacher": "ring8", "lr_generator": 1e308,
                                      "total_iters": 1, "tau": 1, "metrics_interval": 0})
        out = tmp_path / "o"
        proc = run_python(WARNINGS_SHOWN_MAIN, ["train", "--config", cfg, "--out", str(out)])
        assert proc.returncode == 3, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 2, proc.stderr
        assert lines[0] == "numerical abort: iteration 1: non-finite generator output"
        assert lines[1].startswith("step report: StepReport(")
        assert "fdistill_loss=None" not in lines[1] and "fdistill_loss=" in lines[1]
        assert not (out / "samples.csv").exists()
        assert not (out / "checkpoint_final.fdst").exists()


class TestStreamContract:
    @pytest.mark.parametrize("config", ["ring8_gan.json", "ring8_js.json", "affine-exact"])
    def test_every_stream_is_opened_once_per_run(self, tmp_path, monkeypatch, config):
        """Every (seed, path) keys at most one stream over a `train` with
        metrics rows and checkpoints, and over the `modes` report on its final
        checkpoint, so no two draws share their random numbers. The report
        opens no stream of the run: `restore_state` builds the nets from the
        checkpoint's records, without drawing initial weights."""
        from fdistill import rng as rngmod

        if config == "affine-exact":
            data = {"teacher": "ring8", "divergence": "squared-hellinger", "tau": 1,
                    "gan_weight": 0.0, "r1_gamma": 0.0, **AFFINE_EXACT}
        else:
            data = json.loads((CONFIGS / config).read_text())
        data.update(total_iters=40, metrics_interval=10, checkpoint_interval=20,
                    modes={"n_samples": 4096})
        cfg, out = write_config(tmp_path, data), tmp_path / "o"
        stream = rngmod.stream
        runs = {"train": [], "modes": ["--checkpoint", str(out / "checkpoint_final.fdst")]}
        opened = {}
        for command, extra in runs.items():
            log = opened[command] = []
            monkeypatch.setattr(rngmod, "stream",
                                lambda seed, *path, log=log: log.append((seed, *path))
                                or stream(seed, *path))
            assert cli.main([command, "--config", cfg, "--out", str(out), *extra]) == 0
        assert len(opened["train"]) > 150
        for log in opened.values():
            assert sorted(key for key, count in Counter(log).items() if count > 1) == []
        assert set(opened["modes"]) & set(opened["train"]) == set()


class TestGradcheckCommand:
    def test_report_written_and_passes(self, tmp_path):
        cfg = write_config(tmp_path, {"seed": 3, "gradcheck": {"sigmas": [0.5]}})
        out = tmp_path / "o"
        assert cli.main(["gradcheck", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert list(report) == ["fd_step", "all_pass", "cases"]
        assert report["all_pass"] is True
        assert len(report["cases"]) == 2 * len(KINDS) * 2
        assert {c["teacher"] for c in report["cases"]} == {"single", "bimodal"}
        assert list(report["cases"][0]) == ["teacher", "kind", "sigma", "param_index",
                                            "grad_analytic", "grad_fd", "rel_error", "pass"]

    def test_default_gate_is_seed_free(self, tmp_path):
        """The shipped gate passes all 72 reports, and report.json does not
        depend on --seed."""
        cfg = str(CONFIGS / "default.json")
        outs = [tmp_path / "a", tmp_path / "b"]
        for seed, out in zip(["0", "622929773"], outs):
            assert cli.main(["gradcheck", "--config", cfg, "--out", str(out),
                             "--seed", seed]) == 0
        first, second = [(out / "report.json").read_bytes() for out in outs]
        assert first == second
        cases = json.loads(first)["cases"]
        assert len(cases) == 72 and all(c["pass"] for c in cases)


class TestVarianceCommand:
    def test_csv_rows(self, tmp_path):
        cfg = write_config(
            tmp_path, {"variance": {"gaps": [0.5, 1.0],
                                    "kinds": ["reverse-kl", "forward-kl"]}}
        )
        out = tmp_path / "o"
        assert cli.main(["variance", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "variance.csv").read_text().strip().splitlines()
        assert lines[0] == "kind,d,estimate"
        assert len(lines) == 5
        rkl_rows = [l for l in lines[1:] if l.startswith("reverse-kl")]
        assert all(float(l.split(",")[2]) == 0.0 for l in rkl_rows)


def count_mixture_builds(monkeypatch):
    """The specs of every `make_teacher` call the config rules make from now
    on, in call order."""
    from fdistill import distill

    specs = []
    make_teacher = distill.make_teacher

    def counted(spec):
        specs.append(spec)
        return make_teacher(spec)

    monkeypatch.setattr(distill, "make_teacher", counted)
    return specs


class TestWeightmapCommand:
    def test_teacher_and_student_are_each_built_once(self, tmp_path, monkeypatch):
        """The run config's `teacher` rule builds the teacher and the section's
        `student` rule the student; the map reads both mixtures as built."""
        student = {"weights": [1.0], "means": [[0.5, 0.0]], "variances": [2.0]}
        cfg = write_config(tmp_path, {"teacher": "ring8",
                                      "weightmap": {"resolution": 4, "student": student}})
        specs = count_mixture_builds(monkeypatch)
        assert cli.main(["weightmap", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert specs == ["ring8", student]

    def test_map_csv(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"teacher": "ring8", "divergence": "forward-kl",
             "weightmap": {"resolution": 8, "bound": 5.0, "sigma": 0.4}},
        )
        out = tmp_path / "o"
        assert cli.main(["weightmap", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "map.csv").read_text().strip().splitlines()
        assert lines[0] == "x,y,score_diff,h"
        assert len(lines) == 65

    @pytest.mark.parametrize("section", [
        {"student": {"weights": [1.0], "means": [[1e200, 0.0]], "variances": [1.0]}},
        {"bound": 1e300}])
    def test_overflowing_map_exits_2_with_one_line(self, tmp_path, capsys, section):
        """Values the schema accepts whose squares overflow, a student mean or
        the grid's points: the finiteness check on the log ratio is the only
        output, with no numpy warning."""
        cfg = write_config(tmp_path, {"teacher": "ring8", "weightmap": section})
        code = cli.main(["weightmap", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: log ratio must be finite")
        assert len(err.strip().splitlines()) == 1

    def test_overflowing_sigma_exits_3_with_the_gradcheck_line(self, tmp_path):
        """A sigma whose square overflows ends the map as it ends the gate:
        the perturbed variance's one line, exit 3, with no numpy warning."""
        cfg = write_config(tmp_path, {"teacher": "ring8", "weightmap": {"sigma": 1e200},
                                      "gradcheck": {"sigmas": [1e200]}})
        outcomes = {command: main_outcome([command, "--config", cfg,
                                           "--out", str(tmp_path / command)])
                    for command in ("weightmap", "gradcheck")}
        line = "numerical abort: sigma 1e+200 overflows the perturbed variance\n"
        assert outcomes == {"weightmap": (3, line), "gradcheck": (3, line)}


class TestModesCommand:
    def test_modes_from_checkpoint(self, tmp_path):
        train_cfg = dict(TINY_TRAIN)
        train_cfg["teacher"] = "ring8"
        cfg = write_config(tmp_path, train_cfg)
        out = tmp_path / "o"
        assert cli.main(["train", "--config", cfg, "--out", str(out)]) == 0
        assert cli.main([
            "modes", "--config", cfg, "--out", str(out),
            "--checkpoint", str(out / "checkpoint_final.fdst"),
        ]) == 0
        report = json.loads((out / "modes.json").read_text())
        assert report["n_modes"] == 8
        assert 0 <= report["modes_covered"] <= 8
        assert len(report["per_mode_mass"]) == 8

    def test_builds_two_mixtures(self, tmp_path, monkeypatch):
        """One teacher for the --config file and one for the checkpoint's
        config echo: each config builds its mixture once."""
        cfg = write_config(tmp_path, {**TINY_TRAIN, "teacher": "ring8"})
        out = tmp_path / "o"
        assert cli.main(["train", "--config", cfg, "--out", str(out), "--iters", "1"]) == 0
        specs = count_mixture_builds(monkeypatch)
        assert cli.main(["modes", "--config", cfg, "--out", str(out),
                         "--checkpoint", str(out / "checkpoint_final.fdst")]) == 0
        assert specs == ["ring8", "ring8"]

    def test_modes_requires_checkpoint(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY_TRAIN)
        code = cli.main(["modes", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2

    def test_missing_checkpoint_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY_TRAIN)
        code = cli.main(["modes", "--config", cfg, "--out", str(tmp_path / "o"),
                         "--checkpoint", str(tmp_path / "nope.fdst")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "nope.fdst" in err
        assert len(err.strip().splitlines()) == 1

    def test_truncated_checkpoint_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY_TRAIN)
        out = tmp_path / "o"
        assert cli.main(["train", "--config", cfg, "--out", str(out), "--iters", "1"]) == 0
        path = out / "checkpoint_final.fdst"
        path.write_bytes(path.read_bytes()[:-100])
        capsys.readouterr()
        code = cli.main(["modes", "--config", cfg, "--out", str(out),
                         "--checkpoint", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "checksum" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("drop, generator, message", [
        ("denoiser", None, "checkpoint missing networks: ['denoiser']"),
        (None, lambda g: ckpt.NetworkPayload("generator", (1, 2), np.zeros(3),
                                             adam_init(3, 1e-3)),
         "checkpoint generator has 3 parameters, config implies "),
        (None, lambda g: ckpt.NetworkPayload("generator", (9, 9, 9), g.params, g.adam),
         "checkpoint generator has widths (9, 9, 9), config implies (2, 128, 128, 2)"),
        (None, lambda g: ckpt.NetworkPayload("generator", g.widths,
                                             np.r_[g.params[:5], np.nan, g.params[6:]], g.adam),
         "checkpoint generator has a non-finite parameter"),
        (None, lambda g: ckpt.NetworkPayload("generator", g.widths,
                                             np.r_[g.params[:5], -np.inf, g.params[6:]], g.adam),
         "checkpoint generator has a non-finite parameter"),
        (None, lambda g: with_adam(g, m=np.r_[g.adam.m[:5], np.nan, g.adam.m[6:]]),
         "checkpoint generator has a NaN Adam moment or a negative Adam v"),
        (None, lambda g: with_adam(g, v=np.r_[g.adam.v[:5], np.nan, g.adam.v[6:]]),
         "checkpoint generator has a NaN Adam moment or a negative Adam v"),
        (None, lambda g: with_adam(g, v=np.r_[g.adam.v[:5], -1e-300, g.adam.v[6:]]),
         "checkpoint generator has a NaN Adam moment or a negative Adam v"),
    ], ids=["missing_network", "parameter_count", "widths", "nan_parameter", "inf_parameter",
            "nan_adam_m", "nan_adam_v", "negative_adam_v"])
    def test_unrestorable_checkpoint_exits_2_with_one_line(self, tmp_path, capsys,
                                                           trained_checkpoint, drop, generator,
                                                           message):
        """A checkpoint that loads but does not fit its config: a network is
        missing, or the generator's record is not the config's net (its
        parameter count or its widths differ), holds a non-finite parameter
        or an Adam record no run can reach (a NaN moment or a negative v).
        Each is re-saved, so its checksum is valid."""
        path = resaved(tmp_path, trained_checkpoint, generator, drop)
        code = cli.main(["modes", "--config", trained_checkpoint[1], "--out",
                         str(tmp_path / "o"), "--checkpoint", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert len(err.strip().splitlines()) == 1

    def test_infinite_adam_v_restores(self, tmp_path, trained_checkpoint):
        """A finite gradient past about 1.3e154 squares to v = inf in a
        valid run, so such a record still loads."""
        path = resaved(tmp_path, trained_checkpoint,
                       lambda g: with_adam(g, v=np.r_[g.adam.v[:5], np.inf, g.adam.v[6:]]))
        code, err = main_outcome(["modes", "--config", trained_checkpoint[1], "--out",
                                  str(tmp_path / "o"), "--checkpoint", str(path)])
        assert (code, err) == (0, "")

    @pytest.mark.parametrize("value", [-5, 0, 2.5, "x", True])
    def test_bad_n_samples_exits_2_with_one_line(self, tmp_path, capsys, trained_checkpoint,
                                                 value):
        path = tmp_path / "c.fdst"
        path.write_bytes(trained_checkpoint[0])
        cfg = write_config(tmp_path, {**TINY_TRAIN, "modes": {"n_samples": value}})
        code = cli.main(["modes", "--config", cfg, "--out", str(tmp_path / "o"),
                         "--checkpoint", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config field 'modes.n_samples'")
        assert len(err.strip().splitlines()) == 1


def with_adam(payload, **moments):
    """The network payload with Adam's `m` and/or `v` replaced."""
    return ckpt.NetworkPayload(payload.name, payload.widths, payload.params,
                               replace(payload.adam, **moments))


def resaved(tmp_path, trained_checkpoint, generator=None, drop=None):
    """The trained checkpoint saved again, with `generator` applied to the
    generator's payload and the network named `drop` left out."""
    source = tmp_path / "c.fdst"
    source.write_bytes(trained_checkpoint[0])
    echo, iteration, payloads = ckpt.load_checkpoint(source)
    assert payloads[0].name == "generator"
    if generator is not None:
        payloads[0] = generator(payloads[0])
    payloads = [p for p in payloads if p.name != drop]
    path = tmp_path / "x.fdst"
    ckpt.save_checkpoint(path, echo, iteration, payloads)
    return path


def with_valid_checksum(body: bytes) -> bytes:
    """Version-2 file bytes for a body: the CRC-32 zero-extended to a u64."""
    return body + struct.pack("<Q", zlib.crc32(body))


def with_config_echo(data: bytes, echo: bytes) -> bytes:
    """The checkpoint `data` with its config echo replaced and a valid checksum."""
    n = struct.unpack_from("<I", data, 8)[0]
    return with_valid_checksum(
        data[:8] + struct.pack("<I", len(echo)) + echo + data[12 + n:-8]
    )


def with_first_network_name(data: bytes, name: bytes) -> bytes:
    n = struct.unpack_from("<I", data, 8)[0]
    pos = 12 + n + 8 + 4            # past the echo, the iteration and the count
    k = struct.unpack_from("<I", data, pos)[0]
    return with_valid_checksum(
        data[:pos] + struct.pack("<I", len(name)) + name + data[pos + 4 + k:-8]
    )


UNDECODABLE = {
    "echo_not_json": (lambda d: with_config_echo(d, b"{not json"), "not JSON"),
    "echo_not_utf8": (lambda d: with_config_echo(d, b'{"seed": "\xff\xfe"}'), "not UTF-8"),
    "echo_not_object": (lambda d: with_config_echo(d, b"[1, 2]"), "JSON object"),
    "name_not_utf8": (lambda d: with_first_network_name(d, b"gen\xc3"), "not UTF-8"),
}


@pytest.fixture(scope="module")
def trained_checkpoint(tmp_path_factory):
    """Bytes of a real `checkpoint_final.fdst` and the config that wrote it."""
    root = tmp_path_factory.mktemp("trained")
    cfg = write_config(root, TINY_TRAIN)
    out = root / "o"
    assert cli.main(["train", "--config", cfg, "--out", str(out), "--iters", "2"]) == 0
    return (out / "checkpoint_final.fdst").read_bytes(), cfg


class TestUndecodableCheckpoint:
    """Files whose checksum holds but whose text fields do not decode."""

    @pytest.mark.parametrize("case", sorted(UNDECODABLE))
    def test_load_raises_checkpoint_error(self, tmp_path, trained_checkpoint, case):
        craft, message = UNDECODABLE[case]
        path = tmp_path / "x.fdst"
        path.write_bytes(craft(trained_checkpoint[0]))
        with pytest.raises(CheckpointError, match=message):
            ckpt.load_checkpoint(path)

    @pytest.mark.parametrize("case", sorted(UNDECODABLE))
    def test_modes_exits_2_with_one_line(self, tmp_path, capsys, trained_checkpoint, case):
        data, cfg = trained_checkpoint
        path = tmp_path / "x.fdst"
        path.write_bytes(UNDECODABLE[case][0](data))
        code = cli.main(["modes", "--config", cfg, "--out", str(tmp_path / "o"),
                         "--checkpoint", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1


class TestRetiredKeysInEcho:
    """Checkpoints written before a run key was retired echo it at the one
    value training now hard-wires."""

    def modes(self, tmp_path, data, extra_echo):
        n = struct.unpack_from("<I", data, 8)[0]
        echo = {**json.loads(data[12:12 + n]), **extra_echo}
        path = tmp_path / "x.fdst"
        path.write_bytes(with_config_echo(data, json.dumps(echo, sort_keys=True).encode()))
        cfg = write_config(tmp_path, {**TINY_TRAIN, "modes": {"n_samples": 2000}})
        out = tmp_path / f"o{len(extra_echo)}"
        code = cli.main(["modes", "--config", cfg, "--out", str(out), "--checkpoint", str(path)])
        return code, out / "modes.json"

    def test_fixed_values_give_the_same_modes_report(self, tmp_path, trained_checkpoint):
        code, report = self.modes(tmp_path, trained_checkpoint[0], {})
        code_old, report_old = self.modes(tmp_path, trained_checkpoint[0], RETIRED_KEYS)
        assert code == code_old == 0
        assert report_old.read_bytes() == report.read_bytes()

    @pytest.mark.parametrize("key, value", [("gan_loss_form", "minimax"), ("weight_decay", 0.01),
                                            ("ratio_at_clean", True), ("latent_dim", 2),
                                            ("metrics_sigma", 0.2), ("coverage_k", 2.0),
                                            ("coverage_threshold", 0.05)])
    def test_other_value_exits_2_with_one_line(self, tmp_path, capsys, trained_checkpoint,
                                               key, value):
        code, _ = self.modes(tmp_path, trained_checkpoint[0], {key: value})
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config field '{key}': retired")
        assert len(err.strip().splitlines()) == 1


def _load_bytes(path, data: bytes):
    path.write_bytes(data)
    return ckpt.load_checkpoint(path)


_FUZZ = settings(max_examples=150, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestCheckpointFuzz:
    """Damaged copies of a real checkpoint fail only with `CheckpointError`."""

    @_FUZZ
    @given(cut=st.integers(min_value=0, max_value=10**9))
    def test_truncation(self, tmp_path, trained_checkpoint, cut):
        data = trained_checkpoint[0]
        with pytest.raises(CheckpointError):
            _load_bytes(tmp_path / "x.fdst", data[:cut % len(data)])

    @_FUZZ
    @given(flips=st.lists(st.tuples(st.integers(min_value=0), st.integers(1, 255)),
                          min_size=1, max_size=4))
    def test_byte_flips(self, tmp_path, trained_checkpoint, flips):
        data = bytearray(trained_checkpoint[0])
        for pos, mask in flips:
            data[pos % len(data)] ^= mask
        if bytes(data) == trained_checkpoint[0]:   # flips that cancel out
            return
        with pytest.raises(CheckpointError):
            _load_bytes(tmp_path / "x.fdst", bytes(data))

    @_FUZZ
    @given(flips=st.lists(st.tuples(st.integers(min_value=0), st.integers(1, 255)),
                          min_size=1, max_size=4),
           cut=st.integers(min_value=0))
    def test_damaged_body_with_valid_checksum(self, tmp_path, trained_checkpoint, flips, cut):
        """Past the checksum, the parser either reads the file or rejects it
        with `CheckpointError`; it never fails another way."""
        body = bytearray(trained_checkpoint[0][:-8])
        for pos, mask in flips:
            body[pos % len(body)] ^= mask
        body = body[:len(body) - cut % 64]
        try:
            config, _, networks = _load_bytes(tmp_path / "x.fdst",
                                              with_valid_checksum(bytes(body)))
        except CheckpointError:
            return
        assert isinstance(config, dict)
        assert all(isinstance(net.name, str) for net in networks)


class TestCheckpointFormat:
    def _payload(self):
        gen = np.random.default_rng(1)
        params = gen.standard_normal(17)
        adam = adam_init(17, lr=1e-3)
        adam.m[:] = gen.standard_normal(17)
        return [ckpt.NetworkPayload("generator", (3, 4), params, adam)]

    def test_round_trip_bitwise(self, tmp_path):
        path = tmp_path / "x.fdst"
        nets = self._payload()
        ckpt.save_checkpoint(path, {"seed": 1}, 42, nets)
        config, iteration, loaded = ckpt.load_checkpoint(path)
        assert config == {"seed": 1}
        assert iteration == 42
        np.testing.assert_array_equal(loaded[0].params, nets[0].params)
        np.testing.assert_array_equal(loaded[0].adam.m, nets[0].adam.m)
        assert loaded[0].widths == (3, 4)

    def test_corrupt_byte_fails_checksum(self, tmp_path):
        path = tmp_path / "x.fdst"
        ckpt.save_checkpoint(path, {}, 0, self._payload())
        data = bytearray(path.read_bytes())
        data[30] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="checksum"):
            ckpt.load_checkpoint(path)

    def test_version_1_file_rejected(self, tmp_path, capsys):
        """A version-1 file (FNV-1a checksum) is refused by the loader and by
        `fdistill modes`, with one error line."""
        path = tmp_path / "x.fdst"
        ckpt.save_checkpoint(path, {"seed": 1}, 42, self._payload())
        data = bytearray(path.read_bytes())
        assert struct.unpack_from("<I", data, 4)[0] == ckpt.VERSION == 2
        struct.pack_into("<I", data, 4, 1)
        data[-8:] = struct.pack("<Q", nm.fnv1a64(bytes(data[:-8])))
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="version 1 "):
            ckpt.load_checkpoint(path)
        code = cli.main(["modes", "--config", write_config(tmp_path, TINY_TRAIN),
                         "--out", str(tmp_path / "o"), "--checkpoint", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unsupported checkpoint version 1 ")
        assert len(err.strip().splitlines()) == 1

    def test_weight_decay_slot_written_as_zero_and_nonzero_rejected(self, tmp_path, capsys):
        """The four Adam slots after the learning rate (beta1, beta2, eps and
        the weight decay of earlier writers) are written as the constants
        0.9, 0.999, 1e-8 and 0.0; a file holding any other value there is
        refused by the loader and by `fdistill modes`, with one error line."""
        path = tmp_path / "x.fdst"
        nets = self._payload()
        ckpt.save_checkpoint(path, {}, 0, nets)
        data = path.read_bytes()
        end = len(data) - 8 - 2 * 8 * nets[0].params.size   # before the m and v moments
        assert struct.unpack_from("<4d", data, end - 32) == (0.9, 0.999, 1e-8, 0.0)
        cfg = write_config(tmp_path, TINY_TRAIN)
        for index, (value, message) in enumerate([(0.5, "Adam beta1 0.5"),
                                                  (0.9, "Adam beta2 0.9"),
                                                  (1.0, "Adam eps 1.0"),
                                                  (0.01, "Adam weight decay 0.01")]):
            changed = bytearray(data)
            struct.pack_into("<d", changed, end - 32 + 8 * index, value)
            path.write_bytes(with_valid_checksum(bytes(changed[:-8])))
            with pytest.raises(CheckpointError, match=f"{message}; only "):
                ckpt.load_checkpoint(path)
            code = cli.main(["modes", "--config", cfg, "--out", str(tmp_path / "o"),
                             "--checkpoint", str(path)])
            assert code == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: network 'generator' has {message}; only ")
            assert len(err.strip().splitlines()) == 1

    def test_save_is_atomic(self, tmp_path, monkeypatch):
        """A failed save leaves the previous file whole and no temporary
        file behind."""
        path = tmp_path / "checkpoint_0000001.fdst"
        ckpt.save_checkpoint(path, {"seed": 1}, 1, self._payload())
        before = path.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]

        def fail(*_args):
            raise OSError("disk full")

        monkeypatch.setattr(ckpt.os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            ckpt.save_checkpoint(path, {"seed": 2}, 2, self._payload())
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]

    def test_save_and_load_hold_no_copy_of_the_file(self, tmp_path):
        """Save writes and checksums its parts in turn, and load parses one
        view of the file's bytes, copying each array once. So saving a ring8
        checkpoint holds well under half its size, loading holds the file's
        bytes plus the arrays it returns, and the bytes are unchanged."""
        import tracemalloc

        cfg = write_config(tmp_path, {**TINY_TRAIN, "teacher": "ring8"})
        out = tmp_path / "o"
        assert cli.main(["train", "--config", cfg, "--out", str(out), "--iters", "1"]) == 0
        path = out / "checkpoint_final.fdst"
        size = path.stat().st_size
        tracemalloc.start()
        try:
            loaded = ckpt.load_checkpoint(path)
            load_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            ckpt.save_checkpoint(tmp_path / "copy.fdst", *loaded)
            save_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert (tmp_path / "copy.fdst").read_bytes() == path.read_bytes()
        assert save_peak < 0.5 * size, (save_peak, size)
        assert load_peak <= 2.1 * size, (load_peak, size)

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "x.fdst"
        ckpt.save_checkpoint(path, {}, 0, self._payload())
        data = bytearray(path.read_bytes())
        struct.pack_into("<I", data, 4, 99)
        body = bytes(data[:-8])
        data[-8:] = struct.pack("<Q", zlib.crc32(body))
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="version"):
            ckpt.load_checkpoint(path)

    def test_truncation_rejected(self, tmp_path):
        path = tmp_path / "x.fdst"
        ckpt.save_checkpoint(path, {}, 0, self._payload())
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointError):
            ckpt.load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "x.fdst"
        ckpt.save_checkpoint(path, {}, 0, self._payload())
        data = bytearray(path.read_bytes())
        data[0:4] = b"JUNK"
        body = bytes(data[:-8])
        data[-8:] = struct.pack("<Q", zlib.crc32(body))
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="magic"):
            ckpt.load_checkpoint(path)


# `fdistill.cli.main` with numpy's RuntimeWarnings printed to stderr, as they
# are outside pytest.
WARNINGS_SHOWN_MAIN = ("import sys, warnings\n"
                       "warnings.simplefilter('default')\n"
                       "from fdistill.cli import main\n"
                       "sys.exit(main(sys.argv[1:]))\n")


def run_python(script, args, env=None, via_shell=False):
    """Run `script` in a fresh interpreter that imports this checkout's package;
    `via_shell` starts it as the child of a shell rather than of this process."""
    env = dict(os.environ if env is None else env)
    src = str(Path(fdistill.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = [sys.executable, "-c", script, *args]
    if via_shell:   # not the shell's last command, so it forks rather than execs
        argv = ["sh", "-c", '"$@"; exit $?', "sh", *argv]
    return subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)


class TestStartupImports:
    def test_train_modes_and_gradcheck_load_no_scipy(self, tmp_path):
        """SciPy adds about 0.2 s and 24 MB to a training start; only the
        tests use it, so these commands must not load it even where it is
        installed."""
        cfg = write_config(tmp_path, {**TINY_TRAIN, "gradcheck": {"sigmas": [0.5]}})
        out = str(tmp_path / "o")
        script = ("import sys\n"
                  "from fdistill.cli import main\n"
                  "cfg, out = sys.argv[1:]\n"
                  "codes = [main(['train', '--config', cfg, '--out', out, '--iters', '3']),\n"
                  "         main(['modes', '--config', cfg, '--out', out,\n"
                  "               '--checkpoint', out + '/checkpoint_final.fdst']),\n"
                  "         main(['gradcheck', '--config', cfg, '--out', out])]\n"
                  "print(codes[:2], sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
        proc = run_python(script, [cfg, out])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == "[0, 0] []"

    def test_every_command_runs_without_scipy(self, tmp_path):
        """SciPy is a test dependency only: with it unimportable, each of the
        six subcommands exits 0."""
        cfg = write_config(tmp_path, {
            **TINY_TRAIN, "gradcheck": {"sigmas": [0.5]},
            "variance": {"gaps": [0.5]}, "table": {"n_points": 5},
            "weightmap": {"resolution": 4}, "modes": {"n_samples": 2000}})
        out = str(tmp_path / "o")
        script = ("import sys\n"
                  "sys.modules['scipy'] = None\n"
                  "from fdistill.cli import main\n"
                  "cfg, out = sys.argv[1:]\n"
                  "ckpt = out + '/checkpoint_final.fdst'\n"
                  "runs = [['train', '--iters', '3'], ['gradcheck'], ['variance'], ['table'],\n"
                  "        ['weightmap'], ['modes', '--checkpoint', ckpt]]\n"
                  "print([main([r[0], '--config', cfg, '--out', out, *r[1:]]) for r in runs])\n")
        proc = run_python(script, [cfg, out])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == "[0, 0, 0, 0, 0, 0]"

    def test_package_and_cli_import_load_no_numpy(self):
        """`FDISTILL_THREADS` is applied through the BLAS environment, which
        numpy reads once, on its first import; so importing the package and
        its command line must not import numpy."""
        proc = run_python("import sys, fdistill, fdistill.cli\n"
                          "print('numpy' in sys.modules)\n", [])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_init_state_loads_no_checkpoint_module(self):
        """A run's first state is built from its initial records without the
        checkpoint format: `NetworkPayload` lives in `nets`, so the time to a
        run's first step does not include loading `fdistill.checkpoint`."""
        script = ("import sys\n"
                  "from fdistill.distill import RunConfig, init_state\n"
                  "init_state(RunConfig())\n"
                  "print('fdistill.checkpoint' in sys.modules)\n")
        proc = run_python(script, [])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_train_and_modes_load_no_oracle(self, tmp_path):
        """Mode coverage lives in `teacher`; the training loop and `modes`
        need nothing else from `oracle`, so neither loads it. Neither loads
        `numpy.ma` either (`np.unique` would, at 0.6 MB)."""
        cfg = write_config(tmp_path, {**TINY_TRAIN, "teacher": "ring8"})
        out = str(tmp_path / "o")
        script = ("import sys\n"
                  "from fdistill.cli import main\n"
                  "cfg, out = sys.argv[1:]\n"
                  "codes = [main(['train', '--config', cfg, '--out', out, '--iters', '3'])]\n"
                  "print(codes, 'fdistill.oracle' in sys.modules, 'numpy.ma' in sys.modules)\n"
                  "codes.append(main(['modes', '--config', cfg, '--out', out,\n"
                  "                   '--checkpoint', out + '/checkpoint_final.fdst']))\n"
                  "print(codes, 'fdistill.oracle' in sys.modules, 'numpy.ma' in sys.modules)\n")
        proc = run_python(script, [cfg, out])
        assert proc.returncode == 0, proc.stderr
        printed = [line for line in proc.stdout.splitlines() if line.startswith("[")]
        assert printed == ["[0] False False", "[0, 0] False False"]


def bench_traced():
    """The benchmark tracer's `TRACED` table, read without importing `bench`."""
    tracing = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    return runpy.run_path(str(tracing))["TRACED"]


class TestPublicNames:
    def test_every_exported_name_resolves(self):
        """Each name in a module's `__all__` exists, so a deleted definition
        cannot leave a stale export."""
        for info in pkgutil.iter_modules(fdistill.__path__):
            module = importlib.import_module(f"fdistill.{info.name}")
            missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
            assert not missing, (info.name, missing)

    def test_every_traced_name_is_callable(self):
        """The benchmark's tracer wraps each function of its `TRACED` table,
        so a refactor that drops or renames one fails here, not only in a
        traced benchmark run."""
        traced = bench_traced()
        missing = [f"{module}.{name}" for module, names in traced.items() for name in names
                   if not callable(getattr(importlib.import_module(f"fdistill.{module}"),
                                           name, None))]
        assert not missing

    @pytest.mark.parametrize("command, config, module, name", [
        ("train", "ring8_gan.json", "distill", "train_step"),
        ("gradcheck", "default.json", "oracle", "theorem1_grad_check"),
    ])
    def test_benchmark_probe_points_are_reached(self, tmp_path, monkeypatch, command, config,
                                                module, name):
        """`bench/workload.py --probe` replaces each of these functions with a
        stub that takes any arguments, and times the command up to the stub's
        first call; the command must call it by that module attribute."""
        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(importlib.import_module(f"fdistill.{module}"), name, reached)
        with pytest.raises(Reached):
            cli.main([command, "--config", str(CONFIGS / config), "--out", str(tmp_path)])

    def test_every_traced_function_is_one_object_in_every_module(self):
        """The tracer patches every `fdistill` module binding that is the
        traced function object, so each module that binds a traced name must
        bind that very object (`oracle.mode_coverage is teacher.mode_coverage
        is distill.mode_coverage`); a second definition under the name would
        run untraced."""
        traced = bench_traced()
        modules = [fdistill] + [importlib.import_module(f"fdistill.{info.name}")
                                for info in pkgutil.iter_modules(fdistill.__path__)]
        stray = [(module.__name__, home, name)
                 for home, names in traced.items() for name in names
                 for module in modules if name in vars(module)
                 and vars(module)[name] is not getattr(
                     importlib.import_module(f"fdistill.{home}"), name)]
        assert not stray


def modes_report(cfg, out, checkpoint, n_samples, tmp_path):
    """Run `modes` on a checkpoint with `n_samples`; the exit code and the
    bytes of modes.json."""
    mcfg = write_config(tmp_path, {"modes": {"n_samples": n_samples}}, "modes_config.json")
    code = cli.main(["modes", "--config", mcfg, "--out", str(out),
                     "--checkpoint", str(checkpoint)])
    return code, (out / "modes.json").read_bytes()


class TestModesBlocks:
    @pytest.mark.parametrize("student", [{}, AFFINE_EXACT], ids=["mlp", "affine"])
    def test_blocked_report_equals_one_shot(self, tmp_path, student):
        """5000 samples are drawn, generated and counted in four row blocks
        (1216, 1280, 1216 and 1288 rows); modes.json equals the report
        of the one-shot draw, forward and `mode_coverage` byte for byte."""
        from fdistill import rng as rngmod
        from fdistill.distill import restore_state
        from fdistill.teacher import make_teacher, mode_coverage

        cfg = write_config(tmp_path, {**TINY_TRAIN, "teacher": "ring8", **student})
        out = tmp_path / "o"
        assert cli.main(["train", "--config", cfg, "--out", str(out), "--iters", "3"]) == 0
        path = out / "checkpoint_final.fdst"
        code, written = modes_report(cfg, out, path, 5000, tmp_path)
        assert code == 0

        config_echo, iteration, payloads = ckpt.load_checkpoint(path)
        saved = RunConfig.from_dict(config_echo)
        state = restore_state(saved, iteration, payloads)
        z_all = rngmod.stream(saved.seed, iteration, rngmod.METRICS, 7).standard_normal(
            (5000, state.generator.latent_dim))
        coverage = mode_coverage([state.generator.forward(z_all)],
                                 make_teacher(saved.teacher))
        expected = {
            "checkpoint": str(path),
            "iteration": iteration,
            "n_samples": 5000,
            "modes_covered": coverage.n_covered,
            "n_modes": len(coverage.per_mode_mass),
            "per_mode_mass": [float(m) for m in coverage.per_mode_mass],
            "covered": [bool(c) for c in coverage.covered],
        }
        assert written == json.dumps(expected, indent=2).encode()

    def test_counts_through_mode_coverage(self, tmp_path, trained_checkpoint, monkeypatch):
        """`modes` counts its balls with `teacher.mode_coverage`, the one
        coverage function, handing it one block after another."""
        from fdistill import teacher

        calls, rows = [], []
        original = teacher.mode_coverage

        def recording(blocks, gm):
            calls.append(gm)
            return original((rows.append(len(b)) or b for b in blocks), gm)

        monkeypatch.setattr(teacher, "mode_coverage", recording)
        path = tmp_path / "c.fdst"
        path.write_bytes(trained_checkpoint[0])
        code, _ = modes_report(trained_checkpoint[1], tmp_path / "o", path, 5000, tmp_path)
        assert code == 0
        assert len(calls) == 1
        assert rows == [stop - start for start, stop in nm.row_blocks(5000)]

    def test_peak_memory_does_not_grow_with_n_samples(self, tmp_path):
        """Only one block of latents, outputs and distances is alive at a
        time, so ten times the samples needs no more memory; holding all
        200k latents and outputs would add about 5 MB."""
        import tracemalloc

        cfg = write_config(tmp_path, {**TINY_TRAIN, "teacher": "ring8"})
        out = tmp_path / "o"
        assert cli.main(["train", "--config", cfg, "--out", str(out), "--iters", "1"]) == 0
        peaks = []
        for n in (20000, 200000):
            tracemalloc.start()
            try:
                code, _ = modes_report(cfg, out, out / "checkpoint_final.fdst", n, tmp_path)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert code == 0
        assert peaks[1] <= peaks[0] + 2**16, peaks

    def test_overflowing_affine_student_counts_nothing_silently(self, tmp_path):
        """A one-step affine student trained at lr 1e300 has outputs whose
        distances to the modes overflow; they are +inf, outside every ball,
        so `modes` reports no covered mode and prints no numpy warning."""
        cfg = write_config(tmp_path, {
            "teacher": "grid25", **AFFINE_EXACT, "lr_generator": 1e300, "tau": 1,
            "total_iters": 1, "metrics_interval": 0, "batch_size": 32, "time_bins": 4})
        out = str(tmp_path / "o")
        script = ("import json, pathlib, sys, warnings\n"
                  "warnings.simplefilter('default')\n"
                  "from fdistill.cli import main\n"
                  "cfg, out = sys.argv[1:]\n"
                  "codes = [main(['train', '--config', cfg, '--out', out]),\n"
                  "         main(['modes', '--config', cfg, '--out', out,\n"
                  "               '--checkpoint', out + '/checkpoint_final.fdst'])]\n"
                  "report = json.loads(pathlib.Path(out, 'modes.json').read_text())\n"
                  "print(codes, report['modes_covered'])\n")
        proc = run_python(script, [cfg, out])
        assert proc.stderr == ""
        assert proc.stdout.strip().splitlines()[-1] == "[0, 0] 0"

    @pytest.mark.parametrize("student", [{}, {"generator_kind": "affine"}],
                             ids=["mlp", "affine"])
    def test_overflowing_checkpoint_counts_nothing_silently(self, tmp_path, student):
        """A checkpoint written one step before the run aborts holds a
        generator whose outputs overflow to inf or NaN in the forward pass;
        `modes` counts none of them in a ball and prints no numpy warning."""
        cfg = write_config(tmp_path, {
            "teacher": "ring8", "lr_generator": 1e308, "total_iters": 2, "tau": 1,
            "metrics_interval": 0, "checkpoint_interval": 1, "modes": {"n_samples": 4096},
            **student})
        out = tmp_path / "o"
        assert cli.main(["train", "--config", cfg, "--out", str(out)]) == 3
        proc = run_python(WARNINGS_SHOWN_MAIN, [
            "modes", "--config", cfg, "--out", str(out),
            "--checkpoint", str(out / "checkpoint_0000001.fdst")])
        assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads((out / "modes.json").read_text())["modes_covered"] == 0


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")
class TestModesMemory:
    def test_default_modes_peak_rss_stays_small(self, tmp_path):
        """`modes` on its default 100k samples evaluates the generator and
        the coverage balls in row blocks; a one-shot batch would hold
        100k x 128 hidden activations (about 100 MB each) and peak above
        200 MB."""
        cfg = write_config(tmp_path, {**TINY_TRAIN, "teacher": "ring8"})
        out = str(tmp_path / "o")
        script = ("import json, resource, sys\n"
                  "from fdistill.cli import main\n"
                  "cfg, out = sys.argv[1:]\n"
                  "codes = [main(['train', '--config', cfg, '--out', out, '--iters', '3']),\n"
                  "         main(['modes', '--config', cfg, '--out', out,\n"
                  "               '--checkpoint', out + '/checkpoint_final.fdst'])]\n"
                  "n = json.load(open(out + '/modes.json'))['n_samples']\n"
                  "kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
                  "print(codes, n, kb)\n")
        # A process's ru_maxrss starts from the resident size of the process
        # that forked it, here the test runner (often above 200 MB); started
        # from a shell, the child reports its own peak.
        proc = run_python(script, [cfg, out], via_shell=True)
        assert proc.returncode == 0, proc.stderr
        codes, n, kb = proc.stdout.strip().splitlines()[-1].rsplit(" ", 2)
        assert (codes, n) == ("[0, 0]", "100000")
        assert int(kb) / 1024 < 120.0, f"peak RSS {int(kb) / 1024:.1f} MB"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux /proc")
class TestThreadCap:
    def test_fdistill_threads_caps_blas_pool(self, tmp_path):
        """FDISTILL_THREADS=1 alone, with no BLAS variable set, leaves the
        process with one thread after a short training run."""
        cfg = write_config(tmp_path, TINY_TRAIN)
        env = {k: v for k, v in os.environ.items() if k not in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
        env["FDISTILL_THREADS"] = "1"
        script = ("import os, sys\n"
                  "from fdistill.cli import main\n"
                  "rc = main(sys.argv[1:])\n"
                  "print(rc, len(os.listdir('/proc/self/task')))\n")
        proc = run_python(
            script, ["train", "--config", cfg, "--out", str(tmp_path / "o"), "--iters", "3"], env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == "0 1"


class TestThreadCountReruns:
    def test_every_command_is_byte_identical_across_thread_counts(self, tmp_path):
        """Each command, run through `python -m fdistill.cli` at
        FDISTILL_THREADS=1 and 2, writes the same bytes; modes.json differs
        only in the checkpoint path it echoes."""
        default = str(CONFIGS / "default.json")
        trains = {name: write_config(tmp_path, {
            **json.loads((CONFIGS / f"{name}.json").read_text()), **TINY_TRAIN,
            "teacher": "ring8"}, f"{name}.json") for name in ("ring8_gan", "ring8_js")}
        outputs = []
        for threads in ("1", "2"):
            root = tmp_path / f"threads{threads}"
            runs = [[command, "--config", default, "--out", str(root / command)]
                    for command in ("gradcheck", "variance", "table", "weightmap")]
            for name, cfg in trains.items():
                out = str(root / name)
                runs += [["train", "--config", cfg, "--out", out],
                         ["modes", "--config", cfg, "--out", out,
                          "--checkpoint", out + "/checkpoint_final.fdst"]]
            env = {**os.environ, "FDISTILL_THREADS": threads}
            for args in runs:
                proc = run_python("import runpy\n"
                                  "runpy.run_module('fdistill.cli', run_name='__main__')\n",
                                  args, env)
                assert proc.returncode == 0, (args, proc.stderr)
            files = {str(p.relative_to(root)): p.read_bytes()
                     for p in sorted(root.rglob("*")) if p.is_file()}
            for name in trains:
                report = json.loads(files[f"{name}/modes.json"])
                assert report.pop("checkpoint") == str(root / name / "checkpoint_final.fdst")
                files[f"{name}/modes.json"] = report
            outputs.append(files)
        assert sorted(outputs[0]) == sorted(outputs[1])
        assert [f for f in outputs[0] if outputs[0][f] != outputs[1][f]] == []
