"""Command-line surface: config handling, outputs, checkpoint format."""

import importlib
import json
import math
import os
import pkgutil
import struct
import subprocess
import sys
import zlib
from dataclasses import fields
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
from fdistill.errors import CheckpointError, ConfigError
from fdistill.nets import adam_init

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
    ])
    def test_mistyped_value_exits_2_with_one_line(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, {**TINY_TRAIN, key: value})
        code = cli.main(["train", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config field '{key}'")
        assert len(err.strip().splitlines()) == 1

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
        """Run keys and every command section, at its defaults, pass the schema."""
        cfg, sections = cli._load_config(path, {})
        assert cfg.to_dict() == {**RunConfig().to_dict(), **json.loads(path.read_text())}
        assert set(sections) == set(cli._section_keys())

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
        for name, keys in SECTION_KEYS.items():
            assert checked(keys, sections[name], f"{name}.") == sections[name]
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
        script = ("import sys, warnings\n"
                  "warnings.simplefilter('default')\n"
                  "from fdistill.cli import main\n"
                  "sys.exit(main(sys.argv[1:]))\n")
        proc = run_python(script, ["train", "--config", cfg, "--out", str(tmp_path / "o")])
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
        script = ("import sys, warnings\n"
                  "warnings.simplefilter('default')\n"
                  "from fdistill.cli import main\n"
                  "sys.exit(main(sys.argv[1:]))\n")
        proc = run_python(script, ["train", "--config", cfg, "--out", str(tmp_path / "o")])
        assert proc.returncode == 3, proc.stderr
        assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 2, proc.stderr
        assert lines[0].startswith("numerical abort: iteration ")
        assert lines[1].startswith("step report: StepReport(")
        assert "fdistill_loss=None" not in lines[1] and "fdistill_loss=" in lines[1]


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


class TestWeightmapCommand:
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
    """Checkpoints written before five run keys were retired echo them, each
    at the one value training now hard-wires."""

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
                                            ("ratio_at_clean", True)])
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

    def test_weight_decay_slot_written_as_zero_and_nonzero_rejected(self, tmp_path):
        path = tmp_path / "x.fdst"
        nets = self._payload()
        ckpt.save_checkpoint(path, {}, 0, nets)
        data = bytearray(path.read_bytes())
        slot = len(data) - 8 - 2 * 8 * nets[0].params.size - 8   # before the m and v moments
        assert struct.unpack_from("<d", data, slot)[0] == 0.0
        struct.pack_into("<d", data, slot, 0.01)
        path.write_bytes(with_valid_checksum(bytes(data[:-8])))
        with pytest.raises(CheckpointError, match="weight decay 0.01"):
            ckpt.load_checkpoint(path)

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

    def test_train_and_modes_load_no_oracle(self, tmp_path):
        """Mode coverage lives in `teacher`; the training loop and `modes`
        need nothing else from `oracle`, so neither loads it."""
        cfg = write_config(tmp_path, {**TINY_TRAIN, "teacher": "ring8"})
        out = str(tmp_path / "o")
        script = ("import sys\n"
                  "from fdistill.cli import main\n"
                  "cfg, out = sys.argv[1:]\n"
                  "codes = [main(['train', '--config', cfg, '--out', out, '--iters', '3'])]\n"
                  "print(codes, 'fdistill.oracle' in sys.modules)\n"
                  "codes.append(main(['modes', '--config', cfg, '--out', out,\n"
                  "                   '--checkpoint', out + '/checkpoint_final.fdst']))\n"
                  "print(codes, 'fdistill.oracle' in sys.modules)\n")
        proc = run_python(script, [cfg, out])
        assert proc.returncode == 0, proc.stderr
        printed = [line for line in proc.stdout.splitlines() if line.startswith("[")]
        assert printed == ["[0] False", "[0, 0] False"]


class TestPublicNames:
    def test_every_exported_name_resolves(self):
        """Each name in a module's `__all__`, and each lazy package export,
        exists, so a deleted definition cannot leave a stale export."""
        for info in pkgutil.iter_modules(fdistill.__path__):
            module = importlib.import_module(f"fdistill.{info.name}")
            missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
            assert not missing, (info.name, missing)
        for name, home in fdistill._EXPORTS.items():
            assert getattr(fdistill, name) is getattr(
                importlib.import_module(f"fdistill.{home}"), name)
        assert set(fdistill.__all__) == {*fdistill._EXPORTS, "__version__"}


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
