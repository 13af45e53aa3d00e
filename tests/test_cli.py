"""Config parsing, suite orchestration, report emission, exit codes."""

import inspect
import json
import os
import re
import tracemalloc

import numpy as np
import pytest

from skewlab import cli
from skewlab.grid_paths import SeedSpec
from skewlab.cli import (
    ExperimentConfig,
    UsageError,
    config_from_pairs,
    emit_report,
    main,
    parse_config_text,
    run_experiment,
)


def small_config(**overrides):
    base = dict(
        suite="skew_law", alpha="0.5", paths="4000", steps="512", seed="99",
    )
    base.update({k: str(v) for k, v in overrides.items()})
    return config_from_pairs(base)


class TestConfigParsing:
    def test_dotted_keys_and_comments(self):
        text = """
        # experiment
        suite=skew_residual
        schedule.boundaries=0,0.5
        schedule.values=0.3,0.8
        paths=2000
        steps=512,1024
        tol.sde_residual=0.5
        """
        cfg = config_from_pairs(parse_config_text(text))
        assert cfg.suite == "skew_residual"
        assert cfg.schedule().kind == "piecewise"
        assert cfg.n_steps == (512, 1024)
        assert cfg.tol("sde_residual", 0.1) == 0.5

    def test_unknown_key_rejected(self):
        with pytest.raises(UsageError):
            config_from_pairs({"volatility": "2"})

    def test_bad_value_rejected(self):
        with pytest.raises(UsageError):
            config_from_pairs({"paths": "many"})

    def test_bad_suite_rejected(self):
        with pytest.raises(UsageError):
            config_from_pairs({"suite": "arbitrage"})

    def test_bad_schedule_rejected(self):
        with pytest.raises(UsageError):
            config_from_pairs(
                {"schedule.boundaries": "0.5,0.2", "schedule.values": "0.3,0.8"}
            )

    def test_malformed_line_rejected(self):
        with pytest.raises(UsageError):
            parse_config_text("suite skew_law")

    def test_known_tolerances_are_the_ones_suites_read(self):
        read = set(re.findall(r'cfg\.tol\("(\w+)"', inspect.getsource(cli)))
        assert read == set(cli._TOLERANCES)


class TestRunExperiment:
    def test_skew_law_bundle_passes(self):
        bundle = run_experiment(small_config(paths=20000))
        names = {r.suite for r in bundle.reports}
        assert "skew_law.ks" in names
        assert all(r.passed for r in bundle.reports)
        assert bundle.exit_code == 0

    def test_identities_mesh_levels(self):
        bundle = run_experiment(
            small_config(suite="identities", steps="1024,4096", seeds="12")
        )
        monotone = [r for r in bundle.reports if r.suite.endswith(".monotone")]
        assert len(monotone) == 3
        assert {r.n_steps for r in bundle.reports} == {4096}

    def test_deterministic_modulo_timestamp(self):
        a = run_experiment(small_config())
        b = run_experiment(small_config())
        a.provenance.pop("timestamp")
        b.provenance.pop("timestamp")
        assert a.provenance == b.provenance
        assert a.reports == b.reports

    def test_hypothesis_not_met_exit_code(self):
        cfg = small_config(model="shifted_brownian")
        bundle = run_experiment(cfg)
        assert any(r.hypothesis_not_met for r in bundle.reports)
        assert bundle.exit_code == 3

    def test_failure_exit_code(self):
        # an absurdly tight tolerance forces a plain failure
        cfg = small_config()
        cfg.tolerances["sign_probability"] = 1e-12
        bundle = run_experiment(cfg)
        assert bundle.exit_code == 1


class TestEmitReport:
    def test_json_round_trip(self, tmp_path):
        bundle = run_experiment(small_config())
        (path,) = emit_report(bundle, "json", str(tmp_path))[:1]
        doc = json.loads(open(path).read())
        assert set(doc) == {"provenance", "reports"}
        for row in doc["reports"]:
            assert set(row) == {
                "suite", "statistic", "threshold", "n_paths", "n_steps",
                "seed", "pass", "detail",
            }
        assert len(doc["reports"]) == len(bundle.reports)
        for row, rep in zip(doc["reports"], bundle.reports):
            assert row["suite"] == rep.suite
            assert row["pass"] == rep.passed
            assert row["statistic"] == rep.statistic

    def test_empty_bundle_valid_json(self, tmp_path):
        from skewlab.cli import ReportBundle

        bundle = ReportBundle(reports=[], curves=[], provenance={"x": 1})
        (path,) = emit_report(bundle, "json", str(tmp_path))
        doc = json.loads(open(path).read())
        assert doc["reports"] == []

    def test_csv_layout(self, tmp_path):
        bundle = run_experiment(small_config())
        paths = emit_report(bundle, "csv", str(tmp_path))
        main_csv = [p for p in paths if p.endswith("reports.csv")][0]
        lines = open(main_csv).read().strip().split("\n")
        assert lines[0] == "suite,statistic,threshold,n_paths,n_steps,seed,pass"
        assert len(lines) == 1 + len(bundle.reports)
        curve_files = [p for p in paths if "curve_" in p]
        assert curve_files
        curve_lines = open(curve_files[0]).read().strip().split("\n")
        assert curve_lines[0] == "t,value,series"

    def test_byte_identical_reruns(self, tmp_path):
        cfg = small_config()
        outs = []
        for sub in ("a", "b"):
            bundle = run_experiment(cfg)
            bundle.provenance["timestamp"] = "fixed"
            d = tmp_path / sub
            emit_report(bundle, "json", str(d))
            outs.append(open(d / "reports.json", "rb").read())
        assert outs[0] == outs[1]


class TestMain:
    def test_list_suites(self, capsys):
        assert main(["list-suites"]) == 0
        out = capsys.readouterr().out
        assert "skew_law" in out and "all" in out
        assert out.split() == list(cli.SUITES) + ["all"]
        assert cli.SUITES == (
            "identities", "martingale", "sigma_h", "skew_law", "skew_residual", "representation"
        )

    def test_describe(self, capsys):
        assert main(["describe", "identities"]) == 0
        assert "residuals" in capsys.readouterr().out
        assert main(["describe", "all"]) == 0
        assert "every suite in order: identities, martingale" in capsys.readouterr().out
        assert main(["describe", "sigma_h"]) == 0
        assert capsys.readouterr().out == (
            "sigma_h: carried-by membership checks for X = M + A, "
            "with a Lebesgue-drift negative control\n"
        )

    def test_describe_unknown(self):
        assert main(["describe", "nonsense"]) == 2

    def test_run_with_config_file_and_override(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("suite=skew_law\npaths=4000\nsteps=512\nalpha=0.3\nseed=7\n")
        code = main(
            ["run", "--config", str(cfg), "--alpha", "0.5", "--out", str(tmp_path)]
        )
        assert code == 0
        doc = json.loads(open(tmp_path / "reports.json").read())
        assert doc["provenance"]["config"]["alpha"] == 0.5

    def test_config_not_utf8_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"suite=skew_law\n\xff\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "usage error: cannot read config:" in capsys.readouterr().err
        assert not (tmp_path / "reports.json").exists()

    def test_run_usage_error(self, tmp_path):
        assert main(["run", "--suite", "bogus", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("suite", ["skew_law", "martingale", "representation", "all"])
    def test_too_few_paths_for_statistical_suite(self, suite, tmp_path, capsys):
        code = main(["run", "--suite", suite, "--paths", "500", "--out", str(tmp_path)])
        assert code == 2
        assert "at least 1000 paths" in capsys.readouterr().err

    def test_zero_seeds_rejected(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("suite=identities\nseeds=0\nsteps=64,128\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    def test_seeds_flag(self, tmp_path, capsys):
        code = main(["run", "--suite", "identities", "--seeds", "2", "--steps", "64,128",
                     "--out", str(tmp_path)])
        assert code in (0, 1)
        doc = json.loads(open(tmp_path / "reports.json").read())
        assert doc["provenance"]["config"]["seeds"] == 2
        assert {row["n_paths"] for row in doc["reports"]} == {2}
        code = main(["run", "--suite", "identities", "--seeds", "0", "--out", str(tmp_path)])
        assert code == 2
        assert "must be positive" in capsys.readouterr().err

    def test_unwritable_out(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        code = main(["run", "--suite", "skew_law", "--paths", "1000", "--steps", "16",
                     "--out", str(taken)])
        assert code == 2
        assert "usage error: cannot write reports:" in capsys.readouterr().err

    @pytest.mark.parametrize("suite,steps", [("sigma_h", ""), ("identities", ",")])
    def test_empty_step_list_rejected(self, suite, steps, tmp_path, capsys):
        code = main(["run", "--suite", suite, "--steps", steps, "--out", str(tmp_path)])
        assert code == 2
        assert "at least one step count" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line", ["schedule.values=0.3,0.8", "schedule.boundaries=0,0.5"]
    )
    def test_half_schedule_rejected(self, line, tmp_path, capsys):
        # either half of a schedule alone is an error, not a constant alpha
        config = tmp_path / "run.cfg"
        config.write_text(f"{line}\n")
        code = main(["run", "--config", str(config), "--suite", "skew_residual",
                     "--steps", "64,128", "--seeds", "4", "--out", str(tmp_path)])
        assert code == 2
        assert "bad schedule: need one alpha value per boundary" in capsys.readouterr().err
        assert not (tmp_path / "reports.json").exists()

    @pytest.mark.parametrize("flag", [True, False])
    def test_alpha_with_schedule_rejected(self, flag, tmp_path, capsys):
        # a schedule ignores alpha, so an explicit one (flag or key) is an error
        config = tmp_path / "run.cfg"
        config.write_text("schedule.boundaries=0,0.5\nschedule.values=0.3,0.8\n"
                          + ("" if flag else "alpha=0.5\n"))
        code = main(["run", "--config", str(config), "--suite", "skew_residual",
                     "--steps", "64,128", "--seeds", "4", "--out", str(tmp_path)]
                    + (["--alpha", "0.5"] if flag else []))
        assert code == 2
        assert "alpha cannot be combined with schedule.*" in capsys.readouterr().err
        assert not (tmp_path / "reports.json").exists()

    @pytest.mark.parametrize("bound", ["nan", "inf"])
    def test_non_finite_boundary_rejected(self, bound, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(f"schedule.boundaries=0,{bound}\nschedule.values=0.3,0.8\n")
        code = main(["run", "--config", str(config), "--suite", "skew_residual",
                     "--steps", "64,128", "--seeds", "4", "--out", str(tmp_path)])
        assert code == 2
        assert "bad schedule: boundaries must be finite" in capsys.readouterr().err

    def test_too_few_paths_allowed_without_path_statistics(self):
        assert config_from_pairs({"suite": "identities", "paths": "500"}).n_paths == 500

    def test_negative_seed(self, tmp_path, capsys):
        code = main(["run", "--suite", "skew_law", "--seed", "-5", "--out", str(tmp_path)])
        assert code == 2
        assert "seed must be non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line,message",
        [
            ("tol.sde_resdual=0.2", "unknown tolerance tol.sde_resdual"),
            ("tol.sign_probability=nan", "tol.sign_probability must be finite and non-negative"),
            ("tol.drift=inf", "tol.drift must be finite and non-negative"),
            ("tol.carried_by=-0.1", "tol.carried_by must be finite and non-negative"),
            ("tol.identities=tight", "bad tolerance tol.identities=tight"),
        ],
    )
    def test_bad_tolerance_rejected(self, tmp_path, capsys, line, message):
        config = tmp_path / "run.cfg"
        config.write_text(f"suite=skew_law\n{line}\n")
        code = main(["run", "--config", str(config), "--out", str(tmp_path)])
        assert code == 2
        assert message in capsys.readouterr().err

    def test_env_var_output_dir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SKEWLAB_OUT", str(tmp_path))
        code = main(["run", "--suite", "skew_law", "--paths", "4000",
                     "--steps", "512", "--alpha", "0.5", "--seed", "99"])
        assert code == 0
        assert (tmp_path / "reports.json").exists()


#: a value, other than its default, for each key that is also a flag
FLAG_VALUES = {
    "suite": "skew_residual", "model": "shifted_brownian", "seed": "7", "paths": "500",
    "steps": "32,64", "seeds": "3", "alpha": "0.25", "out": "elsewhere", "format": "csv",
}


class TestKeyTable:
    def configs(self, tmp_path, key, value):
        """The config a run gets with ``key`` in its config file, and with
        ``key`` as a flag."""
        base = "suite=identities\nsteps=16,32\nseeds=2\n"
        keyed = tmp_path / "keyed.cfg"
        keyed.write_text(f"{base}{key}={value}\n")
        plain = tmp_path / "plain.cfg"
        plain.write_text(base)
        parser = cli._build_parser()
        return [
            cli._config_from_args(parser.parse_args(["run", "--config", str(path)] + flag))
            for path, flag in ((keyed, []), (plain, [f"--{key}", value]))
        ]

    @pytest.mark.parametrize("key", sorted(FLAG_VALUES))
    def test_flag_and_config_key_agree(self, key, tmp_path):
        by_file, by_flag = self.configs(tmp_path, key, FLAG_VALUES[key])
        assert by_file == by_flag
        field = cli._KEYS[key].field
        assert getattr(by_file, field) != getattr(ExperimentConfig(), field)
        a, b = run_experiment(by_file).provenance, run_experiment(by_flag).provenance
        a.pop("timestamp")
        b.pop("timestamp")
        assert a == b
        if cli._KEYS[key].recorded:
            assert a["config"][key] == getattr(by_file, field)

    def test_config_only_keys_recorded(self):
        pairs = {"suite": "identities", "steps": "16,32", "seeds": "2",
                 "schedule.boundaries": "0,0.5", "schedule.values": "0.3,0.8"}
        assert {key for key in cli._KEYS if key not in cli._FLAGS} == {
            "schedule.boundaries", "schedule.values"
        }
        config = run_experiment(config_from_pairs(pairs)).provenance["config"]
        assert list(config["schedule.boundaries"]) == [0.0, 0.5]
        assert list(config["schedule.values"]) == [0.3, 0.8]

    def test_run_help_lists_the_table_flags(self, capsys):
        assert main(["run", "--help"]) == 0
        flags = set(re.findall(r"--([\w.]+)", capsys.readouterr().out))
        assert flags == set(FLAG_VALUES) | {"config", "help"}
        assert set(cli._FLAGS) == set(FLAG_VALUES)


#: path-length float arrays of 8 (n + 1) bytes that one level of a long-row
#: suite may hold at its peak, above the curves it returns: the path, the
#: grid's times and four working arrays, with room for the int8 and boolean
#: scratch.  A copy kept per intermediate, or an Ito sum or local time
#: computed twice, takes a level past it.
LONG_ROW_ARRAYS = 7


@pytest.mark.parametrize("suite, extra", [
    ("identities", {}),
    ("skew_residual", {"schedule.boundaries": "0,0.5", "schedule.values": "0.3,0.8"}),
])
def test_long_row_suite_working_set(suite, extra):
    n = 2**16
    cfg = config_from_pairs(dict(extra, suite=suite, steps=str(n), seeds="1", seed="7"))
    runner = cli.SUITE_RUNNERS[suite]
    runner(cfg, SeedSpec(7))  # first calls fill the library's small caches
    tracemalloc.start()
    try:
        _, curves = runner(cfg, SeedSpec(7))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    arrays = (peak - held) / (8 * (n + 1))
    assert arrays <= LONG_ROW_ARRAYS, f"{suite} peaked at {arrays:.2f} arrays above its curves"


#: path-length float arrays that the sigma_h suite may hold at its peak at
#: 2**16 steps, where each row block is one path: the block being read (8.66
#: measured, 6.66 with no block drawn ahead, as on one CPU) with the W and D
#: rows of the next block, which a worker draws meanwhile.  A second block
#: drawn ahead takes it past the bound.
SIGMA_H_ARRAYS = 9


def test_sigma_h_working_set(monkeypatch):
    # four usable CPUs, so the reader's own worker count sets the look-ahead
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
    n = 2**16
    cfg = config_from_pairs(dict(suite="sigma_h", steps=str(n), seeds="3", seed="7"))
    runner = cli.SUITE_RUNNERS["sigma_h"]
    runner(cfg, SeedSpec(7))  # first calls fill the library's small caches
    tracemalloc.start()
    try:
        runner(cfg, SeedSpec(7))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    arrays = (peak - held) / (8 * (n + 1))
    assert arrays <= SIGMA_H_ARRAYS, f"sigma_h peaked at {arrays:.2f} arrays"
