"""End-to-end command line tests (subprocess based)."""

from __future__ import annotations

import csv
import json
import os
import platform
import subprocess
import sys
from dataclasses import asdict, replace

import numpy as np
import pytest

from bibuq.datamodel import write_citation_error_sample, write_doctype_confusion
from bibuq.errormodels import DirichletPosterior, McmcConfig, NegBinModelSpec
from bibuq.exercises import (
    ScenarioConfig,
    generate_scenario,
    synthesize_training_sample,
    synthetic_confusion_table,
)
from bibuq.simulation import PropagationConfig
from bibuq.datamodel import PublicationSet, load_publications, write_publications
from bibuq import cli
from bibuq.cli import main
from helpers import shifted_apart

FAST_FIT = ["--chains", "2", "--warmup", "600", "--keep", "500", "--seed", "5"]


def run_cli(*argv: str, cwd=None, env=None) -> subprocess.CompletedProcess:
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "bibuq.cli", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=full_env,
    )


def assert_same_data_files(first, second) -> None:
    """Both runs wrote the same files, byte for byte, manifests aside."""
    names = sorted(path.name for path in first.iterdir() if path.name != "run_manifest.json")
    assert names == sorted(
        path.name for path in second.iterdir() if path.name != "run_manifest.json"
    )
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Input files plus fitted models shared by the command tests."""
    root = tmp_path_factory.mktemp("cli")
    write_citation_error_sample(synthesize_training_sample(seed=0), root / "sample.csv")
    write_doctype_confusion(synthetic_confusion_table(), root / "confusion.csv")
    units, reference = generate_scenario(
        ScenarioConfig(
            unit_sizes={"A": 25, "B": 30},
            unit_locations={"A": 0.9, "B": 1.1},
            reference_size=120,
            reference_location=1.0,
            seed=17,
        )
    )
    write_publications(units, root / "pubs.csv")
    write_publications([reference], root / "ref.csv")

    for direction, name in (("second-kind", "models2"), ("first-kind", "models1")):
        proc = run_cli(
            "fit",
            "--citation-sample",
            str(root / "sample.csv"),
            "--doctype-confusion",
            str(root / "confusion.csv"),
            "--direction",
            direction,
            *FAST_FIT,
            "--out",
            str(root / name),
        )
        assert proc.returncode == 0, proc.stderr
    return root


class TestHelpAndVersion:
    def test_top_level_help(self):
        proc = run_cli("--help")
        assert proc.returncode == 0
        assert "fit" in proc.stdout and "propagate" in proc.stdout

    @pytest.mark.parametrize(
        "sub", ["fit", "propagate", "inject", "exercise", "report", "stats"]
    )
    def test_subcommand_help(self, sub):
        proc = run_cli(sub, "--help")
        assert proc.returncode == 0
        assert sub in proc.stdout

    @pytest.mark.parametrize("sub", ["propagate", "inject", "exercise"])
    def test_workers_help_states_its_default(self, sub):
        # Each command resolves --workers, then $BIBUQ_WORKERS, then 1.
        proc = run_cli(sub, "--help")
        assert proc.returncode == 0
        text = " ".join(proc.stdout.split())
        assert "--workers WORKERS worker processes (default $BIBUQ_WORKERS or 1)" in text

    def test_version(self):
        proc = run_cli("--version")
        assert proc.returncode == 0
        assert "0.1.0" in proc.stdout

    def test_no_arguments_is_usage_error(self):
        proc = run_cli()
        assert proc.returncode == 2

    @pytest.mark.parametrize(
        "argv",
        [["-c", "import bibuq"], ["-m", "bibuq.cli", "--help"]],
        ids=["import", "cli-help"],
    )
    def test_scipy_is_not_imported(self, argv):
        # numpy is the one runtime dependency; scipy is for the tests only.
        # -X importtime lists every module the process imports on stderr.
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", *argv], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()]
        assert "bibuq.errormodels" in imported
        assert not [name for name in imported if name.split(".")[0] == "scipy"]

    @pytest.mark.parametrize(
        "argv",
        [["-c", "import bibuq"], ["-m", "bibuq.cli", "--help"]],
        ids=["import", "cli-help"],
    )
    def test_multiprocessing_is_imported_only_for_a_pool(self, argv):
        # propagate imports it when it opens a worker pool.
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", *argv], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()]
        assert "bibuq.simulation" in imported
        assert not [name for name in imported if name.split(".")[0] == "multiprocessing"]

    def test_propagation_leaves_numpy_ma_unimported(self, tmp_path):
        # np.median and np.quantile import numpy.ma on their first call;
        # the replicate summaries compute the same values without them.
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "bibuq.cli", "exercise", "A3",
             "--iterations", "20", "--out", str(tmp_path / "out")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()]
        assert "bibuq.simulation" in imported
        assert (tmp_path / "out" / "exercise.json").is_file()
        assert not [name for name in imported if name.split(".")[:2] == ["numpy", "ma"]]


class TestStats:
    def test_embedded_audit(self):
        proc = run_cli("stats")
        assert proc.returncode == 0
        assert "372" in proc.stdout
        assert "6120" in proc.stdout
        assert "255" in proc.stdout

    def test_sample_file(self, workdir):
        proc = run_cli("stats", str(workdir / "sample.csv"))
        assert proc.returncode == 0
        assert "records:" in proc.stdout
        assert "pearson r:" in proc.stdout

    def test_missing_file(self):
        proc = run_cli("stats", "no-such-file.csv")
        assert proc.returncode == 2

    def test_non_utf8_sample_is_usage_error(self, tmp_path):
        sample = tmp_path / "bad.csv"
        sample.write_bytes(b"\xff\xfeobserved_citations,omitted_citations\n")
        proc = run_cli("stats", str(sample))
        assert proc.returncode == 2
        assert f"error: {sample}: not a UTF-8 CSV file" in proc.stderr
        assert "internal error" not in proc.stderr


class TestFit:
    def test_outputs_and_manifest(self, workdir):
        out = workdir / "models2"
        posterior = json.loads((out / "citation_posterior.json").read_text())
        assert posterior["model"]
        assert (out / "doctype_posterior.json").exists()
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["command"] == "fit"
        assert manifest["version"] == "0.1.0"
        assert str(workdir / "sample.csv") in manifest["inputs"]
        assert "citation_posterior.json" in manifest["outputs"]

    def test_rerun_is_byte_identical(self, workdir, tmp_path):
        args = [
            "fit",
            "--citation-sample",
            str(workdir / "sample.csv"),
            *FAST_FIT,
        ]
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert run_cli(*args, "--out", str(a)).returncode == 0
        assert run_cli(*args, "--out", str(b)).returncode == 0
        assert (a / "citation_posterior.json").read_bytes() == (
            b / "citation_posterior.json"
        ).read_bytes()

    def test_strict_flags_non_convergence(self, workdir, tmp_path, monkeypatch, capsys):
        # A fit whose chains do not mix, made so on purpose.
        real_fit = cli.fit_citation_error_model

        def unconverged_fit(*args, **kwargs):
            posterior = real_fit(*args, **kwargs)
            return replace(posterior, draws=shifted_apart(posterior.draws))

        monkeypatch.setattr(cli, "fit_citation_error_model", unconverged_fit)
        argv = ["fit", "--citation-sample", str(workdir / "sample.csv"), *FAST_FIT]
        assert main([*argv, "--out", str(tmp_path / "lenient")]) == 0
        assert main([*argv, "--strict", "--out", str(tmp_path / "strict")]) == 3
        assert "convergence check failed and --strict is set" in capsys.readouterr().err

    def test_requires_some_input(self, tmp_path):
        proc = run_cli("fit", "--out", str(tmp_path / "x"))
        assert proc.returncode == 2

    def test_manifest_reproduces_run(self, workdir, tmp_path):
        first = tmp_path / "first"
        proc = run_cli(
            "fit",
            "--citation-sample",
            str(workdir / "sample.csv"),
            "--doctype-confusion",
            str(workdir / "confusion.csv"),
            "--direction",
            "first-kind",
            "--pseudocount",
            "0.5",
            *FAST_FIT,
            "--out",
            str(first),
        )
        assert proc.returncode == 0, proc.stderr
        second = tmp_path / "second"
        proc = run_cli("fit", "--config", str(first / "run_manifest.json"), "--out", str(second))
        assert proc.returncode == 0, proc.stderr
        assert_same_data_files(first, second)
        assert json.loads((first / "run_manifest.json").read_text())["config"] == json.loads(
            (second / "run_manifest.json").read_text()
        )["config"]


def test_flagless_manifests_record_library_defaults(workdir, tmp_path, monkeypatch):
    monkeypatch.delenv("BIBUQ_WORKERS", raising=False)
    models = tmp_path / "models"
    proc = run_cli(
        "fit",
        "--citation-sample",
        str(workdir / "sample.csv"),
        "--doctype-confusion",
        str(workdir / "confusion.csv"),
        "--out",
        str(models),
    )
    assert proc.returncode == 0, proc.stderr
    config = json.loads((models / "run_manifest.json").read_text())["config"]
    assert config == {
        **asdict(McmcConfig()),
        "direction": NegBinModelSpec.direction,
        "pseudocount": DirichletPosterior.pseudocount,
        "citation_sample": str(workdir / "sample.csv"),
        "doctype_confusion": str(workdir / "confusion.csv"),
    }

    out = tmp_path / "prop"
    proc = run_cli(
        "propagate",
        "--pubs",
        str(workdir / "pubs.csv"),
        "--citation-model",
        str(models / "citation_posterior.json"),
        "--doctype-model",
        str(models / "doctype_posterior.json"),
        "--out",
        str(out),
    )
    assert proc.returncode == 0, proc.stderr
    config = json.loads((out / "run_manifest.json").read_text())["config"]
    defaults = asdict(PropagationConfig())
    defaults["channels"] = sorted(defaults["channels"])
    assert {key: config[key] for key in defaults} == defaults

    out = tmp_path / "ex"
    proc = run_cli("exercise", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    config = json.loads((out / "run_manifest.json").read_text())["config"]
    assert config["iterations"] == PropagationConfig.iterations
    assert config["seed"] == PropagationConfig.seed
    assert config["workers"] == PropagationConfig.workers


class TestWorkersSetting:
    def test_flag_wins_over_malformed_env(self):
        proc = run_cli(
            "exercise", "2", "--iterations", "10", "--workers", "1",
            env={"BIBUQ_WORKERS": "abc"},
        )
        assert proc.returncode == 0, proc.stderr

    def test_config_wins_over_malformed_env(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"workers": 1, "iterations": 10}))
        proc = run_cli("exercise", "2", "--config", str(config), env={"BIBUQ_WORKERS": "abc"})
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("raw", ["abc", "0", "-2"])
    def test_env_must_be_a_positive_integer(self, raw, tmp_path):
        for argv in (
            ["exercise", "2", "--iterations", "10"],
            ["propagate", "--pubs", "pubs.csv", "--out", str(tmp_path / "x")],
        ):
            proc = run_cli(*argv, env={"BIBUQ_WORKERS": raw})
            assert proc.returncode == 2
            assert "BIBUQ_WORKERS must be" in proc.stderr

    def test_workers_flag_below_one_is_rejected(self, workdir, tmp_path):
        proc = run_cli(
            "propagate",
            "--pubs",
            str(workdir / "pubs.csv"),
            "--citation-model",
            str(workdir / "models2" / "citation_posterior.json"),
            "--workers",
            "0",
            "--out",
            str(tmp_path / "x"),
        )
        assert proc.returncode == 2
        assert "workers must be >= 1" in proc.stderr


class TestPropagate:
    def test_end_to_end(self, workdir, tmp_path):
        out = tmp_path / "prop"
        proc = run_cli(
            "propagate",
            "--pubs",
            str(workdir / "pubs.csv"),
            "--reference",
            str(workdir / "ref.csv"),
            "--citation-model",
            str(workdir / "models2" / "citation_posterior.json"),
            "--doctype-model",
            str(workdir / "models2" / "doctype_posterior.json"),
            "--iterations",
            "60",
            "--seed",
            "3",
            "--out",
            str(out),
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads((out / "report.json").read_text())
        assert sorted(report["units"]) == ["A", "B"]
        assert report["direction"] == "second-kind"
        assert (out / "plot_summary.csv").exists()
        assert (out / "plot_uncertainty.csv").exists()
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["command"] == "propagate"
        assert manifest["config"]["iterations"] == 60

    @pytest.mark.parametrize("key_mode", ["doctype", "doctype-year-field"])
    @pytest.mark.parametrize("normalization", [[], ["--reference-only-normalization"]])
    def test_reference_rows_under_several_units(self, workdir, tmp_path, key_mode, normalization):
        # The same reference rows, in the same order, under three unit
        # names or under one.  Each unit meets the field labels in
        # another order, and the last one adds a label.
        units, reference = generate_scenario(
            ScenarioConfig(
                unit_sizes={"A": 20, "B": 25},
                unit_locations={"A": 0.9, "B": 1.1},
                reference_size=90,
                reference_location=1.0,
                seed=23,
            )
        )
        def field(k):
            if k >= 60:
                return ("math", None, "bio")[k % 3]
            return ("bio", "chem", None, "phys", "geo")[k % 7 % 5]

        def labelled(pubs, unit_of):
            return [
                replace(pub, unit=unit_of(k), year=2010 + k % 2, field=field(k))
                for k, pub in enumerate(pubs)
            ]

        unit_pubs = [labelled(u, lambda k, name=u.name: name) for u in units]
        write_publications([PublicationSet(u.name, p) for u, p in zip(units, unit_pubs)],
                           tmp_path / "pubs.csv")
        split = labelled(reference, lambda k: f"R{k // 30}")
        write_publications([PublicationSet("all", split)], tmp_path / "split.csv")
        whole = labelled(reference, lambda k: "reference")
        write_publications([PublicationSet("reference", whole)], tmp_path / "whole.csv")
        assert len(load_publications(tmp_path / "split.csv")) == 3

        reports = []
        for name in ("split", "whole"):
            out = tmp_path / f"out-{name}"
            argv = [
                "propagate",
                "--pubs", str(tmp_path / "pubs.csv"),
                "--reference", str(tmp_path / f"{name}.csv"),
                "--citation-model", str(workdir / "models2" / "citation_posterior.json"),
                "--doctype-model", str(workdir / "models2" / "doctype_posterior.json"),
                "--key-mode", key_mode,
                *normalization,
                "--iterations", "40",
                "--seed", "6",
                "--out", str(out),
            ]
            assert main(argv) == 0
            reports.append((out / "report.json").read_bytes())
        assert reports[0] == reports[1]

    def test_empty_reference_file_rejected(self, workdir, tmp_path):
        # A header and no rows: a usage error naming the file, not a crash.
        empty = tmp_path / "empty_ref.csv"
        write_publications([], empty)
        proc = run_cli(
            "propagate",
            "--pubs", str(workdir / "pubs.csv"),
            "--reference", str(empty),
            "--doctype-model", str(workdir / "models2" / "doctype_posterior.json"),
            "--channels", "doctypes",
            "--iterations", "5",
            "--out", str(tmp_path / "out"),
        )
        assert proc.returncode == 2, proc.stderr
        assert str(empty) in proc.stderr
        assert "no publications" in proc.stderr

    def test_worker_count_invariance(self, workdir, tmp_path):
        outs = []
        for label, workers in (("w1", "1"), ("w2", "2"), ("w8", "8")):
            out = tmp_path / label
            proc = run_cli(
                "propagate",
                "--pubs",
                str(workdir / "pubs.csv"),
                "--reference",
                str(workdir / "ref.csv"),
                "--citation-model",
                str(workdir / "models2" / "citation_posterior.json"),
                "--doctype-model",
                str(workdir / "models2" / "doctype_posterior.json"),
                "--iterations",
                "40",
                "--seed",
                "4",
                "--workers",
                workers,
                "--out",
                str(out),
            )
            assert proc.returncode == 0, proc.stderr
            outs.append((out / "report.json").read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_manifest_reproduces_run(self, workdir, tmp_path):
        first = tmp_path / "first"
        base_args = [
            "propagate",
            "--pubs",
            str(workdir / "pubs.csv"),
            "--reference",
            str(workdir / "ref.csv"),
            "--citation-model",
            str(workdir / "models2" / "citation_posterior.json"),
            "--doctype-model",
            str(workdir / "models2" / "doctype_posterior.json"),
            "--channels",
            "citations",
            "--iterations",
            "30",
            "--seed",
            "12",
        ]
        assert run_cli(*base_args, "--out", str(first)).returncode == 0
        second = tmp_path / "second"
        proc = run_cli(
            "propagate",
            "--config",
            str(first / "run_manifest.json"),
            "--out",
            str(second),
        )
        assert proc.returncode == 0, proc.stderr
        assert_same_data_files(first, second)

    def test_manifest_records_environment_and_grouping(self, workdir, tmp_path):
        out = tmp_path / "prop"
        proc = run_cli(
            "propagate",
            "--pubs",
            str(workdir / "pubs.csv"),
            "--reference",
            str(workdir / "ref.csv"),
            "--citation-model",
            str(workdir / "models2" / "citation_posterior.json"),
            "--channels",
            "citations",
            "--iterations",
            "20",
            "--out",
            str(out),
        )
        assert proc.returncode == 0, proc.stderr
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["environment"] == {
            "python": platform.python_version(),
            "numpy": np.__version__,
        }
        run = manifest["propagation"]
        assert run["worker_processes"] == 1
        assert run["publications"] == 25 + 30 + 120
        assert run["grouped_draws"] is True
        assert run["exchangeable_groups"] < run["publications"]
        assert "parameter_sharing" not in manifest["config"]
        report = (out / "report.json").read_text()
        for key in ("environment", "propagation", "exchangeable_groups", "numpy"):
            assert key not in report

    def test_manifest_records_columns_and_stage_timings(self, workdir, tmp_path):
        runs = [tmp_path / "first", tmp_path / "second"]
        for out in runs:
            proc = run_cli(
                "propagate",
                "--pubs",
                str(workdir / "pubs.csv"),
                "--reference",
                str(workdir / "ref.csv"),
                "--citation-model",
                str(workdir / "models2" / "citation_posterior.json"),
                "--channels",
                "citations",
                "--iterations",
                "20",
                "--out",
                str(out),
            )
            assert proc.returncode == 0, proc.stderr
        run = json.loads((runs[0] / "run_manifest.json").read_text())["propagation"]
        assert run["grouped_draws"] is True
        assert run["kernel_columns"] == run["exchangeable_groups"]  # one column per group
        assert sorted(run["timings"]) == ["kernel", "observed", "summaries", "workspace"]
        assert all(seconds >= 0.0 for seconds in run["timings"].values())
        # The timings differ from run to run; the data files do not.
        assert_same_data_files(runs[0], runs[1])
        report = (runs[0] / "report.json").read_text()
        for key in ("kernel_columns", "timings", "workspace"):
            assert key not in report

    def test_manifest_records_kernel_bins(self, workdir, tmp_path):
        # Both channels, drawn per group: the kernel scores fewer bins than
        # it draws columns, and only the manifest says how many.
        out = tmp_path / "out"
        proc = run_cli(
            "propagate",
            "--pubs", str(workdir / "pubs.csv"),
            "--reference", str(workdir / "ref.csv"),
            "--citation-model", str(workdir / "models2" / "citation_posterior.json"),
            "--doctype-model", str(workdir / "models2" / "doctype_posterior.json"),
            "--iterations", "20",
            "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        run = json.loads((out / "run_manifest.json").read_text())["propagation"]
        assert run["grouped_draws"] is True
        assert 0 < run["kernel_bins"] < run["kernel_columns"]
        # 20 iterations fit one block of BLOCK_BUDGET // columns.
        assert run["kernel_block_size"] > 20 and run["kernel_blocks"] == 1
        report = (out / "report.json").read_text()
        for key in ("kernel_bins", "kernel_block_size", "kernel_blocks"):
            assert key not in report

    def test_replayed_parameter_sharing(self, workdir, tmp_path):
        first = tmp_path / "first"
        args = [
            "propagate",
            "--pubs",
            str(workdir / "pubs.csv"),
            "--reference",
            str(workdir / "ref.csv"),
            "--citation-model",
            str(workdir / "models2" / "citation_posterior.json"),
            "--channels",
            "citations",
            "--iterations",
            "20",
            "--seed",
            "6",
        ]
        assert run_cli(*args, "--out", str(first)).returncode == 0
        proc = run_cli(*args, "--parameter-sharing", "iteration", "--out", str(tmp_path / "flag"))
        assert proc.returncode == 2
        replay = tmp_path / "replay"
        proc = run_cli(
            "propagate", "--config", str(first / "run_manifest.json"), "--out", str(replay)
        )
        assert proc.returncode == 0, proc.stderr
        assert (replay / "report.json").read_bytes() == (first / "report.json").read_bytes()
        # The removed setting is an unknown key, whatever its value.
        manifest = json.loads((first / "run_manifest.json").read_text())
        for sharing in ("iteration", "publication"):
            manifest["config"]["parameter_sharing"] = sharing
            path = tmp_path / f"{sharing}.json"
            path.write_text(json.dumps(manifest))
            out = tmp_path / sharing
            proc = run_cli("propagate", "--config", str(path), "--out", str(out))
            assert proc.returncode == 2, proc.stderr
            assert "unknown config key 'parameter_sharing'" in proc.stderr
            assert not out.exists()

    def test_reference_only_normalization_survives_replay(self, workdir, tmp_path):
        base_args = [
            "propagate",
            "--pubs",
            str(workdir / "pubs.csv"),
            "--reference",
            str(workdir / "ref.csv"),
            "--citation-model",
            str(workdir / "models2" / "citation_posterior.json"),
            "--doctype-model",
            str(workdir / "models2" / "doctype_posterior.json"),
            "--iterations",
            "25",
            "--seed",
            "9",
        ]
        pooled = tmp_path / "pooled"
        ref_only = tmp_path / "ref_only"
        replay = tmp_path / "replay"
        assert run_cli(*base_args, "--out", str(pooled)).returncode == 0
        assert (
            run_cli(
                *base_args, "--reference-only-normalization", "--out", str(ref_only)
            ).returncode
            == 0
        )
        assert (pooled / "report.json").read_bytes() != (ref_only / "report.json").read_bytes()
        proc = run_cli(
            "propagate",
            "--config",
            str(ref_only / "run_manifest.json"),
            "--out",
            str(replay),
        )
        assert proc.returncode == 0, proc.stderr
        assert (replay / "report.json").read_bytes() == (ref_only / "report.json").read_bytes()
        # The choice has one config name, pooled_normalization; the
        # inverted spelling is an unknown key, also next to the flag.
        config = json.loads((ref_only / "run_manifest.json").read_text())["config"]
        for legacy, flag in ((True, []), (False, []), (False, ["--reference-only-normalization"])):
            path = tmp_path / "legacy.json"
            path.write_text(json.dumps({**config, "reference_only_normalization": legacy}))
            out = tmp_path / f"legacy-{legacy}-{len(flag)}"
            proc = run_cli("propagate", "--config", str(path), *flag, "--out", str(out))
            assert proc.returncode == 2, proc.stderr
            assert "unknown config key 'reference_only_normalization'" in proc.stderr
            assert not out.exists()

    def test_dump_items(self, workdir, tmp_path):
        out = tmp_path / "dump"
        proc = run_cli(
            "propagate",
            "--pubs",
            str(workdir / "pubs.csv"),
            "--reference",
            str(workdir / "ref.csv"),
            "--citation-model",
            str(workdir / "models2" / "citation_posterior.json"),
            "--doctype-model",
            str(workdir / "models2" / "doctype_posterior.json"),
            "--iterations",
            "10",
            "--dump-items",
            "items.csv",
            "--out",
            str(out),
        )
        assert proc.returncode == 0, proc.stderr
        lines = (out / "items.csv").read_text().strip().splitlines()
        assert lines[0] == "iteration,publication_id,citations,doctype"
        assert len(lines) == 1 + 10 * (25 + 30)
        assert (
            f"note: writing 550 item rows (10 iterations x 55 unit publications) "
            f"to {out / 'items.csv'}"
        ) in proc.stderr.splitlines()

    def test_env_var_sets_default_workers(self, workdir, tmp_path):
        out = tmp_path / "envw"
        proc = run_cli(
            "propagate",
            "--pubs",
            str(workdir / "pubs.csv"),
            "--reference",
            str(workdir / "ref.csv"),
            "--citation-model",
            str(workdir / "models2" / "citation_posterior.json"),
            "--doctype-model",
            str(workdir / "models2" / "doctype_posterior.json"),
            "--iterations",
            "10",
            "--out",
            str(out),
            env={"BIBUQ_WORKERS": "2"},
        )
        assert proc.returncode == 0, proc.stderr
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["config"]["workers"] == 2

    def test_missing_pubs_is_usage_error(self, tmp_path):
        proc = run_cli("propagate", "--out", str(tmp_path / "x"))
        assert proc.returncode == 2

    @pytest.mark.parametrize(
        "flag", ["--pubs", "--reference", "--citation-model", "--doctype-model"]
    )
    def test_non_utf8_input_is_usage_error(self, workdir, tmp_path, capsys, flag):
        bad = tmp_path / "bad"
        bad.write_bytes(b"\xff\xfe{}\n")
        inputs = {
            "--pubs": workdir / "pubs.csv",
            "--reference": workdir / "ref.csv",
            "--citation-model": workdir / "models2" / "citation_posterior.json",
            "--doctype-model": workdir / "models2" / "doctype_posterior.json",
            flag: bad,
        }
        argv = [text for pair in inputs.items() for text in map(str, pair)]
        assert main(["propagate", *argv, "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert f"error: {bad}: not a " in err
        assert "internal error" not in err

    @pytest.mark.parametrize(
        "flag, key, edit, message",
        [
            (
                "--doctype-model",
                "concentrations",
                lambda v: "abc",
                "'concentrations' must be a rectangular array of numbers",
            ),
            (
                "--doctype-model",
                "concentrations",
                lambda v: [[1, 2], [3]],
                "'concentrations' must be a rectangular array of numbers",
            ),
            (
                "--doctype-model",
                "concentrations",
                lambda v: [[float("nan")] + v[0][1:]] + v[1:],
                "concentrations must be finite",
            ),
            (
                "--citation-model",
                "draws",
                lambda v: [[1, 2]],
                "draws must have shape (chains, kept, 3)",
            ),
            (
                "--citation-model",
                "draws",
                lambda v: [[[float("nan")] + row[1:] for row in v[0]]] + v[1:],
                "draws must be finite",
            ),
            (
                "--doctype-model",
                "pseudocount",
                lambda v: "abc",
                "pseudocount must be a finite number >= 0, got 'abc'",
            ),
            (
                "--citation-model",
                "acceptance_rates",
                lambda v: 5,
                "acceptance_rates must be empty or one number in [0, 1] per chain",
            ),
        ],
        ids=[
            "doctype-string",
            "doctype-ragged",
            "doctype-nan",
            "citation-2-d",
            "citation-nan",
            "doctype-pseudocount",
            "citation-acceptance-rates",
        ],
    )
    def test_malformed_posterior_values_are_usage_errors(
        self, workdir, tmp_path, capsys, flag, key, edit, message
    ):
        channel, name = {
            "--citation-model": ("citations", "citation_posterior.json"),
            "--doctype-model": ("doctypes", "doctype_posterior.json"),
        }[flag]
        payload = json.loads((workdir / "models2" / name).read_text())
        payload[key] = edit(payload[key])
        bad = tmp_path / name
        bad.write_text(json.dumps(payload))
        out = tmp_path / "out"
        argv = ["--pubs", str(workdir / "pubs.csv"), flag, str(bad), "--channels", channel]
        assert main(["propagate", *argv, "--iterations", "5", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: {bad}: {message}" in err
        assert "internal error" not in err
        assert not (out / "report.json").exists()

    def test_field_over_the_csv_limit_is_usage_error(self, tmp_path, capsys):
        pubs = tmp_path / "pubs.csv"
        long_id = "x" * (csv.field_size_limit() + 1)
        pubs.write_text(f'id,unit,doctype,year,field,citations\n"{long_id}",A,article,2010,,3\n')
        assert main(["propagate", "--pubs", str(pubs), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert f"error: {pubs}: not a UTF-8 CSV file" in err
        assert "field larger than field limit" in err

    def test_unknown_channel_is_usage_error(self, workdir, tmp_path):
        proc = run_cli(
            "propagate",
            "--pubs",
            str(workdir / "pubs.csv"),
            "--citation-model",
            str(workdir / "models2" / "citation_posterior.json"),
            "--doctype-model",
            str(workdir / "models2" / "doctype_posterior.json"),
            "--channels",
            "citations,nonsense",
            "--out",
            str(tmp_path / "x"),
        )
        assert proc.returncode == 2

    def test_wrong_direction_model_is_usage_error(self, workdir, tmp_path):
        proc = run_cli(
            "propagate",
            "--pubs",
            str(workdir / "pubs.csv"),
            "--citation-model",
            str(workdir / "models1" / "citation_posterior.json"),
            "--doctype-model",
            str(workdir / "models1" / "doctype_posterior.json"),
            "--out",
            str(tmp_path / "x"),
        )
        assert proc.returncode == 2


class TestInject:
    def test_end_to_end(self, workdir, tmp_path):
        out = tmp_path / "inj"
        proc = run_cli(
            "inject",
            "--pubs",
            str(workdir / "pubs.csv"),
            "--reference",
            str(workdir / "ref.csv"),
            "--citation-model",
            str(workdir / "models1" / "citation_posterior.json"),
            "--doctype-model",
            str(workdir / "models1" / "doctype_posterior.json"),
            "--iterations",
            "40",
            "--seed",
            "6",
            "--out",
            str(out),
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads((out / "report.json").read_text())
        assert report["direction"] == "first-kind"
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["command"] == "inject"


    def test_manifest_reproduces_run(self, workdir, tmp_path, monkeypatch):
        monkeypatch.delenv("BIBUQ_WORKERS", raising=False)
        first = tmp_path / "first"
        models = workdir / "models1"
        argv = [
            "inject",
            "--pubs",
            str(workdir / "pubs.csv"),
            "--citation-model",
            str(models / "citation_posterior.json"),
            "--doctype-model",
            str(models / "doctype_posterior.json"),
            "--channels",
            "citations",
            "--iterations",
            "20",
            "--seed",
            "8",
        ]
        assert main([*argv, "--out", str(first)]) == 0
        second = tmp_path / "second"
        assert main(["inject", "--config", str(first / "run_manifest.json"), "--out", str(second)]) == 0
        assert_same_data_files(first, second)


@pytest.mark.parametrize("command, models", [("propagate", "models2"), ("inject", "models1")])
@pytest.mark.parametrize(
    "edit, status",
    [("shifted, stored converged", 3), ("shifted, stored null", 3), ("unedited", 0)],
)
def test_strict_judges_the_loaded_draws(workdir, tmp_path, capsys, command, models, edit, status):
    # --strict on a loaded posterior diagnoses its draws, whatever its
    # stored "diagnostics" block says.
    path = workdir / models / "citation_posterior.json"
    if edit != "unedited":
        payload = json.loads(path.read_text())
        payload["draws"] = shifted_apart(payload["draws"]).tolist()
        payload["diagnostics"] = {**payload["diagnostics"], "converged": True}
        if edit.endswith("null"):
            payload["diagnostics"] = None
        path = tmp_path / "citation_posterior.json"
        path.write_text(json.dumps(payload))
    argv = [command, "--pubs", str(workdir / "pubs.csv"), "--citation-model", str(path)]
    argv += ["--channels", "citations", "--iterations", "5", "--strict"]
    assert main([*argv, "--out", str(tmp_path / "out")]) == status
    failed = "loaded citation model failed convergence and --strict is set"
    assert (failed in capsys.readouterr().err) == (status == 3)


@pytest.mark.parametrize(
    "edit, message",
    [
        ("fixed_slope", "fixed_slope is 0.0, but the draws hold other values"),
        ("chains", "config says 5 chains x 500 kept, but the draws hold 2 x 500"),
    ],
)
def test_strict_refuses_draws_their_file_misdescribes(workdir, tmp_path, capsys, edit, message):
    # A file pinning the slope while its slope draws vary, or whose config
    # names another chain count than its draws hold, is an input error.
    payload = json.loads((workdir / "models2" / "citation_posterior.json").read_text())
    if edit == "fixed_slope":
        payload["spec"]["fixed_slope"] = 0.0
    else:
        payload["config"]["chains"] = 5
    path = tmp_path / "citation_posterior.json"
    path.write_text(json.dumps(payload))
    argv = ["propagate", "--pubs", str(workdir / "pubs.csv"), "--citation-model", str(path)]
    argv += ["--channels", "citations", "--iterations", "5", "--strict"]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    assert f"{path}: {message}" in capsys.readouterr().err


# Config-file values of the wrong type, per command: (command, key, value).
# Each must exit 2 with an error naming the key, before any work is done.
_WRONG_TYPES = [
    ("exercise", "iterations", "40"),
    ("exercise", "iterations", 40.0),
    ("exercise", "iterations", True),
    ("exercise", "seed", "3"),
    ("exercise", "seed", None),
    ("exercise", "workers", True),
    ("exercise", "workers", "2"),
    ("exercise", "citation_sample", 5),
    ("propagate", "iterations", "40"),
    ("propagate", "seed", 1.5),
    ("propagate", "workers", [1]),
    ("propagate", "pooled_normalization", "no"),
    ("propagate", "pooled_normalization", 1),
    ("propagate", "reference_only_normalization", 0),
    ("propagate", "channels", 3),
    ("propagate", "channels", ["citations", 1]),
    ("propagate", "channels", None),
    ("propagate", "key_mode", 0),
    ("propagate", "pubs", ["pubs.csv"]),
    ("inject", "dump_items", True),
    ("fit", "chains", "2"),
    ("fit", "target_acceptance", "0.3"),
    ("fit", "pseudocount", False),
    ("fit", "direction", None),
]


class TestConfigTypes:
    @pytest.mark.parametrize("command, key, value", _WRONG_TYPES)
    def test_wrong_type_is_usage_error(self, command, key, value, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}))
        argv = [command, "2"] if command == "exercise" else [command, "--out", str(tmp_path / "x")]
        assert main([*argv, "--config", str(config)]) == 2
        err = capsys.readouterr().err
        if key in ("reference_only_normalization", "target_acceptance"):
            # A setting with no reader any more: unknown, whatever its type.
            assert f"unknown config key {key!r}" in err
        else:
            assert f"config value {key!r} must be" in err
        assert not (tmp_path / "x").exists()

    def test_accepted_forms(self, workdir, tmp_path, monkeypatch):
        # channels as a comma string or a list, null paths, an integer
        # where a float is expected.
        monkeypatch.delenv("BIBUQ_WORKERS", raising=False)
        base = {
            "pubs": str(workdir / "pubs.csv"),
            "reference": None,
            "citation_model": str(workdir / "models2" / "citation_posterior.json"),
            "doctype_model": None,
            "iterations": 15,
            "seed": 2,
            "pooled_normalization": True,
        }
        reports = []
        for k, channels in enumerate(("citations", ["citations"], "citations,")):
            config = tmp_path / f"config{k}.json"
            config.write_text(json.dumps({**base, "channels": channels}))
            out = tmp_path / f"out{k}"
            assert main(["propagate", "--config", str(config), "--out", str(out)]) == 0
            reports.append((out / "report.json").read_bytes())
        assert reports[1:] == reports[:-1]
        config = tmp_path / "fit.json"
        config.write_text(json.dumps({"pseudocount": 2, "citation_sample": None}))
        argv = ["fit", "--doctype-confusion", str(workdir / "confusion.csv"), "--config", str(config)]
        assert main([*argv, "--out", str(tmp_path / "fit")]) == 0


class TestUnknownConfigKeys:
    @pytest.mark.parametrize("command", ["fit", "propagate", "inject", "exercise"])
    def test_misspelled_key_is_usage_error(self, command, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"iteration": 5}))
        argv = [command, "2"] if command == "exercise" else [command]
        assert main([*argv, "--config", str(config), "--out", str(tmp_path / "x")]) == 2
        assert "unknown config key 'iteration'" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_manifest_of_another_command_is_usage_error(self, workdir, tmp_path, capsys):
        # A fit manifest names no propagation setting, and an inject
        # manifest's direction is not the one propagate runs.
        fit_manifest = workdir / "models2" / "run_manifest.json"
        argv = ["propagate", "--out", str(tmp_path / "x"), "--config"]
        assert main([*argv, str(fit_manifest)]) == 2
        assert "unknown config key" in capsys.readouterr().err
        config = tmp_path / "inject.json"
        config.write_text(json.dumps({"pubs": "pubs.csv", "direction": "first-kind"}))
        assert main([*argv, str(config)]) == 2
        assert "propagate runs second-kind, not 'first-kind'" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_posterior_with_another_prior_is_usage_error(self, workdir, tmp_path):
        payload = json.loads((workdir / "models2" / "citation_posterior.json").read_text())
        payload["spec"]["intercept_prior_sd"] = 2.0
        model = tmp_path / "citation_posterior.json"
        model.write_text(json.dumps(payload))
        proc = run_cli(
            "propagate",
            "--pubs",
            str(workdir / "pubs.csv"),
            "--citation-model",
            str(model),
            "--out",
            str(tmp_path / "x"),
        )
        assert proc.returncode == 2
        assert "intercept_prior_sd is 2.0" in proc.stderr
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "block, key, message",
        [
            ("spec", "fixed_slop", "unknown key 'fixed_slop' in 'spec'"),
            ("config", "chain", "unknown key 'chain' in 'config'"),
            (None, "draws", "posterior file has no 'draws' key"),
            (None, "config", "posterior file has no 'config' key"),
        ],
    )
    def test_posterior_with_unknown_or_missing_key_is_usage_error(
        self, workdir, tmp_path, capsys, block, key, message
    ):
        payload = json.loads((workdir / "models2" / "citation_posterior.json").read_text())
        if block is None:
            del payload[key]
        else:
            payload[block][key] = 1
        model = tmp_path / "citation_posterior.json"
        model.write_text(json.dumps(payload))
        argv = ["propagate", "--pubs", str(workdir / "pubs.csv"), "--citation-model", str(model)]
        assert main([*argv, "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert f"error: {model}: {message}" in err
        assert "internal error" not in err
        assert not (tmp_path / "x").exists()


class TestExerciseSettings:
    """Every exercise checks its settings, also "1", which propagates nothing."""

    @pytest.mark.parametrize("name", ["1", "2"])
    @pytest.mark.parametrize(
        "setting, message",
        [
            (["--workers", "0"], "workers must be >= 1"),
            (["--workers", "-3"], "workers must be >= 1"),
            (["--iterations", "0"], "iterations must be >= 1"),
            (["--seed", "-1"], "seed must be a non-negative"),
        ],
    )
    def test_flag_out_of_range_is_usage_error(self, name, setting, message, capsys):
        assert main(["exercise", name, *setting]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["1", "2"])
    def test_config_workers_below_one_is_usage_error(self, name, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"workers": 0}))
        assert main(["exercise", name, "--config", str(config)]) == 2
        assert "workers must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content, message",
        [(b"{not json", "not a JSON config"), (b"\xff\xfe{}", "not a JSON config")],
    )
    def test_malformed_config_is_usage_error(self, content, message, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_bytes(content)
        assert main(["exercise", "2", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert f"error: {config}: {message}" in err
        assert "internal error" not in err

    def test_out_of_range_exits_2_from_the_command_line(self):
        for name in ("1", "2"):
            proc = run_cli("exercise", name, "--workers", "0")
            assert proc.returncode == 2, proc.stderr
            assert "workers must be >= 1" in proc.stderr


class TestExercise:
    def test_writes_outputs(self, tmp_path):
        out = tmp_path / "ex2"
        proc = run_cli(
            "exercise", "2", "--iterations", "40", "--seed", "0", "--out", str(out)
        )
        assert proc.returncode == 0, proc.stderr
        assert (out / "exercise.txt").exists()
        assert (out / "training_citation_sample.csv").exists()
        payload = json.loads((out / "exercise.json").read_text())
        assert payload["exercise"] == "2"
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["command"] == "exercise"

    def test_manifest_reproduces_run(self, tmp_path, monkeypatch):
        monkeypatch.delenv("BIBUQ_WORKERS", raising=False)
        first = tmp_path / "first"
        proc = run_cli("exercise", "2", "--iterations", "40", "--seed", "3", "--out", str(first))
        assert proc.returncode == 0, proc.stderr
        second = tmp_path / "second"
        manifest = str(first / "run_manifest.json")
        proc = run_cli("exercise", "--config", manifest, "--out", str(second))
        assert proc.returncode == 0, proc.stderr
        assert_same_data_files(first, second)
        config = json.loads((second / "run_manifest.json").read_text())["config"]
        assert (config["iterations"], config["seed"], config["workers"]) == (40, 3, 1)
        assert (config["exercise"], config["no_synthesize"]) == ("2", False)
        # The positional name overrides the manifest like any flag.
        third = tmp_path / "third"
        proc = run_cli("exercise", "1", "--config", manifest, "--out", str(third))
        assert proc.returncode == 0, proc.stderr
        assert json.loads((third / "exercise.json").read_text())["exercise"] == "1"

    def test_name_is_required(self, tmp_path):
        proc = run_cli("exercise", "--iterations", "10", "--out", str(tmp_path / "x"))
        assert proc.returncode == 2
        assert "exercise needs a name" in proc.stderr
        assert not (tmp_path / "x").exists()

    def test_prints_table_without_out(self):
        proc = run_cli("exercise", "1", "--iterations", "30", "--seed", "0")
        assert proc.returncode == 0
        assert "predicted document types" in proc.stdout

    def test_draws_alias(self):
        proc = run_cli("exercise", "1", "--draws", "25", "--seed", "0")
        assert proc.returncode == 0

    def test_unknown_name(self):
        proc = run_cli("exercise", "ZZ")
        assert proc.returncode == 2

    def test_no_synthesize_requires_files(self):
        proc = run_cli("exercise", "2", "--iterations", "10", "--no-synthesize")
        assert proc.returncode == 2


def _json(payload) -> bytes:
    return json.dumps(payload).encode()


# A well-formed indicator record of a report.
_RECORD = {
    "observed": 3,
    "median": 2.5,
    "ci_low": 1,
    "ci_high": 4.0,
    "relative_uncertainty_pct": None,
}


_BAD_DIRECTION = "direction must be 'second-kind' or 'first-kind', got "


class TestReport:
    def test_renders_stored_report(self, workdir, tmp_path):
        out = tmp_path / "forreport"
        proc = run_cli(
            "propagate",
            "--pubs",
            str(workdir / "pubs.csv"),
            "--reference",
            str(workdir / "ref.csv"),
            "--citation-model",
            str(workdir / "models2" / "citation_posterior.json"),
            "--doctype-model",
            str(workdir / "models2" / "doctype_posterior.json"),
            "--iterations",
            "20",
            "--out",
            str(out),
        )
        assert proc.returncode == 0, proc.stderr
        shown = run_cli("report", str(out / "report.json"))
        assert shown.returncode == 0
        assert "MNCS" in shown.stdout
        assert "A" in shown.stdout

    def test_missing_file(self):
        proc = run_cli("report", "nope.json")
        assert proc.returncode == 2

    @pytest.mark.parametrize(
        "content, message",
        [
            (b"{not json", "not a JSON report"),
            (b"\xff\xfe{}", "not a JSON report"),
            (b'"units"', "report must be a JSON object"),
            (b"[1, 2]", "report must be a JSON object"),
            (_json({"units": 3}), 'not a propagation report (no "units" object)'),
            (_json({"units": {"A": 3}}), "unit 'A' must be a JSON object"),
            (_json({"units": {"A": {"P": 1}}}), "unit 'A' indicator 'P' must hold"),
            (_json({"units": {"A": {"C": {**_RECORD, "median": "2"}}}}), "unit 'A' indicator 'C'"),
            (_json({"units": {"A": {"C": {**_RECORD, "ci_low": True}}}}), "unit 'A' indicator 'C'"),
            (_json({"units": {"B": {"MNCS": {**_RECORD, "ci_high": float("nan")}}}}), "unit 'B'"),
            (_json({"units": {"B": {"MNCS": {**_RECORD, "observed": 1e400}}}}), "unit 'B'"),
            (_json({"units": {"B": {"P": {**_RECORD, "median": 10**400}}}}), "unit 'B'"),
            (_json({"units": {"B": {"P": {"observed": 1}}}}), "unit 'B' indicator 'P'"),
            (_json({"channels": "citations", "units": {}}), "channels must be a list of strings"),
            (_json({"channels": [1], "units": {}}), "channels must be a list of strings"),
            *(
                (_json({"direction": bad, "units": {}}), f"{_BAD_DIRECTION}{text}")
                for bad, text in (("first_kind", "'first_kind'"), (7, "7"), (None, "None"))
            ),
        ],
    )
    def test_malformed_report_is_usage_error(self, content, message, tmp_path, capsys):
        report = tmp_path / "bad.json"
        report.write_bytes(content)
        assert main(["report", str(report)]) == 2
        out, err = capsys.readouterr()
        assert out == ""  # nothing printed before the check
        assert f"error: {report}: {message}" in err
        assert "internal error" not in err

    def test_null_values_render(self, tmp_path, capsys):
        record = dict.fromkeys(_RECORD)
        report = tmp_path / "report.json"
        report.write_text(json.dumps({"channels": [], "units": {"A": {"MNCS": record}}}))
        assert main(["report", str(report)]) == 0
        assert "n/a" in capsys.readouterr().out
