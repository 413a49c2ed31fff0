import argparse
import inspect
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import weakref
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from patsim import cli, evaluation, experiments, framing, ingest, tables, vocab
from patsim.cli import main
from patsim.config import (_CHOICES, _RULES, MethodSettings, RunConfig, build_config,
                           read_config_values)
from patsim.errors import PatsimError
from patsim.evaluation import FOLD_METRICS_HEADER, MethodSpec, load_fold_metrics
from patsim.experiments import (MANUAL_PRESETS, PRESET_ARMS, PRESETS, knn_method, represent,
                                validation_half)
from patsim.synth import SynthSpec
from patsim.weights import TrainConfig, load_manual_weights
from util import FAULTS, mask_lines, mutate


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    rc = main(["synth", "--out-dir", str(out), "--n-patients", "60",
               "--seed", "3", "--missing-rate", "0.2"])
    assert rc == 0
    return out


class TestSynthCommand:
    def test_outputs_parse(self, synth_dir):
        cohort = ingest.load_cohort(synth_dir / "events.csv", synth_dir / "outcomes.csv")
        assert cohort.n_patients == 60
        manifest = json.loads((synth_dir / "manifest.json").read_text())
        assert manifest["n_patients"] == 60
        assert len(manifest["informative_variables"]) == 2


class TestFrameCommand:
    def test_frame_and_stats_reuse(self, synth_dir, tmp_path):
        frames_path = tmp_path / "frames.csv"
        mask_path = tmp_path / "mask.csv"
        stats_path = tmp_path / "stats.txt"
        rc = main(["frame", "--events", str(synth_dir / "events.csv"),
                   "--outcomes", str(synth_dir / "outcomes.csv"),
                   "--out-frames", str(frames_path), "--out-mask", str(mask_path),
                   "--stats-out", str(stats_path)])
        assert rc == 0
        frames = framing.read_frames(frames_path)
        assert len(frames) == 60
        observed = framing.frame_cohort(ingest.load_cohort(synth_dir / "events.csv",
                                                           synth_dir / "outcomes.csv"))
        assert mask_path.read_text().splitlines() == \
            mask_lines(observed.ids, ~np.isnan(observed.grid))
        grid = np.stack([f.dynamic for f in frames])
        assert grid.min() >= 0.0 and grid.max() <= 1.0

        reuse_path = tmp_path / "frames2.csv"
        rc = main(["frame", "--events", str(synth_dir / "events.csv"),
                   "--outcomes", str(synth_dir / "outcomes.csv"),
                   "--out-frames", str(reuse_path), "--stats-in", str(stats_path)])
        assert rc == 0
        again = framing.read_frames(reuse_path)
        assert (again[0].dynamic == frames[0].dynamic).all()


    def test_truncated_stats_file_is_one_line_error(self, synth_dir, tmp_path, capsys):
        stats_path = tmp_path / "stats.txt"
        args = ["frame", "--events", str(synth_dir / "events.csv"),
                "--outcomes", str(synth_dir / "outcomes.csv"),
                "--out-frames", str(tmp_path / "frames.csv")]
        assert main(args + ["--stats-out", str(stats_path)]) == 0
        lines = stats_path.read_text().splitlines()
        stats_path.write_text("\n".join(lines[: len(lines) // 2]) + "\n")
        capsys.readouterr()
        assert main(args + ["--stats-in", str(stats_path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: {stats_path}: missing key ")


@pytest.fixture(scope="module")
def framed(synth_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("framed")
    frames_path = out / "frames.csv"
    main(["frame", "--events", str(synth_dir / "events.csv"),
          "--outcomes", str(synth_dir / "outcomes.csv"),
          "--out-frames", str(frames_path)])
    return frames_path


class TestTrainPredict:
    def test_train_writes_weights_and_trace(self, framed, tmp_path):
        wpath, tpath = tmp_path / "w.csv", tmp_path / "trace.csv"
        rc = main(["train", "--frames", str(framed), "--weights-out", str(wpath),
                   "--trace-out", str(tpath), "--k", "5", "--max-epochs", "10"])
        assert rc == 0
        fw = load_manual_weights(wpath)
        assert fw.values.shape == (vocab.N_VARIABLES,)
        lines = tpath.read_text().splitlines()
        assert lines[0] == "epoch,error"
        assert len(lines) >= 2

    def test_predict_loo(self, framed, tmp_path):
        wpath = tmp_path / "w.csv"
        main(["train", "--frames", str(framed), "--weights-out", str(wpath),
              "--k", "5", "--max-epochs", "5"])
        out = tmp_path / "pred.csv"
        rc = main(["predict", "--train-frames", str(framed), "--weights", str(wpath),
                   "--k", "5", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "patient_id,score,label"
        assert len(lines) == 61
        for line in lines[1:]:
            pid, score, label = line.split(",")
            assert 0.0 <= float(score) <= 1.0
            assert label in ("0", "1")


def _corrupt(line, fault):
    """One data row of a frames file with a single planted fault."""
    cells = line.split(",")
    if fault == "truncated":
        return ",".join(cells[:-3])
    if fault in ("nan", "inf", "text", "above", "below"):
        cells[5] = {"nan": "nan", "inf": "-inf", "text": "0.3x", "above": "1e200",
                    "below": "-0.25"}[fault]
    if fault == "label":
        cells[1] = "2"
    return ",".join(cells)


class TestStrictFrames:
    @pytest.mark.parametrize("fault, reason", [
        ("truncated", "line 4: expected"),
        ("nan", "line 4: cell d00_t03 is not a finite number: 'nan'"),
        ("inf", "line 4: cell d00_t03 is not a finite number: '-inf'"),
        ("text", "line 4: cell d00_t03 is not a finite number: '0.3x'"),
        ("above", "line 4: cell d00_t03 is outside [0, 1]: '1e200'"),
        ("below", "line 4: cell d00_t03 is outside [0, 1]: '-0.25'"),
        ("label", "line 4: label must be 0 or 1, got '2'"),
        ("duplicate", "line 4: duplicate patient id"),
    ])
    @pytest.mark.parametrize("command", ["train", "predict"])
    def test_malformed_row_is_one_line_error(self, framed, tmp_path, capsys,
                                             fault, reason, command):
        lines = framed.read_text().splitlines()
        if fault == "duplicate":
            lines[3] = lines[2]
        else:
            lines[3] = _corrupt(lines[3], fault)
        bad = tmp_path / "bad_frames.csv"
        bad.write_text("\n".join(lines) + "\n")
        if command == "train":
            args = ["train", "--frames", str(bad), "--weights-out", str(tmp_path / "w.csv")]
        else:
            weights = tmp_path / "w.csv"
            weights.write_text("variable,weight\n" + "".join(
                f"{name},1.0\n" for name in vocab.ALL_VARIABLES))
            args = ["predict", "--train-frames", str(bad), "--weights", str(weights),
                    "--out", str(tmp_path / "pred.csv")]
        capsys.readouterr()
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: {bad} {reason}")


    def test_header_only_file_is_one_line_error(self, framed, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text(framed.read_text().splitlines()[0] + "\n")
        capsys.readouterr()
        assert main(["train", "--frames", str(empty), "--weights-out",
                     str(tmp_path / "w.csv")]) == 1
        assert capsys.readouterr().err == \
            f"error: {empty}: no patient rows, so the cohort has no patients\n"

    @pytest.mark.parametrize("side", ["--train-frames", "--query-frames"])
    def test_predict_names_a_header_only_file(self, framed, tmp_path, capsys, side):
        empty = tmp_path / "empty.csv"
        empty.write_text(framed.read_text().splitlines()[0] + "\n")
        weights = tmp_path / "w.csv"
        weights.write_text("variable,weight\n" + "".join(
            f"{name},1.0\n" for name in vocab.ALL_VARIABLES))
        files = {"--train-frames": framed, "--query-frames": framed, side: empty}
        err = one_line_error(capsys, ["predict", *(a for item in files.items() for a in item),
                                      "--weights", weights, "--out", tmp_path / "pred.csv"])
        assert err == f"error: {empty}: no patient rows, so the cohort has no patients\n"


class TestStrictWeights:
    def test_predict_rejects_incomplete_learned_weights(self, framed, tmp_path, capsys):
        partial = tmp_path / "partial.csv"
        partial.write_text("variable,weight\nHeart rate,2.0\n")
        capsys.readouterr()
        assert main(["predict", "--train-frames", str(framed), "--weights", str(partial),
                     "--out", str(tmp_path / "pred.csv")]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {partial}: 39 of 40 variables missing, " \
                      f"first {vocab.ALL_VARIABLES[0]!r}\n"
        assert not (tmp_path / "pred.csv").exists()

    def test_init_weights_stay_lenient(self, framed, tmp_path):
        partial = tmp_path / "partial.csv"
        partial.write_text("Heart rate,2.0\n")
        wpath = tmp_path / "w.csv"
        assert main(["train", "--frames", str(framed), "--weights-out", str(wpath),
                     "--init-weights", str(partial), "--k", "5", "--max-epochs", "2"]) == 0


class TestEvaluateCompare:
    def test_evaluate_and_compare(self, synth_dir, tmp_path):
        outs = {}
        for name, weighting in (("chi2", "chi2"), ("none", "none")):
            path = tmp_path / f"{name}.csv"
            rc = main(["evaluate", "--events", str(synth_dir / "events.csv"),
                       "--outcomes", str(synth_dir / "outcomes.csv"),
                       "--weighting", weighting, "--folds", "4", "--k", "5",
                       "--out", str(path), "--seed", "3"])
            assert rc == 0
            outs[name] = path
            assert len(load_fold_metrics(path)) == 4
        json_path = tmp_path / "report.json"
        text_path = tmp_path / "report.txt"
        rc = main(["compare", f"chi2={outs['chi2']}", f"none={outs['none']}",
                   "--out-json", str(json_path), "--out-text", str(text_path)])
        assert rc == 0
        report = json.loads(json_path.read_text())
        assert report["methods"] == ["chi2", "none"]
        assert "friedman" in report
        assert "precision" in text_path.read_text()

    def test_evaluate_validation_split(self, synth_dir, tmp_path):
        """--split validation cross-validates the held-out half of the 50/50 split only."""
        out, expected = tmp_path / "metrics.csv", tmp_path / "expected.csv"
        rc = main(["evaluate", "--events", str(synth_dir / "events.csv"),
                   "--outcomes", str(synth_dir / "outcomes.csv"), "--weighting", "chi2",
                   "--k", "3", "--folds", "3", "--seed", "5", "--split", "validation",
                   "--workers", "1", "--out", str(out)])
        assert rc == 0
        cohort = ingest.load_cohort(synth_dir / "events.csv", synth_dir / "outcomes.csv")
        config = RunConfig(weighting="chi2", k=3, folds=3, seed=5)
        method = knn_method("chi2", config)
        patients = represent(validation_half(cohort, config.seed), method.representation,
                             config)
        assert len(patients) < cohort.n_patients
        evaluation.save_fold_metrics(evaluation.cross_validate(
            patients, [method], k_folds=3, seed=5, workers=1)["chi2"], expected)
        assert out.read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize("command, after", [
        (["experiment", "exp3", "--folds", "3", "--out-dir", "{out}"],
         (experiments, "cross_validate")),
        (["evaluate", "--split", "validation", "--folds", "3", "--out", "{out}/m.csv"],
         (experiments, "cross_validate")),
        (["frame", "--out-frames", "{out}/frames.csv"], (framing, "sparsity")),
    ])
    def test_the_loaded_cohort_is_dropped_before_it_is_worked_on(
            self, synth_dir, tmp_path, monkeypatch, command, after):
        """experiment and evaluate --split validation hold only the validation half by
        the first fold, and frame holds no cohort once it is framed."""
        loaded, dead = [], []
        load, (module, name) = ingest.load_cohort, after
        checked = getattr(module, name)

        def loading(*paths):
            cohort = load(*paths)
            loaded.append(weakref.ref(cohort))
            return cohort

        def checking(*args, **kwargs):
            dead.append(loaded[0]() is None)
            return checked(*args, **kwargs)

        monkeypatch.setattr(ingest, "load_cohort", loading)
        monkeypatch.setattr(module, name, checking)
        (tmp_path / "run.cfg").write_text("max_epochs = 2\n")
        assert main([arg.format(out=tmp_path) for arg in command] + [
            "--events", str(synth_dir / "events.csv"), "--outcomes",
            str(synth_dir / "outcomes.csv"), "--config", str(tmp_path / "run.cfg")]) == 0
        assert len(loaded) == 1 and dead and all(dead)

    # each preset's kNN arms, by name, and the method settings each sets itself
    ARM_SETS = {preset: {name: own for name, kind, own in arms if kind == "knn"}
                for preset, arms in PRESET_ARMS.items()}

    @pytest.mark.parametrize("field", [f.name for f in fields(MethodSettings)])
    def test_experiment_takes_features_from_the_config(self, synth_dir, tmp_path, monkeypatch,
                                                        capsys, field):
        """A config file's value of each method setting reaches every method that does not
        set it itself: evaluate's one method and each kNN arm of every preset. A setting that
        every kNN arm of a preset sets is refused before any input is read."""
        path, manual = tmp_path / "run.cfg", tmp_path / "manual.csv"
        path.write_text(f"{field} = {FLAG_VALUES[field]}\n")
        manual.write_text("".join(f"{name},1\n" for name in vocab.ALL_VARIABLES))
        config = build_config(path)
        value = getattr(config, field)
        assert value != getattr(RunConfig(), field)
        captured = []

        def capture(patients, methods, k_folds, **kwargs):
            captured.extend(methods)
            return {m.name: [evaluation.FoldMetrics(i, 1, 0, 0, 1, 1.0, 1.0, 1.0)
                             for i in range(k_folds)] for m in methods}

        monkeypatch.setattr(experiments, "cross_validate", capture)
        for command in ["evaluate", *PRESETS]:
            captured.clear()
            if command == "evaluate":
                argv = ["evaluate", "--out", tmp_path / "metrics.csv"]
                arms = {config.weighting: {}}
            else:
                argv = ["experiment", command, "--out-dir", tmp_path / command]
                arms = self.ARM_SETS[command]
            refused = all(field in own for own in arms.values())
            events, outcomes, weights = ([tmp_path / "missing.csv"] * 3 if refused else
                                         [synth_dir / "events.csv", synth_dir / "outcomes.csv",
                                          manual])
            argv += ["--config", path, "--events", events, "--outcomes", outcomes]
            if command in MANUAL_PRESETS:
                argv += ["--manual-weights", weights]
            if refused:
                assert field not in cli._COMMANDS["experiment"][2].split()
                err = one_line_error(capsys, argv)
                assert err == (f"error: {path} line 1: config key {field!r} is set by the "
                               f"command itself\n")
                assert not captured
                continue
            assert main([str(a) for a in argv]) == 0, command
            methods = {m.name: m for m in captured if m.kind == "knn"}
            assert methods.keys() == arms.keys(), command
            for name, own in arms.items():
                assert getattr(methods[name], field) == own.get(field, value), (command, name)

    def test_experiment_exp3_with_manual_weights(self, tmp_path):
        """--manual-weights adds exp3's manual arm second; reports match at 1 and 2 workers."""
        manual, config = tmp_path / "manual.csv", tmp_path / "run.cfg"
        manual.write_text("".join(f"{name},{i % 3}\n"
                                  for i, name in enumerate(vocab.ALL_VARIABLES)))
        config.write_text("max_epochs = 3\n")
        reports = []
        for workers in ("1", "2"):
            out = tmp_path / f"workers{workers}"
            rc = main(["experiment", "exp3", "--n-patients", "60", "--seed", "3",
                       "--folds", "3", "--k", "3", "--config", str(config),
                       "--manual-weights", str(manual), "--workers", workers,
                       "--out-dir", str(out)])
            assert rc == 0
            reports.append([(out / f"exp3_report.{ext}").read_bytes() for ext in ("json", "txt")])
        assert reports[0] == reports[1]
        assert json.loads(reports[0][0])["methods"] == ["gd", "manual", "chi2", "infogain",
                                                       "gini", "none"]

    def test_compare_rejects_a_repeated_report_name(self, tmp_path, capsys):
        report = tmp_path / "a.csv"
        report.write_text(f"{FOLD_METRICS_HEADER}\n0,1,2,3,4,0.5,0.5,0.5\n")
        err = one_line_error(capsys, ["compare", f"x={report}", f"x={report}", f"y={report}",
                                      "--out-json", tmp_path / "report.json"])
        assert err == "error: report name 'x' given twice\n"
        assert not (tmp_path / "report.json").exists()


class TestExitCodes:
    def test_validation_error_is_1(self, tmp_path):
        bad = tmp_path / "events.csv"
        bad.write_text("patient_id,minute,variable,value\np1,10,NotAVariable,5\n")
        outcomes = tmp_path / "outcomes.csv"
        outcomes.write_text("patient_id,in_hospital_death\np1,0\n")
        rc = main(["frame", "--events", str(bad), "--outcomes", str(outcomes),
                   "--out-frames", str(tmp_path / "f.csv")])
        assert rc == 1

    @pytest.mark.parametrize("events, outcomes, where, message", [
        ("p1,0,Age,54\np1,10,NotAVariable,5\n", "p1,0\n", ("events", 3),
         "unknown variable name: 'NotAVariable'"),
        ("p1,0,Age,54\n", "p1,0\np1,1\n", ("outcomes", 3),
         "duplicate outcome row for patient 'p1'"),
        ("p1,0,Age,54\n", "p1,yes\n", ("outcomes", 2),
         "outcome label must be 0 or 1, got 'yes'"),
    ])
    def test_ingest_error_names_file_and_line(self, tmp_path, capsys, events, outcomes,
                                              where, message):
        paths = {"events": tmp_path / "events.csv", "outcomes": tmp_path / "outcomes.csv"}
        paths["events"].write_text("patient_id,minute,variable,value\n" + events)
        paths["outcomes"].write_text("patient_id,in_hospital_death\n" + outcomes)
        capsys.readouterr()
        rc = main(["experiment", "exp3", "--events", str(paths["events"]),
                   "--outcomes", str(paths["outcomes"]), "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        name, line = where
        assert capsys.readouterr().err == f"error: {paths[name]} line {line}: {message}\n"

    def test_io_error_is_2(self, tmp_path):
        rc = main(["frame", "--events", str(tmp_path / "missing.csv"),
                   "--outcomes", str(tmp_path / "also_missing.csv"),
                   "--out-frames", str(tmp_path / "f.csv")])
        assert rc == 2

    def test_success_is_0_via_subprocess(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "patsim.cli", "synth", "--out-dir",
             str(tmp_path / "s"), "--n-patients", "5", "--seed", "1"],
            capture_output=True, text=True)
        assert proc.returncode == 0


def fresh_python(args, blas_threads=None):
    """Run `python ARGS` in a new interpreter, OPENBLAS_NUM_THREADS set to `blas_threads` or unset."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    return subprocess.run([sys.executable, *map(str, args)], capture_output=True, text=True,
                          env=env)


class TestFoldProcesses:
    def test_fold_fault_is_the_same_line_at_any_worker_count(self, tmp_path):
        errors = set()
        for workers in (1, 2):
            proc = fresh_python(["-m", "patsim.cli", "experiment", "exp3", "--n-patients", 400,
                                 "--k", 300, "--workers", workers,
                                 "--out-dir", tmp_path / f"w{workers}"])
            assert proc.returncode == 1
            lines = [ln for ln in proc.stderr.splitlines() if not ln.startswith("WARNING ")]
            assert len(lines) == 1, proc.stderr
            errors.add(lines[0])
        assert errors == {"error: k=300 but only 189 leave-one-out candidates"}

    def test_dead_fold_process_is_one_line_and_exit_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(evaluation, "_scale_split", lambda *args: os._exit(3))
        err = one_line_error(capsys, ["experiment", "exp3", "--n-patients", 160, "--folds", 4,
                                      "--workers", 2, "--out-dir", tmp_path])
        assert err == ("error: a cross-validation fold process died before "
                       "returning its fold\n")

    def test_reports_do_not_depend_on_blas_threads(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("max_epochs=4\nk=5\n")
        reports = {}
        for threads in (None, "2"):
            for workers in (1, 2):
                out = tmp_path / f"t{threads}-w{workers}"
                proc = fresh_python(["-m", "patsim.cli", "experiment", "exp3",
                                     "--n-patients", 160, "--folds", 4, "--config", config,
                                     "--workers", workers, "--out-dir", out], threads)
                assert proc.returncode == 0, proc.stderr
                reports[threads, workers] = [(out / f"exp3_report.{ext}").read_bytes()
                                             for ext in ("json", "txt")]
        assert len({tuple(r) for r in reports.values()}) == 1

    @pytest.mark.parametrize("given, expected", [(None, "1"), ("3", "3")])
    def test_import_sets_one_blas_thread_unless_set(self, given, expected):
        proc = fresh_python(
            ["-c", "import os, patsim; print(os.environ['OPENBLAS_NUM_THREADS'])"], given)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"{expected}\n"

    def test_default_workers_are_the_cpus_this_process_may_use(self, monkeypatch):
        assert RunConfig(workers=5).effective_workers() == 5
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert RunConfig().effective_workers() == 1
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert RunConfig().effective_workers() == 3


class TestConfig:
    def test_roundtrip(self, tmp_path):
        config = RunConfig(k=7, learning_rate=0.1, weighting="gini", seed=12)
        path = tmp_path / "run.cfg"
        path.write_text("".join(f"{f.name}={getattr(config, f.name)}\n" for f in fields(config)))
        values = read_config_values(path)
        assert RunConfig(**values) == config

    def test_precedence_flags_over_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("k=5\nfolds=8\n")
        merged = build_config(file_path=path, overrides={"k": 9})
        assert merged.k == 9
        assert merged.folds == 8

    def test_validation(self):
        with pytest.raises(PatsimError, match="^window_hours must be positive and divide "):
            RunConfig(window_hours=5, horizon_hours=48)
        with pytest.raises(PatsimError, match="^weighting must be one of .*, got 'magic'$"):
            RunConfig(weighting="magic")
        with pytest.raises(PatsimError, match=r"^alpha must be in \(0, 1\)$"):
            evaluation.compare({}, alpha=float("nan"))

    @pytest.mark.parametrize("name, value, reason", [
        ("k", 0, "k must be at least 1"),
        ("max_epochs", 0, "max_epochs must be at least 1"),
        ("patience", 0, "patience must be at least 1"),
        ("learning_rate", -1.0, "learning_rate must be positive and finite"),
        ("learning_rate", 0.0, "learning_rate must be positive and finite"),
        ("learning_rate", float("nan"), "learning_rate must be positive and finite"),
        ("learning_rate", float("inf"), "learning_rate must be positive and finite"),
        ("min_relative_improvement", float("nan"),
         "min_relative_improvement must be positive and finite"),
        ("folds", 1, "folds must be at least 2"),
        ("threshold", 1.5, "threshold must be in (0, 1)"),
        ("threshold", 0.0, "threshold must be in (0, 1)"),
        ("workers", -1, "workers must be at least 0"),
        ("n_patients", 0, "n_patients must be at least 1"),
        ("prevalence", float("nan"), "prevalence must be in (0, 1)"),
        ("missing_rate", -0.1, "missing_rate must be in [0, 1)"),
        ("n_informative_variables", 37, "n_informative_variables must be between 1 and 36"),
        ("effect_size", float("inf"), "effect_size must be non-negative and finite"),
        ("profile", "weird", "profile must be one of ('planted', 'trend'), got 'weird'"),
    ])
    def test_every_settings_class_rejects_a_bad_value_alike(self, name, value, reason):
        carriers = [cls for cls in (RunConfig, MethodSpec, TrainConfig, SynthSpec)
                    if name in {f.name for f in fields(cls)}]
        assert carriers
        for cls in carriers:
            with pytest.raises(PatsimError, match=f"^{re.escape(reason)}$") as caught:
                cls(**{"name": "m"} if cls is MethodSpec else {}, **{name: value})
            assert str(caught.value) == reason, cls.__name__


def _subparsers():
    """Each subcommand's parser, by name."""
    action = next(a for a in cli.build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _required_argv(parser):
    """The shortest argv that `parser` accepts: a placeholder for each required argument."""
    argv = []
    for action in parser._actions:
        if not action.option_strings:
            argv.append(action.choices[0] if action.choices else "x=y")
        elif action.required:
            argv += [action.option_strings[0], "x"]
    return argv


# a legal value other than the default for every RunConfig field a flag sets
FLAG_VALUES = {"window_hours": "4", "horizon_hours": "24", "representation": "aggregation",
               "weighting": "chi2", "features": "static_only", "k": "7",
               "learning_rate": "0.1", "max_epochs": "9", "threshold": "0.4",
               "mode": "weighted", "folds": "5", "seed": "11", "workers": "3"}


# the option strings each subcommand's --help lists, besides -h: 76 in all
HELP_FLAGS = {
    "synth": "--out-dir --n-patients --prevalence --informative --missing-rate --effect-size "
             "--profile --seed --config --verbose",
    "frame": "--events --outcomes --out-frames --out-mask --stats-out --stats-in "
             "--window-hours --horizon-hours --config --verbose",
    "train": "--frames --weights-out --trace-out --lr --max-epochs --min-rel-improvement "
             "--patience --k --init-weights --config --workers --verbose",
    "predict": "--train-frames --query-frames --weights --k --mode --threshold --out --config "
               "--workers --verbose",
    "evaluate": "--events --outcomes --representation --weighting --features --manual-weights "
                "--k --mode --threshold --lr --folds --split --out --seed --config --workers "
                "--verbose",
    "compare": "--alpha --out-json --out-text --verbose",
    "experiment": "--events --outcomes --out-dir --n-patients --profile --manual-weights --k "
                  "--lr --folds --seed --config --workers --verbose",
}

# flags that a subcommand took once and never read
DROPPED_FLAGS = [("frame", "--seed"), ("train", "--seed"), ("predict", "--seed"),
                 ("compare", "--seed"), ("compare", "--config"), ("synth", "--workers"),
                 ("frame", "--workers"), ("compare", "--workers")]


class TestFlagWiring:
    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_help_exits_0(self, command, capsys):
        """--help exits 0 and lists exactly the subcommand's flags."""
        with pytest.raises(SystemExit) as caught:
            main([command, "--help"])
        assert caught.value.code == 0
        listed = re.findall(r"^  (--[\w-]+)", capsys.readouterr().out, re.M)
        assert listed == HELP_FLAGS[command].split()

    @pytest.mark.parametrize("command, flag", DROPPED_FLAGS)
    def test_a_dropped_flag_is_a_usage_error(self, command, flag, capsys):
        argv = [command] + _required_argv(_subparsers()[command]) + [flag, "1"]
        with pytest.raises(SystemExit) as caught:
            main(argv)
        assert caught.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err

    def test_every_rule_names_a_setting(self):
        """A rule or choice whose key is no setting's name would never fire, unless
        the key is a flag's dest: the parser then takes its choices from there."""
        settings = {f.name for cls in (RunConfig, TrainConfig, SynthSpec, MethodSpec)
                    for f in fields(cls)} | set(inspect.signature(evaluation.compare).parameters)
        assert set(_RULES) <= settings
        flag_choices = {action.dest: action.choices for sub in _subparsers().values()
                        for action in sub._actions if action.dest in set(_CHOICES) - settings}
        assert flag_choices == {name: _CHOICES[name] for name in set(_CHOICES) - settings}

    def test_a_flag_sets_what_its_config_key_sets(self, tmp_path):
        run_fields = {f.name for f in fields(RunConfig)}
        parser, seen = cli.build_parser(), set()
        for command, sub in _subparsers().items():
            base = [command] + _required_argv(sub)
            for action in sub._actions:
                if action.dest not in run_fields or not action.option_strings:
                    continue
                value = FLAG_VALUES[action.dest]
                config = tmp_path / f"{command}-{action.dest}.cfg"
                config.write_text(f"{action.dest} = {value}\n")
                by_flag = cli._config_from_args(
                    parser.parse_args(base + [action.option_strings[0], value]))
                by_file = cli._config_from_args(parser.parse_args(base + ["--config", str(config)]))
                assert by_flag == by_file != RunConfig(), (command, action.dest)
                seen.add(action.dest)
        assert seen == set(FLAG_VALUES)


def one_line_error(capsys, argv):
    """Run the CLI expecting exit 1; return its single line of stderr."""
    capsys.readouterr()
    assert main([str(a) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.endswith("\n")
    return err


class TestLocatedFaults:
    @pytest.mark.parametrize("row, reason", [
        ("0,1,2", "expected 8 cells, got 3"),
        ("0,1,x,3,4,0.5,0.5,0.5", "bad value 'x' for 'fp'"),
        ("0,1,2,3,4,0.5,nan,0.5", "bad value 'nan' for 'recall'"),
    ])
    def test_compare_bad_fold_metrics_row(self, tmp_path, capsys, row, reason):
        good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
        good_row = "0,1,2,3,4,0.5,0.5,0.5"
        good.write_text(f"{FOLD_METRICS_HEADER}\n{good_row}\n")
        bad.write_text(f"{FOLD_METRICS_HEADER}\n\n{row}\n")
        err = one_line_error(capsys, ["compare", f"a={good}", f"b={bad}",
                                      "--out-json", tmp_path / "report.json"])
        assert err == f"error: {bad} line 3: {reason}\n"

    def test_compare_refuses_a_fold_metrics_file_without_rows(self, tmp_path, capsys):
        empty = tmp_path / "e.csv"
        empty.write_text(f"{FOLD_METRICS_HEADER}\n")
        err = one_line_error(capsys, ["compare", f"a={empty}", f"b={empty}",
                                      "--out-json", tmp_path / "o.json"])
        assert err == f"error: {empty}: no fold rows, so there are no folds to compare\n"
        assert not (tmp_path / "o.json").exists()

    def test_compare_refuses_folds_out_of_order(self, tmp_path, capsys):
        good, swapped = tmp_path / "good.csv", tmp_path / "swapped.csv"
        evaluation.save_fold_metrics([evaluation.FoldMetrics(i, 1, 2, 3, 4, 0.5, i / 4, 0.5)
                                      for i in range(3)], good)
        header, first, second, third = good.read_text().splitlines()
        swapped.write_text("\n".join([header, second, first, third]) + "\n")
        err = one_line_error(capsys, ["compare", f"a={good}", f"b={swapped}",
                                      "--out-json", tmp_path / "report.json"])
        assert err == f"error: {swapped} line 2: fold 1 out of order, expected fold 0\n"
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("reports, reason", [
        (["a.csv", "b={one}"], "expected NAME=PATH, got 'a.csv'"),
        (["a={one}", "b={two}"], "reports cover different numbers of folds: "
                                 "a={one} has 1, b={two} has 2"),
    ], ids=["no_path", "fold_counts"])
    def test_compare_report_argument_fault(self, tmp_path, capsys, reports, reason):
        one, two = tmp_path / "one.csv", tmp_path / "two.csv"
        one.write_text(f"{FOLD_METRICS_HEADER}\n0,1,2,3,4,0.5,0.5,0.5\n")
        two.write_text(f"{FOLD_METRICS_HEADER}\n0,1,2,3,4,0.5,0.5,0.5\n1,1,2,3,4,0.5,0.5,0.5\n")
        err = one_line_error(capsys, ["compare"] + [r.format(one=one, two=two) for r in reports]
                             + ["--out-json", tmp_path / "report.json"])
        assert err == f"error: {reason.format(one=one, two=two)}\n"
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("flag", ["--init-weights", "--manual-weights"])
    def test_manual_weights_reject_a_repeated_variable(self, synth_dir, framed, tmp_path,
                                                       capsys, flag):
        weights = tmp_path / "manual.csv"
        weights.write_text("Age,1.0\nAge,5.0\n")
        argv = {
            "--init-weights": ["train", "--frames", framed, "--weights-out", tmp_path / "w.csv"],
            "--manual-weights": ["evaluate", "--events", synth_dir / "events.csv",
                                 "--outcomes", synth_dir / "outcomes.csv",
                                 "--weighting", "manual", "--out", tmp_path / "m.csv"],
        }[flag]
        err = one_line_error(capsys, argv + [flag, weights])
        assert err == f"error: {weights} line 2: variable 'Age' listed twice\n"

    def test_stats_line_without_separator(self, synth_dir, tmp_path, capsys):
        stats = tmp_path / "stats.txt"
        args = ["frame", "--events", synth_dir / "events.csv",
                "--outcomes", synth_dir / "outcomes.csv", "--out-frames", tmp_path / "f.csv"]
        assert main([str(a) for a in args + ["--stats-out", stats]]) == 0
        lines = stats.read_text().splitlines()
        lines.insert(4, "stray line")
        stats.write_text("\n".join(lines) + "\n")
        err = one_line_error(capsys, args + ["--stats-in", stats])
        assert err == f"error: {stats} line 5: expected 2 cells, got 1\n"

    @pytest.mark.parametrize("value", ["-1", "99999999999"])
    def test_stats_bucket_count_out_of_range(self, synth_dir, tmp_path, capsys, value):
        stats = tmp_path / "stats.txt"
        args = ["frame", "--events", synth_dir / "events.csv",
                "--outcomes", synth_dir / "outcomes.csv", "--out-frames", tmp_path / "f.csv"]
        assert main([str(a) for a in args + ["--stats-out", stats]]) == 0
        lines = stats.read_text().splitlines()
        stats.write_text("\n".join([f"n_buckets={value}"] + lines[1:]) + "\n")
        err = one_line_error(capsys, args + ["--stats-in", stats])
        assert err == f"error: {stats} line 1: bad value {value!r} for 'n_buckets'\n"

    def test_stats_of_another_grid_name_the_stats_file(self, synth_dir, tmp_path, capsys):
        stats = tmp_path / "stats.txt"
        args = ["frame", "--events", synth_dir / "events.csv",
                "--outcomes", synth_dir / "outcomes.csv", "--out-frames", tmp_path / "f.csv"]
        assert main([str(a) for a in args + ["--stats-out", stats]]) == 0
        err = one_line_error(capsys, args + ["--window-hours", 4, "--stats-in", stats])
        assert err == f"error: {stats}: stats for 24 buckets, but the grid has 12\n"

    def test_query_frames_of_another_grid_name_the_query_file(self, synth_dir, framed,
                                                              tmp_path, capsys):
        query = tmp_path / "query.csv"
        assert main(["frame", "--events", str(synth_dir / "events.csv"),
                     "--outcomes", str(synth_dir / "outcomes.csv"),
                     "--out-frames", str(query), "--window-hours", "4"]) == 0
        weights = tmp_path / "w.csv"
        weights.write_text("variable,weight\n" + "".join(
            f"{name},1.0\n" for name in vocab.ALL_VARIABLES))
        err = one_line_error(capsys, ["predict", "--train-frames", framed, "--query-frames", query,
                                      "--weights", weights, "--out", tmp_path / "pred.csv"])
        assert err == (f"error: {query}: 12 buckets per variable, "
                       f"but the training frames have 24\n")

    @pytest.mark.parametrize("argv, config, reason", [
        (["experiment", "exp3", "--lr", "-1"], None, "learning_rate must be positive and finite"),
        (["experiment", "exp3", "--lr", "nan"], None, "learning_rate must be positive and finite"),
        (["experiment", "exp3"], "max_epochs = 0\n",
         "{config} line 1: max_epochs must be at least 1"),
        (["evaluate", "--threshold", "1.5", "--out", "m.csv"], None,
         "threshold must be in (0, 1)"),
        (["frame", "--horizon-hours", "72", "--out-frames", "f.csv"], None,
         "window_hours must be positive and divide horizon_hours, which is at most 48; "
         "got 2 and 72"),
        (["frame", "--window-hours", "5", "--out-frames", "f.csv"], None,
         "window_hours must be positive and divide horizon_hours, which is at most 48; "
         "got 5 and 48"),
        (["experiment", "exp3", "--workers", "-4"], None, "workers must be at least 0"),
        (["experiment", "exp3"], "workers = -1\n", "{config} line 1: workers must be at least 0"),
        (["experiment", "exp3", "--n-patients", "50"], None,
         "--n-patients sets the synthetic cohort, which --events and --outcomes replace"),
        (["experiment", "exp3", "--profile", "trend"], None,
         "--profile sets the synthetic cohort, which --events and --outcomes replace"),
        (["experiment", "exp1", "--manual-weights", "missing_w.csv"], None,
         "--manual-weights sets exp3's manual arm, which exp1 does not have"),
        (["experiment", "exp2", "--manual-weights", "missing_w.csv"], None,
         "--manual-weights sets exp3's manual arm, which exp2 does not have"),
        (["evaluate", "--weighting", "manual", "--out", "m.csv"], None,
         "manual weighting requires a loaded weights file"),
        (["evaluate", "--weighting", "chi2", "--manual-weights", "missing_w.csv",
          "--out", "m.csv"], None, "--manual-weights is for manual weighting, not chi2"),
    ], ids=["lr_negative", "lr_nan", "config_max_epochs_0", "threshold", "horizon_72h",
            "window_5h", "workers_negative", "config_workers_negative", "n_patients_with_data",
            "profile_with_data", "exp1_manual_weights", "exp2_manual_weights",
            "evaluate_manual_without_file", "evaluate_chi2_with_manual_weights"])
    def test_settings_faults_come_before_data(self, tmp_path, capsys, argv, config, reason):
        argv = argv + ["--events", tmp_path / "missing.csv", "--outcomes", tmp_path / "no.csv"]
        if argv[0] == "experiment":
            argv += ["--out-dir", tmp_path / "out"]
        if config:
            (tmp_path / "run.cfg").write_text(config)
            argv += ["--config", tmp_path / "run.cfg"]
        reason = reason.format(config=tmp_path / "run.cfg")
        assert one_line_error(capsys, argv) == f"error: {reason}\n"

    @pytest.mark.parametrize("flag", ["--events", "--outcomes"])
    def test_experiment_takes_events_and_outcomes_together(self, tmp_path, capsys, flag):
        err = one_line_error(capsys, ["experiment", "exp3", flag, tmp_path / "missing.csv",
                                      "--out-dir", tmp_path / "out"])
        assert err == "error: supply both --events and --outcomes, or neither\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("alpha", ["nan", "-1", "0", "1", "1.5"])
    def test_compare_alpha_fault_comes_before_the_reports(self, tmp_path, capsys, alpha):
        err = one_line_error(capsys, ["compare", f"x={tmp_path / 'missing.csv'}",
                                      f"y={tmp_path / 'missing.csv'}", "--out-json",
                                      tmp_path / "o.json", "--alpha", alpha])
        assert err == "error: alpha must be in (0, 1)\n"

    @pytest.mark.parametrize("lr, reason", [
        ("nan", "learning_rate must be positive and finite"),
        ("inf", "learning_rate must be positive and finite"),
        ("1e6", "gradient descent diverged: the training error is not finite at epoch 1; "
                "a smaller learning rate may converge"),
    ])
    def test_train_learning_rate_fault(self, framed, tmp_path, capsys, lr, reason):
        err = one_line_error(capsys, ["train", "--frames", framed, "--lr", lr,
                                      "--weights-out", tmp_path / "w.csv"])
        assert err == f"error: {reason}\n"
        assert not (tmp_path / "w.csv").exists()

    def test_train_start_weights_fault(self, framed, tmp_path, capsys):
        """Every similarity underflows before any step: the start weights are at fault."""
        start = tmp_path / "start.csv"
        start.write_text("variable,weight\n" + "".join(
            f"{name},1e300\n" for name in vocab.ALL_VARIABLES))
        err = one_line_error(capsys, ["train", "--frames", framed, "--init-weights", start,
                                      "--weights-out", tmp_path / "w.csv"])
        assert err == ("error: gradient descent cannot start: the training error is not "
                       "finite at the start weights (largest 1e+300); smaller ones may converge\n")
        assert not (tmp_path / "w.csv").exists()

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_weighted_mode_underflow_fault(self, synth_dir, framed, tmp_path, capsys, command):
        """Weights of 1000 put every neighbor's similarity exp(-d2) at 0, where a
        weighted score would be 0/0."""
        weights = tmp_path / "w1000.csv"
        weights.write_text("variable,weight\n" + "".join(
            f"{name},1000\n" for name in vocab.ALL_VARIABLES))
        out = tmp_path / "out.csv"
        argv = {"predict": ["predict", "--train-frames", framed, "--weights", weights],
                "evaluate": ["evaluate", "--events", synth_dir / "events.csv",
                             "--outcomes", synth_dir / "outcomes.csv", "--weighting", "manual",
                             "--manual-weights", weights, "--folds", "3"]}[command]
        err = one_line_error(capsys, argv + ["--mode", "weighted", "--out", out])
        assert re.fullmatch(r"error: weighted mode: at these weights every neighbor similarity "
                            r"exp\(-d2\) of \d+ of \d+ patients underflows to 0; smaller weights "
                            r"or majority mode can score them\n", err), err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["predict", "train", "evaluate"])
    def test_weight_sum_overflow_fault(self, synth_dir, framed, tmp_path, capsys, command):
        """Weights of 1.7e308 are each finite, but their sum is not, and neither
        would the weighted distances be."""
        weights = tmp_path / "wmax.csv"
        weights.write_text("variable,weight\n" + "".join(
            f"{name},1.7e308\n" for name in vocab.ALL_VARIABLES))
        out = tmp_path / "out.csv"
        argv = {"predict": ["predict", "--train-frames", framed, "--weights", weights, "--out"],
                "train": ["train", "--frames", framed, "--init-weights", weights,
                          "--weights-out"],
                "evaluate": ["evaluate", "--events", synth_dir / "events.csv",
                             "--outcomes", synth_dir / "outcomes.csv", "--weighting", "manual",
                             "--manual-weights", weights, "--folds", "3", "--out"]}[command]
        err = one_line_error(capsys, argv + [out])
        assert err == (f"error: {weights}: the weights sum past the largest float, so "
                       "weighted distances would overflow\n")
        assert not out.exists()

    @pytest.mark.parametrize("text, reason", [
        ("# run\nk=abc\n", "line 2: bad value for 'k': 'abc'"),
        ("events = real.csv\n", "line 1: unknown config key 'events'"),
        ("k=5\noutput_dir=out\n", "line 2: unknown config key 'output_dir'"),
    ])
    def test_config_fault_names_file_and_line(self, tmp_path, capsys, text, reason):
        config = tmp_path / "run.cfg"
        config.write_text(text)
        err = one_line_error(capsys, ["experiment", "exp3", "--config", config,
                                      "--out-dir", tmp_path / "out"])
        assert err == f"error: {config} {reason}\n"
        assert not (tmp_path / "out").exists()

    GRID = "window_hours must be positive and divide horizon_hours, which is at most 48; got "

    @pytest.mark.parametrize("argv, text, reason", [
        (["train"], "k = 3\nmax_epochs = 0\n", "{config} line 2: max_epochs must be at least 1"),
        (["evaluate"], "weighting = foo\n",
         f"{{config}} line 1: weighting must be one of {_CHOICES['weighting']}, got 'foo'"),
        # the grid rule spans two keys, here from the file and the defaults or a flag
        (["evaluate"], "window_hours = 5\n", GRID + "5 and 48"),
        (["train"], "horizon_hours = 72\n", GRID + "2 and 72"),
        (["frame", "--window-hours", "5"], "horizon_hours = 24\n", GRID + "5 and 24"),
        # a flag's fault names no file
        (["train", "--max-epochs", "0"], "k = 3\n", "max_epochs must be at least 1"),
        (["evaluate", "--weighting", "gd"], "max_epochs = 0\n",
         "{config} line 1: max_epochs must be at least 1"),
    ])
    def test_config_value_fault_names_file_and_line(self, tmp_path, capsys, argv, text, reason):
        config = tmp_path / "c.cfg"
        config.write_text(text)
        data = ["--events", tmp_path / "e.csv", "--outcomes", tmp_path / "o.csv"]
        files = {"train": ["--frames", tmp_path / "f.csv", "--weights-out", tmp_path / "w.csv"],
                 "evaluate": data + ["--out", tmp_path / "m.csv"],
                 "frame": data + ["--out-frames", tmp_path / "f.csv"]}[argv[0]]
        err = one_line_error(capsys, argv + files + ["--config", config])
        assert err == f"error: {reason.format(config=config)}\n"
        assert not any(p.name != "c.cfg" for p in tmp_path.iterdir())

    def test_header_fault_quotes_a_bounded_prefix(self, framed, tmp_path, capsys):
        first = framed.read_text().splitlines()[0]
        err = one_line_error(capsys, ["predict", "--train-frames", framed, "--weights", framed,
                                      "--out", tmp_path / "pred.csv"])
        assert err == (f"error: {framed} line 1: expected header variable,weight (2 cells), "
                       f"got {first[:tables.QUOTE_CHARS] + '...'!r}\n")
        assert len(err) < len(str(framed)) + 200

    def test_events_without_outcome_row(self, tmp_path, capsys):
        events, outcomes = tmp_path / "events.csv", tmp_path / "outcomes.csv"
        events.write_text("patient_id,minute,variable,value\n"
                          "p1,0,Age,54\np3,10,Heart rate,-1\n\np3,20,Heart rate,80\n")
        outcomes.write_text("patient_id,in_hospital_death\np1,0\n")
        err = one_line_error(capsys, ["frame", "--events", events, "--outcomes", outcomes,
                                      "--out-frames", tmp_path / "f.csv"])
        # line 3 is a dropped placeholder row, so p3's first row is on line 5
        assert err == f"error: {events} line 5: patient 'p3' has events but no outcome row\n"

    def test_outcome_without_events(self, tmp_path, capsys):
        events, outcomes = tmp_path / "events.csv", tmp_path / "outcomes.csv"
        events.write_text("patient_id,minute,variable,value\np1,0,Age,54\n")
        outcomes.write_text("patient_id,in_hospital_death\np1,0\n\np2,1\n")
        err = one_line_error(capsys, ["frame", "--events", events, "--outcomes", outcomes,
                                      "--out-frames", tmp_path / "f.csv"])
        assert err == f"error: {outcomes} line 4: patient 'p2' has an outcome but no events\n"

    @pytest.mark.parametrize("command", [
        ["frame", "--out-frames", "f.csv"],
        ["experiment", "exp3", "--out-dir", "out"],
    ])
    def test_header_only_events_and_outcomes(self, tmp_path, capsys, command):
        events, outcomes = tmp_path / "events.csv", tmp_path / "outcomes.csv"
        events.write_text("patient_id,minute,variable,value\n")
        outcomes.write_text("patient_id,in_hospital_death\n")
        argv = command[:-1] + [tmp_path / command[-1], "--events", events, "--outcomes", outcomes]
        err = one_line_error(capsys, argv)
        assert err == f"error: {events}: no event rows, so the cohort has no patients\n"


@pytest.fixture(scope="module")
def stats_in(synth_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("stats")
    assert main(["frame", "--events", str(synth_dir / "events.csv"),
                 "--outcomes", str(synth_dir / "outcomes.csv"),
                 "--out-frames", str(out / "frames.csv"), "--stats-out", str(out / "stats.txt")]) == 0
    return out / "stats.txt"


# enough folds for the 60 patients of synth_dir, so exp3 succeeds on valid inputs
EXP3_FOLDS = ("--folds", "3", "--workers", "1")


class TestReaderFuzz:
    """A mutated input file fails in one stderr line naming it, exit 1 (2 for I/O), no traceback.

    Each case breaks one file of a command that would otherwise succeed.
    The one exception to naming the broken file: an events or outcomes
    file with no rows leaves the other file's first patient unmatched, and
    that fault names the other file and line. Some mutations break
    nothing, and the command must exit 0 with nothing on stderr:
    write_scaling_stats writes nan for a bucket that no training patient
    was observed in, so a stats file with a nan bucket mean is valid; a
    config with no rows sets no key; and manual weights with no rows leave
    every variable at 0, with a logged warning (which pytest captures
    apart from stderr).
    """

    READERS = {
        "train --frames": ("frames", lambda f, bad, out: [
            "train", "--frames", bad, "--weights-out", out / "w.csv", "--max-epochs", "1"]),
        "predict --train-frames": ("frames", lambda f, bad, out: [
            "predict", "--train-frames", bad, "--weights", f["weights"], "--out", out / "p.csv"]),
        "predict --query-frames": ("frames", lambda f, bad, out: [
            "predict", "--train-frames", f["frames"], "--query-frames", bad,
            "--weights", f["weights"], "--out", out / "p.csv"]),
        "predict --weights": ("weights", lambda f, bad, out: [
            "predict", "--train-frames", f["frames"], "--weights", bad, "--out", out / "p.csv"]),
        "compare NAME=PATH": ("metrics", lambda f, bad, out: [
            "compare", f"a={f['metrics']}", f"b={bad}", "--out-json", out / "r.json"]),
        "experiment --events": ("events", lambda f, bad, out: [
            "experiment", "exp3", "--events", bad, "--outcomes", f["outcomes"],
            "--out-dir", out, *EXP3_FOLDS]),
        "experiment --outcomes": ("outcomes", lambda f, bad, out: [
            "experiment", "exp3", "--events", f["events"], "--outcomes", bad,
            "--out-dir", out, *EXP3_FOLDS]),
        "frame --stats-in": ("stats", lambda f, bad, out: [
            "frame", "--events", f["events"], "--outcomes", f["outcomes"], "--stats-in", bad,
            "--out-frames", out / "f.csv"]),
        "train --init-weights": ("weights", lambda f, bad, out: [
            "train", "--frames", f["frames"], "--init-weights", bad,
            "--weights-out", out / "w.csv", "--max-epochs", "1"]),
        "experiment --manual-weights": ("weights", lambda f, bad, out: [
            "experiment", "exp3", "--events", f["events"], "--outcomes", f["outcomes"],
            "--manual-weights", bad, "--out-dir", out, *EXP3_FOLDS]),
        "train --config": ("config", lambda f, bad, out: [
            "train", "--frames", f["frames"], "--weights-out", out / "w.csv", "--config", bad]),
    }
    # the key=value files; the first line of each stands as the header
    SEPARATORS = {"stats": "=", "config": "="}
    # the readers that take a file with no rows
    LENIENT = {"train --config", "train --init-weights", "experiment --manual-weights"}

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.sampled_from(sorted(READERS)), st.sampled_from(FAULTS + ("missing",)), st.data())
    def test_one_line_naming_the_file(self, synth_dir, framed, stats_in, tmp_path, capsys,
                                      caplog, reader, mutation, data):
        kind, argv = self.READERS[reader]
        files = {"frames": framed, "events": synth_dir / "events.csv",
                 "outcomes": synth_dir / "outcomes.csv", "weights": tmp_path / "w.csv",
                 "metrics": tmp_path / "metrics.csv", "stats": stats_in,
                 "config": tmp_path / "run.cfg"}
        files["weights"].write_text("variable,weight\n" + "".join(
            f"{name},1.0\n" for name in vocab.ALL_VARIABLES))
        evaluation.save_fold_metrics([evaluation.FoldMetrics(i, 3, 1, 2, 9, 0.75, 0.6, i / 5)
                                      for i in range(4)], files["metrics"])
        files["config"].write_text("# train settings\nmax_epochs=1\nk=5\n")
        text = files[kind].read_text()
        with tempfile.TemporaryDirectory(dir=tmp_path) as out:
            out = Path(out)
            bad = out / f"bad_{kind}.csv"
            if mutation != "missing":
                mutated = mutate(text, mutation, data.draw, self.SEPARATORS.get(kind, ","))
                bad.write_bytes(mutated.encode(errors="surrogateescape"))
            capsys.readouterr()
            caplog.clear()
            rc = main([str(a) for a in argv(files, bad, out)])
            err = capsys.readouterr().err
        if kind == "stats" and mutation == "nan" and all(
                line.startswith("dyn_bucket_mean.")
                for line in set(mutated.splitlines()) - set(text.splitlines())):
            assert (rc, err) == (0, "")
            return
        if reader in self.LENIENT and mutation in ("empty", "header_only"):
            assert (rc, err) == (0, "")
            if kind == "weights":
                assert "leaves 40 variables at weight 0" in caplog.text
            return
        partner = {"events": "outcomes", "outcomes": "events"}.get(kind)
        named = files[partner] if partner and mutation == "header_only" else bad
        assert rc == (2 if mutation == "missing" else 1)
        assert err.count("\n") == 1 and err.endswith("\n"), err
        assert str(named) in err


class TestNumericFaults:
    """Weights up to the float maximum and frames cells outside [0, 1], through the CLI.

    Every run exits 0 with finite outputs and nothing on stderr, or exits 1
    with one line; a frames file with a cell outside [0, 1] always fails,
    naming itself, and otherwise weights whose sum is not finite fail,
    naming their file. A numpy floating-point warning fails the test, as
    the suite turns it into an error.
    """

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.sampled_from(["train", "predict", "evaluate"]),
           st.sampled_from(["majority", "weighted"]),
           st.one_of(st.integers(-3, 308).map(lambda e: 10.0 ** e), st.just(sys.float_info.max)),
           st.lists(st.floats(0.0, 1.0), min_size=vocab.N_VARIABLES,
                    max_size=vocab.N_VARIABLES),
           st.booleans(), st.data())
    def test_finite_outputs_or_one_line(self, synth_dir, framed, tmp_path, capsys, command,
                                        mode, scale, shares, outside, data):
        outside = outside and command != "evaluate"     # evaluate frames its own events
        with tempfile.TemporaryDirectory(dir=tmp_path) as out:
            out = Path(out)
            weights, frames = out / "w.csv", framed
            weights.write_text("variable,weight\n" + "".join(
                f"{name},{share * scale!r}\n"
                for name, share in zip(vocab.ALL_VARIABLES, shares)))
            if outside:
                lines = framed.read_text().splitlines()
                row = data.draw(st.integers(1, len(lines) - 1))
                cells = lines[row].split(",")
                cells[data.draw(st.integers(2, len(cells) - 1))] = repr(data.draw(st.one_of(
                    st.floats(max_value=-1e-308, allow_infinity=False),
                    st.floats(min_value=1.0, exclude_min=True, allow_infinity=False))))
                lines[row] = ",".join(cells)
                frames = out / "frames.csv"
                frames.write_text("\n".join(lines) + "\n")
            argv = {
                "train": ["train", "--frames", frames, "--init-weights", weights, "--k", "5",
                          "--weights-out", out / "learned.csv", "--trace-out", out / "trace.csv",
                          "--max-epochs", "3"],
                "predict": ["predict", "--train-frames", frames, "--weights", weights,
                            "--k", "5", "--mode", mode, "--out", out / "pred.csv"],
                "evaluate": ["evaluate", "--events", synth_dir / "events.csv",
                             "--outcomes", synth_dir / "outcomes.csv", "--weighting", "manual",
                             "--manual-weights", weights, "--k", "5", "--mode", mode,
                             "--folds", "3", "--out", out / "metrics.csv"],
            }[command]
            capsys.readouterr()
            rc = main([str(a) for a in argv])
            err = capsys.readouterr().err
            if rc == 0:
                assert not outside and err == ""
                written = {"train": ["learned.csv", "trace.csv"], "predict": ["pred.csv"],
                           "evaluate": ["metrics.csv"]}[command]
                for name in written:
                    rows = [line.split(",")[1:] for line in
                            (out / name).read_text().splitlines()[1:]]
                    assert np.isfinite(np.array(rows, dtype=float)).all(), name
            else:
                assert rc == 1 and err.count("\n") == 1 and err.startswith("error: "), err
                assert not outside or f"{frames} line " in err
                if not outside and not math.isfinite(sum(share * scale for share in shares)):
                    assert err.startswith(f"error: {weights}: the weights sum past "), err
