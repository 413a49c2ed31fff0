"""patsim benchmark: one workload, one seed, one run.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a patsim checkout. Set-up synthesizes the workload's
cohort from the seed (several times, reporting the median as setup_s),
then the workload's `patsim` CLI commands run in fresh processes, one at
a time, until S seconds of commands have been timed. Every command's
outputs are checked. With --trace 1 the commands then run once more with
spans recorded around each layer's public functions, and the per-layer
metrics are printed instead of the end-to-end ones.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The lines before it print
every metric with its unit, the error rate and the environment; the full
record also goes to .perfbench/results/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
# Set-up runs this many times before measuring and again after, so that
# setup_s, their median, samples the host over the whole run as wall_s does.
SETUP_REPEATS_BEFORE = 3
SETUP_REPEATS_AFTER = 2
# commands of multi-command sequences whose own medians are printed too
COMMANDS_OF_NOTE = ("train", "predict", "exp3-w1", "exp3-w2")
RUN_BUDGET_S = 165.0         # every run ends well inside the 180 s it is allowed

sys.path.insert(0, str(HERE))
import tracer  # noqa: E402
import workloads  # noqa: E402


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Runner:
    """Runs CLI commands one at a time in fresh processes, with a deadline."""

    def __init__(self, deadline, log_dir):
        self.deadline = deadline
        self.log_dir = log_dir
        self.env = _child_env()

    def run(self, label, argv, cwd):
        """(ok, wall_s, cpu_s, maxrss_kb) of one process, measured with wait4."""
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(self.log_dir / f"{label}.out", "w") as out, \
                open(self.log_dir / f"{label}.err", "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=out, stderr=err)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = (self.log_dir / f"{label}.err").read_text(errors="replace")[-800:]
            print(f"perfbench: {label} exited {proc.returncode}: {tail}", file=sys.stderr)
        return proc.returncode == 0, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss


def _cli(args):
    return [sys.executable, "-m", "patsim.cli", *args]


def _traced_cli(spans_path, args):
    return [sys.executable, str(HERE / "traced_cli.py"), str(spans_path), *args]


def environment(seed, inputs, load_at_start):
    import numpy
    import scipy

    blas = None
    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info['name']} {info['version']}"
    except (TypeError, KeyError):
        pass
    commit = None
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "nproc": os.cpu_count(),
        "loadavg_at_start": list(load_at_start),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "commit": commit,
        "source_sha256": _source_digest(),
        "seed": seed,
        "n_patients": inputs.n_patients,
        "n_events": inputs.n_events,
    }


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "patsim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def warm_up(runner, inputs, work):
    """Untimed: pull the inputs into the page cache and compile patsim's bytecode."""
    for path in inputs.files.values():
        with open(path, "rb") as fh:
            while fh.read(1 << 20):
                pass
    runner.run("warm-up", [sys.executable, "-c", "import patsim.cli"], work)


def run_sequence(runner, workload, inputs, out, rng, traced_dir=None):
    """Run the workload's commands once and check their outputs.

    Returns one dict per command: label, ok, wall_s, cpu_s, maxrss_kb,
    failures and, when traced, the spans file.
    """
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    results = []
    for label, args in workload.commands(inputs, out):
        if traced_dir is None:
            argv, spans = _cli(args), None
        else:
            spans = traced_dir / f"{label}.json"
            argv = _traced_cli(spans, args)
        ok, wall, cpu, rss = runner.run(label, argv, out)
        results.append({"label": label, "ok": ok, "wall_s": wall, "cpu_s": cpu,
                        "maxrss_kb": rss, "failures": [], "spans": spans})
    for result in results:
        check = workload.checks.get(result["label"])
        if not result["ok"]:
            result["failures"].append("command failed")
        elif check is not None:
            try:
                result["failures"] += check(inputs, out, rng)
            except (OSError, ValueError, KeyError, IndexError, StopIteration) as exc:
                result["failures"].append(f"output unreadable: {exc!r}")
        if not result["failures"] and result["label"] in workload.reports:
            result["report_sha256"] = {Path(name).name: workloads.sha256(out / name)
                                       for name in workload.reports[result["label"]]}
        if not result["failures"] and result["label"] in workload.gd_epochs:
            result["gd_epochs"] = workload.gd_epochs[result["label"]](out)
    return results


def _check_reports_agree(commands):
    """Reports must be byte-identical across the commands of a run: the
    same exp3 at --workers 1 and 2, and in every sequence."""
    runs = [r for r in commands if "report_sha256" in r]
    for r in runs[1:]:
        if r["report_sha256"] != runs[0]["report_sha256"]:
            r["failures"].append(f"report differs from the one {runs[0]['label']} wrote")


def measure(runner, workload, inputs, work, seconds, rng):
    """Closed loop: run the command sequence until `seconds` of it are timed."""
    iterations = []
    timed = 0.0
    while True:
        started = time.monotonic()
        results = run_sequence(runner, workload, inputs, work / "out", rng)
        iterations.append(results)
        timed += sum(r["wall_s"] for r in results)
        took = time.monotonic() - started
        if timed >= seconds or time.monotonic() + took > runner.deadline:
            return iterations


def _command_median(iterations, label):
    times = [r["wall_s"] for it in iterations for r in it if r["label"] == label]
    return statistics.median(times) if times else None


def end_to_end(setup_times, iterations):
    walls = [sum(r["wall_s"] for r in it) for it in iterations]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (max(r["maxrss_kb"] for it in iterations for r in it) / 1024, "MB"),
    }
    extra = {}
    for label in COMMANDS_OF_NOTE:
        median = _command_median(iterations, label)
        if median is not None:
            extra[f"{label.replace('-', '_')}_s"] = (median, "s")
    epochs = [r["gd_epochs"] for it in iterations for r in it if "gd_epochs" in r]
    if epochs:
        extra["gd_epochs"] = (statistics.median(epochs), "count")
    return metrics, extra


def _sum(spans, name, key=None):
    chosen = [s for s in spans if s["name"] == name]
    if key is None:
        return sum(s["end"] - s["start"] for s in chosen)
    return sum(s["info"].get(key, 0) for s in chosen)


def _count(spans, name):
    return sum(1 for s in spans if s["name"] == name)


def _read_spans(traced):
    """{"import_s", "spans"} of each traced command that wrote its spans file."""
    return [json.loads(Path(r["spans"]).read_text()) for r in traced
            if Path(r["spans"]).exists()]


def check_spans(traced):
    """Every span must lie inside its parent, pool threads' spans included."""
    for result in traced:
        path = Path(result["spans"])
        if path.exists():   # a command that wrote none failed, as run_sequence recorded
            result["failures"] += tracer.span_errors(json.loads(path.read_text())["spans"])


def _merge_spans(per_command):
    """Spans of all traced commands in one list, parent indices made global."""
    spans = []
    for data in per_command:
        offset = len(spans)
        for span in data["spans"]:
            if span["parent"] is not None:
                span["parent"] += offset
            spans.append(span)
    return spans


def per_layer(traced, iterations, synth_s):
    """Per-layer metrics from the traced commands plus the untraced runs."""
    per_command = _read_spans(traced)
    imports = [data["import_s"] for data in per_command]
    spans = _merge_spans(per_command)
    owns = tracer.self_times(spans)
    self_by = {}
    for span, own in zip(spans, owns):
        self_by[span["layer"]] = self_by.get(span["layer"], 0.0) + own
        self_by[span["name"]] = self_by.get(span["name"], 0.0) + own

    walls = [sum(r["wall_s"] for r in it) for it in iterations]
    cpus = [sum(r["cpu_s"] for r in it) for it in iterations]
    untraced_wall = statistics.median(walls)
    traced_wall = sum(r["wall_s"] for r in traced)

    parse_s = _sum(spans, "parse_events")
    rows = _sum(spans, "parse_events", "rows")
    gd_s = _sum(spans, "train_gd")
    epochs = _sum(spans, "train_gd", "epochs")
    largest_n = max([s["info"].get("n", 0) for s in spans if s["name"] == "train_gd"] or [0])
    neighbor_us = sorted(1e6 * (s["end"] - s["start"]) for s in spans if s["name"] == "neighbors")
    in_pool = [s for s in spans
               if s["parent"] is not None and spans[s["parent"]]["name"] == "cross_validate"]
    busy = sum(s["end"] - s["start"] for s in in_pool)
    capacity = sum(s["info"].get("workers", 1) * (s["end"] - s["start"])
                   for s in spans if s["name"] == "cross_validate")

    m = {
        "cli.import_s": (statistics.median(imports or [0.0]), "s"),
        "cli.cpu_s": (statistics.median(cpus), "s"),
        "cli.cpu_util": (statistics.median(c / w for c, w in zip(cpus, walls)), "ratio"),
        **{f"cli.{label.replace('-', '_')}_cmd_s": (_command_median(iterations, label) or 0.0, "s")
           for label in COMMANDS_OF_NOTE},
        "ingest.parse_events_s": (parse_s, "s"),
        "ingest.build_cohort_s": (_sum(spans, "build_cohort"), "s"),
        "ingest.rows": (rows, "count"),
        "ingest.rows_per_s": (rows / parse_s if parse_s else 0.0, "1/s"),
        "framing.frame_cohort_s": (_sum(spans, "frame_cohort"), "s"),
        "framing.fit_scaling_s": (_sum(spans, "fit_scaling"), "s"),
        "framing.fit_scaling_calls": (_count(spans, "fit_scaling"), "count"),
        "framing.impute_and_scale_s": (_sum(spans, "impute_and_scale"), "s"),
        "framing.impute_and_scale_calls": (_count(spans, "impute_and_scale"), "count"),
        "framing.read_frames_s": (_sum(spans, "read_frames"), "s"),
        "framing.bytes_read": (_sum(spans, "read_frames", "bytes"), "bytes"),
        "weights.train_gd_s": (gd_s, "s"),
        "weights.train_gd_calls": (_count(spans, "train_gd"), "count"),
        "weights.gd_epochs": (epochs, "count"),
        "weights.epoch_ms": (1000 * gd_s / epochs if epochs else 0.0, "ms"),
        "weights.dist_tensor_mb": (40 * largest_n ** 2 * 8 / 1e6, "MB"),
        "weights.filter_weights_s": (_sum(spans, "filter_weights"), "s"),
        "weights.filter_weights_calls": (_count(spans, "filter_weights"), "count"),
        "knn.model_init_s": (_sum(spans, "Model"), "s"),
        "knn.classify_batch_s": (_sum(spans, "classify_batch"), "s"),
        "knn.neighbors_calls": (len(neighbor_us), "count"),
        "knn.neighbors_us_p50": (_quantile(neighbor_us, 0.50), "us"),
        "knn.neighbors_us_p99": (_quantile(neighbor_us, 0.99), "us"),
        "knn.pairs_scanned": (_sum(spans, "neighbors", "pairs"), "count"),
        "evaluation.cross_validate_s": (_sum(spans, "cross_validate"), "s"),
        "evaluation.cross_validate_calls": (_count(spans, "cross_validate"), "count"),
        "evaluation.compare_s": (_sum(spans, "compare"), "s"),
        "evaluation.pool_busy_s": (busy, "s"),
        "evaluation.pool_efficiency": (busy / capacity if capacity else 0.0, "ratio"),
        "experiments.run_experiment_s": (_sum(spans, "run_experiment"), "s"),
        "experiments.run_experiment_self_s": (self_by.get("run_experiment", 0.0), "s"),
        "synth.generate_s": (synth_s, "s"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.self_sum_s": (sum(owns), "s"),
        "trace.overhead_frac": ((traced_wall - untraced_wall) / untraced_wall, "ratio"),
    }
    for layer in ("cli", "ingest", "framing", "weights", "knn", "evaluation", "experiments"):
        m[f"{layer}.self_s"] = (self_by.get(layer, 0.0), "s")
    return m


def _quantile(sorted_values, q):
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated benchmark still kills and reaps the command it is running
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "patsim" / "cli.py").is_file():
        print(f"perfbench: no patsim sources under {SRC}; run from a patsim checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    deadline = time.monotonic() + RUN_BUDGET_S
    workload = workloads.WORKLOADS[args.workload]
    seed = args.seed % 2 ** 32
    work = STATE / "work" / f"{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "logs").mkdir(parents=True)
    runner = Runner(deadline, work / "logs")
    load_at_start = os.getloadavg()
    try:
        return _run(args, workload, seed, work, runner, load_at_start)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, workload, seed, work, runner, load_at_start):
    import patsim.synth  # noqa: F401  (imported before set-up is timed)

    recorder = None
    if args.trace:
        recorder = tracer.Tracer()
        recorder.install(layers={"synth"})
    setup_times = []

    def set_up():
        start = time.perf_counter()
        inputs = workload.setup(work, seed)
        setup_times.append(time.perf_counter() - start)
        return inputs

    inputs = set_up()
    for _ in range(0 if args.trace else SETUP_REPEATS_BEFORE - 1):
        set_up()
    env = environment(seed, inputs, load_at_start)
    warm_up(runner, inputs, work)

    rng = random.Random(seed)
    iterations = measure(runner, workload, inputs, work, args.seconds, rng)
    for _ in range(0 if args.trace else SETUP_REPEATS_AFTER):
        set_up()        # rewrites the same files: set-up is deterministic in the seed
    commands = [r for it in iterations for r in it]
    traced = []
    if args.trace:
        traced_dir = work / "spans"
        traced_dir.mkdir()
        traced = run_sequence(runner, workload, inputs, work / "out", rng, traced_dir)
        commands += traced

    _check_reports_agree(commands)
    metrics, extra = end_to_end(setup_times, iterations)
    if args.trace:
        check_spans(traced)
        metrics = per_layer(traced, iterations, _sum(recorder.records(), "generate"))

    failed = sum(1 for r in commands if r["failures"])
    for r in commands:
        for failure in r["failures"]:
            print(f"perfbench: {r['label']}: {failure}", file=sys.stderr)
    shown = dict(metrics, **extra, error_rate=(failed / len(commands), "ratio"))
    record = {
        "workload": workload.name, "trace": args.trace, "environment": env,
        "setup_s": setup_times,
        "commands": [{k: v for k, v in r.items() if k != "spans"} for r in commands],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
    }
    results_dir = STATE / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{workload.name}-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))

    print(f"perfbench {workload.name} seed={seed} trace={args.trace} "
          f"commands={len(commands)} failed={failed}")
    print("environment " + json.dumps(env, default=str))
    for name, (value, unit) in shown.items():
        print(f"  {name:36s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(commands),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
