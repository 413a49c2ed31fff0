"""The outputs whose bytes hold on every CPU path, pinned by sha256.

synth, frame, a majority-mode predict under fixed weights, two evaluate
runs (aggregates under chi2 weights, time frames under gd) and
experiments exp1, exp2 and exp3 write the same bytes whichever SIMD loops numpy
dispatches to and whichever OpenBLAS kernel runs: these hashes were
also taken in processes started under OPENBLAS_CORETYPE=Sandybridge and
under NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4". The
learned weights and trace of train, and the scores of a weighted-mode
predict, are left out: their last bits follow the CPU path, as `np.exp`
and the BLAS products do. `test_pinned_outputs_hold_on_other_cpu_paths`
reruns the flow in processes started under both settings.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from patsim import vocab
from patsim.cli import main

PINNED = {
    "synth/events.csv":
        "94839f0ea9bd05498d3fe843fbe75c1cddf2e8c950b79fa466c776c140623b8b",
    "synth/outcomes.csv":
        "0f3e8630959c9ed9c68300f74d0623ebed73138738bcd0657841629421b96fcb",
    "synth/manifest.json":
        "454778cf60497fcfb3a3354482fee9f5b990d2a0876ca115d6e72707aa126494",
    "frames.csv":
        "473b8e0b7873bef4c542427506a537af95ad4900ee8c8a4a8c46924854c4a8ba",
    "mask.csv":
        "a727e6f6bada6f0b878d36db7d22737fba6c9fae2c30894c858a4ec66f2be4c5",
    "stats.txt":
        "52871c715a9713e525797e7b341c786adb32c372fc8567f9f7363d40bf786cf4",
    "pred.csv":
        "c871979dff33139f83c3faa8806d9ce906dc447ffdb37bde1d47e53f13f033e8",
    "eval_aggregation.csv":
        "fb557eac281e3d52dc063833d083d5c62b86cdc1855de61bae98115693718985",
    "eval_gd.csv":
        "9564d29cf235ef785f5a689b05dfb0cfe039ee045e227e32b278e7ea80654c7a",
    "exp1/exp1_report.json":
        "e3d190be0331054a80416565ec854d68d35bbcdbcde495676dc68825981a8f9c",
    "exp1/exp1_report.txt":
        "5157e9271ae27dd6ce8c0f43ff9058e18e9bdee7ee44917aa52d18b6759bf176",
    "exp2/exp2_report.json":
        "550f5d8777b13a3c1877ae7d7b7fa1e8ce90a19748282abbd7a41f9a606c9dfb",
    "exp2/exp2_report.txt":
        "5065a8cb211c9b6f407195d24f627cb1ebaa057476e758c41c3f4d629355227f",
    "exp3/exp3_report.json":
        "cc58118af9689cc2f9b7e21b41ba69575056c787e89d64e3031fdbf06c640780",
    "exp3/exp3_report.txt":
        "4714b8e402ab86d900142402fcbee0148880d72cc257bf6723702bcc4700dc92",
}


# settings that make numpy and OpenBLAS take other code paths on an AVX-512 host;
# each changes the bits of train's weights and of weighted-mode scores
CPU_PATHS = {
    "openblas-sandybridge": {"OPENBLAS_CORETYPE": "Sandybridge"},
    "numpy-without-avx512": {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4"},
}


def pinned_hashes(tmp_path, workers) -> dict:
    """synth -> frame -> majority predict -> evaluate and exp1-3 on 150 patients, 3 GD
    epochs; the sha256 of every file named in PINNED."""
    synth = tmp_path / "synth"
    assert main(["synth", "--out-dir", str(synth), "--n-patients", "150", "--seed", "2101"]) == 0
    assert main(["frame", "--events", str(synth / "events.csv"),
                 "--outcomes", str(synth / "outcomes.csv"),
                 "--out-frames", str(tmp_path / "frames.csv"),
                 "--out-mask", str(tmp_path / "mask.csv"),
                 "--stats-out", str(tmp_path / "stats.txt")]) == 0
    weights = tmp_path / "weights.csv"
    weights.write_text("variable,weight\n" + "".join(
        f"{name},{(1 + v % 4) / 4}\n" for v, name in enumerate(vocab.ALL_VARIABLES)))
    assert main(["predict", "--train-frames", str(tmp_path / "frames.csv"),
                 "--weights", str(weights), "--out", str(tmp_path / "pred.csv"),
                 "--workers", str(workers)]) == 0
    (tmp_path / "run.cfg").write_text("max_epochs=3\n")
    data = ["--events", str(synth / "events.csv"), "--outcomes", str(synth / "outcomes.csv"),
            "--folds", "5", "--config", str(tmp_path / "run.cfg"), "--workers", str(workers)]
    for preset in ("exp1", "exp2", "exp3"):
        assert main(["experiment", preset, *data, "--out-dir", str(tmp_path / preset)]) == 0
    assert main(["evaluate", *data, "--representation", "aggregation", "--weighting", "chi2",
                 "--out", str(tmp_path / "eval_aggregation.csv")]) == 0
    assert main(["evaluate", *data, "--out", str(tmp_path / "eval_gd.csv")]) == 0
    return {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in PINNED}


@pytest.mark.parametrize("workers", [1, 2])
def test_host_independent_outputs_keep_their_bytes(tmp_path, workers):
    assert pinned_hashes(tmp_path, workers) == PINNED


@pytest.mark.parametrize("cpu_path", sorted(CPU_PATHS))
def test_pinned_outputs_hold_on_other_cpu_paths(tmp_path, cpu_path):
    """The same flow at --workers 1 and 2, in a process started under `cpu_path`."""
    code = ("import json, sys; from pathlib import Path; "
            "from test_pinned_outputs import pinned_hashes; "
            "print(json.dumps([pinned_hashes(Path(sys.argv[1]) / str(w), w) for w in (1, 2)]))")
    for workers in (1, 2):
        (tmp_path / str(workers)).mkdir()
    env = dict(os.environ, **CPU_PATHS[cpu_path])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(__file__).parent),
                                                      env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                         capture_output=True, text=True, check=True)
    assert json.loads(out.stdout.splitlines()[-1]) == [PINNED, PINNED]
