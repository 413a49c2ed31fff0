"""The outputs whose bytes hold on every CPU path, pinned by sha256.

synth, frame, a majority-mode predict under fixed weights, two evaluate
runs (aggregates under chi2 weights, time frames under gd) and
experiments exp1, exp2 and exp3 write the same bytes whichever SIMD loops numpy
dispatches to and whichever OpenBLAS kernel runs: these hashes were
also taken in processes started under OPENBLAS_CORETYPE=Sandybridge and
under NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4".
`test_pinned_outputs_hold_on_other_cpu_paths` reruns the flow in
processes started under both settings.

The learned weights and trace of train, and the scores of a weighted-mode
predict, have last bits that follow the CPU path, as `np.exp` and the
BLAS products do. PINNED_BY_CPU_PATH holds their hashes with the path
each was recorded on; on a path it does not hold, their test skips and
names the path.
"""

import ctypes
import glob
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

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

# cpu_path() -> the sha256 of each file cpu_path_hashes writes, recorded on that path:
# natively and under each of CPU_PATHS, on an Intel Xeon with AVX-512, numpy 2.4.6
PINNED_BY_CPU_PATH = {
    "numpy SIMD X86_V2 X86_V3 X86_V4 AVX512_ICL AVX512_SPR; OpenBLAS core SkylakeX": {
        "weights.csv": "8bb2d48f98b14b065f015de65fef28395a32e2b082e09fc447b38b601bcd1312",
        "trace.csv": "eba058759c816fc907532a41154b2005f66e92e358231f99df2767d735099a81",
        "pred_weighted.csv": "ffa4c95916fc4793bd68be16faa7d51831cc49a459da2beea48f95dde9cd39d1",
    },
    "numpy SIMD X86_V2 X86_V3 X86_V4 AVX512_ICL AVX512_SPR; OpenBLAS core Sandybridge": {
        "weights.csv": "044a0f1a168b43dcd1840ba21e44aa8a751feac84662f329ee723e80ffd2c375",
        "trace.csv": "58e90627c2326d13a26ae03c6644d88255f10aaf71874d72f08111c7b32d2c9c",
        "pred_weighted.csv": "ce7777b813816652f8ccaa8ed31b7175b4ae5d447b1708ef20f942d92ac356d7",
    },
    "numpy SIMD X86_V2 X86_V3; OpenBLAS core SkylakeX": {
        "weights.csv": "31e102c9bf19b3eac324a1c3bd5b28703095e7c723255583f344d4d4909cb937",
        "trace.csv": "eba058759c816fc907532a41154b2005f66e92e358231f99df2767d735099a81",
        "pred_weighted.csv": "960eb3dcb1efbd4bc1aa40d257c54242df468f4e23f11861f6fdd7397193dfd9",
    },
}


def cpu_path() -> str:
    """This process's CPU path: numpy's SIMD targets (its baseline, then the dispatch
    targets this CPU runs) and the core of numpy's bundled OpenBLAS."""
    umath = getattr(getattr(np, "_core", None), "_multiarray_umath", None)
    features = getattr(umath, "__cpu_features__", None)
    targets = "unknown" if features is None else " ".join(
        [*umath.__cpu_baseline__, *(t for t in umath.__cpu_dispatch__ if features.get(t))])
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas*"))
    corename = getattr(ctypes.CDLL(libs[0]), "scipy_openblas_get_corename64_", None) \
        if libs else None
    core = "unknown"
    if corename is not None:
        corename.restype = ctypes.c_char_p
        core = corename().decode("ascii")
    return f"numpy SIMD {targets}; OpenBLAS core {core}"


def cpu_path_hashes(tmp_path) -> list:
    """[cpu_path(), hashes]: synth -> frame -> train (5 GD epochs) -> weighted predict
    with the learned weights on 150 patients, and the sha256 of each output."""
    synth = tmp_path / "synth"
    assert main(["synth", "--out-dir", str(synth), "--n-patients", "150", "--seed", "2101"]) == 0
    assert main(["frame", "--events", str(synth / "events.csv"),
                 "--outcomes", str(synth / "outcomes.csv"),
                 "--out-frames", str(tmp_path / "frames.csv")]) == 0
    assert main(["train", "--frames", str(tmp_path / "frames.csv"),
                 "--weights-out", str(tmp_path / "weights.csv"),
                 "--trace-out", str(tmp_path / "trace.csv"), "--max-epochs", "5"]) == 0
    assert main(["predict", "--train-frames", str(tmp_path / "frames.csv"),
                 "--weights", str(tmp_path / "weights.csv"), "--mode", "weighted",
                 "--out", str(tmp_path / "pred_weighted.csv")]) == 0
    return [cpu_path(), {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                         for name in ("weights.csv", "trace.csv", "pred_weighted.csv")}]


def run_on(cpu_path, code, *args):
    """The JSON that `python -c code args` prints last, in a process started under
    `cpu_path`, a key of CPU_PATHS, or as this one for None."""
    env = dict(os.environ, **CPU_PATHS.get(cpu_path, {}))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(__file__).parent),
                                                      env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


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
    assert run_on(cpu_path, code, tmp_path) == [PINNED, PINNED]


@pytest.mark.parametrize("cpu_path", ["native", *sorted(CPU_PATHS)])
def test_cpu_dependent_outputs_keep_their_bytes_on_their_path(tmp_path, cpu_path):
    """train's weights and trace and a weighted predict, in a process started under
    `cpu_path`, against the pin recorded on the path that process reports."""
    code = ("import json, sys; from pathlib import Path; "
            "from test_pinned_outputs import cpu_path_hashes; "
            "print(json.dumps(cpu_path_hashes(Path(sys.argv[1]))))")
    path, hashes = run_on(cpu_path, code, tmp_path)
    if path not in PINNED_BY_CPU_PATH:
        pytest.skip(f"no pin covers the CPU path {path!r}")
    assert hashes == PINNED_BY_CPU_PATH[path]
