"""Each stage loads only what it computes with.

Only `classify` and `synth` compute with numpy.  Every other command, and the
`--manifest` run of every command but `synth`, starts without numpy, and no
command loads a process pool's modules (`multiprocessing`,
`concurrent.futures`): `networks`, `features` and `classify` fork through
`termnet.forked` alone.  `networks` is also run on a records file it reads in
parts, and `features` and `classify` on four usable cores, so that they fork.
`networks` on a `.gz` file, which it reads in one part without forking,
loads neither `pickle` nor `signal` either.  Each command runs in a fresh
interpreter, because this one has loaded numpy already.
"""

import contextlib
import gzip
import importlib
import io
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import termnet
from termnet.cli import main
from termnet.ingest import _PART_BYTES

SRC = os.path.dirname(os.path.dirname(termnet.__file__))
UNWANTED = ("numpy", "concurrent.futures", "multiprocessing")
BLAS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def probe(unwanted=UNWANTED) -> str:
    """One CLI run, then its exit code and the `unwanted` modules it loaded, as the last stdout line."""
    return f"""
import json, sys
from termnet.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, [m for m in {unwanted!r} if m in sys.modules]]))
"""


PROBE = probe()
# PROBE as on a host of four usable cores, so that features and classify fork
FOUR_CORES_PROBE = "import os\nos.sched_getaffinity = lambda pid: range(4)\n" + PROBE

# one CLI run, then its exit code and the BLAS settings numpy's first import saw
BLAS_SPY = f"""
import json, os, sys

class NumpySpy:
    # a finder that finds nothing: it only notes the environment when numpy is first imported
    seen = []

    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not self.seen:
            self.seen.append({{k: os.environ.get(k) for k in {BLAS!r}}})
        return None

sys.meta_path.insert(0, NumpySpy())
from termnet.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, NumpySpy.seen]))
"""


@pytest.fixture(scope="module")
def stage_inputs(tmp_path_factory):
    """synth --terms 6 --records 20, its networks, features and labels, a copy of
    the records file repeated past two parts' worth of bytes, and the records file gzipped."""
    root = tmp_path_factory.mktemp("stages")
    corpus = root / "corpus"
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in (
            ["synth", "-o", corpus, "--terms", 6, "--records", 20],
            ["networks", corpus / "records.jsonl", corpus / "terms.txt", "-o", root / "nets"],
            ["features", root / "nets", "-o", root / "features.csv"],
            ["rank", corpus / "ratings.csv", "-o", root / "labels.csv"],
        ):
            assert main([str(a) for a in argv]) == 0
    records = (corpus / "records.jsonl").read_bytes()
    (corpus / "big-records.jsonl").write_bytes(records * (2 * _PART_BYTES // len(records) + 1))
    (corpus / "records.jsonl.gz").write_bytes(gzip.compress(records))
    return root


def run_probe(script: str, argv, root) -> list:
    env = {k: v for k, v in os.environ.items() if k not in BLAS}
    env["PYTHONPATH"] = SRC
    argv = [str(a).format(root) for a in argv]
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


NETWORKS = ["networks", "{}/corpus/records.jsonl", "{}/corpus/terms.txt", "-o", "{}/out-nets"]
FEATURES = ["features", "{}/nets", "-o", "{}/out-features.csv"]
RANK = ["rank", "{}/corpus/ratings.csv", "-o", "{}/out-labels.csv"]
CLASSIFY = ["classify", "{}/features.csv", "{}/labels.csv", "-o", "{}/out-results", "--folds", "2"]
CLASS_TABLE = ["class-table", "-o", "{}/out-classes.csv"]

NUMPY_FREE = {
    "--version": ["--version"],
    "networks": NETWORKS,
    "features": FEATURES,
    "networks in parts": ["networks", "{}/corpus/big-records.jsonl", "{}/corpus/terms.txt", "-o", "{}/out-big-nets"],
    "rank": RANK,
    "class-table": CLASS_TABLE,
    **{f"{argv[0]} --manifest": argv + ["--manifest"] for argv in (NETWORKS, FEATURES, RANK, CLASSIFY, CLASS_TABLE)},
}


@pytest.mark.parametrize("argv", NUMPY_FREE.values(), ids=NUMPY_FREE.keys())
def test_command_loads_neither_numpy_nor_the_process_pool(stage_inputs, argv):
    assert run_probe(PROBE, argv, stage_inputs) == [0, []]


FORKING = {"features": FEATURES, "classify": CLASSIFY}


@pytest.mark.parametrize("argv", FORKING.values(), ids=FORKING.keys())
def test_a_stage_that_forks_loads_no_process_pool(stage_inputs, argv):
    loaded = ["numpy"] if argv[0] == "classify" else []
    assert run_probe(FOUR_CORES_PROBE, argv, stage_inputs) == [0, loaded]


def test_networks_on_a_gz_file_loads_nothing_a_fork_needs(stage_inputs):
    # a .gz file is one part, read in this process: pickle and signal load only where fork_map forks
    argv = ["networks", "{}/corpus/records.jsonl.gz", "{}/corpus/terms.txt", "-o", "{}/out-gz-nets"]
    assert run_probe(probe(UNWANTED + ("pickle", "signal")), argv, stage_inputs) == [0, []]


def test_classify_loads_numpy_after_setting_one_blas_thread(stage_inputs):
    code, seen = run_probe(BLAS_SPY, CLASSIFY, stage_inputs)
    assert code == 0
    assert seen == [dict.fromkeys(BLAS, "1")]


@pytest.mark.parametrize("name", ["termnet"] + [f"termnet.{m.name}" for m in pkgutil.iter_modules(termnet.__path__)])
def test_every_exported_name_resolves(name):
    # a name left in __all__ after its definition is deleted fails here
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []
