"""Each stage loads only what it computes with.

Only `classify` and `synth` compute with numpy.  Every other command, and the
`--manifest` run of every command but `synth`, starts without numpy, and no
command loads a process pool's modules (`multiprocessing`,
`concurrent.futures`): `networks`, `features` and `classify` fork through
`termnet.forked` alone.  `features` is also run on a network of 900 nodes at
`--workers 2`, `networks` on a records file it reads in parts, and
`features` and `classify` on four usable cores, so that they fork.  Each
command runs in a fresh interpreter, because this one has loaded numpy
already.
"""

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

import termnet
from termnet.cli import main
from termnet.graphs import build_graph
from termnet.ingest import _PART_BYTES, InteractionKind, TermNetworkSet
from termnet.pipeline import write_networks

from oracles import gen_random_digraph_m

SRC = os.path.dirname(os.path.dirname(termnet.__file__))
UNWANTED = ("numpy", "concurrent.futures", "multiprocessing")
BLAS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# one CLI run, then its exit code and the unwanted modules it loaded, as the last stdout line
PROBE = f"""
import json, sys
from termnet.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, [m for m in {UNWANTED!r} if m in sys.modules]]))
"""
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
    """synth --terms 6 --records 20, its networks, features and labels, a networks
    directory whose mention network has 900 nodes, and a copy of the records
    file repeated past two parts' worth of bytes."""
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
    big = gen_random_digraph_m(900, 3000, seed=4)
    graphs = {kind: build_graph([]) for kind in InteractionKind}
    graphs[InteractionKind.MENTION] = build_graph((f"u{u}", f"u{v}") for u, v in big.sorted_edges())
    write_networks([TermNetworkSet(term="#big", graphs=graphs, matched_records=3000)], root / "big-nets", "c" * 64)
    records = (corpus / "records.jsonl").read_bytes()
    (corpus / "big-records.jsonl").write_bytes(records * (2 * _PART_BYTES // len(records) + 1))
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
    "features --workers 2": FEATURES + ["--workers", "2"],
    "features --workers 2 on 900 nodes": ["features", "{}/big-nets", "-o", "{}/out-big-features.csv", "--workers", "2"],
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


def test_classify_loads_numpy_after_setting_one_blas_thread(stage_inputs):
    code, seen = run_probe(BLAS_SPY, CLASSIFY, stage_inputs)
    assert code == 0
    assert seen == [dict.fromkeys(BLAS, "1")]
