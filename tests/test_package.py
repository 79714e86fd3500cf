"""The `termnet` package itself holds its docstring, the one-BLAS-thread pin
and `__version__`, and re-exports nothing: each name is imported from its
module, so `termnet.census` is the module, not a function of the same name.
"""

import json
import os
import pathlib
import subprocess
import sys
import warnings

import pytest

import termnet
import termnet.census as census_by_path
from termnet import census

SRC = os.path.dirname(os.path.dirname(termnet.__file__))
PYPROJECT = pathlib.Path(SRC).parent / "pyproject.toml"


def test_a_submodule_is_its_module_by_either_import():
    assert census_by_path is census is sys.modules["termnet.census"]
    assert callable(census.census)


def test_importing_the_package_loads_no_submodule_and_no_numpy():
    probe = "import json, sys, termnet\nprint(json.dumps(sorted(m for m in sys.modules if m.startswith(('termnet.', 'numpy')))))"
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_the_package_re_exports_nothing():
    public = {name for name in vars(termnet) if not name.startswith("_")}
    # `os` for the BLAS pin, and each submodule that this process has imported by now
    assert public - {"os"} <= {m.rpartition(".")[2] for m in sys.modules if m.startswith("termnet.")}


def test_pyproject_takes_the_version_from_the_package():
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # setuptools calls its [tool.setuptools] support beta
        project = pyprojecttoml.read_configuration(PYPROJECT)["project"]
    assert "version" in project["dynamic"]
    assert project["version"] == termnet.__version__
