"""The lazy ``lnls`` package: what importing it loads and what it exports.

Each check runs in a fresh interpreter, since this test process has long since
loaded NumPy and every submodule.
"""
from __future__ import annotations

import json
import subprocess
import sys

SUBMODULES = ("continuum", "corpus", "dynamics", "estimates", "harness", "lattice", "records",
              "spectral", "util")


def _run(code: str):
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_loads_neither_numpy_nor_submodules():
    loaded = _run("import json, sys, lnls; "
                  "print(json.dumps([m for m in sys.modules if m == 'numpy' or m.startswith('lnls.')]))")
    assert loaded == []


def test_cli_import_loads_every_submodule_but_not_numpy_polynomial():
    loaded = _run("import json, sys, lnls.cli; print(json.dumps(sorted(sys.modules)))")
    assert {f"lnls.{name}" for name in SUBMODULES} <= set(loaded)
    assert "numpy.polynomial" not in loaded


def test_building_a_profile_loads_no_masked_arrays():
    # np.unique imports numpy.ma, which adds 1.7 MB to the peak RSS of every CLI run
    loaded = _run("import json, sys; from lnls.continuum import wrapped_gaussian; "
                  "wrapped_gaussian(2, 0.8); print(json.dumps('numpy.ma' in sys.modules))")
    assert loaded is False


def test_every_export_is_its_submodule_object():
    mismatched = _run(
        "import importlib, json, lnls\n"
        "bad = []\n"
        "for name, module in lnls._EXPORTS.items():\n"
        "    exec(f'from lnls import {name} as value')\n"
        "    if value is not getattr(importlib.import_module(f'lnls.{module}'), name):\n"
        "        bad.append(name)\n"
        "print(json.dumps(bad))"
    )
    assert mismatched == []


def test_unknown_name_raises_attribute_error_naming_it():
    message = _run(
        "import json, lnls\n"
        "try:\n"
        "    lnls.nonexistent\n"
        "except AttributeError as exc:\n"
        "    print(json.dumps(str(exc)))"
    )
    assert "nonexistent" in message


def test_dir_and_all_list_the_exports():
    listed = _run("import json, lnls; print(json.dumps([dir(lnls), lnls.__all__, lnls.__version__]))")
    names, exported, version = listed
    assert len(exported) == len(set(exported)) == 49
    assert set(exported) <= set(names)
    assert {"Lattice", "evolve", "run_convergence", "__version__"} <= set(names)
    assert isinstance(version, str) and version
    # the deleted single steps and error decomposition raise AttributeError (hasattr is False)
    deleted = ["decompose_error", "picard_iterate", "step_rk4"]
    assert _run(f"import json, lnls; print(json.dumps([hasattr(lnls, n) for n in {deleted!r}]))") \
        == [False] * 3
