"""The ``lnls`` package: what importing it and planning a run load, and that it re-exports no name.

Each check runs in a fresh interpreter, since this test process has long since
loaded NumPy and every submodule.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

CONVERGE_D2 = Path(__file__).resolve().parent.parent / "perfbench" / "configs" / "converge_d2.json"
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


def test_cli_dry_run_loads_no_scipy():
    # the tests' oracles use SciPy; the CLI, whose dry run the benchmark times, must not
    loaded = _run(
        "import contextlib, io, json, sys\n"
        "from lnls.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main(['converge', '--config', {str(CONVERGE_D2)!r}, '--dry-run'])\n"
        "print(json.dumps([code, [m for m in sys.modules if m.split('.')[0] == 'scipy']]))"
    )
    assert loaded == [0, []]


def test_building_a_profile_loads_no_masked_arrays():
    # np.unique imports numpy.ma, which adds 1.7 MB to the peak RSS of every CLI run
    loaded = _run("import json, sys; from lnls.continuum import wrapped_gaussian; "
                  "wrapped_gaussian(2, 0.8); print(json.dumps('numpy.ma' in sys.modules))")
    assert loaded is False


def test_unknown_name_raises_attribute_error_naming_it():
    message = _run(
        "import json, lnls\n"
        "try:\n"
        "    lnls.nonexistent\n"
        "except AttributeError as exc:\n"
        "    print(json.dumps(str(exc)))"
    )
    assert "nonexistent" in message


def test_each_name_is_imported_from_its_module_only():
    found = _run(
        "import json, lnls\n"
        "public = [name for name in dir(lnls) if not name.startswith('_')]\n"
        "try:\n"
        "    from lnls import Lattice\n"
        "    reexported = True\n"
        "except ImportError:\n"
        "    reexported = False\n"
        "from lnls import dynamics, spectral\n"
        "print(json.dumps([public, reexported, lnls.__version__,\n"
        "                  callable(dynamics.evolve), callable(spectral.forward)]))"
    )
    public, reexported, version, *callables = found
    assert public == []
    assert reexported is False
    assert isinstance(version, str) and version
    assert callables == [True, True]
