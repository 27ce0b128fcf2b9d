"""The scripts under ``scripts/`` still import what they use from ``lnls``.

Each script is loaded under a run name other than ``__main__``, so its imports
and definitions run and its ``main`` does not.  The output digest's comparison
of two artefact trees is checked on small synthetic trees.
"""
from __future__ import annotations

import json
import math
import runpy
from pathlib import Path

import numpy as np
import pytest

from lnls.lattice import GridFunction, Lattice, write_grid

SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))
DIGEST = Path(__file__).resolve().parent.parent / "scripts" / "output_digest.py"


def test_scripts_exist():
    assert SCRIPTS


@pytest.mark.parametrize("path", SCRIPTS, ids=[path.name for path in SCRIPTS])
def test_script_imports(path):
    namespace = runpy.run_path(str(path), run_name="not_main")
    assert callable(namespace["main"])


def _artefacts(root: Path, step: float, verdict: str = "PASS") -> Path:
    # a small tree of every compared kind, with numbers moved by ``step``
    (root / "trajectory").mkdir(parents=True)
    (root / "summary.json").write_text(json.dumps(
        {"verdict": verdict, "slope": 1.0 + step, "errors": [1e-3, 2e-4], "n": 4}))
    (root / "records.jsonl").write_text('{"h": 0.5, "error": 0.25}\n{"h": 0.25, "error": 0.125}\n')
    (root / "conserved.csv").write_text(f"t,mass\n0,1.5\n1,{1.5 * (1.0 + step / 4)!r}\n")
    (root / "rate.tsv").write_text("h\terror\n0.5\t0.25\n")
    (root / "rates.svg").write_text(f"<svg>{step}</svg>")
    values = np.ones((8, 8), dtype=np.complex128)
    values[3, 5] += step / 16
    write_grid(GridFunction(Lattice(2, 4), values), root / "trajectory" / "snap_000000.grid")
    return root


def test_output_digest_measures_how_far_the_numbers_moved(tmp_path):
    deviations = runpy.run_path(str(DIGEST), run_name="not_main")["deviations"]
    step = 2.0**-40
    base = _artefacts(tmp_path / "base", 0.0)
    moved = _artefacts(tmp_path / "moved", step)
    assert deviations(base, _artefacts(tmp_path / "same", 0.0)) == ("0.00e+00", "-", "0.00e+00")
    rel, fit, grid = deviations(moved, base)
    assert float(rel) == pytest.approx(step / (1.0 + step), rel=1e-2)
    assert fit == "-"  # no fit residual, intercept or log column
    assert float(grid) == pytest.approx(step / 16, rel=1e-2)
    assert deviations(base, moved) == (rel, "-", f"{step / 16 / (1.0 + step / 16):.2e}")
    mismatch = ("mismatch",) * 3
    assert deviations(_artefacts(tmp_path / "fail", step, "FAIL"), base) == mismatch
    assert deviations(base, tmp_path / "absent") == mismatch
    (moved / "trajectory" / "snap_000000.grid").unlink()
    assert deviations(moved, base) == mismatch
    for root in (moved, base):
        for snapshot in (root / "trajectory").glob("*.grid"):
            snapshot.unlink()
    assert deviations(moved, base) == (rel, "-", "-")


def _fit_artefacts(root: Path, scale: float, residual: float) -> Path:
    # a converge-like tree: errors, a fit of their logarithms, and the log table
    errors = [0.9999 * scale, 0.5 * scale]
    root.mkdir(parents=True)
    (root / "summary.json").write_text(json.dumps(
        {"fits": {"1": {"intercept": 2e-3, "residual": residual, "slope": 1.0}}, "errors": errors}))
    (root / "records.csv").write_text("h,error\n" + "".join(f"0.5,{e!r}\n" for e in errors))
    (root / "rate_t1.tsv").write_text("log_h\tlog_value\n" + "".join(
        f"-0.69\t{math.log(e)!r}\n" for e in errors))
    return root


def test_output_digest_reports_fit_numbers_apart(tmp_path):
    # errors moved by 2^-44 move a log near 0 and a small residual far more, relatively;
    # those derived numbers read as fit_dev and leave rel_dev to the errors
    deviations = runpy.run_path(str(DIGEST), run_name="not_main")["deviations"]
    base = _fit_artefacts(tmp_path / "base", 1.0, 4e-3)
    moved = _fit_artefacts(tmp_path / "moved", 1.0 + 2.0**-44, 4e-3 + 1e-12)
    rel, fit, grid = deviations(moved, base)
    assert float(rel) <= 1e-13
    assert float(fit) >= 1e-12
    assert grid == "-"
