"""The demo scripts under ``scripts/`` still import what they use from ``lnls``.

Each script is loaded under a run name other than ``__main__``, so its imports
and definitions run and its demo does not.
"""
from __future__ import annotations

import runpy
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))


def test_scripts_exist():
    assert SCRIPTS


@pytest.mark.parametrize("path", SCRIPTS, ids=[path.name for path in SCRIPTS])
def test_script_imports(path):
    namespace = runpy.run_path(str(path), run_name="not_main")
    assert callable(namespace["main"])
