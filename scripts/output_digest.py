#!/usr/bin/env python3
"""One digest line per shipped config: its exit code and a hash of everything it wrote.

Runs every config under ``configs/`` and ``perfbench/configs/`` through the
``lnls`` CLI of this checkout (``python -m lnls.cli KIND --config PATH
--seed SEED --out DIR``), one after another, each into its own directory
under a fresh temporary directory that is removed afterwards.  For each
config it prints the config path, the exit code and a sha256 over the
run's stdout followed by the relative path and bytes of every artefact in
sorted order.  Two checkouts that give equal listings wrote byte-identical
stdout and artefacts; so do two runs of one checkout.

``--keep DIR`` writes each config's artefacts to ``DIR/<config path>``
instead, and keeps them.  ``--against DIR`` compares each config's
artefacts with those kept under ``DIR/<config path>`` by another checkout
and appends three figures to its line: ``rel_dev``, the largest relative
deviation ``|a - b| / max(|a|, |b|)`` of any primary number (an error, a
ratio, a norm) in its JSON, JSONL, CSV and TSV artefacts; ``fit_dev``, the
same over the numbers derived from them by a fit (the JSON values named
``residual`` or ``intercept`` and the table columns named ``log_*``), whose
relative deviation is large wherever they lie near 0; and ``grid_dev``, the
largest ``max|a - b| / max|b|`` over its ``.grid`` snapshots.  A figure
reads ``-`` when the config wrote no number of that kind, and ``mismatch``
when the artefacts differ in anything but their numbers (file names,
structure, text), or when ``DIR/<config path>`` is missing.  The SVG charts are not compared.
Without the flags the listing is the same as ever.

Usage: python3 scripts/output_digest.py [--seed SEED] [--keep DIR] [--against DIR]
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIRS = ("configs", "perfbench/configs")
TABLES = {".json": None, ".jsonl": None, ".csv": ",", ".tsv": "\t"}
FIT_KEYS = ("residual", "intercept")  # JSON keys of the numbers a fit derives
FIT_COLUMNS = "log_"  # the prefix of the table columns of logarithms


def digest(stdout: bytes, out: Path) -> str:
    """sha256 of ``stdout``, then of each file under ``out`` as (relative path, bytes)."""
    h = hashlib.sha256(stdout)
    files = sorted(p for p in out.rglob("*") if p.is_file()) if out.is_dir() else []
    for path in files:
        h.update(b"\0" + path.relative_to(out).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _leaves(value, numbers: list[float], fit: list[float], text: list, key: str = "") -> None:
    """Split a parsed JSON value into its primary numbers, its fit numbers and everything else.

    ``key`` is the name of the innermost object key above ``value``.
    """
    if isinstance(value, dict):
        for name in sorted(value):
            text.append(("key", name))
            _leaves(value[name], numbers, fit, text, name)
    elif isinstance(value, list):
        text.append(("list", len(value)))
        for item in value:
            _leaves(item, numbers, fit, text, key)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        (fit if key in FIT_KEYS else numbers).append(float(value))
        text.append("number")
    else:
        text.append(value)


def table(path: Path) -> tuple[list[float], list[float], list]:
    """The primary numbers, the fit numbers and the rest of a JSON, JSONL, CSV or TSV artefact.

    In a CSV or TSV table the first row names the columns.
    """
    numbers: list[float] = []
    fit: list[float] = []
    text: list = []
    body = path.read_text()
    if path.suffix == ".json":
        _leaves(json.loads(body), numbers, fit, text)
    elif path.suffix == ".jsonl":
        for line in body.splitlines():
            _leaves(json.loads(line), numbers, fit, text)
    else:
        rows = list(csv.reader(body.splitlines(), delimiter=TABLES[path.suffix]))
        header = rows[0] if rows else []
        for row in rows:
            text.append(("row", len(row)))
            for i, cell in enumerate(row):
                try:
                    value = float(cell)
                except ValueError:
                    text.append(cell)
                    continue
                fitted = i < len(header) and header[i].startswith(FIT_COLUMNS)
                (fit if fitted else numbers).append(value)
                text.append("number")
    return numbers, fit, text


def relative_deviation(a: float, b: float) -> float:
    """``|a - b| / max(|a|, |b|)``; 0 for equal numbers (NaN equals NaN), inf for other non-finite ones."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def grid_deviation(a: Path, b: Path) -> float:
    """``max|a - b| / max|b|`` of two snapshots (inf for other lattices, 0 for equal ones)."""
    import numpy as np
    from lnls.lattice import read_grid

    u, w = read_grid(a), read_grid(b)
    if u.lattice != w.lattice:
        return math.inf
    delta = float(np.max(np.abs(u.values - w.values)))
    scale = float(np.max(np.abs(w.values)))
    return delta / scale if delta else 0.0


def deviations(out: Path, against: Path) -> tuple[str, str, str]:
    """``(rel_dev, fit_dev, grid_dev)`` of the artefacts under ``out`` against those under ``against``."""
    files = sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file()) if out.is_dir() else []
    theirs = sorted(p.relative_to(against) for p in against.rglob("*") if p.is_file()) \
        if against.is_dir() else None
    if files != theirs:
        return "mismatch", "mismatch", "mismatch"
    rel = fit = grid = None
    for name in files:
        if name.suffix in TABLES:
            (mine, mine_fit, text), (other, other_fit, other_text) = (
                table(out / name), table(against / name))
            if text != other_text:
                return "mismatch", "mismatch", "mismatch"
            rel = max([rel or 0.0] + [relative_deviation(a, b) for a, b in zip(mine, other)])
            if mine_fit:
                fit = max([fit or 0.0] + [relative_deviation(a, b) for a, b in zip(mine_fit, other_fit)])
        elif name.suffix == ".grid":
            grid = max(grid or 0.0, grid_deviation(out / name, against / name))
    return tuple("-" if x is None else f"{x:.2e}" for x in (rel, fit, grid))


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1, help="the --seed passed to every run")
    ap.add_argument("--keep", type=Path, help="keep each config's artefacts under DIR/<config path>")
    ap.add_argument("--against", type=Path,
                    help="compare with the artefacts another checkout kept under DIR/<config path>")
    args = ap.parse_args(argv)
    keep = None if args.keep is None else args.keep.resolve()
    if args.against is not None:
        sys.path.insert(0, str(ROOT / "src"))  # the snapshot reader of this checkout

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    configs = sorted(p for d in CONFIG_DIRS for p in (ROOT / d).glob("*.json"))
    names = [config.relative_to(ROOT).as_posix() for config in configs]
    if keep is not None and any((keep / name).exists() for name in names):
        ap.error(f"--keep {keep} already holds artefacts of a config")
    with tempfile.TemporaryDirectory(prefix="lnls-digest-") as tmp:
        for i, (config, name) in enumerate(zip(configs, names)):
            out = Path(tmp) / f"run{i:02d}" if keep is None else keep / name
            kind = json.loads(config.read_text())["kind"]
            proc = subprocess.run(
                [sys.executable, "-m", "lnls.cli", kind, "--config", str(config),
                 "--seed", str(args.seed), "--out", str(out)],
                cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
            line = f"{name} {proc.returncode} {digest(proc.stdout, out)}"
            if args.against is not None:
                rel, fit, grid = deviations(out, args.against / name)
                line += f" rel_dev={rel} fit_dev={fit} grid_dev={grid}"
            print(line, flush=True)


if __name__ == "__main__":
    main()
