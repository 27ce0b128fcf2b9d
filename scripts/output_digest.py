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

Usage: python3 scripts/output_digest.py [--seed SEED]
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIRS = ("configs", "perfbench/configs")


def digest(stdout: bytes, out: Path) -> str:
    """sha256 of ``stdout``, then of each file under ``out`` as (relative path, bytes)."""
    h = hashlib.sha256(stdout)
    files = sorted(p for p in out.rglob("*") if p.is_file()) if out.is_dir() else []
    for path in files:
        h.update(b"\0" + path.relative_to(out).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1, help="the --seed passed to every run")
    args = ap.parse_args()

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    configs = sorted(p for d in CONFIG_DIRS for p in (ROOT / d).glob("*.json"))
    with tempfile.TemporaryDirectory(prefix="lnls-digest-") as tmp:
        for i, config in enumerate(configs):
            out = Path(tmp) / f"run{i:02d}"
            kind = json.loads(config.read_text())["kind"]
            proc = subprocess.run(
                [sys.executable, "-m", "lnls.cli", kind, "--config", str(config),
                 "--seed", str(args.seed), "--out", str(out)],
                cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
            print(f"{config.relative_to(ROOT).as_posix()} {proc.returncode} "
                  f"{digest(proc.stdout, out)}", flush=True)


if __name__ == "__main__":
    main()
