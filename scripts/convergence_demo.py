#!/usr/bin/env python3
"""Continuum-limit demo: refine the lattice, watch the L2 error drop like h.

Evolves a wrapped-Gaussian initial state under the defocusing cubic flow on a
sweep of 1-d lattices, compares each interpolated solution against a
certified continuum reference, and fits the error-vs-spacing slope (the
library guarantees >= 1/2; smooth data typically measures ~1).

Usage: python3 scripts/convergence_demo.py [--out DIR] [--d {1,2}]
"""
from __future__ import annotations

import argparse
import math
from pathlib import Path

from lnls.continuum import wrapped_gaussian
from lnls.dynamics import NlsParams
from lnls.harness import ConvergenceStudy, run_convergence
from lnls.records import write_csv, write_loglog_tsv, write_svg_chart


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="out/convergence", help="artifact directory")
    ap.add_argument("--d", type=int, default=1, choices=(1, 2), help="spatial dimension")
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    if args.d == 1:
        study = ConvergenceStudy(
            u0=wrapped_gaussian(1, 0.8),
            params=NlsParams(p=3, lam=1),
            h_list=(math.pi / 8, math.pi / 16, math.pi / 32, math.pi / 64),
            times=(0.0, 0.25, 0.5, 1.0),
            dt=2e-3,
            reference_resolution=256,
            reference_dt=1e-3,
        )
    else:
        study = ConvergenceStudy(
            u0=wrapped_gaussian(2, 0.8),
            params=NlsParams(p=3, lam=1),
            h_list=(math.pi / 4, math.pi / 8, math.pi / 16, math.pi / 32),
            times=(0.25, 0.5, 1.0),
            dt=5e-3,
            reference_resolution=256,
            reference_dt=2.5e-3,
        )

    result = run_convergence(study)
    write_csv(result.records, out / "records.csv")
    series = {}
    for t in sorted(result.fits):
        fit = result.fits[t]
        pairs = result.errors_at(t)
        subset = [r for r in result.records if r.experiment == "converge" and r.t == t]
        write_loglog_tsv(subset, out / f"rate_t{t:g}.tsv")
        series[f"t={t:g}"] = [(math.log10(h), math.log10(e)) for h, e in pairs if e > 0]
        print(f"t = {t:g}: slope {fit.slope:.3f}  (errors "
              + "  ".join(f"{e:.3e}" for _, e in pairs) + ")")
    write_svg_chart(series, out / "rates.svg", title="L2 error vs spacing (log10-log10)")
    print(f"artifacts in {out}")


if __name__ == "__main__":
    main()
