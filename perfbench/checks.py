"""Check one ``lnls`` CLI invocation's artifacts against the acceptance tolerances.

The tolerances are the library's own acceptance gates (``tests/test_acceptance.py``)
and do not depend on the seed, so an invocation with a fresh seed is checked
the same way.  :func:`check_invocation` returns the reasons the invocation
failed (empty when it passed), the ``check.*`` values it contributes, and the
fingerprint values it contributes when its result does not depend on the seed.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

SLOPE_MIN = 0.45                 # acceptance 6: continuum-limit slope per time
REFERENCE_MARGIN = 0.05          # acceptance 6: reference self-distance / smallest error
STRANG_MASS_DRIFT_MAX = 1e-11    # acceptance 3: Strang mass conservation
OTHER_MASS_DRIFT_MAX = 1e-6      # acceptance 4: RK4 / cross-integrator agreement
RICHARDSON_RANGE = (3.2, 4.8)    # acceptance 3: energy Richardson ratio
UNIFORMITY_MAX = 3.0             # acceptance 8-10: uniformity factor
GRID_HEADER_BYTES = 16           # magic (8) + d (2) + reserved (2) + M (4)


@dataclass
class CheckResult:
    failures: list[str] = field(default_factory=list)
    values: dict[str, float] = field(default_factory=dict)
    fingerprint: dict[str, float] = field(default_factory=dict)

    def require(self, ok: bool, reason: str) -> bool:
        if not ok:
            self.failures.append(reason)
        return ok


def _finite(x: object) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _check_converge(config: dict, out: Path, res: CheckResult) -> None:
    summary = json.loads((out / "summary.json").read_text())
    with open(out / "records.csv", newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if r["experiment"] == "converge"]
    n_h = len(config["h_list"])
    slopes, ratios = [], []
    for t in config["times"]:
        fit = summary["fits"].get(f"{t:g}")
        if not res.require(fit is not None, f"no rate fit at t={t:g}"):
            continue
        slope = fit["slope"]
        res.require(_finite(slope) and slope >= SLOPE_MIN,
                    f"slope {slope!r} at t={t:g} below {SLOPE_MIN}")
        errors = [float(r["value"]) for r in rows if float(r["t"]) == t]
        if not res.require(len(errors) == n_h and all(math.isfinite(e) and e > 0 for e in errors),
                           f"expected {n_h} positive errors at t={t:g}, got {errors}"):
            continue
        ratio = fit["reference_distance"] / min(errors)
        res.require(_finite(ratio) and ratio < REFERENCE_MARGIN,
                    f"reference self-distance is {ratio:.3g} of the smallest error at t={t:g}")
        slopes.append(slope)
        ratios.append(ratio)
        res.fingerprint[f"slope.t{t:g}"] = slope
        for i, e in enumerate(errors):
            res.fingerprint[f"error.t{t:g}.h{i}"] = e
    if slopes:
        res.values["min_rate_slope"] = min(slopes)
        res.values["ref_cert_ratio"] = max(ratios)


def _check_uniformity(config: dict, out: Path, res: CheckResult) -> None:
    summary = json.loads((out / "summary.json").read_text())
    factor = summary.get("uniformity_factor")
    res.require(summary.get("verdict") == "PASS", f"verdict {summary.get('verdict')!r}")
    if not res.require(_finite(factor) and factor < UNIFORMITY_MAX,
                       f"uniformity factor {factor!r} not below {UNIFORMITY_MAX}"):
        return
    per_h: dict[float, float] = {}
    with open(out / "records.jsonl") as fh:
        for line in fh:
            rec = json.loads(line)
            if rec["ratio"] is None or rec["metadata"].get("skipped"):
                continue
            per_h[rec["h"]] = max(per_h.get(rec["h"], -math.inf), rec["ratio"])
    recomputed = max(per_h.values()) / min(per_h.values()) if per_h else math.nan
    res.require(math.isclose(recomputed, factor, rel_tol=1e-9),
                f"records give uniformity factor {recomputed!r}, summary says {factor!r}")
    res.values["max_uniformity_factor"] = factor
    res.fingerprint["uniformity_factor"] = factor
    for i, h in enumerate(sorted(per_h)):
        res.fingerprint[f"max_ratio.h{i}"] = per_h[h]


def _recorded_steps(n_steps: int, stride: int) -> int:
    return 1 + sum(1 for j in range(1, n_steps + 1) if j % stride == 0 or j == n_steps)


def _check_simulate(config: dict, out: Path, res: CheckResult) -> None:
    evo = config["evolution"]
    n_steps = int(round(evo["t_final"] / evo["dt"]))
    expected = _recorded_steps(n_steps, evo.get("record_stride", 1))
    manifest = json.loads((out / "trajectory" / "manifest.json").read_text())
    snapshots = manifest["snapshots"]
    res.require(len(snapshots) == expected and len(manifest["times"]) == expected,
                f"manifest lists {len(snapshots)} snapshots, expected {expected}")
    grid_bytes = GRID_HEADER_BYTES + 16 * (2 * config["m"]) ** config["d"]
    bad = [s for s in snapshots
           if not (out / "trajectory" / s).is_file()
           or (out / "trajectory" / s).stat().st_size != grid_bytes]
    res.require(not bad, f"{len(bad)} snapshot file(s) missing or not {grid_bytes} bytes")
    with open(out / "conserved.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    res.require(len(rows) == expected, f"conserved.csv has {len(rows)} rows, expected {expected}")
    drifts = [float(r["mass_drift"]) for r in rows]
    if not res.require(rows and all(math.isfinite(x) for x in drifts), "non-finite mass drift"):
        return
    strang = evo.get("integrator", "strang") == "strang"
    limit = STRANG_MASS_DRIFT_MAX if strang else OTHER_MASS_DRIFT_MAX
    res.require(max(drifts) <= limit, f"mass drift {max(drifts):.3g} above {limit:g}")
    if strang:
        res.values["max_mass_drift"] = max(drifts)
    res.fingerprint["final_mass"] = float(rows[-1]["mass"])
    res.fingerprint["final_energy"] = float(rows[-1]["energy"])


def _check_conserve(config: dict, out: Path, res: CheckResult) -> None:
    summary = json.loads((out / "summary.json").read_text())
    drifts = list(summary["mass_drift"].values())
    res.require(len(drifts) == 2 and all(_finite(x) and x <= STRANG_MASS_DRIFT_MAX for x in drifts),
                f"mass drift {drifts} above {STRANG_MASS_DRIFT_MAX:g}")
    ratio = summary["energy_richardson_ratio"]
    lo, hi = RICHARDSON_RANGE
    res.require(_finite(ratio) and lo <= ratio <= hi,
                f"energy Richardson ratio {ratio!r} outside [{lo}, {hi}]")
    if all(_finite(x) for x in drifts):
        res.values["max_mass_drift"] = max(drifts)
    res.fingerprint["energy_richardson_ratio"] = ratio
    res.fingerprint["energy_drift.dt"] = summary["energy_drift"]["dt"]


CHECKERS = {
    "converge": _check_converge,
    "strichartz": _check_uniformity,
    "dispersive": _check_uniformity,
    "inequalities": _check_uniformity,
    "simulate": _check_simulate,
    "conserve": _check_conserve,
}


def check_invocation(command: str, config: dict, out: Path, exit_code: int, stdout: str) -> CheckResult:
    """Check one finished invocation; any unreadable artifact is a failure."""
    res = CheckResult()
    if not res.require(exit_code == 0, f"exit code {exit_code}"):
        return res
    res.require("FAIL" not in stdout, "FAIL verdict printed")
    try:
        CHECKERS[command](config, Path(out), res)
    except (OSError, ValueError, KeyError, TypeError, AttributeError, IndexError,
            ZeroDivisionError, csv.Error) as exc:
        res.failures.append(f"unreadable artifact: {type(exc).__name__}: {exc}")
    return res
