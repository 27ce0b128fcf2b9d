"""Tests of the benchmark itself: a failed or corrupted artifact must count as a failure.

Run with ``python3 -m pytest perfbench`` from the repository root.  The
artifacts are written by hand in the shapes the ``lnls`` CLI writes, so these
tests need neither ``lnls`` nor a benchmark run.
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from checks import check_invocation
from run import END_TO_END, PER_LAYER_NAMES, fingerprint_deviation
from tracer import Tracer, _fft_shape

ROOT = Path(__file__).resolve().parent.parent


def _uniformity(out: Path, ratios: dict[float, float], verdict: str = "PASS", factor=None) -> None:
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "records.jsonl", "w") as fh:
        for h, ratio in ratios.items():
            fh.write(json.dumps({"h": h, "ratio": ratio, "metadata": {}}) + "\n")
    if factor is None:
        factor = max(ratios.values()) / min(ratios.values())
    (out / "summary.json").write_text(json.dumps({"uniformity_factor": factor, "verdict": verdict}))


def _converge(out: Path, slope: float = 0.98, ref_distance: float = 1e-6) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    config = {"h_list": ["pi/4", "pi/8", "pi/16"], "times": [0.25]}
    rows = ["experiment,h,N,q,r,epsilon,t,value,ratio"]
    rows += [f"converge,{h},,,,,0.25,{e},," for h, e in ((0.78, 0.7), (0.39, 0.36), (0.19, 0.18))]
    (out / "records.csv").write_text("\n".join(rows) + "\n")
    (out / "summary.json").write_text(json.dumps(
        {"fits": {"0.25": {"slope": slope, "reference_distance": ref_distance}}}))
    return config


def _simulate(out: Path, drift: float = 1e-13, snapshots: int = 3) -> dict:
    config = {"d": 1, "m": 4, "evolution": {"dt": 0.5, "t_final": 1.0, "integrator": "strang",
                                            "record_stride": 1}}
    traj = out / "trajectory"
    traj.mkdir(parents=True, exist_ok=True)
    names = [f"snap_{i:06d}.grid" for i in range(snapshots)]
    for name in names:
        (traj / name).write_bytes(b"\0" * (16 + 16 * 8))
    (traj / "manifest.json").write_text(json.dumps({"snapshots": names, "times": [0.0, 0.5, 1.0]}))
    rows = ["t,mass,energy,mass_drift,energy_drift"]
    rows += [f"{t},1.0,2.0,{drift if t else 0.0},0.0" for t in (0.0, 0.5, 1.0)]
    (out / "conserved.csv").write_text("\n".join(rows) + "\n")
    return config


def _conserve(out: Path, ratio: float = 4.0) -> None:
    out.mkdir(parents=True, exist_ok=True)
    (out / "summary.json").write_text(json.dumps({
        "mass_drift": {"dt": 1e-13, "dt_half": 2e-13},
        "energy_drift": {"dt": 1e-5, "dt_half": 2.5e-6},
        "energy_richardson_ratio": ratio,
    }))


def test_passing_artifacts_pass(tmp_path):
    _uniformity(tmp_path / "u", {0.4: 1.0, 0.2: 1.5})
    assert check_invocation("dispersive", {}, tmp_path / "u", 0, "PASS").failures == []
    config = _converge(tmp_path / "c")
    res = check_invocation("converge", config, tmp_path / "c", 0, "")
    assert res.failures == [] and res.values["min_rate_slope"] == 0.98
    config = _simulate(tmp_path / "s")
    assert check_invocation("simulate", config, tmp_path / "s", 0, "").failures == []
    _conserve(tmp_path / "k")
    assert check_invocation("conserve", {}, tmp_path / "k", 0, "").failures == []


def test_fail_verdict_is_a_failure(tmp_path):
    _uniformity(tmp_path, {0.4: 1.0, 0.2: 5.0}, verdict="FAIL")
    res = check_invocation("strichartz", {}, tmp_path, 0, "uniformity factor 5: FAIL")
    assert len(res.failures) >= 2


def test_summary_that_disagrees_with_records_is_a_failure(tmp_path):
    _uniformity(tmp_path, {0.4: 1.0, 0.2: 1.5}, factor=1.2)
    assert check_invocation("inequalities", {}, tmp_path, 0, "").failures


def test_truncated_artifact_is_a_failure(tmp_path):
    _uniformity(tmp_path, {0.4: 1.0, 0.2: 1.5})
    (tmp_path / "summary.json").write_text('{"uniformity_factor": 1.5, "verd')
    res = check_invocation("dispersive", {}, tmp_path, 0, "")
    assert res.failures and "unreadable" in res.failures[0]


def test_missing_output_directory_is_a_failure(tmp_path):
    assert check_invocation("conserve", {}, tmp_path / "absent", 0, "").failures


def test_nonzero_exit_is_a_failure(tmp_path):
    _conserve(tmp_path)
    assert check_invocation("conserve", {}, tmp_path, 3, "").failures == ["exit code 3"]


@pytest.mark.parametrize("slope, ref_distance", [(0.3, 1e-6), (0.98, 0.05)])
def test_converge_tolerances(tmp_path, slope, ref_distance):
    config = _converge(tmp_path, slope=slope, ref_distance=ref_distance)
    assert check_invocation("converge", config, tmp_path, 0, "").failures


def test_simulate_drift_and_snapshot_count(tmp_path):
    config = _simulate(tmp_path / "a", drift=1e-9)
    assert check_invocation("simulate", config, tmp_path / "a", 0, "").failures
    config = _simulate(tmp_path / "b", snapshots=2)
    assert check_invocation("simulate", config, tmp_path / "b", 0, "").failures
    config = _simulate(tmp_path / "c")
    (tmp_path / "c" / "trajectory" / "snap_000001.grid").write_bytes(b"\0" * 10)
    assert check_invocation("simulate", config, tmp_path / "c", 0, "").failures


def test_richardson_ratio_out_of_range(tmp_path):
    _conserve(tmp_path, ratio=2.0)
    assert check_invocation("conserve", {}, tmp_path, 0, "").failures


def test_fingerprint_deviation():
    assert fingerprint_deviation({"a": 1.0}, {"a": 1.0}) == 0.0
    assert math.isclose(fingerprint_deviation({"a": 1.1}, {"a": 1.0}), 0.1)
    assert fingerprint_deviation({}, {"a": 1.0}) == 1.0


def test_benchmark_json_lists_the_runner_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [name for name, _ in END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == PER_LAYER_NAMES
    layers = json.loads((ROOT / "perfbench" / "layers.json").read_text())
    mapped = [name for layer in layers["layers"].values() for name in layer["metrics"]]
    assert sorted(mapped) == sorted(PER_LAYER_NAMES)
    assert sorted(layers["workloads"]) == sorted(w["name"] for w in spec["workloads"])


def test_fft_shape():
    assert _fft_shape("fftn", (5, 8, 8), ((),), {"axes": (1, 2)}) == (64, 5)
    assert _fft_shape("fftn", (8, 8), ((),), {}) == (64, 1)
    assert _fft_shape("fft", (3, 16), ((),), {}) == (16, 3)


def test_self_times_are_per_thread():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.01))

    def outer_fn(_):
        inner()
        return time.sleep(0.002)

    outer = tracer.wrap("outer", outer_fn)
    with ThreadPoolExecutor(max_workers=4) as pool:
        list(pool.map(outer, range(8)))
    assert tracer.min_self_s >= 0
    assert tracer.spans["outer"]["calls"] == 8 and tracer.spans["inner"]["calls"] == 8
    assert tracer.spans["outer"]["self_s"] < tracer.spans["inner"]["self_s"]
