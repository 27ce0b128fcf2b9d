"""CLI integration: exit codes, config validation, artifacts, overrides."""
from __future__ import annotations

import gc
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from lnls import cli, dynamics, spectral
from lnls.cli import ConfigError, main, parse_spacing
from lnls.continuum import wrapped_gaussian
from lnls.corpus import lattice_stress_corpus
from lnls.dynamics import INTEGRATORS, EvolutionConfig, NlsParams, evolve, rk4_stability_dt
from lnls.lattice import Lattice, discretize
from lnls.records import write_jsonl
from lnls.spectral import inequality_sweep


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _simulate_config(**overrides):
    cfg = {
        "schema_version": 1,
        "kind": "simulate",
        "d": 1,
        "m": 16,
        "initial": {"profile": "plane_wave", "mode": [1], "amplitude": 1.0},
        "params": {"p": 3, "lam": 1},
        "evolution": {"dt": 0.01, "t_final": 0.2, "record_stride": 10},
    }
    cfg.update(overrides)
    return cfg


# --------------------------------------------------------------------------
# spacing tokens


def test_parse_spacing_tokens():
    assert parse_spacing("pi/8") == pytest.approx(math.pi / 8)
    assert parse_spacing("PI/16") == pytest.approx(math.pi / 16)
    assert parse_spacing("0.125") == 0.125
    assert parse_spacing(0.25) == 0.25
    for bad in ("pi/0", "pi/x", "eight"):
        with pytest.raises(ConfigError):
            parse_spacing(bad)


# --------------------------------------------------------------------------
# exit code 0 paths


def test_simulate_writes_artifacts(tmp_path, capsys):
    cfg = _write(tmp_path, "sim.json", _simulate_config())
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "resolved_config.json").exists()
    assert (out / "conserved.csv").exists()
    assert (out / "trajectory" / "manifest.json").exists()
    table = (out / "conserved.csv").read_text().splitlines()
    assert table[0] == "t,mass,energy,mass_drift,energy_drift"
    # plane-wave mass drift stays at machine precision
    last = table[-1].split(",")
    assert float(last[3]) <= 1e-11
    captured = capsys.readouterr()
    assert "mass drift" in captured.out


def test_dry_run_prints_plan_and_writes_nothing(tmp_path, capsys):
    cfg = _write(tmp_path, "sim.json", _simulate_config())
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--dry-run"]) == 0
    assert not out.exists()
    plan = json.loads(capsys.readouterr().out)
    assert plan["kind"] == "simulate"
    assert plan["m"] == 16
    assert "threads" not in plan


@pytest.mark.parametrize("command, payload", [
    ("simulate", _simulate_config()),
    ("conserve", {
        "schema_version": 1, "kind": "conserve", "d": 1, "m": 16,
        "initial": {"profile": "wrapped_gaussian"}, "params": {"p": 3, "lam": 1},
        "dt": 0.01, "n_steps": 10,
    }),
])
def test_dry_run_computes_nothing(tmp_path, capsys, monkeypatch, command, payload):
    def refuse(*args, **kwargs):
        raise AssertionError("a dry run discretized the initial data")

    monkeypatch.setattr(cli, "discretize", refuse)
    cfg = _write(tmp_path, "c.json", payload)
    assert main([command, "--config", cfg, "--dry-run"]) == 0
    assert json.loads(capsys.readouterr().out)["kind"] == command


def test_converge_reports_slopes(tmp_path, capsys):
    cfg = _write(tmp_path, "conv.json", {
        "schema_version": 1,
        "kind": "converge",
        "d": 1,
        "initial": {"profile": "wrapped_gaussian", "width": 0.8},
        "params": {"p": 3, "lam": 1},
        "h_list": ["pi/8", "pi/16", "pi/32"],
        "times": [0.0, 0.25],
        "dt": 0.005,
        "reference": {"resolution": 128, "dt": 0.0025},
    })
    out = tmp_path / "out"
    assert main(["converge", "--config", cfg, "--out", str(out)]) == 0
    for name in ("records.csv", "records.jsonl", "summary.json", "rates.svg",
                 "rate_t0.tsv", "rate_t0.25.tsv"):
        assert (out / name).exists(), name
    summary = json.loads((out / "summary.json").read_text())
    assert summary["slope_guarantee"] == 0.5
    assert summary["fits"]["0.25"]["slope"] >= 0.9
    certificates = summary["reference_certificate"]
    assert set(certificates) == {"0", "0.25"}
    for t, cert in certificates.items():
        assert set(cert) == {"time", "tail", "resolution", "dt"}
        assert (cert["resolution"], cert["dt"]) == (128, 0.0025)
        assert summary["fits"][t]["reference_distance"] == cert["time"] + cert["tail"]
    text = capsys.readouterr().out
    assert "guarantee 0.5" in text


def test_conserve_prints_richardson_ratio(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json", {
        "schema_version": 1,
        "kind": "conserve",
        "d": 1,
        "m": 16,
        "initial": {"profile": "wrapped_gaussian", "width": 0.8},
        "params": {"p": 3, "lam": 1},
        "dt": 0.01,
        "n_steps": 100,
    })
    out = tmp_path / "out"
    assert main(["conserve", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert 3.2 <= summary["energy_richardson_ratio"] <= 4.8
    assert (out / "conserve.csv").read_text().startswith("dt,mass_drift,energy_drift")


def test_dispersive_verdict(tmp_path, capsys):
    cfg = _write(tmp_path, "d.json", {
        "schema_version": 1,
        "kind": "dispersive",
        "d": 1,
        "h_list": ["pi/8", "pi/16", "pi/32"],
    })
    out = tmp_path / "out"
    assert main(["dispersive", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["verdict"] == "PASS"
    assert summary["uniformity_factor"] < 3.0
    assert "PASS" in capsys.readouterr().out


def test_inequalities_verdict(tmp_path):
    cfg = _write(tmp_path, "i.json", {
        "schema_version": 1,
        "kind": "inequalities",
        "d": 1,
        "m_list": [8, 16, 32],
        "kinds": ["sobolev", "bernstein"],
        "s": 0.4,
    })
    out = tmp_path / "out"
    assert main(["inequalities", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["verdict"] == "PASS"


def test_strichartz_small_run(tmp_path):
    cfg = _write(tmp_path, "s.json", {
        "schema_version": 1,
        "kind": "strichartz",
        "d": 1,
        "pair": {"q": 8, "r": 8},
        "h_list": ["pi/8", "pi/16"],
        "t_nodes": 65,
        "profiles": {"n_random": 1},
    })
    out = tmp_path / "out"
    assert main(["strichartz", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["verdict"] == "PASS"
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["pair"] == {"q": 8.0, "r": 8.0}


@pytest.mark.parametrize("initial, resolved", [
    ({"profile": "plane_wave"}, {"profile": "plane_wave", "mode": [1, 0], "amplitude": 1.0}),
    ({"profile": "wrapped_gaussian"},
     {"profile": "wrapped_gaussian", "width": 0.6, "center": [0.0, 0.0]}),
    ({"profile": "random_low_modes"},
     {"profile": "random_low_modes", "seed": 0, "max_mode": 3, "n_modes": 8}),
], ids=["plane_wave", "wrapped_gaussian", "random_low_modes"])
def test_minimal_initial_resolves_every_default(tmp_path, capsys, initial, resolved):
    cfg = _write(tmp_path, "sim.json", _simulate_config(d=2, initial=initial))
    assert main(["simulate", "--config", cfg, "--dry-run"]) == 0
    assert json.loads(capsys.readouterr().out)["initial"] == resolved


def test_seed_override_recorded(tmp_path, capsys):
    cfg = _write(tmp_path, "sim.json", _simulate_config(
        initial={"profile": "random_low_modes", "seed": 1, "max_mode": 2, "n_modes": 4}))
    assert main(["simulate", "--config", cfg, "--dry-run", "--seed", "42"]) == 0
    plan = json.loads(capsys.readouterr().out)
    assert plan["initial"]["seed"] == 42


# The small configs of the tests above, one per subcommand; each run is given
# overrides and threads that the re-run must recover from the snapshot alone.
_RERUN_CASES = {
    "simulate": ({**_simulate_config(), "initial": {
        "profile": "random_low_modes", "seed": 1, "max_mode": 2, "n_modes": 4}},
        ["--seed", "9"]),
    "converge": ({
        "schema_version": 1, "kind": "converge", "d": 1,
        "initial": {"profile": "wrapped_gaussian", "width": 0.8},
        "params": {"p": 3, "lam": 1}, "h_list": ["pi/8", "pi/16", "pi/32"],
        "dt": 0.005, "reference": {"resolution": 128, "dt": 0.0025},
    }, ["--times", "0", "0.25"]),
    "strichartz": ({
        "schema_version": 1, "kind": "strichartz", "d": 1, "pair": {"q": 8, "r": 8},
        "h_list": ["pi/8", "pi/16"], "t_nodes": 65, "profiles": {"n_random": 1},
    }, ["--seed", "9"]),
    "dispersive": ({
        "schema_version": 1, "kind": "dispersive", "d": 1,
    }, ["--h-list", "pi/8", "pi/16", "pi/32"]),
    "conserve": ({
        "schema_version": 1, "kind": "conserve", "d": 1, "m": 16,
        "initial": {"profile": "wrapped_gaussian", "width": 0.8},
        "params": {"p": 3, "lam": 1}, "dt": 0.01, "n_steps": 100,
    }, []),
    "inequalities": ({
        "schema_version": 1, "kind": "inequalities", "d": 1, "m_list": [8, 16, 32],
        "kinds": ["sobolev", "bernstein"], "s": 0.4,
    }, ["--seed", "9"]),
}


def _tree(root):
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


@pytest.mark.parametrize("command", sorted(_RERUN_CASES))
def test_rerun_from_resolved_config_is_byte_identical(tmp_path, command):
    assert set(_RERUN_CASES) == set(cli.COMMANDS)
    payload, overrides = _RERUN_CASES[command]
    first, second = tmp_path / "first", tmp_path / "second"
    cfg = _write(tmp_path, "c.json", payload)
    assert main([command, "--config", cfg, "--out", str(first), "--threads", "2", *overrides]) == 0
    snapshot = str(first / "resolved_config.json")
    assert main([command, "--config", snapshot, "--out", str(second), "--threads", "1"]) == 0
    assert _tree(first) == _tree(second)


# --------------------------------------------------------------------------
# streamed trajectories


def _gaussian_simulate(**evolution):
    return _simulate_config(initial={"profile": "wrapped_gaussian", "width": 0.8},
                            evolution={"dt": 0.01, "t_final": 0.2, **evolution})


@pytest.mark.parametrize("integrator", INTEGRATORS)
def test_streamed_trajectory_equals_evolve_save(tmp_path, integrator):
    cfg = _write(tmp_path, "sim.json", _gaussian_simulate(integrator=integrator, record_stride=4))
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "cli")]) == 0
    lattice = Lattice(1, 16)
    config = EvolutionConfig(dt=0.01, t_final=0.2, integrator=integrator, record_stride=4)
    evolve(discretize(wrapped_gaussian(1, 0.8), lattice), NlsParams(p=3.0, lam=1), config).save(
        tmp_path / "saved")
    streamed = _tree(tmp_path / "cli" / "trajectory")
    assert len(streamed) == 7  # six snapshots and the manifest
    assert streamed == _tree(tmp_path / "saved")


def test_rerun_into_used_directory_equals_fresh_run(tmp_path, capsys):
    used, fresh = tmp_path / "used", tmp_path / "fresh"
    six = _write(tmp_path, "six.json", _gaussian_simulate(record_stride=4))
    three = _write(tmp_path, "three.json", _gaussian_simulate(record_stride=10))
    assert main(["simulate", "--config", six, "--out", str(used)]) == 0
    assert len(list((used / "trajectory").glob("snap_*.grid"))) == 6
    assert main(["simulate", "--config", three, "--out", str(used)]) == 0
    assert main(["simulate", "--config", three, "--out", str(fresh)]) == 0
    assert _tree(used) == _tree(fresh)


def test_failed_run_into_used_directory_leaves_no_manifest(tmp_path, capsys):
    out = tmp_path / "out"
    ok = _write(tmp_path, "ok.json", _gaussian_simulate(record_stride=4))
    assert main(["simulate", "--config", ok, "--out", str(out)]) == 0
    dt = 50 * rk4_stability_dt(Lattice(1, 16))
    bad = _write(tmp_path, "bad.json", _gaussian_simulate(dt=dt, t_final=10 * dt, integrator="rk4"))
    assert main(["simulate", "--config", bad, "--out", str(out)]) == 3
    assert "numerical failure" in capsys.readouterr().err
    trajectory = out / "trajectory"
    assert not (trajectory / "manifest.json").exists()
    # the initial state of the failed run is all that is left of either run
    assert sorted(path.name for path in trajectory.iterdir()) == ["snap_000000.grid"]


def test_unconverged_picard_step_exits_3_and_leaves_no_manifest(tmp_path, capsys, monkeypatch):
    # one iteration leaves a residual far above 1e-12 |u|, so the first step refuses its result
    monkeypatch.setattr(dynamics, "PICARD_ITERATIONS", 1)
    cfg = _write(tmp_path, "p.json", _gaussian_simulate(dt=0.002, t_final=0.02,
                                                         integrator="duhamel_picard"))
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 3
    assert "did not converge" in capsys.readouterr().err
    assert not (out / "trajectory" / "manifest.json").exists()


def test_simulate_memory_does_not_grow_with_snapshots(tmp_path, capsys):
    def run(n_steps, name):
        cfg = _write(tmp_path, f"{name}.json", _simulate_config(
            d=2, initial={"profile": "wrapped_gaussian", "width": 0.8},
            evolution={"dt": 0.01, "t_final": n_steps * 0.01, "record_stride": 1}))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / name)]) == 0

    run(2, "warm")  # imports and the cached symbols are not part of the comparison
    peaks = []
    for n_steps in (20, 80):
        # each run leaves argparse cycles for the collector; start both windows from a
        # clean collector, so that where it runs does not depend on the tests before
        gc.collect()
        tracemalloc.start()
        try:
            run(n_steps, f"n{n_steps}")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    grid_bytes = 16 * 32**2  # one complex grid at d=2, m=16
    assert peaks[1] - peaks[0] <= grid_bytes


# --------------------------------------------------------------------------
# streamed inequality corpus


def _inequalities_config(d, m_list):
    return {"schema_version": 1, "kind": "inequalities", "d": d, "m_list": m_list,
            "kinds": ["sobolev", "gagliardo_nirenberg", "bernstein"], "seed": 3}


@pytest.mark.parametrize("d", [1, 2])
def test_inequalities_records_equal_one_sweep_per_kind(tmp_path, d):
    cfg = _write(tmp_path, "i.json", _inequalities_config(d, [4, 8, 16]))
    out = tmp_path / "out"
    assert main(["inequalities", "--config", cfg, "--out", str(out)]) == 0
    records = []
    for m in (4, 8, 16):
        corpus = lattice_stress_corpus(Lattice(d, m), seed=3)
        for kind in ("sobolev", "gagliardo_nirenberg", "bernstein"):
            records.extend(inequality_sweep(kind, corpus, s=0.4 * d, theta=0.5, epsilon=0.1))
    write_jsonl(records, tmp_path / "want.jsonl")
    assert (out / "records.jsonl").read_text() == (tmp_path / "want.jsonl").read_text()


def test_inequalities_transform_each_element_once(tmp_path, monkeypatch):
    calls = []
    transform = spectral.forward
    monkeypatch.setattr(spectral, "forward", lambda u: calls.append(u.lattice) or transform(u))
    cfg = _write(tmp_path, "i.json", _inequalities_config(2, [8, 16]))
    assert main(["inequalities", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    # per lattice: one transform for each of the 7 corpus elements, serving all three
    # kinds, and one inside the corpus's own lp_project
    assert calls == [Lattice(2, 8)] * 8 + [Lattice(2, 16)] * 8


def test_inequalities_hold_one_corpus_element_at_a_time(tmp_path):
    # a sweep lists at least two sizes; the M=8 lattice adds a few KiB beside M=64
    cfg = _write(tmp_path, "i.json", _inequalities_config(2, [8, 64]))
    assert main(["inequalities", "--config", cfg, "--out", str(tmp_path / "warm")]) == 0
    gc.collect()
    tracemalloc.start()
    try:
        assert main(["inequalities", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the whole corpus alone is 7 grids of 128^2 complex values, 1.75 MiB
    assert peak <= 3 * 2**20


# --------------------------------------------------------------------------
# exit code 2 paths


def test_missing_config_names_path(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["simulate", "--config", str(missing), "--out", str(tmp_path / "o")]) == 2
    assert str(missing) in capsys.readouterr().err


def test_invalid_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "JSON" in capsys.readouterr().err


def test_schema_version_mismatch(tmp_path, capsys):
    cfg = _write(tmp_path, "s.json", _simulate_config(schema_version=99))
    assert main(["simulate", "--config", cfg, "--dry-run"]) == 2
    assert "schema_version" in capsys.readouterr().err


def test_kind_mismatch(tmp_path, capsys):
    cfg = _write(tmp_path, "s.json", _simulate_config(kind="converge"))
    assert main(["simulate", "--config", cfg, "--dry-run"]) == 2
    assert "does not match" in capsys.readouterr().err


def test_power_below_domain_cites_hypothesis(tmp_path, capsys):
    cfg = _write(tmp_path, "s.json", _simulate_config(params={"p": 0.5, "lam": 1}))
    assert main(["simulate", "--config", cfg, "--dry-run"]) == 2
    assert "p > 1 required" in capsys.readouterr().err


def test_short_h_list_override(tmp_path, capsys):
    cfg = _write(tmp_path, "conv.json", {
        "schema_version": 1,
        "kind": "converge",
        "d": 1,
        "initial": {"profile": "wrapped_gaussian"},
        "params": {"p": 3, "lam": 1},
        "h_list": ["pi/8", "pi/16", "pi/32"],
    })
    rc = main(["converge", "--config", cfg, "--dry-run", "--h-list", "pi/8", "pi/16"])
    assert rc == 2
    assert "3 spacings" in capsys.readouterr().err


def test_inadmissible_pair_names_relation(tmp_path, capsys):
    cfg = _write(tmp_path, "s.json", {
        "schema_version": 1,
        "kind": "strichartz",
        "d": 2,
        "pair": {"q": 2, "r": "inf"},
        "h_list": ["pi/8", "pi/16"],
    })
    assert main(["strichartz", "--config", cfg, "--dry-run"]) == 2
    assert "3/q + d/r = d/2" in capsys.readouterr().err


_STRICHARTZ_D1 = _RERUN_CASES["strichartz"][0]
_DISPERSIVE_D1 = _RERUN_CASES["dispersive"][0]  # no h_list of its own


@pytest.mark.parametrize("command, payload, overrides, message", [
    ("dispersive", {**_DISPERSIVE_D1, "h_list": [0.3, 0.2, 0.1]}, [], "spacing 0.3 is not pi/M"),
    ("strichartz", {**_STRICHARTZ_D1, "h_list": [0.3, 0.2, 0.1]}, [], "spacing 0.3 is not pi/M"),
    ("strichartz", _STRICHARTZ_D1, ["--h-list", "pi/8", "pi/6"], "M=6"),
    ("dispersive", _DISPERSIVE_D1, ["--h-list", "pi/8", "0"], "spacing 0.0 is not pi/M"),
    # a uniformity factor over one spacing compares it with itself: 1.0, a vacuous PASS
    ("dispersive", {**_DISPERSIVE_D1, "h_list": ["pi/16", "pi/16"]}, [],
     "field 'h_list' lists pi/16 twice"),
    ("dispersive", _DISPERSIVE_D1, ["--h-list", "pi/8"], "--h-list lists only pi/8"),
    ("strichartz", {**_STRICHARTZ_D1, "h_list": ["pi/8"]}, [], "field 'h_list' lists only pi/8"),
    ("strichartz", _STRICHARTZ_D1, ["--h-list", "pi/8", "0.39269908169872414"],
     "--h-list lists pi/8 twice"),
], ids=["dispersive-0.3", "strichartz-0.3", "strichartz-pi/6", "dispersive-zero",
        "dispersive-repeated", "dispersive-one", "strichartz-one", "strichartz-repeated"])
def test_bad_spacing_rejected_at_plan_time(tmp_path, capsys, command, payload, overrides, message):
    cfg = _write(tmp_path, "c.json", payload)
    assert main([command, "--config", cfg, "--dry-run", *overrides]) == 2
    assert message in capsys.readouterr().err
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out), *overrides]) == 2
    assert not out.exists()


@pytest.mark.parametrize("command, payload, message", [
    ("simulate", _simulate_config(initial={"profile": "wrapped_gaussian", "center": ["a"]}),
     "field 'initial.center' must list numbers, got 'a'"),
    ("strichartz", {**_STRICHARTZ_D1, "time_interval": ["a", 1]},
     "field 'time_interval' must list numbers, got 'a'"),
    ("strichartz", {**_STRICHARTZ_D1, "time_interval": [True, 1]},
     "field 'time_interval' must list numbers, got True"),
    ("simulate", _simulate_config(initial={"profile": "random_low_modes", "seed": -1}),
     "field 'initial.seed' must be an unsigned 64-bit integer"),
    ("strichartz", {**_STRICHARTZ_D1, "profiles": {"seed": -1}},
     "field 'profiles.seed' must be an unsigned 64-bit integer"),
    ("inequalities", {**_RERUN_CASES["inequalities"][0], "seed": -1},
     "field 'seed' must be an unsigned 64-bit integer"),
    ("conserve", {**_RERUN_CASES["conserve"][0], "dt": 10**400}, "field 'dt' must be a number"),
    ("simulate", _simulate_config(evolution={"dt": 0.01, "t_final": 0.2, "integrator": "bogus"}),
     "integrator must be one of ('strang', 'rk4', 'duhamel_picard'), got 'bogus'"),
    ("converge", {**_RERUN_CASES["converge"][0], "integrator": "strang"},
     "unknown field(s) ['integrator']"),
    ("simulate", _simulate_config(initial={"profile": "random_low_modes", "max_mode": -1}),
     "max_mode must be >= 0, got -1"),
    ("simulate", _simulate_config(initial={"profile": "random_low_modes", "n_modes": 0}),
     "n_modes must be >= 1, got 0"),
    ("simulate", _simulate_config(initial={"profile": "random_low_modes", "n_modes": -2}),
     "n_modes must be >= 1, got -2"),
    ("strichartz", {**_STRICHARTZ_D1, "profiles": {"n_random": -3}},
     "field 'profiles.n_random' must be >= 0, got -3"),
], ids=["center-str", "time_interval-str", "time_interval-bool", "initial-seed-negative",
        "profiles-seed-negative", "inequalities-seed-negative", "dt-int-beyond-float",
        "simulate-integrator-unknown", "converge-integrator-unknown", "max_mode-negative",
        "n_modes-zero", "n_modes-negative", "n_random-negative"])
def test_bad_field_value_rejected_at_plan_time(tmp_path, capsys, command, payload, message):
    cfg = _write(tmp_path, "c.json", payload)
    assert main([command, "--config", cfg, "--dry-run"]) == 2
    assert message in capsys.readouterr().err
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("overrides, message", [
    ({"kinds": ["sobolev", "bogus"]}, "unknown inequality kind 'bogus'"),
    ({"s": 5.0}, "0 < s <= d/2"),
    ({"kinds": []}, "field 'kinds' must list at least one"),
    ({"m_list": []}, "field 'm_list' must list at least one"),
    ({"m_list": [16]}, "field 'm_list' lists only M=16"),
    ({"m_list": [8, 8]}, "field 'm_list' lists M=8 twice"),
], ids=["unknown-kind", "s-out-of-range", "empty-kinds", "empty-m-list", "one-m", "repeated-m"])
def test_bad_inequality_parameter_rejected_at_plan_time(tmp_path, capsys, overrides, message):
    cfg = _write(tmp_path, "i.json", {**_RERUN_CASES["inequalities"][0], **overrides})
    assert main(["inequalities", "--config", cfg, "--dry-run"]) == 2
    assert message in capsys.readouterr().err
    out = tmp_path / "out"
    assert main(["inequalities", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("oversample", [None, 4])
def test_converge_oversample_is_echoed_with_a_deprecation_note(tmp_path, capsys, oversample):
    payload = dict(_RERUN_CASES["converge"][0])
    if oversample is not None:
        payload["oversample"] = oversample
    cfg = _write(tmp_path, "c.json", payload)
    assert main(["converge", "--config", cfg, "--dry-run"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["oversample"] == (oversample or 8)
    notes = [line for line in captured.err.splitlines() if "oversample" in line]
    assert len(notes) == (0 if oversample is None else 1)
    assert "FAIL" not in captured.err


def test_converge_still_validates_oversample(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json", {**_RERUN_CASES["converge"][0], "oversample": 2})
    assert main(["converge", "--config", cfg, "--dry-run"]) == 2
    assert "oversample must be >= 4" in capsys.readouterr().err


@pytest.mark.parametrize("overrides, message", [
    ({"reference": {"resolution": 100}}, "power of two, got 100"),
    ({"d": 2, "reference": {"resolution": 128}}, ">= 256 for d=2, got 128"),
    ({"reference": {"tol": -1}}, "tol must be positive, got -1"),
], ids=["resolution-100", "d2-resolution-128", "negative-tol"])
def test_bad_reference_rejected_at_plan_time(tmp_path, capsys, overrides, message):
    cfg = _write(tmp_path, "c.json", {**_RERUN_CASES["converge"][0], **overrides})
    assert main(["converge", "--config", cfg, "--dry-run"]) == 2
    assert message in capsys.readouterr().err
    out = tmp_path / "out"
    assert main(["converge", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


_PICARD_D2 = _simulate_config(
    d=2, m=32, initial={"profile": "wrapped_gaussian", "width": 0.8},
    evolution={"dt": 0.002, "t_final": 0.5, "integrator": "duhamel_picard", "record_stride": 50})


@pytest.mark.parametrize("command, payload, message", [
    ("simulate", _PICARD_D2, "field 'evolution.dt' = 0.002 is too long for duhamel_picard"),
], ids=["simulate-d2"])
def test_impossible_picard_plan_rejected_at_plan_time(tmp_path, capsys, monkeypatch,
                                                      command, payload, message):
    # the contraction factor is bounded from the profile's norm, so no grid is built
    def refuse(*args, **kwargs):
        raise AssertionError("the Picard plan check discretized the initial data")

    monkeypatch.setattr(cli, "discretize", refuse)
    cfg = _write(tmp_path, "c.json", payload)
    assert main([command, "--config", cfg, "--dry-run"]) == 2
    err = capsys.readouterr().err
    assert message in err and "the step must be below" in err
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


def test_picard_plan_bound_admits_the_largest_step_it_names(tmp_path, capsys):
    # the named step, shaved by 1 %, passes the plan and runs to the end
    cfg = _write(tmp_path, "c.json", _PICARD_D2)
    assert main(["simulate", "--config", cfg, "--dry-run"]) == 2
    bound = float(capsys.readouterr().err.rsplit("below ", 1)[1])
    dt = 0.99 * bound
    cfg = _write(tmp_path, "c.json", {**_PICARD_D2, "evolution": {
        "dt": dt, "t_final": 4 * dt, "integrator": "duhamel_picard"}})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0


def test_incommensurate_final_time_rejected_at_plan_time(tmp_path, capsys):
    cfg = _write(tmp_path, "s.json", _simulate_config(
        evolution={"dt": 0.003, "t_final": 0.01}))
    assert main(["simulate", "--config", cfg, "--dry-run"]) == 2
    assert "not an integer multiple of dt=0.003" in capsys.readouterr().err
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


_SIMULATE_D1_M8 = {**_simulate_config(), "m": 8}
_CONSERVE_D1_M8 = {**_RERUN_CASES["conserve"][0], "m": 8}


@pytest.mark.parametrize("command, payload, message", [
    ("simulate", {**_SIMULATE_D1_M8, "evolution": {"dt": 0.01, "t_final": math.inf}},
     "field 'evolution.t_final' must be finite, got inf"),
    ("simulate", {**_SIMULATE_D1_M8, "evolution": {"dt": 0.01, "t_final": math.nan}},
     "field 'evolution.t_final' must be finite, got nan"),
    ("simulate", {**_SIMULATE_D1_M8, "evolution": {"dt": math.inf, "t_final": 1.0}},
     "field 'evolution.dt' must be finite, got inf"),
    ("simulate", {**_SIMULATE_D1_M8, "params": {"p": math.inf, "lam": 1}},
     "field 'params.p' must be finite, got inf"),
    ("conserve", {**_CONSERVE_D1_M8, "dt": math.nan}, "field 'dt' must be finite, got nan"),
    ("conserve", {**_CONSERVE_D1_M8, "dt": math.inf}, "field 'dt' must be finite, got inf"),
    ("conserve", {**_CONSERVE_D1_M8, "dt": 1e308}, "dt * n_steps"),
    ("conserve", {**_CONSERVE_D1_M8, "n_steps": 10**400}, "dt * n_steps"),
    ("conserve", {**_CONSERVE_D1_M8, "params": {"p": math.inf, "lam": 1}},
     "field 'params.p' must be finite, got inf"),
    ("converge", {**_RERUN_CASES["converge"][0], "dt": math.nan}, "field 'dt' must be finite, got nan"),
    ("converge", {**_RERUN_CASES["converge"][0], "times": [0, math.inf]},
     "field 'times' must list finite values, got inf"),
    ("strichartz", {**_STRICHARTZ_D1, "pair": {"q": math.nan, "r": math.nan}},
     "field 'pair.q' must be finite, got nan"),
    ("strichartz", {**_STRICHARTZ_D1, "pair": {"q": 8, "r": -math.inf}},
     "field 'pair.r' must be finite, got -inf"),
    ("inequalities", {**_RERUN_CASES["inequalities"][0], "epsilon": math.nan},
     "field 'epsilon' must be finite, got nan"),
    ("simulate", _simulate_config(initial={"profile": "wrapped_gaussian", "center": [math.nan]}),
     "field 'initial.center' must list finite values, got nan"),
    ("simulate", _simulate_config(initial={"profile": "plane_wave", "amplitude": math.inf}),
     "field 'initial.amplitude' must be finite, got inf"),
    ("dispersive", {**_DISPERSIVE_D1, "h_list": ["pi/8", "pi/16", math.inf]},
     "field 'h_list' must list finite values, got inf"),
], ids=["simulate-t_final-inf", "simulate-t_final-nan", "simulate-dt-inf", "simulate-p-inf",
        "conserve-dt-nan", "conserve-dt-inf", "conserve-dt-1e308", "conserve-n_steps-1e400",
        "conserve-p-inf", "converge-dt-nan", "converge-times-inf", "strichartz-pair-nan",
        "strichartz-r-minus-inf", "inequalities-epsilon-nan", "simulate-center-nan",
        "simulate-amplitude-inf", "dispersive-h_list-inf"])
def test_non_finite_number_rejected_at_plan_time(tmp_path, capsys, command, payload, message):
    cfg = _write(tmp_path, "c.json", payload)  # json writes Infinity and NaN
    assert main([command, "--config", cfg, "--dry-run"]) == 2
    assert message in capsys.readouterr().err
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("command, payload, flags, message", [
    ("converge", _RERUN_CASES["converge"][0], ["--times", "0", "nan"],
     "--times must list finite values, got nan"),
    ("dispersive", _DISPERSIVE_D1, ["--h-list", "pi/8", "pi/16", "inf"],
     "--h-list must list finite values, got 'inf'"),
], ids=["times-nan", "h-list-inf"])
def test_non_finite_override_rejected_at_plan_time(tmp_path, capsys, command, payload, flags, message):
    cfg = _write(tmp_path, "c.json", payload)
    assert main([command, "--config", cfg, "--dry-run", *flags]) == 2
    assert message in capsys.readouterr().err
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out), *flags]) == 2
    assert not out.exists()


@pytest.mark.parametrize("payload, flags, message", [
    ({**_RERUN_CASES["converge"][0], "times": [0.1, 0.1000001]}, [],
     "field 'times' lists 0.1 and 0.1000001, which share the label '0.1'"),
    (_RERUN_CASES["converge"][0], ["--times", "0", "0.25", "0.2500001"],
     "--times lists 0.25 and 0.2500001, which share the label '0.25'"),
], ids=["field", "override"])
@pytest.mark.parametrize("dry_run", [True, False], ids=["dry-run", "run"])
def test_converge_times_sharing_a_label_rejected_at_plan_time(tmp_path, capsys, payload, flags,
                                                               message, dry_run):
    # each time's rate file and summary keys are named f"{t:g}", so such a
    # run would overwrite one time's outputs with the other's
    cfg = _write(tmp_path, "c.json", payload)
    out = tmp_path / "out"
    mode = ["--dry-run"] if dry_run else ["--out", str(out)]
    assert main(["converge", "--config", cfg, *mode, *flags]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


_H_LIST_READERS = "--h-list is read only by converge, strichartz, dispersive"


@pytest.mark.parametrize("command, payload, flags, message", [
    ("dispersive", {**_DISPERSIVE_D1, "h_list": ["pi/8", "pi/16"]}, ["--times", "1", "2"],
     "--times is read only by converge; dispersive has no field 'times'"),
    ("strichartz", _STRICHARTZ_D1, ["--times", "0.5"],
     "--times is read only by converge; strichartz has no field 'times'"),
    ("conserve", _RERUN_CASES["conserve"][0], ["--times", "3"],
     "--times is read only by converge; conserve has no field 'times'"),
    ("inequalities", _RERUN_CASES["inequalities"][0], ["--h-list", "pi/8", "pi/16", "pi/32"],
     f"{_H_LIST_READERS}; inequalities has no field 'h_list'"),
    ("simulate", _simulate_config(), ["--h-list", "pi/4"],
     f"{_H_LIST_READERS}; simulate has no field 'h_list'"),
    ("converge", {**_RERUN_CASES["converge"][0], "times": []}, [],
     "times must list at least one time"),
], ids=["dispersive-times", "strichartz-times", "conserve-times", "inequalities-h-list",
        "simulate-h-list", "converge-no-times"])
@pytest.mark.parametrize("dry_run", [True, False], ids=["dry-run", "run"])
def test_ignored_override_or_empty_times_rejected_at_plan_time(tmp_path, capsys, command, payload,
                                                               flags, message, dry_run):
    cfg = _write(tmp_path, "c.json", payload)
    out = tmp_path / "out"
    mode = ["--dry-run"] if dry_run else ["--out", str(out)]
    assert main([command, "--config", cfg, *mode, *flags]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_seed_is_accepted_by_every_subcommand(tmp_path, capsys, command):
    # scripts pass --seed to every child, including runs that draw nothing
    payload, overrides = _RERUN_CASES[command]
    cfg = _write(tmp_path, "c.json", payload)
    assert main([command, "--config", cfg, "--dry-run", *overrides, "--seed", "9"]) == 0


def test_infinite_exponent_is_the_string_inf(capsys, tmp_path):
    # +Infinity in a Lebesgue exponent field resolves to the same plan as "inf"
    plans = []
    for r in ("inf", math.inf):
        cfg = _write(tmp_path, "s.json", {**_STRICHARTZ_D1, "pair": {"q": 6, "r": r}})
        assert main(["strichartz", "--config", cfg, "--dry-run"]) == 0
        plans.append(json.loads(capsys.readouterr().out))
    assert plans[0] == plans[1] and plans[0]["pair"]["r"] == "inf"


def test_unknown_field_rejected(tmp_path, capsys):
    cfg = _write(tmp_path, "s.json", _simulate_config(bogus=1))
    assert main(["simulate", "--config", cfg, "--dry-run"]) == 2
    assert "bogus" in capsys.readouterr().err


def test_field_of_another_profile_rejected(tmp_path, capsys):
    cfg = _write(tmp_path, "s.json", _simulate_config(
        initial={"profile": "wrapped_gaussian", "mode": [7], "n_modes": 99, "seed": "x"}))
    assert main(["simulate", "--config", cfg, "--dry-run"]) == 2
    assert "unknown field(s) ['mode', 'n_modes', 'seed'] in initial" in capsys.readouterr().err
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


def test_missing_required_field_names_path(tmp_path, capsys):
    sim = _simulate_config()
    del sim["evolution"]["dt"]
    cfg = _write(tmp_path, "s.json", sim)
    assert main(["simulate", "--config", cfg, "--dry-run"]) == 2
    assert "evolution.dt" in capsys.readouterr().err


def test_out_required_outside_dry_run(tmp_path, capsys):
    cfg = _write(tmp_path, "s.json", _simulate_config())
    assert main(["simulate", "--config", cfg]) == 2
    assert "--out" in capsys.readouterr().err


def test_unknown_subcommand_usage_error(capsys):
    assert main(["frobnicate"]) == 2


_ROOT = Path(__file__).resolve().parent.parent
_SHIPPED_CONFIGS = sorted(
    path.relative_to(_ROOT).as_posix()
    for path in [*(_ROOT / "configs").glob("*.json"), *(_ROOT / "perfbench" / "configs").glob("*.json")]
)


@pytest.mark.parametrize("config", _SHIPPED_CONFIGS)
def test_shipped_config_passes_dry_run(tmp_path, capsys, config):
    command = json.loads((_ROOT / config).read_text())["kind"]
    assert main([command, "--config", str(_ROOT / config), "--dry-run"]) == 0, capsys.readouterr().err
    plan = json.loads(capsys.readouterr().out)
    # the plan is a fixed point: read back as a config, it resolves to itself
    assert main([command, "--config", _write(tmp_path, "plan.json", plan), "--dry-run"]) == 0
    assert json.loads(capsys.readouterr().out) == plan


def _readme_lines(prefix):
    """The README lines from the one that starts with ``prefix`` to the end of its bullet."""
    lines = (_ROOT / "README.md").read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(prefix))
    end = next(i for i in range(start + 1, len(lines)) if not lines[i].startswith("  "))
    return " ".join(lines[start:end])


def test_readme_runs_every_experiment_from_a_shipped_config():
    lines = [line.split("#")[0].split()[3:]
             for line in (_ROOT / "README.md").read_text().splitlines()
             if line.startswith("python3 -m lnls.cli ")]
    for argv in lines:
        config = _ROOT / argv[argv.index("--config") + 1]
        assert config.is_file(), argv
        assert json.loads(config.read_text())["kind"] == argv[0], argv
        cli.build_parser().parse_args(argv)
    assert sorted({argv[0] for argv in lines}) == sorted(cli.COMMANDS)
    listed = {argv[argv.index("--config") + 1] for argv in lines}
    shipped = {path.relative_to(_ROOT).as_posix() for path in (_ROOT / "configs").rglob("*")
               if path.is_file()}
    assert sorted(shipped - listed) == []


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_readme_names_every_config_field(command):
    table, _ = cli._COMMANDS[command]
    # every config opens with schema_version and kind; the schema's first sentence says so
    names = {part for field in table for part in field.path.split(".")} - {"schema_version", "kind"}
    bullet = _readme_lines(f"- **{command}**")
    assert sorted(name for name in names if f"`{name}`" not in bullet) == []


@pytest.mark.parametrize("profile", sorted(cli._PROFILES))
def test_readme_names_every_profile_field(profile):
    row = _readme_lines(f"| `{profile}` |")
    names = [field.path.split(".")[-1] for field in cli._PROFILES[profile]]
    assert [name for name in names if f"`{name}`" not in row] == []


# --------------------------------------------------------------------------
# exit code 3 paths


def test_reference_self_check_failure_exits_3(tmp_path, capsys):
    cfg = _write(tmp_path, "conv.json", {
        "schema_version": 1,
        "kind": "converge",
        "d": 1,
        "initial": {"profile": "wrapped_gaussian", "width": 0.8},
        "params": {"p": 3, "lam": 1},
        "h_list": ["pi/8", "pi/16", "pi/32"],
        "times": [0.5],
        "dt": 0.005,
        "reference": {"resolution": 64, "dt": 0.1, "tol": 1e-14},
    })
    assert main(["converge", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_rk4_divergence_exits_3(tmp_path, capsys):
    cfg = _write(tmp_path, "sim.json", _simulate_config(
        m=64,
        initial={"profile": "random_low_modes", "seed": 3, "max_mode": 30, "n_modes": 40},
        evolution={"dt": 0.05, "t_final": 5.0, "integrator": "rk4"},
    ))
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "numerical failure" in capsys.readouterr().err


# --------------------------------------------------------------------------
# console entry point


def test_console_script_runs():
    proc = subprocess.run([sys.executable, "-m", "lnls.cli", "simulate", "--config",
                           "definitely-missing.json", "--out", "x"],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert "definitely-missing.json" in proc.stderr


@pytest.mark.parametrize("payload, code", [
    (_DISPERSIVE_D1, 0), ({**_DISPERSIVE_D1, "bogus": 1}, 2),
], ids=["dry-run", "bad-config"])
def test_console_entrypoint_exits_with_the_code_of_main(tmp_path, capsys, monkeypatch, payload,
                                                         code):
    # [project.scripts] lnls = "lnls.cli:entrypoint"
    cfg = _write(tmp_path, "c.json", payload)
    monkeypatch.setattr(sys, "argv", ["lnls", "dispersive", "--config", cfg, "--dry-run",
                                      "--h-list", "pi/8", "pi/16"])
    with pytest.raises(SystemExit) as exc:
        cli.entrypoint()
    assert exc.value.code == code


def test_import_loads_no_scipy():
    code = ("import sys, lnls, lnls.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _env_without_blas_pin(**extra: str) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env.update(extra)
    return env


@pytest.mark.parametrize("code, env, want", [
    ("import os, lnls.cli; print(os.environ.get('OPENBLAS_NUM_THREADS'))", {}, "1"),
    ("import os, lnls.cli; print(os.environ.get('OPENBLAS_NUM_THREADS'))", {"OPENBLAS_NUM_THREADS": "3"}, "3"),
    ("import os, numpy, lnls.cli; print(os.environ.get('OPENBLAS_NUM_THREADS'))", {}, "None"),
])
def test_cli_pins_blas_to_one_thread_only_before_numpy(code, env, want):
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_env_without_blas_pin(**env))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == want


def test_strichartz_dry_run_draws_no_profiles():
    # the random corpus is drawn by the run, so a dry run never loads numpy.random
    code = ("import sys; from lnls.cli import main; "
            "code = main(['strichartz', '--config', 'configs/strichartz_d2.json', '--dry-run']); "
            "print(code, 'numpy.random' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=_ROOT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"


@pytest.mark.parametrize("command, payload", [
    ("strichartz", _RERUN_CASES["strichartz"][0]),
    ("inequalities", _RERUN_CASES["inequalities"][0]),
    ("simulate", _RERUN_CASES["simulate"][0]),
], ids=["strichartz", "inequalities", "simulate-random_low_modes"])
def test_seeded_run_never_loads_numpy_random(tmp_path, command, payload):
    # seeded profiles are drawn from the stdlib generator (lnls.util.Draws)
    cfg = _write(tmp_path, "c.json", payload)
    code = ("import sys; from lnls.cli import main; "
            f"code = main([{command!r}, '--config', {cfg!r}, '--out', {str(tmp_path / 'o')!r}]); "
            "print(code, 'numpy.random' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=_ROOT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"


def test_module_entry_point_dry_run_with_pinned_blas():
    proc = subprocess.run([sys.executable, "-m", "lnls.cli", "dispersive", "--config",
                           "configs/dispersive.json", "--dry-run"],
                          capture_output=True, text=True, env=_env_without_blas_pin(), cwd=_ROOT)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["kind"] == "dispersive"


def test_threads_flag_is_accepted_and_ignored(tmp_path, capsys):
    cfg = _write(tmp_path, "sim.json", _simulate_config())
    plans = []
    for flag in ([], ["--threads", "1"], ["--threads", "8"], ["--threads", "0"]):
        assert main(["simulate", "--config", cfg, "--dry-run", *flag]) == 0
        plans.append(capsys.readouterr().out)
    assert len(set(plans)) == 1 and "threads" not in json.loads(plans[0])


_THREAD_PROBE = """
import json, sys, threading
from lnls.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, "concurrent.futures" in sys.modules, threading.active_count()]))
"""


@pytest.mark.parametrize("command, payload", [
    ("strichartz", {"schema_version": 1, "kind": "strichartz", "d": 2, "pair": {"q": 6, "r": 4},
                    "h_list": ["pi/4", "pi/8"], "t_nodes": 17, "profiles": {"n_random": 1}}),
    ("inequalities", {"schema_version": 1, "kind": "inequalities", "d": 2, "m_list": [4, 8],
                      "kinds": ["sobolev", "bernstein"], "s": 0.8}),
])
def test_estimate_sweeps_run_in_the_calling_thread(tmp_path, command, payload):
    cfg = _write(tmp_path, "c.json", payload)
    proc = subprocess.run([sys.executable, "-c", _THREAD_PROBE, command, "--config", cfg,
                           "--out", str(tmp_path / "out"), "--threads", "2"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    code, futures_loaded, threads = json.loads(proc.stdout.splitlines()[-1])
    assert (code, futures_loaded, threads) == (0, False, 1)
