"""Command-line frontend for simulations, estimate sweeps, and convergence studies.

Every subcommand reads a JSON config (validated before any computation),
honors the shared override flags, and writes a ``resolved_config.json``
snapshot into the output directory so the run can be reproduced
bit-identically.  Exit codes: 0 success, 2 usage/config error, 3 numerical
failure.

Importing this module before NumPy sets ``OPENBLAS_NUM_THREADS=1`` unless the
variable is already set, so a CLI process starts no idle BLAS worker.
"""
from __future__ import annotations

import os
import sys

# OpenBLAS starts one worker per core when NumPy loads, and each worker
# busy-waits after use; no CLI path runs a dense BLAS product, so the spin is
# pure CPU cost in every process.  This must run before NumPy loads: at module
# level, so the ``lnls`` console script is covered as well as ``python -m``.
# A value the user set wins, and a process that loaded NumPy first (a library
# caller, pytest) is left alone.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import dataclasses
import json
import logging
import math
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from .continuum import TrigPolynomial, plane_wave, random_low_modes, wrapped_gaussian
from .corpus import continuum_profiles, lattice_stress_corpus
from .dynamics import (
    EvolutionConfig,
    IntegrationDivergedError,
    NlsParams,
    evolve,
)
from .estimates import (
    AdmissiblePair,
    StrichartzQuery,
    dispersive_uniformity,
    strichartz_sweep,
)
from .harness import ConvergenceStudy, conservation_drift, run_convergence
from .lattice import Lattice, NumericalAccuracyError, discretize
from .records import (
    format_float,
    group_max_ratio,
    uniformity_factor,
    write_csv,
    write_jsonl,
    write_loglog_tsv,
    write_svg_chart,
)
from .spectral import inequality_exponent, inequality_sweep
from .util import default_threads

log = logging.getLogger("lnls.cli")

SCHEMA_VERSION = 1
COMMANDS = ("simulate", "converge", "strichartz", "dispersive", "conserve", "inequalities")
UNIFORMITY_THRESHOLD = 3.0

_MISSING = object()


class ConfigError(Exception):
    """Invalid command-line usage or config content; maps to exit code 2."""


# --------------------------------------------------------------------------
# config plumbing


def _build(ctor: Callable, *args: Any, **kwargs: Any) -> Any:
    """Construct a library object, surfacing its ValueError as a config error."""
    try:
        return ctor(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _check_keys(section: dict, path: str, allowed: set[str]) -> None:
    unknown = sorted(set(section) - allowed)
    if unknown:
        where = path or "config"
        raise ConfigError(f"unknown field(s) {unknown} in {where}; allowed: {sorted(allowed)}")


def _get(section: dict, path: str, key: str, kind: type, default: Any = _MISSING) -> Any:
    full = f"{path}.{key}" if path else key
    if key not in section:
        if default is _MISSING:
            raise ConfigError(f"missing required field {full!r}")
        return default
    value = section[key]
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"field {full!r} must be a number, got {value!r}")
        return float(value)
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"field {full!r} must be an integer, got {value!r}")
        return value
    if not isinstance(value, kind):
        raise ConfigError(f"field {full!r} must be a {kind.__name__}, got {type(value).__name__}")
    return value


def _get_exponent(section: dict, path: str, key: str) -> float:
    """A Lebesgue exponent: a number, or the string "inf"."""
    full = f"{path}.{key}" if path else key
    value = section.get(key, _MISSING)
    if value is _MISSING:
        raise ConfigError(f"missing required field {full!r}")
    if isinstance(value, str):
        if value.lower() in ("inf", "infinity"):
            return math.inf
        raise ConfigError(f"field {full!r} must be a number or \"inf\", got {value!r}")
    return _get(section, path, key, float)


def parse_spacing(token: Any) -> float:
    """Parse a lattice spacing written as ``pi/M`` or as a float literal."""
    if isinstance(token, bool):
        raise ConfigError(f"cannot parse spacing {token!r}")
    if isinstance(token, (int, float)):
        return float(token)
    text = str(token).strip().lower()
    if text.startswith("pi/"):
        try:
            m = int(text[3:])
        except ValueError:
            m = 0
        if m <= 0:
            raise ConfigError(f"cannot parse spacing {token!r}; expected 'pi/M' with integer M >= 1")
        return math.pi / m
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"cannot parse spacing {token!r}; expected 'pi/M' or a float") from None


def _load_config(path_text: str) -> dict:
    path = Path(path_text)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must contain a JSON object")
    return data


def _profile(d: int, section: dict, path: str, seed: int | None) -> TrigPolynomial:
    _check_keys(section, path, {"profile", "mode", "amplitude", "width", "center", "seed", "max_mode", "n_modes"})
    name = _get(section, path, "profile", str)
    if name == "plane_wave":
        mode = _get(section, path, "mode", list, default=[1] + [0] * (d - 1))
        if len(mode) != d or not all(isinstance(k, int) and not isinstance(k, bool) for k in mode):
            raise ConfigError(f"field {path}.mode must be a list of {d} integer(s), got {mode!r}")
        amplitude = _get(section, path, "amplitude", float, default=1.0)
        return _build(plane_wave, d, mode, amplitude=amplitude)
    if name == "wrapped_gaussian":
        width = _get(section, path, "width", float, default=0.6)
        center = _get(section, path, "center", list, default=None)
        if center is not None and len(center) != d:
            raise ConfigError(f"field {path}.center must have {d} entries, got {center!r}")
        return _build(wrapped_gaussian, d, width, center=center)
    if name == "random_low_modes":
        seed_val = seed if seed is not None else _get(section, path, "seed", int, default=0)
        max_mode = _get(section, path, "max_mode", int, default=3)
        n_modes = _get(section, path, "n_modes", int, default=8)
        rng = np.random.default_rng(seed_val)
        return _build(random_low_modes, d, rng, max_mode=max_mode, n_modes=n_modes)
    raise ConfigError(
        f"unknown profile {name!r} in {path!r}; "
        "expected plane_wave | wrapped_gaussian | random_low_modes"
    )


def _profile_resolved(section: dict, seed: int | None) -> dict:
    resolved = dict(section)
    if section.get("profile") == "random_low_modes" and seed is not None:
        resolved["seed"] = seed
    return resolved


def _params(cfg: dict, path: str = "params") -> NlsParams:
    section = _get(cfg, "", path, dict)
    _check_keys(section, path, {"p", "lam", "coupling"})
    return _build(
        NlsParams,
        p=_get(section, path, "p", float),
        lam=_get(section, path, "lam", int),
        coupling=_get(section, path, "coupling", float, default=1.0),
    )


def _dimension(cfg: dict) -> int:
    d = _get(cfg, "", "d", int)
    if d not in (1, 2):
        raise ConfigError(f"field 'd' must be 1 or 2, got {d}")
    return d


def _lattice(cfg: dict) -> Lattice:
    return _build(Lattice, _dimension(cfg), _get(cfg, "", "m", int))


def _h_list(
    cfg: dict, args: argparse.Namespace, d: int, default: Sequence[float] | None = None
) -> tuple[float, ...]:
    """Spacings from ``--h-list``, else the config, else ``default``; each must be pi/2^j."""
    if args.h_list is not None:
        origin, tokens = "--h-list", args.h_list
    elif "h_list" in cfg:
        origin, tokens = "field 'h_list'", _get(cfg, "", "h_list", list)
    elif default is not None:
        return tuple(default)
    else:
        raise ConfigError("missing required field 'h_list' (or pass --h-list)")
    if not tokens:
        raise ConfigError(f"{origin} must not be empty")
    spacings = tuple(parse_spacing(tok) for tok in tokens)
    for h in spacings:
        try:
            Lattice.from_spacing(d, h)
        except ValueError as exc:
            raise ConfigError(f"{origin}: {exc}") from exc
    return spacings


def _times(cfg: dict, args: argparse.Namespace, default: Sequence[float]) -> tuple[float, ...]:
    if args.times is not None:
        return tuple(args.times)
    if "times" in cfg:
        times = _get(cfg, "", "times", list)
        for t in times:
            if isinstance(t, bool) or not isinstance(t, (int, float)):
                raise ConfigError(f"field 'times' must list numbers, got {t!r}")
        return tuple(float(t) for t in times)
    return tuple(default)


def _jsonable(value: Any) -> Any:
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _emit(out: Path, resolved: dict) -> None:
    out.mkdir(parents=True, exist_ok=True)
    path = out / "resolved_config.json"
    path.write_text(json.dumps(_jsonable(resolved), indent=2, sort_keys=True) + "\n")
    log.info("wrote %s", path)


def _verdict(records: list, out: Path, name: str) -> int:
    """Write records + per-h max-ratio table, print the uniformity verdict."""
    write_csv(records, out / "records.csv")
    write_jsonl(records, out / "records.jsonl")
    per_h = group_max_ratio(records)
    factor = uniformity_factor(records)
    print(f"{name}: max ratio per spacing")
    for h in sorted(per_h, reverse=True):
        print(f"  h = {h:.6g}  max ratio = {per_h[h]:.6g}")
    ok = factor < UNIFORMITY_THRESHOLD
    print(f"uniformity factor {factor:.4g} (threshold {UNIFORMITY_THRESHOLD:g}): "
          f"{'PASS' if ok else 'FAIL'}")
    (out / "summary.json").write_text(json.dumps(_jsonable({
        "experiment": name,
        "max_ratio_per_h": {format_float(h): r for h, r in sorted(per_h.items())},
        "uniformity_factor": factor,
        "threshold": UNIFORMITY_THRESHOLD,
        "verdict": "PASS" if ok else "FAIL",
    }), indent=2, sort_keys=True) + "\n")
    return 0


# --------------------------------------------------------------------------
# subcommands


def _cmd_simulate(cfg: dict, args: argparse.Namespace) -> tuple[dict, Callable[[Path], int]]:
    _check_keys(cfg, "", {"schema_version", "kind", "d", "m", "initial", "params", "evolution"})
    lattice = _lattice(cfg)
    initial = _get(cfg, "", "initial", dict)
    profile = _profile(lattice.d, initial, "initial", args.seed)
    params = _params(cfg)
    evo = _get(cfg, "", "evolution", dict)
    _check_keys(evo, "evolution", {"dt", "t_final", "integrator", "record_stride"})
    config = _build(
        EvolutionConfig,
        dt=_get(evo, "evolution", "dt", float),
        t_final=_get(evo, "evolution", "t_final", float),
        integrator=_get(evo, "evolution", "integrator", str, default="strang"),
        record_stride=_get(evo, "evolution", "record_stride", int, default=1),
    )
    resolved = {
        "schema_version": SCHEMA_VERSION,
        "kind": "simulate",
        "d": lattice.d,
        "m": lattice.M,
        "initial": _profile_resolved(initial, args.seed),
        "params": {"p": params.p, "lam": params.lam, "coupling": params.coupling},
        "evolution": {"dt": config.dt, "t_final": config.t_final,
                      "integrator": config.integrator, "record_stride": config.record_stride},
    }

    def run(out: Path) -> int:
        trajectory = evolve(discretize(profile, lattice), params, config)
        trajectory.save(out / "trajectory")
        mass0 = trajectory.conserved[0].mass
        energy0 = trajectory.conserved[0].energy
        with (out / "conserved.csv").open("w") as fh:
            fh.write("t,mass,energy,mass_drift,energy_drift\n")
            for t, c in zip(trajectory.times, trajectory.conserved):
                drift_m = abs(c.mass - mass0) / mass0 if mass0 else abs(c.mass)
                drift_e = abs(c.energy - energy0)
                fh.write(f"{format_float(t)},{format_float(c.mass)},{format_float(c.energy)},"
                         f"{format_float(drift_m)},{format_float(drift_e)}\n")
        final = trajectory.conserved[-1]
        drift_m = abs(final.mass - mass0) / mass0 if mass0 else abs(final.mass)
        print(f"simulate: {len(trajectory.times)} snapshots to t = {trajectory.times[-1]:g}")
        print(f"mass drift (relative): {drift_m:.4g}")
        print(f"energy drift (absolute): {abs(final.energy - energy0):.4g}")
        return 0

    return resolved, run


def _cmd_converge(cfg: dict, args: argparse.Namespace) -> tuple[dict, Callable[[Path], int]]:
    _check_keys(cfg, "", {"schema_version", "kind", "d", "initial", "params",
                          "h_list", "times", "dt", "integrator", "reference", "oversample"})
    d = _dimension(cfg)
    initial = _get(cfg, "", "initial", dict)
    u0 = _profile(d, initial, "initial", args.seed)
    params = _params(cfg)
    reference = _get(cfg, "", "reference", dict, default={})
    _check_keys(reference, "reference", {"resolution", "dt", "tol"})
    study = _build(
        ConvergenceStudy,
        u0=u0,
        params=params,
        h_list=_h_list(cfg, args, d, default=ConvergenceStudy.__dataclass_fields__["h_list"].default),
        times=_times(cfg, args, default=(0.0, 0.25, 0.5, 1.0)),
        dt=_get(cfg, "", "dt", float, default=2e-3),
        integrator=_get(cfg, "", "integrator", str, default="strang"),
        reference_resolution=_get(reference, "reference", "resolution", int, default=256),
        reference_dt=_get(reference, "reference", "dt", float, default=1e-3),
        reference_tol=_get(reference, "reference", "tol", float, default=1e-4),
        oversample=_get(cfg, "", "oversample", int, default=8),
    )
    if "oversample" in cfg:
        print("note: 'oversample' is deprecated; the L2 error against a trig-polynomial "
              "reference is exact and ignores it", file=sys.stderr)
    resolved = {
        "schema_version": SCHEMA_VERSION,
        "kind": "converge",
        "d": d,
        "initial": _profile_resolved(initial, args.seed),
        "params": {"p": params.p, "lam": params.lam, "coupling": params.coupling},
        "h_list": list(study.h_list),
        "times": list(study.times),
        "dt": study.dt,
        "integrator": study.integrator,
        "reference": {"resolution": study.reference_resolution,
                      "dt": study.reference_dt, "tol": study.reference_tol},
        "oversample": study.oversample,
    }

    def run(out: Path) -> int:
        result = run_convergence(study, threads=args.threads)
        write_csv(result.records, out / "records.csv")
        write_jsonl(result.records, out / "records.jsonl")
        series: dict[str, list[tuple[float, float]]] = {}
        summary: dict[str, Any] = {
            "slope_guarantee": 0.5, "fits": {},
            "reference_certificate": {f"{t:g}": dataclasses.asdict(cert)
                                      for t, cert in result.certificates.items()},
        }
        for t in sorted(result.fits):
            fit = result.fits[t]
            pairs = result.errors_at(t)
            subset = [r for r in result.records if r.experiment == "converge" and r.t == t]
            write_loglog_tsv(subset, out / f"rate_t{t:g}.tsv")
            series[f"t={t:g}"] = [(math.log10(h), math.log10(e)) for h, e in pairs if e > 0]
            summary["fits"][f"{t:g}"] = {
                "slope": fit.slope, "intercept": fit.intercept,
                "residual": fit.residual, "n_points": fit.n_points,
                "reference_distance": result.certificates[t].bound,
            }
            print(f"t = {t:g}: measured slope {fit.slope:.3f} (guarantee 0.5)")
        write_svg_chart(series, out / "rates.svg", title="L2 error vs spacing (log10-log10)")
        (out / "summary.json").write_text(
            json.dumps(_jsonable(summary), indent=2, sort_keys=True) + "\n")
        return 0

    return resolved, run


def _cmd_strichartz(cfg: dict, args: argparse.Namespace) -> tuple[dict, Callable[[Path], int]]:
    _check_keys(cfg, "", {"schema_version", "kind", "d", "pair", "epsilon", "h_list",
                          "time_interval", "t_nodes", "self_check", "profiles"})
    d = _dimension(cfg)
    pair_cfg = _get(cfg, "", "pair", dict)
    _check_keys(pair_cfg, "pair", {"q", "r"})
    pair = _build(AdmissiblePair, _get_exponent(pair_cfg, "pair", "q"), _get_exponent(pair_cfg, "pair", "r"))
    _build(pair.validate_for, d)
    interval = _get(cfg, "", "time_interval", list, default=[0.0, 1.0])
    if len(interval) != 2:
        raise ConfigError(f"field 'time_interval' must be [start, end], got {interval!r}")
    query = _build(
        StrichartzQuery,
        pair=pair,
        epsilon=_get(cfg, "", "epsilon", float, default=0.1),
        h_sweep=_h_list(cfg, args, d),
        time_interval=(float(interval[0]), float(interval[1])),
        t_nodes=_get(cfg, "", "t_nodes", int, default=257),
        self_check=_get(cfg, "", "self_check", bool, default=True),
    )
    profiles_cfg = _get(cfg, "", "profiles", dict, default={})
    _check_keys(profiles_cfg, "profiles", {"seed", "n_random"})
    seed = args.seed if args.seed is not None else _get(profiles_cfg, "profiles", "seed", int, default=0)
    n_random = _get(profiles_cfg, "profiles", "n_random", int, default=2)
    corpus = continuum_profiles(d, seed=seed, n_random=n_random)
    resolved = {
        "schema_version": SCHEMA_VERSION,
        "kind": "strichartz",
        "d": d,
        "pair": {"q": pair.q, "r": pair.r},
        "epsilon": query.epsilon,
        "h_list": list(query.h_sweep),
        "time_interval": list(query.time_interval),
        "t_nodes": query.t_nodes,
        "self_check": query.self_check,
        "profiles": {"seed": seed, "n_random": n_random},
    }

    def run(out: Path) -> int:
        records = strichartz_sweep(query, corpus, threads=args.threads)
        return _verdict(records, out, "strichartz")

    return resolved, run


def _cmd_dispersive(cfg: dict, args: argparse.Namespace) -> tuple[dict, Callable[[Path], int]]:
    _check_keys(cfg, "", {"schema_version", "kind", "d", "h_list", "c", "t_samples"})
    d = _dimension(cfg)
    h_list = _h_list(cfg, args, d)
    c = _get(cfg, "", "c", float, default=0.1)
    if not 0 < c < 0.5:
        raise ConfigError(f"field 'c' must lie in (0, 0.5), got {c}")
    t_samples = _get(cfg, "", "t_samples", int, default=8)
    if t_samples < 1:
        raise ConfigError(f"field 't_samples' must be >= 1, got {t_samples}")
    resolved = {
        "schema_version": SCHEMA_VERSION,
        "kind": "dispersive",
        "d": d,
        "h_list": list(h_list),
        "c": c,
        "t_samples": t_samples,
    }

    def run(out: Path) -> int:
        records = dispersive_uniformity(d, h_list, c=c, t_samples=t_samples, threads=args.threads)
        return _verdict(records, out, "dispersive")

    return resolved, run


def _cmd_conserve(cfg: dict, args: argparse.Namespace) -> tuple[dict, Callable[[Path], int]]:
    _check_keys(cfg, "", {"schema_version", "kind", "d", "m", "initial", "params", "dt", "n_steps"})
    lattice = _lattice(cfg)
    initial = _get(cfg, "", "initial", dict)
    profile = _profile(lattice.d, initial, "initial", args.seed)
    params = _params(cfg)
    dt = _get(cfg, "", "dt", float)
    if not 0 < dt < math.inf:
        raise ConfigError(f"field 'dt' must be positive and finite, got {dt}")
    n_steps = _get(cfg, "", "n_steps", int)
    if n_steps < 2:
        raise ConfigError(f"field 'n_steps' must be >= 2, got {n_steps}")
    try:
        finite = math.isfinite(dt * n_steps)
    except OverflowError:  # n_steps beyond the float range
        finite = False
    if not finite:
        raise ConfigError(f"run length dt * n_steps = {dt} * {n_steps} is not finite")
    resolved = {
        "schema_version": SCHEMA_VERSION,
        "kind": "conserve",
        "d": lattice.d,
        "m": lattice.M,
        "initial": _profile_resolved(initial, args.seed),
        "params": {"p": params.p, "lam": params.lam, "coupling": params.coupling},
        "dt": dt,
        "n_steps": n_steps,
    }

    def run(out: Path) -> int:
        u0 = discretize(profile, lattice)
        coarse = conservation_drift(u0, params, dt, n_steps)
        fine = conservation_drift(u0, params, dt / 2, 2 * n_steps)
        ratio = coarse[1] / fine[1] if fine[1] else math.inf
        with (out / "conserve.csv").open("w") as fh:
            fh.write("dt,mass_drift,energy_drift\n")
            fh.write(f"{format_float(dt)},{format_float(coarse[0])},{format_float(coarse[1])}\n")
            fh.write(f"{format_float(dt / 2)},{format_float(fine[0])},{format_float(fine[1])}\n")
        print(f"mass drift (relative): {coarse[0]:.4g} at dt = {dt:g}, "
              f"{fine[0]:.4g} at dt = {dt / 2:g}")
        print(f"energy drift (absolute): {coarse[1]:.4g} at dt = {dt:g}, "
              f"{fine[1]:.4g} at dt = {dt / 2:g}")
        print(f"energy Richardson ratio: {ratio:.4g} (order 2 gives about 4)")
        (out / "summary.json").write_text(json.dumps(_jsonable({
            "mass_drift": {"dt": coarse[0], "dt_half": fine[0]},
            "energy_drift": {"dt": coarse[1], "dt_half": fine[1]},
            "energy_richardson_ratio": ratio,
        }), indent=2, sort_keys=True) + "\n")
        return 0

    return resolved, run


def _cmd_inequalities(cfg: dict, args: argparse.Namespace) -> tuple[dict, Callable[[Path], int]]:
    _check_keys(cfg, "", {"schema_version", "kind", "d", "m_list", "kinds",
                          "s", "theta", "epsilon", "seed"})
    d = _dimension(cfg)
    m_list = _get(cfg, "", "m_list", list, default=[8, 16, 32, 64])
    if not m_list:
        raise ConfigError("field 'm_list' must list at least one M")
    for m in m_list:
        if isinstance(m, bool) or not isinstance(m, int):
            raise ConfigError(f"field 'm_list' must list integers, got {m!r}")
    kinds = _get(cfg, "", "kinds", list,
                 default=["sobolev", "gagliardo_nirenberg", "bernstein"])
    if not kinds:
        raise ConfigError("field 'kinds' must list at least one inequality kind")
    s = _get(cfg, "", "s", float, default=0.4 * d)
    theta = _get(cfg, "", "theta", float, default=0.5)
    epsilon = _get(cfg, "", "epsilon", float, default=0.1)
    seed = args.seed if args.seed is not None else _get(cfg, "", "seed", int, default=0)
    lattices = [_build(Lattice, d, m) for m in m_list]
    for kind in kinds:
        _build(inequality_exponent, kind, d, s=s, theta=theta, epsilon=epsilon)
    resolved = {
        "schema_version": SCHEMA_VERSION,
        "kind": "inequalities",
        "d": d,
        "m_list": list(m_list),
        "kinds": list(kinds),
        "s": s,
        "theta": theta,
        "epsilon": epsilon,
        "seed": seed,
    }

    def run(out: Path) -> int:
        records = []
        for lattice in lattices:
            corpus = lattice_stress_corpus(lattice, seed=seed)
            for kind in kinds:
                records.extend(inequality_sweep(kind, corpus, s=s, theta=theta, epsilon=epsilon))
        return _verdict(records, out, "inequalities")

    return resolved, run


_HANDLERS: dict[str, Callable[[dict, argparse.Namespace], tuple[dict, Callable[[Path], int]]]] = {
    "simulate": _cmd_simulate,
    "converge": _cmd_converge,
    "strichartz": _cmd_strichartz,
    "dispersive": _cmd_dispersive,
    "conserve": _cmd_conserve,
    "inequalities": _cmd_inequalities,
}


# --------------------------------------------------------------------------
# driver


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lnls",
        description="Lattice Schrodinger simulations, estimate sweeps, and convergence studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} experiment from a JSON config")
        p.add_argument("--config", required=True, help="path to the JSON config file")
        p.add_argument("--out", default=None, help="output directory (created if absent)")
        p.add_argument("--threads", type=int, default=None,
                       help="parallel fan-out degree (default: number of cores)")
        p.add_argument("--dry-run", action="store_true",
                       help="print the resolved plan without computing")
        p.add_argument("--seed", type=int, default=None,
                       help="override the RNG seed recorded in the config")
        p.add_argument("--h-list", nargs="+", default=None, metavar="H",
                       help="override lattice spacings, e.g. pi/8 pi/16 pi/32")
        p.add_argument("--times", nargs="+", type=float, default=None, metavar="T",
                       help="override observation times")
    return parser


def _init_logging() -> None:
    name = os.environ.get("LNLS_LOG", "WARNING").upper()
    level = getattr(logging, name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    _init_logging()
    try:
        if args.seed is not None and not 0 <= args.seed < 2**64:
            raise ConfigError(f"--seed must be an unsigned 64-bit integer, got {args.seed}")
        if args.threads is not None and args.threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {args.threads}")
        cfg = _load_config(args.config)
        version = _get(cfg, "", "schema_version", int)
        if version != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema_version {version}; this build reads version {SCHEMA_VERSION}")
        kind = _get(cfg, "", "kind", str)
        if kind != args.command:
            raise ConfigError(f"config kind {kind!r} does not match subcommand {args.command!r}")
        resolved, run = _HANDLERS[args.command](cfg, args)
        if args.dry_run:
            # the plan shows the fan-out degree; the snapshot leaves it out, since
            # results do not depend on it and no config accepts the field
            threads = args.threads if args.threads is not None else default_threads()
            print(json.dumps(_jsonable({**resolved, "threads": threads}), indent=2, sort_keys=True))
            return 0
        if args.out is None:
            raise ConfigError("an output directory is required: pass --out DIR (or --dry-run to preview)")
        out = Path(args.out)
        _emit(out, resolved)
        try:
            return run(out)
        except ValueError as exc:
            # a run-phase contract violation (e.g. a contraction horizon
            # exceeded mid-integration) is a numerical failure, not usage
            print(f"numerical failure: {exc}", file=sys.stderr)
            return 3
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalAccuracyError, IntegrationDivergedError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
