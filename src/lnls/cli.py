"""Command-line frontend for simulations, estimate sweeps, and convergence studies.

Each subcommand declares its config once, as a table of fields (path, type,
default, check).  One walker reads the JSON config against that table before
any computation: it rejects unknown fields, including those of another initial
profile, coerces and checks every value, applies ``--seed``, ``--h-list`` and
``--times`` to the fields of those names (an ``--h-list`` or ``--times`` that
no field reads is an error), and fills in every default.  The
subcommand builds its run from the resolved dict alone, and that dict is
written to ``resolved_config.json`` in the output directory, so the snapshot
pins every value the run reads and re-running it reproduces the artifacts
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
from typing import Any, Callable, NamedTuple, Sequence

from .continuum import TrigPolynomial, plane_wave, random_low_modes, wrapped_gaussian
from .corpus import continuum_profiles, iter_lattice_stress_corpus
from .dynamics import (
    EvolutionConfig,
    IntegrationDivergedError,
    NlsParams,
    _contraction_factor,
    recorded_steps,
    write_trajectory,
)
from .estimates import (
    AdmissiblePair,
    StrichartzQuery,
    dispersive_uniformity,
    strichartz_sweep,
)
from .harness import (
    DEFAULT_H_LIST,
    DEFAULT_TIMES,
    ConvergenceStudy,
    conservation_drift,
    run_convergence,
)
from .lattice import Lattice, NumericalAccuracyError, discretize
from .records import (
    drift_slope,
    format_float,
    group_max_ratio,
    uniformity_factor,
    write_csv,
    write_jsonl,
    write_loglog_tsv,
    write_svg_chart,
)
from .spectral import inequality_exponent, inequality_sweep
from .util import Draws

log = logging.getLogger("lnls.cli")

SCHEMA_VERSION = 1
UNIFORMITY_THRESHOLD = 3.0
_OVERRIDES = ("seed", "h_list", "times")  # the fields that the flags of these names set

_MISSING = object()


class ConfigError(Exception):
    """Invalid command-line usage or config content; maps to exit code 2."""


# --------------------------------------------------------------------------
# config schema: one table of fields per subcommand, one walker


class _Exponent:
    """Field type of a Lebesgue exponent: a number, or the string "inf"."""


class _Spacing:
    """Field type of a lattice spacing: ``pi/M`` or a number (see :func:`parse_spacing`)."""


# what a value of each field type must be, as a single value and in a list
_TYPE_NAMES = {
    float: ("a number", "numbers"),
    int: ("an integer", "integers"),
    str: ("a string", "strings"),
    _Exponent: ('a number or "inf"', 'numbers or "inf"'),
    _Spacing: ("a spacing ('pi/M' or a number)", "spacings ('pi/M' or numbers)"),
}


class _Field(NamedTuple):
    """One config field.

    ``path`` is dotted (``"evolution.dt"``).  ``kind`` is a key of
    ``_TYPE_NAMES`` or ``list[...]`` of one; a dict ``kind`` makes the field a
    choice among its keys, and the fields listed under the chosen key are
    walked next.  ``default`` is a value, a function of the fields resolved
    so far, or ``_MISSING`` for a required field.  ``check(value, resolved)``
    returns what is wrong with a given value, or None; defaults are not
    checked.
    """

    path: str
    kind: Any
    default: Any = _MISSING
    check: Callable[[Any, dict], str | None] | None = None


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


def _scalar(kind: Any, value: Any) -> Any:
    """``value`` read as field type ``kind``, or ``_MISSING`` if it is not one."""
    if kind is _Spacing:
        try:
            return parse_spacing(value)
        except (ConfigError, OverflowError):
            return _MISSING
    if kind is _Exponent and isinstance(value, str) and value.lower() in ("inf", "infinity"):
        return math.inf
    if isinstance(value, bool):
        return _MISSING
    if kind is int:
        return value if isinstance(value, int) else _MISSING
    if kind in (float, _Exponent):
        try:
            return float(value) if isinstance(value, (int, float)) else _MISSING
        except OverflowError:  # an integer literal beyond the float range
            return _MISSING
    return value if isinstance(value, kind) else _MISSING


def _finite(kind: Any, read: Any) -> bool:
    """Whether a read value is finite; an exponent may also be +inf, the same value as "inf"."""
    return not isinstance(read, float) or math.isfinite(read) or (kind is _Exponent and read > 0)


def _coerce(kind: Any, value: Any, where: str) -> Any:
    """``value`` read as field type ``kind``; a value of another type, NaN or +-inf is a ConfigError."""
    if getattr(kind, "__origin__", None) is list:
        if not isinstance(value, list):
            raise ConfigError(f"{where} must be a list, got {value!r}")
        (item,) = kind.__args__
        values = [_scalar(item, v) for v in value]
        for raw, read in zip(value, values):
            if read is _MISSING:
                raise ConfigError(f"{where} must list {_TYPE_NAMES[item][1]}, got {raw!r}")
            if not _finite(item, read):
                raise ConfigError(f"{where} must list finite values, got {raw!r}")
        return values
    read = _scalar(kind, value)
    if read is _MISSING:
        raise ConfigError(f"{where} must be {_TYPE_NAMES[kind][0]}, got {value!r}")
    if not _finite(kind, read):
        raise ConfigError(f"{where} must be finite, got {value!r}")
    return read


def _resolve(table: Sequence[_Field], cfg: dict, overrides: dict, resolved: dict,
             read: set) -> dict:
    """Walk ``table`` over ``cfg`` into ``resolved``: override, coerce, check, default.

    Each key of ``overrides`` that a field reads is added to ``read``.
    """
    for field in table:
        *sections, key = field.path.split(".")
        given, target = cfg, resolved
        for depth, name in enumerate(sections, 1):
            given = given.get(name, {})
            if not isinstance(given, dict):
                raise ConfigError(f"field {'.'.join(sections[:depth])!r} must be an object")
            target = target.setdefault(name, {})
        if key in overrides or key in given:
            if key in overrides:
                read.add(key)
                value, where = overrides[key], "--" + key.replace("_", "-")
            else:
                value, where = given[key], f"field {field.path!r}"
            if isinstance(field.kind, dict):
                if not (isinstance(value, str) and value in field.kind):
                    raise ConfigError(f"{where} must be one of {' | '.join(field.kind)}, got {value!r}")
            else:
                value = _coerce(field.kind, value, where)
            problem = field.check(value, resolved) if field.check else None
            if problem:
                raise ConfigError(f"{where} {problem}")
        elif field.default is _MISSING:
            hint = f" (or pass --{key.replace('_', '-')})" if key in _OVERRIDES else ""
            raise ConfigError(f"missing required field {field.path!r}{hint}")
        else:
            value = field.default(resolved) if callable(field.default) else field.default
        target[key] = value
        if isinstance(field.kind, dict):
            _resolve(field.kind[value], cfg, overrides, resolved, read)
    return resolved


def _reject_unknown(given: dict, resolved: dict, path: str = "") -> None:
    unknown = sorted(set(given) - set(resolved))
    if unknown:
        raise ConfigError(f"unknown field(s) {unknown} in {path or 'config'}; "
                          f"allowed: {sorted(resolved)}")
    for key, value in given.items():
        if isinstance(value, dict):
            _reject_unknown(value, resolved[key], f"{path}.{key}" if path else key)


def _header(kind: str) -> tuple[_Field, ...]:
    """The fields that every config of subcommand ``kind`` starts with."""
    return (
        _Field("schema_version", int, check=lambda v, r: None if v == SCHEMA_VERSION else
               f"must be {SCHEMA_VERSION}, the version this build reads, got {v}"),
        _Field("kind", str, check=lambda v, r: None if v == kind else
               f"is {v!r}, which does not match subcommand {kind!r}"),
        _Field("d", int, check=lambda d, r: None if d in (1, 2) else f"must be 1 or 2, got {d}"),
    )


def _seed(seed: int, resolved: dict) -> str | None:
    return None if 0 <= seed < 2**64 else f"must be an unsigned 64-bit integer, got {seed}"


def _spacings(spacings: list, resolved: dict) -> str | None:
    """Each spacing of an ``h`` sweep must be ``pi/M`` for an admissible ``M``."""
    if not spacings:
        return "must not be empty"
    for h in spacings:
        try:
            Lattice.from_spacing(resolved["d"], h)
        except ValueError as exc:
            return f"lists a bad spacing: {exc}"
    return None


def _uniform_sweep(labels: list[str]) -> str | None:
    """Two values or more, none twice: a factor over one value compares it with itself."""
    repeated = [label for i, label in enumerate(labels) if label in labels[:i]]
    if not repeated and len(labels) > 1:
        return None
    problem = f"lists {repeated[0]} twice" if repeated else f"lists only {labels[0]}"
    return f"{problem}; a uniformity factor needs two distinct values or more"


def _sweep_spacings(spacings: list, resolved: dict) -> str | None:
    return _spacings(spacings, resolved) or _uniform_sweep(
        [f"pi/{Lattice.from_spacing(resolved['d'], h).M}" for h in spacings])


_PROFILES = {
    "plane_wave": (
        _Field("initial.mode", list[int], lambda r: [1] + [0] * (r["d"] - 1)),
        _Field("initial.amplitude", float, 1.0),
    ),
    "wrapped_gaussian": (
        _Field("initial.width", float, 0.6),
        _Field("initial.center", list[float], lambda r: [0.0] * r["d"]),
    ),
    "random_low_modes": (
        _Field("initial.seed", int, 0, _seed),
        _Field("initial.max_mode", int, 3),
        _Field("initial.n_modes", int, 8),
    ),
}
_INITIAL_AND_PARAMS = (
    _Field("initial.profile", _PROFILES),
    _Field("params.p", float),
    _Field("params.lam", int),
    _Field("params.coupling", float, 1.0),
)


def _build(fields: tuple[str, ...], ctor: Callable, *args: Any, **kwargs: Any) -> Any:
    """Construct a library object from config ``fields``; its ValueError is a config error naming them."""
    try:
        return ctor(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"field {' or '.join(map(repr, fields))} is rejected: {exc}") from exc


def _profile(resolved: dict) -> TrigPolynomial:
    initial, d = resolved["initial"], resolved["d"]
    if initial["profile"] == "plane_wave":
        return _build(("initial",), plane_wave, d, initial["mode"], amplitude=initial["amplitude"])
    if initial["profile"] == "wrapped_gaussian":
        return _build(("initial",), wrapped_gaussian, d, initial["width"], center=initial["center"])
    rng = Draws(initial["seed"])
    return _build(("initial",), random_low_modes, d, rng, max_mode=initial["max_mode"],
                  n_modes=initial["n_modes"])


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


def _jsonable(value: Any) -> Any:
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _json(value: Any) -> str:
    """The JSON text of every file and plan the CLI writes."""
    return json.dumps(_jsonable(value), indent=2, sort_keys=True) + "\n"


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
    (out / "summary.json").write_text(_json({
        "experiment": name,
        "max_ratio_per_h": {format_float(h): r for h, r in sorted(per_h.items())},
        "uniformity_factor": factor,
        "drift_slope": drift_slope(records),
        "threshold": UNIFORMITY_THRESHOLD,
        "verdict": "PASS" if ok else "FAIL",
    }))
    return 0


# --------------------------------------------------------------------------
# subcommands: each builds its run from the resolved config alone


def _whole_steps(t_final: float, resolved: dict) -> str | None:
    """What :class:`EvolutionConfig` finds wrong with ``t_final`` at the given ``evolution.dt``."""
    dt = resolved["evolution"]["dt"]  # finite, as every number the walker reads
    if not dt > 0:
        return None  # building the config names the bad dt
    try:
        EvolutionConfig(dt, t_final)
    except ValueError as exc:
        return f"is rejected: {exc}"
    return None


_SIMULATE = (
    *_header("simulate"),
    _Field("m", int),
    *_INITIAL_AND_PARAMS,
    _Field("evolution.dt", float),
    _Field("evolution.t_final", float, check=_whole_steps),
    _Field("evolution.integrator", str, "strang"),
    _Field("evolution.record_stride", int, 1),
)


def _cmd_simulate(r: dict) -> Callable[[Path], int]:
    lattice = _build(("m",), Lattice, r["d"], r["m"])
    profile = _profile(r)
    params = _build(("params",), NlsParams, **r["params"])
    config = _build(("evolution",), EvolutionConfig, **r["evolution"])
    if config.integrator == "duhamel_picard":
        # cell averaging does not raise the L^2 norm, so the profile's norm
        # bounds the factor of the first step with no grid built
        factor = _contraction_factor(lattice, profile.l2_norm(), params, config.dt)
        if factor >= 1.0:
            raise ConfigError(
                f"field 'evolution.dt' = {config.dt:g} is too long for duhamel_picard: the "
                f"contraction factor on the lattice M={lattice.M} can reach {factor:.3g} >= 1; "
                f"the step must be below {config.dt / factor:.3g}")

    def run(out: Path) -> int:
        # stream: each recorded state is written as it is reached, never kept
        records = recorded_steps(discretize(profile, lattice), params, config)
        rows = write_trajectory(out / "trajectory", params, config, records)
        mass0, energy0 = rows[0][1].mass, rows[0][1].energy
        with (out / "conserved.csv").open("w") as fh:
            fh.write("t,mass,energy,mass_drift,energy_drift\n")
            for t, c in rows:
                drift_m = abs(c.mass - mass0) / mass0 if mass0 else abs(c.mass)
                drift_e = abs(c.energy - energy0)
                fh.write(f"{format_float(t)},{format_float(c.mass)},{format_float(c.energy)},"
                         f"{format_float(drift_m)},{format_float(drift_e)}\n")
        # the loop leaves the last row's time and drifts behind
        print(f"simulate: {len(rows)} snapshots to t = {t:g}")
        print(f"mass drift (relative): {drift_m:.4g}")
        print(f"energy drift (absolute): {drift_e:.4g}")
        return 0

    return run


def _note_deprecated_oversample(oversample: int, resolved: dict) -> None:
    print("note: 'oversample' is deprecated; the L2 error against a trig-polynomial "
          "reference is exact and ignores it", file=sys.stderr)


def _distinct_labels(times: list, resolved: dict) -> str | None:
    """Each time names its rate file and summary keys by ``f"{t:g}"``."""
    first: dict[str, float] = {}
    for t in times:
        if first.setdefault(f"{t:g}", t) != t:
            return (f"lists {first[f'{t:g}']!r} and {t!r}, which share the label '{t:g}' of "
                    f"rate_t{t:g}.tsv and the summary keys; make them differ within 6 "
                    "significant digits")
    return None


_CONVERGE = (
    *_header("converge"),
    *_INITIAL_AND_PARAMS,
    _Field("h_list", list[_Spacing], DEFAULT_H_LIST, _spacings),
    _Field("times", list[float], DEFAULT_TIMES, _distinct_labels),
    _Field("dt", float, 2e-3),
    _Field("reference.resolution", int, 256),
    _Field("reference.dt", float, 1e-3),
    _Field("reference.tol", float, 1e-4),
    _Field("oversample", int, 8, _note_deprecated_oversample),
)


def _cmd_converge(r: dict) -> Callable[[Path], int]:
    reference = r["reference"]
    study = _build(
        ("h_list", "times", "dt", "reference", "oversample"), ConvergenceStudy,
        u0=_profile(r),
        params=_build(("params",), NlsParams, **r["params"]),
        h_list=r["h_list"],
        times=r["times"],
        dt=r["dt"],
        reference_resolution=reference["resolution"],
        reference_dt=reference["dt"],
        reference_tol=reference["tol"],
        oversample=r["oversample"],
    )

    def run(out: Path) -> int:
        result = run_convergence(study)
        write_csv(result.records + result.split, out / "records.csv")
        write_jsonl(result.records + result.split, out / "records.jsonl")
        series: dict[str, list[tuple[float, float]]] = {}
        summary: dict[str, Any] = {
            "slope_guarantee": 0.5, "fits": {},
            "floor_fits": {f"{t:g}": dataclasses.asdict(fit) for t, fit in result.floor_fits.items()},
            "lattice_fits": {f"{t:g}": dataclasses.asdict(fit)
                             for t, fit in result.lattice_fits.items()},
            "reference_certificate": {f"{t:g}": dataclasses.asdict(cert)
                                      for t, cert in result.certificates.items()},
        }
        for t in sorted(result.fits):
            fit = result.fits[t]
            pairs = result.errors_at(t)
            write_loglog_tsv(pairs, out / f"rate_t{t:g}.tsv")
            series[f"t={t:g}"] = [(math.log10(h), math.log10(e)) for h, e in pairs if e > 0]
            summary["fits"][f"{t:g}"] = {
                **dataclasses.asdict(fit), "reference_distance": result.certificates[t].bound}
            print(f"t = {t:g}: measured slope {fit.slope:.3f} (guarantee 0.5)")
        write_svg_chart(series, out / "rates.svg", title="L2 error vs spacing (log10-log10)")
        (out / "summary.json").write_text(_json(summary))
        return 0

    return run


_STRICHARTZ = (
    *_header("strichartz"),
    _Field("pair.q", _Exponent),
    _Field("pair.r", _Exponent),
    _Field("epsilon", float, 0.1),
    _Field("h_list", list[_Spacing], check=_sweep_spacings),
    _Field("time_interval", list[float], (0.0, 1.0),
           lambda v, r: None if len(v) == 2 else f"must be [start, end], got {v!r}"),
    _Field("t_nodes", int, 257),
    _Field("profiles.seed", int, 0, _seed),
    _Field("profiles.n_random", int, 2, lambda n, r: None if n >= 0 else f"must be >= 0, got {n}"),
)


def _cmd_strichartz(r: dict) -> Callable[[Path], int]:
    pair = _build(("pair",), AdmissiblePair, r["pair"]["q"], r["pair"]["r"])
    _build(("pair",), pair.validate_for, r["d"])
    query = _build(
        ("epsilon", "h_list", "time_interval", "t_nodes"), StrichartzQuery,
        pair=pair,
        epsilon=r["epsilon"],
        h_sweep=tuple(r["h_list"]),
        time_interval=tuple(r["time_interval"]),
        t_nodes=r["t_nodes"],
    )

    def run(out: Path) -> int:
        # the corpus is built here, so that a dry run computes nothing
        corpus = continuum_profiles(r["d"], **r["profiles"])
        records = strichartz_sweep(query, corpus)
        return _verdict(records, out, "strichartz")

    return run


_DISPERSIVE = (
    *_header("dispersive"),
    _Field("h_list", list[_Spacing], check=_sweep_spacings),
    _Field("c", float, 0.1, lambda c, r: None if 0 < c < 0.5 else f"must lie in (0, 0.5), got {c}"),
    _Field("t_samples", int, 8, lambda n, r: None if n >= 1 else f"must be >= 1, got {n}"),
)


def _cmd_dispersive(r: dict) -> Callable[[Path], int]:
    def run(out: Path) -> int:
        records = dispersive_uniformity(r["d"], tuple(r["h_list"]), c=r["c"],
                                        t_samples=r["t_samples"])
        return _verdict(records, out, "dispersive")

    return run


def _run_length(n_steps: int, resolved: dict) -> str | None:
    if n_steps < 2:
        return f"must be >= 2, got {n_steps}"
    dt = resolved["dt"]
    try:
        finite = math.isfinite(dt * n_steps)
    except OverflowError:  # n_steps beyond the float range
        finite = False
    return None if finite else f"makes the run length dt * n_steps = {dt} * {n_steps} not finite"


_CONSERVE = (
    *_header("conserve"),
    _Field("m", int),
    *_INITIAL_AND_PARAMS,
    _Field("dt", float, check=lambda dt, r: None if 0 < dt < math.inf else
           f"must be positive and finite, got {dt}"),
    _Field("n_steps", int, check=_run_length),
)


def _cmd_conserve(r: dict) -> Callable[[Path], int]:
    lattice = _build(("m",), Lattice, r["d"], r["m"])
    profile = _profile(r)
    params = _build(("params",), NlsParams, **r["params"])
    dt, n_steps = r["dt"], r["n_steps"]

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
        (out / "summary.json").write_text(_json({
            "mass_drift": {"dt": coarse[0], "dt_half": fine[0]},
            "energy_drift": {"dt": coarse[1], "dt_half": fine[1]},
            "energy_richardson_ratio": ratio,
        }))
        return 0

    return run


_INEQUALITIES = (
    *_header("inequalities"),
    _Field("m_list", list[int], (8, 16, 32, 64),
           lambda ms, r: _uniform_sweep([f"M={m}" for m in ms]) if ms else "must list at least one M"),
    _Field("kinds", list[str], ("sobolev", "gagliardo_nirenberg", "bernstein"),
           lambda kinds, r: None if kinds else "must list at least one inequality kind"),
    _Field("s", float, lambda r: 0.4 * r["d"]),
    _Field("theta", float, 0.5),
    _Field("epsilon", float, 0.1),
    _Field("seed", int, 0, _seed),
)


def _cmd_inequalities(r: dict) -> Callable[[Path], int]:
    d, kinds, seed = r["d"], r["kinds"], r["seed"]
    exponents = {"s": r["s"], "theta": r["theta"], "epsilon": r["epsilon"]}
    lattices = [_build(("m_list",), Lattice, d, m) for m in r["m_list"]]
    for kind in kinds:
        _build(("kinds", "s", "theta", "epsilon"), inequality_exponent, kind, d, **exponents)

    def run(out: Path) -> int:
        records = [rec for lattice in lattices for rec in inequality_sweep(
            kinds, iter_lattice_stress_corpus(lattice, seed=seed), **exponents)]
        return _verdict(records, out, "inequalities")

    return run


# subcommand -> (its config table, the builder of its run from the resolved config)
_COMMANDS = {
    "simulate": (_SIMULATE, _cmd_simulate),
    "converge": (_CONVERGE, _cmd_converge),
    "strichartz": (_STRICHARTZ, _cmd_strichartz),
    "dispersive": (_DISPERSIVE, _cmd_dispersive),
    "conserve": (_CONSERVE, _cmd_conserve),
    "inequalities": (_INEQUALITIES, _cmd_inequalities),
}
COMMANDS = tuple(_COMMANDS)


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
                       help="accepted and ignored: every sweep runs in the calling thread")
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
        cfg = _load_config(args.config)
        table, command = _COMMANDS[args.command]
        overrides = {key: getattr(args, key) for key in _OVERRIDES if getattr(args, key) is not None}
        read: set[str] = set()
        resolved = _resolve(table, cfg, overrides, {}, read)
        _reject_unknown(cfg, resolved)
        # an override that no field reads is an error, but scripts pass --seed
        # to every subcommand, and a run that draws nothing has no seed to set
        for key in sorted(set(overrides) - read - {"seed"}):
            readers = ", ".join(name for name, (fields, _) in _COMMANDS.items()
                                if any(field.path == key for field in fields))
            raise ConfigError(f"--{key.replace('_', '-')} is read only by {readers}; "
                              f"{args.command} has no field {key!r}")
        run = command(resolved)
        if args.dry_run:
            print(_json(resolved), end="")
            return 0
        if args.out is None:
            raise ConfigError("an output directory is required: pass --out DIR (or --dry-run to preview)")
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "resolved_config.json").write_text(_json(resolved))
        log.info("wrote %s", out / "resolved_config.json")
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
