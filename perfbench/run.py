"""Benchmark runner for the ``lnls`` command-line tool.

Run from the root of a checkout of the repository::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a fixed list of CLI invocations (configs under
``perfbench/configs``).  The loop is closed: one child process at a time,
each a fresh interpreter with ``src`` on ``PYTHONPATH``, ``--threads`` equal
to the usable cores and this runner's ``--seed`` forwarded.  After every
invocation its artifacts are checked against the acceptance tolerances
(``checks.py``); a failed check counts as a failed invocation.

``--trace 0`` times untraced passes and reports the end-to-end metrics.
``--trace 1`` alternates untraced passes with passes run under
``tracer.py`` and reports the per-layer metrics.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  Lines before it give each metric with its unit and sample count.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from checks import CheckResult, check_invocation

HERE = Path(__file__).resolve().parent

# (subcommand, config) per invocation; why each workload exists and which
# layers it exercises is recorded in BENCHMARK.json and layers.json.
WORKLOADS: dict[str, list[tuple[str, str]]] = {
    "converge_d2": [("converge", "converge_d2.json")],
    "estimate_sweeps": [
        ("strichartz", "strichartz_d2_q3_rinf.json"),
        ("strichartz", "strichartz_d2_q6_r4.json"),
        ("dispersive", "dispersive_d1.json"),
        ("dispersive", "dispersive_d2.json"),
        ("inequalities", "inequalities_d1.json"),
        ("inequalities", "inequalities_d2.json"),
    ],
    "lattice_flows": [
        ("simulate", "simulate_d2_strang.json"),
        ("conserve", "conserve_d2.json"),
        ("simulate", "simulate_d1_rk4.json"),
        ("simulate", "simulate_d1_picard.json"),
    ],
}
SEEDED_COMMANDS = ("strichartz", "inequalities")  # the seed changes their random profiles
MIN_ROUNDS = 3        # untraced: full passes, and dry-run passes for setup_s
MIN_TRACE_ROUNDS = 1  # traced: untraced pass + traced pass per round

END_TO_END = [("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]

PER_LAYER_NAMES = [
    "cli.import_s", "cli.main.busy_s",
    "harness.run_convergence.calls", "harness.run_convergence.busy_s",
    "harness.run_convergence.self_s",
    "harness.conservation_drift.calls", "harness.conservation_drift.busy_s",
    "dynamics.reference_trajectory.calls", "dynamics.reference_trajectory.busy_s",
    "dynamics.reference_trajectory.self_s",
    "dynamics.evolve.calls", "dynamics.evolve.busy_s", "dynamics.evolve.self_s",
    "dynamics.evolve_capture.calls", "dynamics.evolve_capture.busy_s",
    "dynamics.evolve_capture.self_s",
    "dynamics.conserved.calls", "dynamics.conserved.busy_s",
    "dynamics.step_rk4.calls", "dynamics.step_rk4.busy_s",
    "dynamics.picard_iterate.calls", "dynamics.picard_iterate.busy_s",
    "fft.calls", "fft.points", "fft.busy_s", "fft.flops_computed", "fft.bytes_computed",
    "spectral.inequality_sweep.calls", "spectral.inequality_sweep.busy_s",
    "spectral.sobolev_norm.calls", "spectral.sobolev_norm.busy_s", "spectral.lp_project.calls",
    "lattice.discretize.calls", "lattice.discretize.busy_s", "lattice.discretize.points",
    "lattice.continuum_l2_error.calls", "lattice.continuum_l2_error.busy_s",
    "lattice.continuum_l2_error.points_evaluated",
    "lattice.write_grid.calls", "lattice.write_grid.busy_s", "lattice.write_grid.bytes",
    "continuum.TrigPolynomial.on_tensor_grid.calls",
    "continuum.TrigPolynomial.on_tensor_grid.busy_s",
    "estimates.strichartz_sweep.busy_s", "estimates.dispersive_uniformity.busy_s",
    "estimates.dispersive_bound_sweep.calls",
    "util.map_parallel.calls", "util.map_parallel.items", "util.map_parallel.busy_s",
    "util.map_parallel.efficiency",
    "records.write.busy_s", "records.write.bytes",
    "corpus.lattice_stress_corpus.busy_s", "corpus.continuum_profiles.busy_s",
    "check.ref_cert_ratio", "check.min_rate_slope", "check.max_uniformity_factor",
    "check.max_mass_drift", "check.fingerprint_max_rel_dev",
    "trace.overhead_ratio", "trace.min_self_s",
]


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("bytes", "bytes_computed")):
        return "B"
    if name.endswith("flops_computed"):
        return "flop"
    if name.endswith((".calls", ".items", ".points", ".points_evaluated")):
        return "count"
    return "1"


# --------------------------------------------------------------------------
# child processes


@dataclass
class Invocation:
    command: str
    config_path: str
    config: dict

    @property
    def seeded(self) -> bool:
        return self.command in SEEDED_COMMANDS


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    rss_mb: float
    check: CheckResult


@dataclass
class Runner:
    root: Path
    work: Path
    seed: int
    threads: int
    env: dict
    attempted: int = 0
    failed: int = 0

    def launch(self, inv: Invocation, out: Path, dry: bool, trace_file: Path | None = None) -> Sample:
        """Run one child to completion; time it and check its artifacts."""
        if trace_file is None:
            argv = [sys.executable, "-m", "lnls.cli"]
        else:
            argv = [sys.executable, str(HERE / "tracer.py"), str(trace_file), "--"]
        argv += [inv.command, "--config", inv.config_path,
                 "--seed", str(self.seed), "--threads", str(self.threads)]
        argv += ["--dry-run"] if dry else ["--out", str(out)]
        log = self.work / "child.log"
        with open(log, "w") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdout=fh, stderr=subprocess.STDOUT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        output = log.read_text()
        if dry:
            check = CheckResult()
            check.require(code == 0, f"dry run exit code {code}")
        else:
            check = check_invocation(inv.command, inv.config, out, code, output)
        self.attempted += 1
        if check.failures:
            self.failed += 1
            print(f"FAILED {inv.command} {inv.config_path}: {check.failures}\n{output[-2000:]}",
                  file=sys.stderr)
        return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, check)

    def run_pass(self, invocations: list[Invocation], dry: bool, traces: Path | None = None) -> list[Sample]:
        samples = []
        for i, inv in enumerate(invocations):
            out = self.work / f"out{i}"
            trace_file = traces / f"{i}.json" if traces is not None else None
            samples.append(self.launch(inv, out, dry, trace_file))
            shutil.rmtree(out, ignore_errors=True)
        return samples


# --------------------------------------------------------------------------
# metrics


def sum_of_medians(passes: list[list[Sample]], attr: str) -> float:
    """Per-invocation median over passes, summed over the workload's invocations."""
    return sum(statistics.median(getattr(p[i], attr) for p in passes) for i in range(len(passes[0])))


def check_values(samples: list[Sample]) -> dict[str, float]:
    """The ``check.*`` values of full runs; 0 where no invocation of the workload yields one."""
    def pick(key: str, agg) -> float:
        found = [s.check.values[key] for s in samples if key in s.check.values]
        return agg(found) if found else 0.0

    return {
        "check.ref_cert_ratio": pick("ref_cert_ratio", max),
        "check.min_rate_slope": pick("min_rate_slope", min),
        "check.max_uniformity_factor": pick("max_uniformity_factor", max),
        "check.max_mass_drift": pick("max_mass_drift", max),
    }


def pass_fingerprint(invocations: list[Invocation], samples: list[Sample]) -> dict[str, float]:
    """Seed-independent result values of one full pass, keyed by invocation."""
    out = {}
    for i, (inv, sample) in enumerate(zip(invocations, samples)):
        if not inv.seeded:
            for key, value in sample.check.fingerprint.items():
                out[f"{i}.{inv.command}.{key}"] = value
    return out


def fingerprint_deviation(measured: dict[str, float], reference: dict[str, float]) -> float:
    """Largest relative deviation from the stored fingerprint; a missing value counts as 1."""
    worst = 0.0
    for key in reference.keys() | measured.keys():
        ref, value = reference.get(key), measured.get(key)
        if ref is None or value is None:
            worst = max(worst, 1.0)
        elif value != ref:
            worst = max(worst, abs(value - ref) / abs(ref) if ref else 1.0)
    return worst


def merge_traces(files: list[Path]) -> dict:
    """Sum the traces of one pass's invocations (a child that died wrote none)."""
    merged = {"spans": {}, "counters": {}, "import_s": 0.0, "min_self_s": math.inf}
    for path in files:
        if not path.is_file():
            continue
        trace = json.loads(path.read_text())
        for name, entry in trace["spans"].items():
            acc = merged["spans"].setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += entry[key]
        for name, value in trace["counters"].items():
            merged["counters"][name] = merged["counters"].get(name, 0) + value
        merged["import_s"] += trace["import_s"]
        merged["min_self_s"] = min(merged["min_self_s"], trace["min_self_s"])
    if math.isinf(merged["min_self_s"]):
        merged["min_self_s"] = 0.0
    return merged


def layer_value(name: str, trace: dict) -> float:
    spans, counters = trace["spans"], trace["counters"]
    if name == "cli.import_s":
        return trace["import_s"]
    if name == "trace.min_self_s":
        return trace["min_self_s"]
    if name == "records.write.busy_s":
        return sum(e["busy_s"] for n, e in spans.items() if n.startswith("records.write_"))
    if name == "util.map_parallel.efficiency":
        capacity = counters.get("util.map_parallel.capacity_s", 0.0)
        return counters.get("util.map_parallel.item_busy_s", 0.0) / capacity if capacity else 0.0
    prefix, _, stat = name.rpartition(".")
    if stat in ("calls", "busy_s", "self_s") and name not in counters:
        return spans.get(prefix, {}).get(stat, 0)
    return counters.get(name, 0)


# --------------------------------------------------------------------------
# modes


def warm_up(runner: Runner, invocations: list[Invocation]) -> None:
    """One discarded dry run: fills the bytecode and page caches, the only state
    that outlives a child (every subcommand imports the same modules)."""
    runner.launch(invocations[0], runner.work / "warm-up", dry=True)


def measure_untraced(runner: Runner, invocations: list[Invocation], seconds: float) -> tuple[dict, list]:
    warm_up(runner, invocations)
    setups, fulls = [], []
    deadline = time.perf_counter() + seconds
    last_pass = 0.0
    # another pass while the minimum is not met or the next is predicted to end in time
    while len(fulls) < MIN_ROUNDS or time.perf_counter() + last_pass <= deadline:
        if len(setups) < MIN_ROUNDS:
            setups.append(runner.run_pass(invocations, dry=True))
        pass_start = time.perf_counter()
        fulls.append(runner.run_pass(invocations, dry=False))
        last_pass = time.perf_counter() - pass_start
    n = len(invocations)
    peak = max(statistics.median(p[i].rss_mb for p in fulls) for i in range(n))
    metrics = {
        "wall_s": sum_of_medians(fulls, "wall_s"),
        "cpu_s": sum_of_medians(fulls, "cpu_s"),
        "setup_s": sum_of_medians(setups, "wall_s"),
        "peak_rss_mb": peak,
    }
    how = f"sum over {n} invocation(s) of the median of {len(fulls)} runs each"
    notes = {
        "wall_s": how,
        "cpu_s": how + "; user + sys of the child",
        "setup_s": f"same invocations with --dry-run; sum over {n} invocation(s) "
                   f"of the median of {len(setups)} runs each",
        "peak_rss_mb": f"max over {n} invocation(s) of the median of {len(fulls)} ru_maxrss values",
    }
    units = dict(END_TO_END)
    for name, value in metrics.items():
        print(f"  {name:<14} {value:12.4f} {units[name]:<5} ({notes[name]})")
    return metrics, fulls


def measure_traced(runner: Runner, invocations: list[Invocation], seconds: float,
                   fingerprint_ref: dict) -> tuple[dict, list]:
    warm_up(runner, invocations)
    plain, traced, traces = [], [], []
    deadline = time.perf_counter() + seconds
    last_round = 0.0
    while len(traced) < MIN_TRACE_ROUNDS or time.perf_counter() + last_round <= deadline:
        round_start = time.perf_counter()
        plain.append(runner.run_pass(invocations, dry=False))
        trace_dir = runner.work / f"trace{len(traced)}"
        trace_dir.mkdir()
        traced.append(runner.run_pass(invocations, dry=False, traces=trace_dir))
        traces.append(merge_traces([trace_dir / f"{i}.json" for i in range(len(invocations))]))
        last_round = time.perf_counter() - round_start
    fulls = plain + traced
    metrics = {name: statistics.median(layer_value(name, t) for t in traces)
               for name in PER_LAYER_NAMES if not name.startswith(("check.", "trace.overhead"))}
    metrics.update(check_values([s for p in fulls for s in p]))
    metrics["check.fingerprint_max_rel_dev"] = max(
        fingerprint_deviation(pass_fingerprint(invocations, p), fingerprint_ref) for p in fulls)
    metrics["trace.overhead_ratio"] = (
        statistics.median(sum(s.wall_s for s in p) for p in traced)
        / statistics.median(sum(s.wall_s for s in p) for p in plain))
    metrics = {name: metrics[name] for name in PER_LAYER_NAMES}
    for name, value in metrics.items():
        print(f"  {name:<48} {value:16.6g} {layer_unit(name)}")
    print(f"  (traced values: median over {len(traced)} traced pass(es), each summed over "
          f"{len(invocations)} invocation(s); check.* over all {len(fulls)} full passes)")
    return metrics, fulls


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fingerprint-out", type=Path, default=None,
                        help="write this workload's fingerprint (first full pass) into this JSON file")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "lnls" / "cli.py").is_file():
        print(f"no lnls source tree at {root / 'src' / 'lnls'}; run from the repository root",
              file=sys.stderr)
        return 2
    invocations = []
    for command, name in WORKLOADS[args.workload]:
        path = HERE / "configs" / name
        invocations.append(Invocation(command, str(path.relative_to(root)), json.loads(path.read_text())))
    fingerprints = json.loads((HERE / "fingerprint.json").read_text())

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    threads = len(os.sched_getaffinity(0))
    work = root / ".perfbench_out" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(root, work, args.seed % 2**64, threads, env)
    print(f"workload {args.workload}: {len(invocations)} invocation(s), seed {runner.seed}, "
          f"--threads {threads}, closed loop, trace {args.trace}")
    try:
        if args.trace:
            metrics, fulls = measure_traced(runner, invocations, args.seconds,
                                            fingerprints.get(args.workload, {}))
            units = {name: layer_unit(name) for name in metrics}
        else:
            metrics, fulls = measure_untraced(runner, invocations, args.seconds)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    failed = runner.failed
    print(f"  {'fail_ratio':<14} {failed / runner.attempted:12.4f} 1     "
          f"({failed} failed of {runner.attempted} invocations, dry runs and warm-up included)")
    if args.fingerprint_out is not None:
        stored = json.loads(args.fingerprint_out.read_text()) if args.fingerprint_out.exists() else {}
        stored[args.workload] = pass_fingerprint(invocations, fulls[0])
        args.fingerprint_out.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
