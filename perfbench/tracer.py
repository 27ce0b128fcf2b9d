"""Run one ``lnls`` CLI invocation with spans around every public function.

Usage (from the root of the repository, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/tracer.py TRACE_JSON -- SUBCOMMAND --config ... [--out DIR]

The FFT transforms of ``numpy.fft`` and ``scipy.fft`` are wrapped before
``lnls`` is imported, so a module that binds them by name at import time is
still counted.  After the import, every public function and public method of
every ``lnls`` module is wrapped, and every name that any ``lnls`` module
bound to an original function (``from .dynamics import evolve``) is rebound
to the wrapper.  The library itself is not modified.

Each thread keeps its own span stack, so cells fanned out by
``util.map_parallel`` get correct self times.  A span's self time is its
duration minus the durations of the spans directly below it on the same
thread.  ``busy_s`` counts only the outermost call of a name on a thread, so
recursion is not counted twice.  The counts, times and counters are written
to ``TRACE_JSON`` when the invocation ends; the CLI's exit code is returned.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import sys
import threading
import time
from typing import Any, Callable

FFT_FUNCTIONS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
                 "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")
_ONE_D = {"fft", "ifft", "rfft", "irfft", "hfft", "ihfft"}
_TWO_D = {"fft2", "ifft2", "rfft2", "irfft2"}


class Tracer:
    """Span and counter store shared by every thread of one process."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.spans: dict[str, dict[str, float]] = {}
        self.counters: dict[str, float] = {}
        self.min_self_s = math.inf

    def stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def _record(self, name: str, duration: float, self_time: float, outermost: bool) -> None:
        with self._lock:
            entry = self.spans.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += self_time
            if outermost:
                entry["busy_s"] += duration
            self.min_self_s = min(self.min_self_s, self_time)

    def wrap(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        """``fn`` inside a span; ``after(tracer, bound_arguments, result)`` adds counters."""
        signature = inspect.signature(fn) if after is not None else None

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = self.stack()
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                outermost = all(f[0] != name for f in stack)
                self._record(name, duration, duration - frame[1], outermost)
            if after is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                after(self, bound.arguments, result)
            return result

        return wrapper

    def report(self) -> dict:
        return {"spans": self.spans, "counters": self.counters,
                "min_self_s": self.min_self_s if self.spans else 0.0}


# --------------------------------------------------------------------------
# FFT kernel


def _fft_shape(name: str, shape: tuple[int, ...], args: tuple, kwargs: dict) -> tuple[int, int]:
    """(points per transform, number of transforms) of one FFT call."""
    ndim = len(shape)
    if name in _ONE_D:
        axes = [kwargs.get("axis", args[2] if len(args) > 2 else -1)]
        size = kwargs.get("n", args[1] if len(args) > 1 else None)
        sizes = [size] if size is not None else None
    else:
        default = (-2, -1) if name in _TWO_D else None
        axes = kwargs.get("axes", args[2] if len(args) > 2 else default)
        sizes = kwargs.get("s", args[1] if len(args) > 1 else None)
        if axes is None:
            axes = range(ndim - len(sizes), ndim) if sizes is not None else range(ndim)
    axes = [a % ndim for a in axes]
    lengths = list(sizes) if sizes is not None else [shape[a] for a in axes]
    points = math.prod(lengths)
    batch = math.prod(n for a, n in enumerate(shape) if a not in axes)
    return points, batch


def _traced_transform(tracer: Tracer, name: str, fn: Callable) -> Callable:
    import numpy as np

    traced = tracer.wrap("fft", fn)

    @functools.wraps(fn)
    def transform(*args: Any, **kwargs: Any) -> Any:
        if any(frame[0] == "fft" for frame in tracer.stack()):
            return fn(*args, **kwargs)  # one FFT library calling the other
        points, batch = _fft_shape(name, np.shape(args[0]), args, kwargs)
        tracer.count("fft.points", points * batch)
        tracer.count("fft.flops_computed", batch * 5 * points * math.log2(max(points, 2)))
        tracer.count("fft.bytes_computed", batch * 2 * 16 * points)
        return traced(*args, **kwargs)

    return transform


def install_fft(tracer: Tracer) -> None:
    import numpy.fft
    modules = [numpy.fft]
    try:
        import scipy.fft
        modules.append(scipy.fft)
    except ImportError:
        pass
    for module in modules:
        for name in FFT_FUNCTIONS:
            fn = getattr(module, name, None)
            if fn is not None:
                setattr(module, name, _traced_transform(tracer, name, fn))


# --------------------------------------------------------------------------
# lnls modules


def _file_bytes(key: str) -> Callable:
    def after(tracer: Tracer, arguments: dict, result: Any) -> None:
        tracer.count(key, os.path.getsize(arguments["path"]))
    return after


def _discretize_points(tracer: Tracer, arguments: dict, result: Any) -> None:
    tracer.count("lattice.discretize.points", result.values.size)


def _l2_error_points(tracer: Tracer, arguments: dict, result: Any) -> None:
    lattice = arguments["u"].lattice
    tracer.count("lattice.continuum_l2_error.points_evaluated",
                 (lattice.n_per_axis * arguments["oversample"]) ** lattice.d)


AFTER_HOOKS: dict[str, Callable] = {
    "lattice.discretize": _discretize_points,
    "lattice.continuum_l2_error": _l2_error_points,
    "lattice.write_grid": _file_bytes("lattice.write_grid.bytes"),
    "records.write_csv": _file_bytes("records.write.bytes"),
    "records.write_jsonl": _file_bytes("records.write.bytes"),
    "records.write_loglog_tsv": _file_bytes("records.write.bytes"),
    "records.write_svg_chart": _file_bytes("records.write.bytes"),
}


def _wrap_map_parallel(tracer: Tracer, fn: Callable) -> Callable:
    """Span plus item count, summed item time and pool capacity (workers x busy)."""

    @functools.wraps(fn)
    def map_parallel(func: Callable, items: Any, threads: int | None = None) -> list:
        items = list(items)
        n = (os.cpu_count() or 1) if threads is None else threads
        workers = 1 if n <= 1 or len(items) <= 1 else min(n, len(items))

        def timed(item: Any) -> Any:
            start = time.perf_counter()
            try:
                return func(item)
            finally:
                tracer.count("util.map_parallel.item_busy_s", time.perf_counter() - start)

        start = time.perf_counter()
        try:
            return fn(timed, items, threads)
        finally:
            tracer.count("util.map_parallel.items", len(items))
            tracer.count("util.map_parallel.capacity_s", workers * (time.perf_counter() - start))

    return tracer.wrap("util.map_parallel", map_parallel)


def _wrap_member(tracer: Tracer, name: str, member: Any) -> Any:
    if inspect.isfunction(member):
        return tracer.wrap(name, member)
    if isinstance(member, (classmethod, staticmethod)) and inspect.isfunction(member.__func__):
        return type(member)(tracer.wrap(name, member.__func__))
    return None


def instrument_lnls(tracer: Tracer) -> None:
    """Wrap public functions and methods of ``lnls.*`` and rebind imported names."""
    modules = [m for key, m in sorted(sys.modules.items())
               if key.startswith("lnls.") and m is not None]
    replaced: dict[Callable, Callable] = {}
    for module in modules:
        short = module.__name__.split(".", 1)[1]
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            name = f"{short}.{attr}"
            if inspect.isfunction(obj):
                if name == "util.map_parallel":
                    replaced[obj] = _wrap_map_parallel(tracer, obj)
                else:
                    replaced[obj] = tracer.wrap(name, obj, AFTER_HOOKS.get(name))
            elif inspect.isclass(obj):
                for member_name, member in list(vars(obj).items()):
                    if member_name.startswith("_"):
                        continue
                    wrapped = _wrap_member(tracer, f"{name}.{member_name}", member)
                    if wrapped is not None:
                        setattr(obj, member_name, wrapped)
    for module in modules + [sys.modules["lnls"]]:
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in replaced:
                setattr(module, attr, replaced[obj])


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracer.py TRACE_JSON -- SUBCOMMAND [lnls options]", file=sys.stderr)
        return 2
    trace_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    start = time.perf_counter()
    install_fft(tracer)
    import lnls.cli
    import_s = time.perf_counter() - start
    source = os.path.realpath(os.path.join("src", "lnls"))
    if os.path.dirname(os.path.realpath(lnls.cli.__file__)) != source:
        print(f"imported lnls from {lnls.cli.__file__}, expected {source}", file=sys.stderr)
        return 2
    instrument_lnls(tracer)
    try:
        code = lnls.cli.main(cli_args)
    finally:
        report = tracer.report()
        report["import_s"] = import_s
        with open(trace_path, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
