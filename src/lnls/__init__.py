"""Lattice NLS toolbox: Fourier calculus on dense periodic grids, structure-
preserving Schroedinger integrators, measured dispersive/space-time constants,
and continuum-limit convergence experiments.

The package imports lazily (PEP 562): ``import lnls`` loads neither NumPy nor
any submodule, and each public name is imported from its module on first
access.  This lets ``lnls.cli`` configure NumPy's BLAS pool before NumPy loads.
"""

from __future__ import annotations

import importlib
from typing import Any

__version__ = "0.1.0"

_MODULE_EXPORTS = {
    "lattice": (
        "GridFunction",
        "Lattice",
        "LatticeMismatchError",
        "NumericalAccuracyError",
        "continuum_l2_error",
        "convolve",
        "discrete_laplacian_stencil",
        "discretize",
        "forward_difference",
        "lebesgue_norm",
        "read_grid",
        "write_grid",
    ),
    "spectral": (
        "DyadicScale",
        "Multiplier",
        "SpectrumFunction",
        "apply_multiplier",
        "dyadic_scales",
        "forward",
        "inequality_sweep",
        "inverse",
        "laplacian_symbol",
        "lowpass_project",
        "lp_project",
        "sobolev_norm",
    ),
    "continuum": ("TrigPolynomial", "box_sobolev_norm", "plane_wave", "wrapped_gaussian"),
    "dynamics": (
        "ConservedQuantities",
        "EvolutionConfig",
        "IntegrationDivergedError",
        "NlsParams",
        "Trajectory",
        "conserved",
        "evolve",
        "linear_flow",
        "nonlinear_phase_step",
    ),
    "estimates": (
        "AdmissiblePair",
        "KernelQuery",
        "StrichartzQuery",
        "dispersive_bound_sweep",
        "dispersive_kernel",
        "strichartz_sweep",
    ),
    "harness": (
        "ConvergenceStudy",
        "RateFit",
        "fit_rate",
        "run_convergence",
    ),
    "records": ("ExperimentRecord", "uniformity_factor"),
}

# Public name -> the submodule that defines it.
_EXPORTS = {name: module for module, names in _MODULE_EXPORTS.items() for name in names}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
