"""Lattice NLS toolbox: Fourier calculus on dense periodic grids, structure-
preserving Schroedinger integrators, measured dispersive/space-time constants,
and continuum-limit convergence experiments."""

from .lattice import (
    ContinuumSampler,
    GridFunction,
    Lattice,
    LatticeMismatchError,
    NumericalAccuracyError,
    continuum_l2_error,
    convolve,
    discrete_laplacian_stencil,
    discretize,
    forward_difference,
    holder_check,
    interpolate,
    lebesgue_norm,
    read_grid,
    write_grid,
)
from .spectral import (
    DyadicScale,
    Multiplier,
    SpectrumFunction,
    apply_multiplier,
    dyadic_scales,
    forward,
    fractional_derivative,
    inequality_sweep,
    inverse,
    laplacian_symbol,
    lowpass_project,
    lp_project,
    sobolev_norm,
)
from .continuum import TrigPolynomial, box_fourier, box_sobolev_norm, plane_wave, wrapped_gaussian
from .dynamics import (
    ConservedQuantities,
    EvolutionConfig,
    IntegrationDivergedError,
    NlsParams,
    Trajectory,
    conserved,
    evolve,
    linear_flow,
    nonlinear_phase_step,
    picard_iterate,
    step_rk4,
)
from .estimates import (
    AdmissiblePair,
    KernelQuery,
    StrichartzQuery,
    dispersive_bound_sweep,
    dispersive_kernel,
    strichartz_sweep,
)
from .harness import (
    ConvergenceStudy,
    RateFit,
    boundedness_sweep,
    decompose_error,
    fit_rate,
    growth_fit,
    run_convergence,
)
from .records import ExperimentRecord, uniformity_factor

__version__ = "0.1.0"
