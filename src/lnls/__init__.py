"""Lattice NLS toolbox: Fourier calculus on dense periodic grids, structure-
preserving Schroedinger integrators, measured dispersive/space-time constants,
and continuum-limit convergence experiments.

Each public name is imported from the module that defines it, for example
``from lnls.dynamics import evolve`` or ``from lnls.lattice import Lattice``.
``import lnls`` loads neither NumPy nor any submodule, which lets ``lnls.cli``
configure NumPy's BLAS pool before NumPy loads.
"""

__version__ = "0.1.0"
