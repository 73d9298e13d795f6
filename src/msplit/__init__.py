"""Multiscale splitting solver for heterogeneous parabolic problems.

The package builds a generalized multiscale finite element space on a pair
of nested rectangular grids, projects the parabolic problem onto it, and
advances in time with a three-level scheme that splits the coarse space
into mode blocks so that only a block-structured operator is inverted per
step. Stability of a chosen splitting is decided by an explicit
certificate before the run.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
