"""Exact intersection calculus on relative flag-Hilbert schemes of nodal curve families."""

__version__ = "0.1.0"
