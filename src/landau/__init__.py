"""Velocity-space simulator and diagnostics for the homogeneous Landau-Coulomb equation."""

__version__ = "0.1.0"
