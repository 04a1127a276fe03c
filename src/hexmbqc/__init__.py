"""Toolkit for a measurement-based quantum computer on hexagonal ion-trap arrays.

Submodules
----------
lattice            hexagonal trap array, rhombic sublattice layers, cluster edges
graphstate         graph-state tableau and cluster check, used by perfbench and the tests
scheduler          constant-depth six-round entangling schedule and its audit
mbqc               adaptive measurement patterns, simulated over the live qubits only
ionization         multiphoton ionization rates, resonances, pulse irradiances
electron_dynamics  separable psi_x(x) psi_y(y) propagation in the trap saddle, Mathieu stability
resources          factoring-scale operation counts and storage error budgets
cli                command-line entry points
"""

__version__ = "0.1.0"
