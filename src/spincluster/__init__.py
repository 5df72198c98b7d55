"""spincluster: exact numerics for small Heisenberg spin clusters.

Its modules cover dense spin operators, the conserved quadratic invariant
built from the cluster Yangian, symmetry-constrained coupling families,
closed-form spectra with ground-state classification, local observables,
and rate-equation magnetization dynamics with level-mixing sweeps.
"""

__version__ = "0.1.0"
