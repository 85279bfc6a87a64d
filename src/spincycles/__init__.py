"""spincycles: exact lattice-polygon invariants and the homological model
of curves in toric surfaces, with spin/symplectic verification suites."""

__version__ = "0.1.0"
