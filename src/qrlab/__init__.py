"""qrlab: exact-arithmetic toolkit for quadratic characters and reciprocity,
p-adic numbers with Hensel lifting, Hilbert symbols at all places of Q, the
local-global solver for ax^2 + by^2 = 1, and quadratic root numbers."""

__version__ = "0.1.0"

__all__ = ["__version__"]
