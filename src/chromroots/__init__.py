"""Exact chromatic polynomials of double-ended triangular-lattice strips,
transfer-matrix machinery, spectral end-graph classification, and real
chromatic root isolation near 4.

Importing the package loads none of its modules; import the one you use,
for example `from chromroots import transfer`.
"""

__version__ = "0.1.0"
