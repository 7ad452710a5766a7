"""Exact spectral analysis of the discrete cubic string.

Forward map: masses and gaps -> eigenvalues and Weyl residues, by
stepping the boundary triple across each mass and gap.  Inverse map:
spectral data back to the string by peeling those steps off, audited
by bimoment determinants and a rational approximation chain.  The
same spectral coordinates linearize an isospectral peaked-wave flow,
implemented next to a direct RK4 integrator for cross-validation.
"""

__version__ = "0.1.0"
