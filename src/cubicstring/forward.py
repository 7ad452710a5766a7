"""Forward spectral map of the discrete cubic string.

Between masses the wave function of  -phi''' = z m phi  is a quadratic
in x.  Crossing the support steps the boundary triple (phi, phi_x,
phi_xx) of value, slope and curvature, polynomials in the spectral
variable z, from (1, 0, 0): each mass makes the curvature jump by
-2 m z phi, and each gap carries the quadratic across.  The result is
the first column of the 3x3 crossing matrix; the inverse map peels the
same steps off.

Eigenvalues are the roots of the curvature polynomial phi_xx away from
zero; they are positive and simple for positive masses and gaps.  The
two Weyl functions are the ratios phi_x/phi_xx and phi/phi_xx, and
their residues at the eigenvalues are the spectral data used by the
inverse map.  Eigenvalues and residues alike are RatIntervals: a point
interval where the value is an exact rational, else a certified
enclosure.  The coefficients of phi_xx are, up to 2(-z)^j, the chain
invariants M_j of the isospectral flow.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import IdentityViolatedError, PrecisionExhaustedError
from .exact import (
    Polynomial,
    RatInterval,
    cauchy_root_bound,
    eval_interval,
    refine_enclosure,
    sturm_isolate,
)
from .string_model import CubicString, validate

DEFAULT_PRECISION_BITS = 256

# cost grows about 4x per doubling of the precision: on masses 1, 2, 3
# at this cap forward took 4.7 s (47 s at 48,000 bits); past it a run is
# refused, not started.  It also caps the residue refinement, and the
# digits of e^(M t) the flow may carry to certify a row
MAX_PRECISION_BITS = 2 ** 14


def resolve_precision_bits(requested: int) -> int:
    """`requested` if it is an integer in 1..MAX_PRECISION_BITS, else a
    ValueError."""
    if requested < 1:
        raise ValueError(
            f"precision bits must be a positive integer, got {requested}")
    if requested > MAX_PRECISION_BITS:
        raise ValueError(f"precision bits {requested} is over the cap of "
                         f"{MAX_PRECISION_BITS}")
    return requested


@dataclass(frozen=True)
class WeylData:
    """Boundary polynomials of a string, progressively enriched with
    eigenvalue enclosures and Weyl-function residues (RatIntervals)."""

    phi: Polynomial      # boundary value
    phi_x: Polynomial    # boundary slope
    phi_xx: Polynomial   # boundary curvature; eigenvalues are its roots / z
    eigenvalues: tuple[RatInterval, ...] | None = None
    w_residues: tuple[RatInterval, ...] | None = None  # of phi_x/phi_xx
    z_residues: tuple[RatInterval, ...] | None = None  # of phi/phi_xx


def jump_step(triple: tuple, mass: Fraction) -> tuple:
    """Cross one point mass: phi_xx -= 2 m z phi."""
    phi, phi_x, phi_xx = triple
    return phi, phi_x, phi_xx - Polynomial((0, *phi.coefficients)) * (2 * mass)


def gap_step(triple: tuple, gap: Fraction) -> tuple:
    """Cross one gap: integrate the quadratic."""
    phi, phi_x, phi_xx = triple
    return (phi + phi_x * gap + phi_xx * (gap * gap / 2),
            phi_x + phi_xx * gap,
            phi_xx)


def boundary_data(s: CubicString) -> WeylData:
    """Boundary polynomials: first column of the full crossing matrix,
    stepped from (1, 0, 0) across mass 1, gap 1, ..., mass n."""
    validate(s)
    start = (Polynomial.one(), Polynomial.zero(), Polynomial.zero())
    triple = jump_step(start, s.masses[0])
    for gap, mass in zip(s.gaps, s.masses[1:]):
        triple = jump_step(gap_step(triple, gap), mass)
    return WeylData(*triple)


def invariant_masses(phi_xx: Polynomial) -> list[Fraction]:
    """The chain invariants M_1..M_n off phi_xx = 2 sum_j (-z)^j M_j."""
    return [(-1) ** j * phi_xx.coefficient(j) / 2
            for j in range(1, phi_xx.degree + 1)]


def eigenvalue_polynomial(wd: WeylData) -> Polynomial:
    """phi_xx / z: its roots are the nonzero eigenvalues."""
    if wd.phi_xx.coefficient(0) != 0:
        raise IdentityViolatedError("curvature polynomial must vanish at z = 0")
    return Polynomial(wd.phi_xx.coefficients[1:])


def spectrum(wd: WeylData,
             precision_bits: int = DEFAULT_PRECISION_BITS) -> WeylData:
    """Isolate all eigenvalues of the boundary data wd, each to a box no
    wider than 2^-precision_bits; exactly n-1 of them, positive and
    simple."""
    q = eigenvalue_polynomial(wd)
    roots = sturm_isolate(q, Fraction(0), cauchy_root_bound(q),
                          Fraction(1, 2 ** precision_bits))
    if len(roots) != q.degree:
        raise IdentityViolatedError(
            f"expected {q.degree} eigenvalues, isolated {len(roots)}")
    return replace(wd, eigenvalues=tuple(roots))


def _residue_pair(wd: WeylData, deriv: Polynomial, box: RatInterval):
    """Both residues over one eigenvalue box, None when their signs are
    not settled; phi_xx' is evaluated once, exactly at a point box."""
    if box.width == 0:
        lam = box.lo
        d = deriv(lam)
        if d == 0:
            raise IdentityViolatedError("multiple eigenvalue in residues")
        return (RatInterval.point(wd.phi_x(lam) / d),
                RatInterval.point(wd.phi(lam) / d))
    d = eval_interval(deriv, box)
    if not d.sign_definite():
        return None
    w = eval_interval(wd.phi_x, box) / d
    z = eval_interval(wd.phi, box) / d
    return (w, z) if w.sign_definite() and z.sign_definite() else None


def residues(wd: WeylData,
             precision_bits: int = DEFAULT_PRECISION_BITS) -> WeylData:
    """Residues of the two Weyl functions at every eigenvalue.

    Exact (point intervals) at exact eigenvalues; elsewhere
    sign-certified rational intervals, the box refined to twice the
    bits until their signs settle, up to MAX_PRECISION_BITS.
    """
    if wd.eigenvalues is None:
        raise ValueError("run spectrum() before residues()")
    deriv = wd.phi_xx.derivative()
    q = eigenvalue_polynomial(wd)
    w_out, z_out = [], []
    for box in wd.eigenvalues:
        bits = precision_bits
        while True:
            box = refine_enclosure(q, box, Fraction(1, 2 ** bits))
            got = _residue_pair(wd, deriv, box)
            if got is not None:
                break
            if bits >= MAX_PRECISION_BITS:
                raise PrecisionExhaustedError(
                    f"could not certify residue signs at {bits} bits")
            bits = min(2 * bits, MAX_PRECISION_BITS)
        w_out.append(got[0])
        z_out.append(got[1])
    for b in w_out + z_out:
        if not b.is_negative():
            raise IdentityViolatedError("residue failed its negativity law")
    if all(e.width == 0 for e in wd.eigenvalues):
        # exact cross-check: the z-residues are determined by the w-residues
        lams = [e.lo for e in wd.eigenvalues]
        if (value_residues(lams, [b.lo for b in w_out])
                != tuple(b.lo for b in z_out)):
            raise IdentityViolatedError("z-residue relation failed exactly")
    return replace(wd, w_residues=tuple(w_out), z_residues=tuple(z_out))


def value_residues(lams, bs) -> tuple[Fraction, ...]:
    """Residues c_k of phi/phi_xx that the reflection symmetry of the Weyl
    functions forces from the residues b_k of phi_x/phi_xx,

        c_k = -sum_j b_j b_k / (lam_j + lam_k).
    """
    return tuple(-sum((bj * bk / (lj + lk) for lj, bj in zip(lams, bs)),
                      Fraction(0))
                 for lk, bk in zip(lams, bs))
