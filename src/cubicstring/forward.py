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
inverse map.  The coefficients of phi_xx are, up to 2(-z)^j, the chain
invariants M_j of the isospectral flow.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import IdentityViolatedError, PrecisionExhaustedError
from .exact import (
    Polynomial,
    RatInterval,
    RootEnclosure,
    cauchy_root_bound,
    eval_interval,
    refine_enclosure,
    sturm_isolate,
)
from .exact.roots import DEFAULT_ISOLATION_WIDTH
from .string_model import CubicString, validate

DEFAULT_PRECISION_BITS = 256

# cost grows about 4x per doubling of the precision: on masses 1, 2, 3
# at this cap, forward took 4.7 s and a three-row spectral evolve 11.5 s
# (47 s for forward at 48,000 bits); past it a run is refused, not started
MAX_PRECISION_BITS = 2 ** 14


def resolve_precision_bits(requested: int | None = None) -> int:
    """Working precision: `requested` if given, else the environment
    variable CUBICSTRING_PRECISION_BITS, else DEFAULT_PRECISION_BITS.
    Anything but an integer in 1..MAX_PRECISION_BITS is a ValueError."""
    if requested is None:
        requested = int(os.environ.get("CUBICSTRING_PRECISION_BITS",
                                       DEFAULT_PRECISION_BITS))
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
    eigenvalue enclosures and Weyl-function residues."""

    phi: Polynomial      # boundary value
    phi_x: Polynomial    # boundary slope
    phi_xx: Polynomial   # boundary curvature; eigenvalues are its roots / z
    eigenvalues: tuple[RootEnclosure, ...] | None = None
    w_residues: tuple | None = None  # residues of phi_x/phi_xx (Fraction or RatInterval)
    z_residues: tuple | None = None  # residues of phi/phi_xx

    @property
    def all_exact(self) -> bool:
        return (self.eigenvalues is not None
                and all(e.is_exact for e in self.eigenvalues))


def jump_step(triple: tuple, mass: Fraction) -> tuple:
    """Cross one point mass: phi_xx -= 2 m z phi."""
    phi, phi_x, phi_xx = triple
    return phi, phi_x, phi_xx - Polynomial.x() * phi * (2 * mass)


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


def spectrum(s: CubicString,
             width: Fraction = DEFAULT_ISOLATION_WIDTH) -> WeylData:
    """Isolate all eigenvalues; exactly n-1 of them, positive and simple."""
    wd = boundary_data(s)
    q = eigenvalue_polynomial(wd)
    if q.degree < 1:
        return replace(wd, eigenvalues=())
    hi = cauchy_root_bound(q)
    roots = sturm_isolate(q, Fraction(0), hi, width=width)
    if len(roots) != s.n - 1:
        raise IdentityViolatedError(
            f"expected {s.n - 1} eigenvalues, isolated {len(roots)}")
    return replace(wd, eigenvalues=tuple(roots))


def _certified_ratio(num: Polynomial, den: Polynomial, box: RatInterval):
    """num/den over an interval, or None when the signs are not settled."""
    den_i = eval_interval(den, box)
    if not den_i.sign_definite():
        return None
    ratio = eval_interval(num, box) / den_i
    return ratio if ratio.sign_definite() else None


def residues(wd: WeylData,
             precision_bits: int = DEFAULT_PRECISION_BITS) -> WeylData:
    """Residues of the two Weyl functions at every eigenvalue.

    Exact rationals at exact eigenvalues; elsewhere sign-certified
    rational intervals, refined as far as 4x the requested precision
    before giving up.
    """
    if wd.eigenvalues is None:
        raise ValueError("run spectrum() before residues()")
    deriv = wd.phi_xx.derivative()
    q = eigenvalue_polynomial(wd)
    w_out, z_out = [], []
    for root in wd.eigenvalues:
        if root.is_exact:
            lam = root.exact
            d = deriv(lam)
            if d == 0:
                raise IdentityViolatedError("multiple eigenvalue in residues")
            w_out.append(wd.phi_x(lam) / d)
            z_out.append(wd.phi(lam) / d)
            continue
        got = None
        box = root
        target = Fraction(1, 2 ** precision_bits)
        for _ in range(3):
            box = refine_enclosure(q, box, target)
            if box.is_exact:
                lam = box.exact
                got = (wd.phi_x(lam) / deriv(lam), wd.phi(lam) / deriv(lam))
                break
            ival = RatInterval(box.lo, box.hi)
            w_i = _certified_ratio(wd.phi_x, deriv, ival)
            z_i = _certified_ratio(wd.phi, deriv, ival)
            if w_i is not None and z_i is not None:
                got = (w_i, z_i)
                break
            target = target * target  # square the precision and retry
        if got is None:
            raise PrecisionExhaustedError(
                f"could not certify residue signs at {precision_bits} bits")
        w_out.append(got[0])
        z_out.append(got[1])
    _check_residue_signs(w_out, z_out)
    if all(isinstance(b, Fraction) for b in w_out) and wd.all_exact:
        _check_residue_relation(wd, w_out, z_out)
    return replace(wd, w_residues=tuple(w_out), z_residues=tuple(z_out))


def _check_residue_signs(w_out, z_out) -> None:
    for b in list(w_out) + list(z_out):
        neg = b < 0 if isinstance(b, Fraction) else b.is_negative()
        if not neg:
            raise IdentityViolatedError("residue failed its negativity law")


def value_residues(lams, bs) -> tuple[Fraction, ...]:
    """Residues c_k of phi/phi_xx that the reflection symmetry of the Weyl
    functions forces from the residues b_k of phi_x/phi_xx,

        c_k = -sum_j b_j b_k / (lam_j + lam_k).
    """
    return tuple(-sum((bj * bk / (lj + lk) for lj, bj in zip(lams, bs)),
                      Fraction(0))
                 for lk, bk in zip(lams, bs))


def _check_residue_relation(wd: WeylData, w_out, z_out) -> None:
    """Exact cross-check: the z-residues are determined by the w-residues."""
    lams = [e.exact for e in wd.eigenvalues]
    if value_residues(lams, w_out) != tuple(z_out):
        raise IdentityViolatedError("z-residue relation failed exactly")
