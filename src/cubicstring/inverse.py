"""Inverse spectral map: from eigenvalues and residues back to the string.

Spectral data is the triple (eigenvalues lam_1 < ... < lam_{n-1}, their
slope-residues b_k < 0, total mass M > 0).  It determines two discrete
measures: mu with weights b_k at the lam_k, and the value-measure nu
with weights c_k at lam_k plus the atom -1/(2M) at zero, where the c_k
are forced by the reflection symmetry of the Weyl functions:

    c_k = - sum_j b_j b_k / (lam_j + lam_k).

Everything downstream is built from the moments beta_j = sum b lam^j
and the symmetric pair table

    I_ij = sum_{a,b} b_a b_b lam_a^i lam_b^j / (lam_a + lam_b),

which has the rank-one displacement I_(i+1)j + I_i(j+1) = beta_i beta_j
(lam_a + lam_b cancels) and the first column I_i0 = -sum c_k lam_k^i;
the two fix it, so it costs O(N^2) products at order N, on integer
numerators over one denominator per antidiagonal.

Six families of minors of that table drive the closed-form recovery;
they are named here by the block they cut out of the pair table:

    corner[k]        det I[0:k, 0:k]
    mass_corner[k]   the same with 1/(2M) added at the (0,0) entry
    inner[k]         det I[1:k+1, 1:k+1]
    shifted[k]       det I[1:k+1, 0:k]
    beta_shifted[k]  det [beta_0..beta_{k-1} | I[1:k+1, 0:k-1]]
    beta_inner[k]    det [beta_0..beta_{k-1} | I[1:k+1, 1:k]]

One fraction-free elimination of table rows 1..N, on columns 1..N and
bordered by column 0 and by beta (exact.bordered_minors), reads off
four families at every size: inner as its pivots, shifted and
beta_inner as its borders, and beta_shifted as the 2 x 2 Sylvester
minors of the two borders on consecutive rows.  Table row 0 rides along
and never pivots; its minors are shifted again, read off the
transposed blocks, as a check.  The corner minors follow by
Desnanot-Jacobi on the symmetric table,

    corner[k+1] inner[k-1] = inner[k] corner[k] - shifted[k]^2,

and, a determinant being linear in its first column,
mass_corner[k] = corner[k] + inner[k-1] / (2M).

The string is rebuilt by peeling the crossing factors off the boundary
triple (phi, phi_x, phi_xx) that the data fixes: each jump hands back
one mass, each gap one gap, and the triple must end at exactly
(1, 0, 0).  The minors are the audit: their closed forms for each mass
and gap are checked against the peeled string.  A chain of simultaneous
rational approximation problems to the two Weyl functions (three problem
shapes, cycling with period three) has minor ratios as its leading
coefficients; it satisfies a four-term recurrence whose coefficients are
the recovered masses and gaps, and equals the entries of the forward
partial crossing products.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import lcm
from random import Random

from .errors import (
    IdentityViolatedError,
    NonPositiveRecoveryError,
    SpectralValidationError,
)
from .exact import (
    Matrix,
    Polynomial,
    bordered_minors,
    det_exact,
    format_rational,
    linear_combination,
    parse_rational,
    parse_rational_list,
    solve_exact,
)
from .exact.rational import over_common_denominator
from .forward import boundary_data, gap_step, jump_step, value_residues
from .record import Record
from .string_model import CubicString, string_to_dict


class SpectralData(Record):
    eigenvalues: tuple[Fraction, ...]
    residues: tuple[Fraction, ...]   # slope-residues b_k, all negative
    total_mass: Fraction

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues",
                           tuple(Fraction(x) for x in self.eigenvalues))
        object.__setattr__(self, "residues",
                           tuple(Fraction(x) for x in self.residues))
        object.__setattr__(self, "total_mass", Fraction(self.total_mass))

    @property
    def n(self) -> int:
        """Number of masses of the string this data describes."""
        return len(self.eigenvalues) + 1


def validate_spectral(sd: SpectralData) -> None:
    if len(sd.residues) != len(sd.eigenvalues):
        raise SpectralValidationError("one residue per eigenvalue required")
    if sd.total_mass <= 0:
        raise SpectralValidationError("total mass must be positive")
    prev = Fraction(0)
    for lam in sd.eigenvalues:
        if lam <= prev:
            raise SpectralValidationError(
                "eigenvalues must be strictly increasing and positive")
        prev = lam
    for b in sd.residues:
        if b >= 0:
            raise SpectralValidationError("slope-residues must be negative")


class BimomentTable(Record):
    total_mass: Fraction
    moments: tuple[Fraction, ...]               # beta_0..beta_max_order
    pair_table: tuple[tuple[Fraction, ...], ...]  # I_ij, 0 <= i,j <= max_order
    z_residues: tuple[Fraction, ...]

    @property
    def max_order(self) -> int:
        return len(self.moments) - 1


def bimoments(sd: SpectralData, max_order: int) -> BimomentTable:
    validate_spectral(sd)
    return table_from_support(sd.eigenvalues, sd.residues, sd.total_mass,
                              max_order)


def table_from_support(lams, bs, total_mass, max_order: int,
                       z_residues=None) -> BimomentTable:
    """Moments and pair table of an arbitrary weighted point set; no sign
    constraints are imposed (the constrained entry point is bimoments).
    `z_residues`, when given, are the value residues of the point set.

    The table is fixed by its first column and a rank-one displacement:
    I_(i+1)j + I_i(j+1) = beta_i beta_j, as lam_a + lam_b cancels, and
    I_i0 = -gamma_i with gamma_i = sum c_a lam_a^i.  Each antidiagonal
    i + j = s steps from I_s0 by I_i(j+1) = beta_i beta_j - I_(i+1)j, so
    moments up to order 2 max_order build the table in O(max_order^2).
    It is built on integers: with lam_a = p_a / L, b_a = u_a / V and
    c_a = w_a / C over the lcms of their denominators, beta_j and
    gamma_j are integer power sums over V L^j and C L^j, antidiagonal s
    is over W L^s with W = lcm(V^2, C), and each value is one Fraction.
    """
    lams = tuple(Fraction(x) for x in lams)
    bs = tuple(Fraction(x) for x in bs)
    cs = value_residues(lams, bs) if z_residues is None else z_residues
    ps, big_l = over_common_denominator(lams)
    us, big_v = over_common_denominator(bs)
    ws, big_c = over_common_denominator(cs)
    orders = range(2 * max_order + 1)
    beta, gamma = [], []
    for _ in orders:
        beta.append(sum(us))
        gamma.append(sum(ws))
        us = [u * p for u, p in zip(us, ps)]
        ws = [w * p for w, p in zip(ws, ps)]
    big_w = lcm(big_v * big_v, big_c)
    beta_scale, gamma_scale = big_w // (big_v * big_v) * big_l, big_w // big_c
    table = [[Fraction(0)] * (max_order + 1) for _ in range(max_order + 1)]
    den = big_w
    for s in orders:
        entry = -gamma[s] * gamma_scale
        for j in range(s // 2 + 1):
            if j:
                entry = beta[s - j] * beta[j - 1] * beta_scale - entry
            if s - j <= max_order:
                table[s - j][j] = table[j][s - j] = Fraction(entry, den)
        den *= big_l
    moments = tuple(Fraction(b, big_v * big_l ** j)
                    for j, b in enumerate(beta[:max_order + 1]))
    return BimomentTable(Fraction(total_mass), moments,
                         tuple(tuple(r) for r in table), tuple(cs))


# -- minors of the pair table ------------------------------------------

def _augmented_column(bt: BimomentTable) -> tuple[Fraction, ...]:
    """First column of the pair table with the atom 1/(2M) added on top."""
    col = [row[0] for row in bt.pair_table]
    col[0] += 1 / (2 * bt.total_mass)
    return tuple(col)


def _block(bt: BimomentTable, k: int, row: int, col: int,
           first=None) -> Matrix:
    """The k x k block I[row:row+k, col:col+k] of the pair table.

    Given `first`, the column first[0:k] leads instead, and the table
    fills the other k - 1 columns from column `col` on.
    """
    t = bt.pair_table
    if first is None:
        return Matrix([t[i][col:col + k] for i in range(row, row + k)])
    return Matrix([(first[i - row],) + t[i][col:col + k - 1]
                   for i in range(row, row + k)])


class MomentMinors(Record):
    """The six minor sequences, indexed by size k starting at 0 (empty
    determinants are 1 by convention)."""

    mass_corner: tuple[Fraction, ...]
    corner: tuple[Fraction, ...]
    inner: tuple[Fraction, ...]
    shifted: tuple[Fraction, ...]
    beta_shifted: tuple[Fraction, ...]
    beta_inner: tuple[Fraction, ...]


def moment_minors(bt: BimomentTable) -> MomentMinors:
    """All minors the table can support: corner families one size past
    the table order, the rest up to the order itself, from one bordered
    elimination of table rows 1..N, N the order.

    The elimination runs on columns 1..N: its pivots are inner, and row
    k's borders, column 0 and beta_(i-1), are (-1)^k shifted[k+1] and
    (-1)^k beta_inner[k+1].  The pair minor of the two borders on rows
    0..k+1 is -beta_shifted[k+2], and beta_shifted[1] = beta_0.  Table
    row 0 rides along as an extra row: its minor of size k + 1 cuts
    I[0:k+1, 1:k+2] with row 0 last, the transpose of the block of row
    k's column-0 border, and the two must agree, as the table is
    symmetric.
    Desnanot-Jacobi on the symmetric table gives corner[k+1] inner[k-1]
    = inner[k] corner[k] - shifted[k]^2, and linearity in the first
    column mass_corner[k] = corner[k] + inner[k-1] / (2M).  A corner
    whose inner[k-1] is 0 is det_exact of its block.
    """
    t, beta, order = bt.pair_table, bt.moments, bt.max_order
    inner, border, pair, top = bordered_minors(
        Matrix([t[i][1:] + (t[i][0], beta[i - 1])
                for i in range(1, order + 1)]), 2, t[0][1:])
    if any(x != b[0] for x, b in zip(top, border)):
        raise IdentityViolatedError(
            "shifted minors of the table and of its transpose disagree")

    def signed(c):
        return (Fraction(1),) + tuple(-v[c] if k % 2 else v[c]
                                      for k, v in enumerate(border))

    shifted = signed(0)
    corner = [Fraction(1), t[0][0]]
    for k in range(1, order + 1):
        corner.append((inner[k] * corner[k] - shifted[k] ** 2) / inner[k - 1]
                      if inner[k - 1] else
                      det_exact(Matrix([r[:k + 1] for r in t[:k + 1]])))
    atom = 1 / (2 * bt.total_mass)
    return MomentMinors(
        mass_corner=(Fraction(1),) + tuple(
            c + atom * i for c, i in zip(corner[1:], inner)),
        corner=tuple(corner),
        inner=inner,
        shifted=shifted,
        beta_shifted=(Fraction(1), beta[0], *(-p[0] for p in pair)
                      )[:order + 1],
        beta_inner=signed(1),
    )


# -- the Weyl functions times a polynomial --------------------------------

def _value_measure(lams, cs, total_mass) -> tuple[tuple, tuple]:
    """Points and weights of nu: the atom -1/(2M) at zero, c_k at lam_k."""
    return (Fraction(0),) + tuple(lams), (-1 / (2 * total_mass),) + tuple(cs)


def _polynomial_part(den: Polynomial, points, weights) -> Polynomial:
    """Polynomial part of den(z) * sum_k weights_k / (z - points_k)."""
    return linear_combination(*((den.difference_quotient(p), w, 0)
                                for p, w in zip(points, weights)))


# -- the three approximation problems ------------------------------------

class Approximant(Record):
    """One step of the approximation chain.

    kind III: den(0) = 1, degrees (k, k-1, k-1)
    kind II:  den(0) = 0, num_w(0) = 1, degrees (k, k-1, k-1)
    kind I:   den(0) = 0, num_w(0) = 0, num_z(0) = 1, degrees (k+1, k, k)
    """

    kind: str
    k: int
    den: Polynomial
    num_w: Polynomial
    num_z: Polynomial


def _projections(bt: BimomentTable, sd: SpectralData,
                 den: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Polynomial parts of W * den and Z * den."""
    return (_polynomial_part(den, sd.eigenvalues, sd.residues),
            _polynomial_part(den, *_value_measure(
                sd.eigenvalues, bt.z_residues, bt.total_mass)))


def solve_type3(bt: BimomentTable, sd: SpectralData, k: int) -> Approximant:
    """den(0) = 1 normalization; system det is shifted[k]."""
    if not 1 <= k <= bt.max_order:
        raise ValueError(f"type III index {k} outside the table")
    rhs = [-v for v in _augmented_column(bt)[:k]]
    q = solve_exact(_block(bt, k, 0, 1), rhs)
    den = Polynomial((Fraction(1),) + q)
    return Approximant("III", k, den, *_projections(bt, sd, den))


def solve_type2(bt: BimomentTable, sd: SpectralData, k: int) -> Approximant:
    """den(0) = 0, num_w(0) = 1; system det is shifted[k]."""
    if not 1 <= k <= bt.max_order:
        raise ValueError(f"type II index {k} outside the table")
    q = solve_exact(_block(bt, k, 1, 0), bt.moments[:k])
    den = Polynomial((Fraction(0),) + q)
    proj, num_z = _projections(bt, sd, den)
    return Approximant("II", k, den, proj - proj.coefficient(0) + 1, num_z)


def solve_type1(bt: BimomentTable, sd: SpectralData, k: int) -> Approximant:
    """den(0) = num_w(0) = 0, num_z(0) = 1; system det is mass_corner[k+1]."""
    if not 0 <= k <= bt.max_order:
        raise ValueError(f"type I index {k} outside the table")
    rhs = [Fraction(-1)] + [Fraction(0)] * k
    q = solve_exact(_block(bt, k + 1, 0, 1, _augmented_column(bt)), rhs)
    den = Polynomial((Fraction(0),) + q)
    proj, num_z = _projections(bt, sd, den)
    if num_z.coefficient(0) != 1:
        raise IdentityViolatedError("type I value-numerator normalization failed")
    return Approximant("I", k, den, proj - proj.coefficient(0), num_z)


def curvature_polynomial(sd: SpectralData) -> Polynomial:
    """-2 M z prod (1 - z/lam_j): the boundary curvature the data fixes."""
    out = Polynomial((0, -2 * sd.total_mass))
    for lam in sd.eigenvalues:
        out = linear_combination((out, 1, 0), (out, -1 / lam, 1))
    return out


# -- recovery -------------------------------------------------------------

class RecoveryRow(Record):
    """Per-step audit: the peeled mass against both closed forms, and
    the peeled gap against its determinant form."""

    k: int
    mass_position: int              # 1-based index n-k of the mass
    mass: Fraction                  # from the peel (recover)
    mass_cramer: Fraction           # shifted^2 / (2 mass_corner+ mass_corner)
    mass_printed: Fraction          # inner shifted / (2 mass_corner+ mass_corner)
    printed_agrees: bool
    gap_position: int | None = None
    gap: Fraction | None = None
    gap_determinant: Fraction | None = None  # -2 mass_corner / beta_shifted


class RecoveryReport(Record):
    string: CubicString
    minors: MomentMinors
    rows: tuple[RecoveryRow, ...]

    def to_dict(self) -> dict:
        fm = format_rational
        return {
            "string": string_to_dict(self.string),
            "minors": {name: [fm(v) for v in getattr(self.minors, name)]
                       for name in MomentMinors._fields},
            "steps": [
                {
                    "k": r.k,
                    "mass_position": r.mass_position,
                    "mass": fm(r.mass),
                    "mass_cramer": fm(r.mass_cramer),
                    "mass_printed": fm(r.mass_printed),
                    "printed_agrees": r.printed_agrees,
                    **({"gap_position": r.gap_position,
                        "gap": fm(r.gap),
                        "gap_determinant": fm(r.gap_determinant)}
                       if r.gap is not None else {}),
                }
                for r in self.rows
            ],
        }


def peel(triple: tuple) -> CubicString:
    """The string, anchored at zero, whose crossing steps (1, 0, 0) to
    the boundary triple (phi, phi_x, phi_xx).

    Peels the crossing factors off, rightmost mass first.  With
    d = deg phi, a jump takes  m = -[z^(d+1)] phi_xx / (2 lead phi)  and
    lowers phi_xx to degree d; a gap takes  l = [z^d] phi_x / lead phi_xx
    and lowers phi and phi_x to degree d - 1.  The peel runs
    forward.jump_step and forward.gap_step with -m and -l, the exact
    inverses of the forward crossing.  Each degree drop is checked, the
    triple must end at exactly (1, 0, 0), and every mass and gap must
    come out positive.
    """
    phi, phi_x, phi_xx = triple
    masses, gaps = [], []
    for d in range(phi_xx.degree - 1, -1, -1):
        if (phi.degree, phi_xx.degree) != (d, d + 1):
            raise IdentityViolatedError(f"mass {d + 1}: degrees do not drop")
        m = -phi_xx.coefficient(d + 1) / (2 * phi.leading)
        phi, phi_x, phi_xx = jump_step((phi, phi_x, phi_xx), -m)
        masses.append(m)
        if d == 0:
            break
        if (phi_x.degree, phi_xx.degree) != (d, d):
            raise IdentityViolatedError(f"gap {d}: degrees do not drop")
        gap = phi_x.leading / phi_xx.leading
        phi, phi_x, phi_xx = gap_step((phi, phi_x, phi_xx), -gap)
        gaps.append(gap)
    if phi != 1 or phi_x or phi_xx:
        raise IdentityViolatedError("peel did not end at (1, 0, 0)")
    for v in masses + gaps:
        if v <= 0:
            raise NonPositiveRecoveryError(f"recovered value {v} not positive")
    return CubicString(tuple(reversed(masses)), tuple(reversed(gaps)))


def _boundary_triple(sd: SpectralData) -> tuple[tuple, tuple]:
    """The boundary triple (phi, phi_x, phi_xx) that validated data fixes,
    and the value residues c_k it used: the curvature polynomial phi_xx,
    with phi_x = phi_xx W and phi = phi_xx Z, polynomials since phi_xx
    vanishes at every pole."""
    validate_spectral(sd)
    cs = value_residues(sd.eigenvalues, sd.residues)
    phi_xx = curvature_polynomial(sd)
    phi_x = _polynomial_part(phi_xx, sd.eigenvalues, sd.residues)
    phi = _polynomial_part(phi_xx, *_value_measure(
        sd.eigenvalues, cs, sd.total_mass))
    return (phi, phi_x, phi_xx), cs


def recover(sd: SpectralData) -> CubicString:
    """Inverse map, anchored at zero: peels the boundary triple the data
    fixes."""
    return peel(_boundary_triple(sd)[0])


def recover_detailed(sd: SpectralData) -> RecoveryReport:
    """The recovered string with the minors audit.

    Two closed forms for each mass ride along: the Cramer-consistent
    minor form (must agree with the peel, enforced) and the variant
    with the inner minor in place of one shifted minor (recorded, known
    to disagree in general); the gap also gets its determinant form,
    enforced.
    """
    triple, cs = _boundary_triple(sd)
    s = peel(triple)
    n = sd.n
    minors = moment_minors(table_from_support(
        sd.eigenvalues, sd.residues, sd.total_mass, n - 1, cs))
    rows = []
    for k in range(n):
        mass = s.masses[n - k - 1]
        denom = 2 * minors.mass_corner[k + 1] * minors.mass_corner[k]
        cramer = minors.shifted[k] ** 2 / denom
        printed = minors.inner[k] * minors.shifted[k] / denom
        if mass != cramer:
            raise IdentityViolatedError("Cramer mass form disagrees with the peel")
        gap_fields = {}
        if k >= 1:
            gap = s.gaps[n - k - 1]
            gap_det = -2 * minors.mass_corner[k] / minors.beta_shifted[k]
            if gap != gap_det:
                raise IdentityViolatedError("gap determinant form disagrees")
            gap_fields = {"gap_position": n - k, "gap": gap,
                          "gap_determinant": gap_det}
        rows.append(RecoveryRow(k=k, mass_position=n - k, mass=mass,
                                mass_cramer=cramer, mass_printed=printed,
                                printed_agrees=(printed == mass),
                                **gap_fields))
    return RecoveryReport(s, minors, tuple(rows))


def verify_exact_roundtrip(sd: SpectralData) -> CubicString:
    """Recover a string and certify it reproduces the data exactly.

    Checks, as rational identities with no tolerance: the masses sum to
    the total mass, the curvature polynomial equals
    -2 M z prod(1 - z/lambda_k), every lambda_k is one of its roots, and
    at each root the slope and value polynomials come out to
    b_k A'(lambda_k) and c_k A'(lambda_k).  Returns the recovered
    string; raises IdentityViolatedError on the first failure.
    """
    triple, cs = _boundary_triple(sd)
    s = peel(triple)
    if sum(s.masses, Fraction(0)) != sd.total_mass:
        raise IdentityViolatedError("masses do not sum to the total mass")
    wd = boundary_data(s)
    if wd.phi_xx != triple[2]:
        raise IdentityViolatedError(
            "curvature polynomial is not -2Mz prod(1 - z/lambda)")
    da = wd.phi_xx.derivative()
    for lam, b, c in zip(sd.eigenvalues, sd.residues, cs):
        if wd.phi_xx(lam) != 0:
            raise IdentityViolatedError(f"{lam} is not an eigenvalue")
        if wd.phi_x(lam) != b * da(lam):
            raise IdentityViolatedError(f"slope residue at {lam} is off")
        if wd.phi(lam) != c * da(lam):
            raise IdentityViolatedError(f"value residue at {lam} is off")
    return s


# -- random data and wire format ------------------------------------------

def random_spectral(n: int, seed) -> SpectralData:
    """Deterministic random spectral data for n masses."""
    rng = seed if isinstance(seed, Random) else Random(seed)
    lams = tuple(accumulate(Fraction(rng.randint(1, 8), rng.randint(1, 4))
                            for _ in range(n - 1)))
    res = tuple(-Fraction(rng.randint(1, 8), rng.randint(1, 4))
                for _ in range(n - 1))
    total = Fraction(rng.randint(1, 8), rng.randint(1, 4))
    return SpectralData(lams, res, total)


def spectral_to_dict(sd: SpectralData) -> dict:
    return {
        "lambdas": [format_rational(x) for x in sd.eigenvalues],
        "residues_b": [format_rational(x) for x in sd.residues],
        "total_mass": format_rational(sd.total_mass),
    }


def spectral_from_dict(d: dict) -> SpectralData:
    try:
        lams = parse_rational_list(d, "lambdas")
        res = parse_rational_list(d, "residues_b")
        total = parse_rational(d["total_mass"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed spectral object: {exc}") from exc
    return SpectralData(lams, res, total)
