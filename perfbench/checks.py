"""Output checks made apart from the program.

Each check recomputes what it needs with the benchmark's own code: an
exact 3x3 transfer product of the string, an mpmath root solve of its
curvature polynomial, and a fixed-step integration of the peaked-wave
ODEs.  Nothing is compared with a stored copy of earlier output.  Every
check returns a list of failure messages; an empty list means the
output passed.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

_RATIONAL = re.compile(r"^(-?\d+)(?:/(\d+))?$")

# evolve tolerances, relative to max(1, |value|)
REF_TOL = 1e-11          # two reference step sizes must agree this well
ROUTE_TOL = {"spectral": 1e-10, "rk4": 1e-8}
CONSERVED_TOL = {"spectral": 1e-12, "rk4": 1e-9}
REF_STEPS = 1000         # reference RK4 steps per sample interval


def parse_rational(text: str) -> Fraction:
    m = _RATIONAL.match(text)
    if m is None:
        raise ValueError(f"not a rational literal: {text!r}")
    return Fraction(int(m.group(1)), int(m.group(2) or 1))


def format_rational(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


# -- exact polynomials: coefficient lists, lowest degree first ----------

def _trim(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


def padd(a: list, b: list) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _trim(out)


def pscale(a: list, c) -> list:
    return _trim([x * c for x in a])


def pmul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def pderiv(a: list) -> list:
    return _trim([j * c for j, c in enumerate(a) if j])


def peval(a: list, x):
    acc = 0 * x
    for c in reversed(a):
        acc = acc * x + c
    return acc


def boundary_polys(masses, gaps) -> tuple[list, list, list]:
    """(phi, phi_x, phi_xx) just right of the support.

    Starts from (1, 0, 0) on the left; a mass m makes the curvature jump
    by -2 m z phi, a gap l moves the quadratic piece forward by l.
    """
    phi, dphi, ddphi = [Fraction(1)], [], []
    for k, m in enumerate(masses):
        if k:
            g = gaps[k - 1]
            phi = padd(padd(phi, pscale(dphi, g)), pscale(ddphi, g * g / 2))
            dphi = padd(dphi, pscale(ddphi, g))
        ddphi = padd(ddphi, pscale([Fraction(0)] + phi, -2 * m))
    return phi, dphi, ddphi


def spectral_polynomial(lams, total_mass) -> list:
    """-2 M z prod(1 - z / lam_k)."""
    out = [Fraction(0), -2 * Fraction(total_mass)]
    for lam in lams:
        out = pmul(out, [Fraction(1), -1 / Fraction(lam)])
    return out


# -- forward -------------------------------------------------------------

def check_forward_exact(text: str, lams, bs, total_mass) -> list[str]:
    """forward on a string built from (lams, bs, M) must give them back."""
    want = {"lambdas": [format_rational(x) for x in lams],
            "residues_b": [format_rational(x) for x in bs],
            "total_mass": format_rational(total_mass)}
    got = json.loads(text)
    if got != want:
        return [f"forward exact output {got} != spectral data {want}"]
    return []


def _abs_deriv(p: list, x):
    """Derivative of p with |coefficients|, at x >= 0: bounds how far an
    interval Horner evaluation of p can spread per unit of box width."""
    return peval([abs(c) for c in pderiv(p)], x)


def _last_digit(x, digits: int):
    """One unit in the last of `digits` significant digits of x."""
    import mpmath

    return mpmath.mpf(10) ** (mpmath.floor(mpmath.log10(abs(x)))
                              - digits + 1)


def check_forward_decimal(text: str, masses, gaps) -> list[str]:
    """Decimal eigenvalues and residues against an mpmath reference.

    Eigenvalues must lie within the isolation width 2**-bits, plus one
    unit in the last printed digit.  Residues are midpoints of interval
    enclosures evaluated over that width, so their allowance is the
    width pushed through phi_x / phi_xx' by interval Horner evaluation.
    """
    import mpmath

    doc = json.loads(text)
    errors = []
    if set(doc) != {"lambdas", "residues_b", "total_mass", "precision_bits"}:
        return [f"forward decimal output has keys {sorted(doc)}"]
    bits = doc["precision_bits"]
    digits = max(1, int(bits * 0.30103))
    if doc["total_mass"] != format_rational(sum(masses, Fraction(0))):
        errors.append("total_mass is not the sum of the masses")
    _, dphi, ddphi = boundary_polys(masses, gaps)
    if ddphi[0] != 0:
        return ["curvature polynomial does not vanish at z = 0"]
    q = ddphi[1:]
    dd = pderiv(ddphi)
    n1 = len(masses) - 1
    if len(doc["lambdas"]) != n1 or len(doc["residues_b"]) != n1:
        return [f"expected {n1} eigenvalues and residues"]
    with mpmath.workdps(digits + 40):
        def mp(poly):
            return [mpmath.mpf(c.numerator) / c.denominator for c in poly]

        q_mp, qd_mp = mp(q), mp(pderiv(q))
        dphi_mp, dd_mp = mp(dphi), mp(dd)
        roots = mpmath.polyroots(q_mp[::-1], maxsteps=400,
                                 extraprec=8 * (digits + 40))
        lams = sorted(mpmath.re(r) for r in roots)
        w = mpmath.mpf(2) ** -bits
        for k, lam in enumerate(lams):
            for _ in range(3):  # polish at the working precision
                lam -= peval(q_mp, lam) / peval(qd_mp, lam)
            if lam <= 0 or (k and lam <= lams[k - 1]):
                return ["reference eigenvalues are not positive and simple"]
            lams[k] = lam
            num, den = peval(dphi_mp, lam), peval(dd_mp, lam)
            b = num / den
            spread = (_abs_deriv(dphi_mp, lam + w) * w / abs(num)
                      + _abs_deriv(dd_mp, lam + w) * w / abs(den))
            tol_l = w + _last_digit(lam, digits)
            tol_b = 2 * abs(b) * spread + _last_digit(b, digits)
            got_l = mpmath.mpf(doc["lambdas"][k])
            got_b = mpmath.mpf(doc["residues_b"][k])
            if abs(got_l - lam) > tol_l:
                errors.append(f"lambda_{k + 1} off by "
                              f"{mpmath.nstr(abs(got_l - lam), 3)}")
            if abs(got_b - b) > tol_b:
                errors.append(f"b_{k + 1} off by "
                              f"{mpmath.nstr(abs(got_b - b), 3)}")
    return errors


# -- inverse ---------------------------------------------------------------

def _load_string(doc: dict) -> tuple[list, list]:
    return ([parse_rational(m) for m in doc["masses"]],
            [parse_rational(g) for g in doc["gaps"]])


def check_invert(text: str, lams, bs, total_mass) -> list[str]:
    """A positive string with the given mass whose own transfer product
    has phi_xx = -2Mz prod(1 - z/lam) and phi_x(lam) = b phi_xx'(lam)."""
    masses, gaps = _load_string(json.loads(text))
    if len(masses) != len(lams) + 1 or len(gaps) != len(lams):
        return ["recovered string has the wrong number of masses or gaps"]
    if any(v <= 0 for v in masses + gaps):
        return ["recovered string is not positive"]
    if sum(masses, Fraction(0)) != total_mass:
        return ["recovered masses do not sum to M"]
    _, dphi, ddphi = boundary_polys(masses, gaps)
    if ddphi != spectral_polynomial(lams, total_mass):
        return ["phi_xx is not -2Mz prod(1 - z/lambda)"]
    dd = pderiv(ddphi)
    for lam, b in zip(lams, bs):
        if peval(dphi, lam) != b * peval(dd, lam):
            return [f"phi_x({lam}) != b phi_xx'({lam})"]
    return []


def check_report(report_text: str, plain_text: str) -> list[str]:
    """The audit document carries the same string as plain invert, and
    its per-step masses are that string's masses."""
    report = json.loads(report_text)
    plain = json.loads(plain_text)
    if report.get("string") != plain:
        return ["--report-determinants string differs from plain invert"]
    for step in report["steps"]:
        if step["mass"] != plain["masses"][step["mass_position"] - 1]:
            return [f"audit step {step['k']} mass differs from the string"]
    return []


def check_roundtrip(text: str) -> list[str]:
    return [] if text == "exact roundtrip OK\n" else [f"roundtrip said {text!r}"]


# -- peaked-wave flow --------------------------------------------------------

def _rhs(xs, ms):
    n = len(xs)
    dx = [sum(ms[i] * abs(xs[k] - xs[i]) for i in range(n)) for k in range(n)]
    left = 0.0
    total = sum(ms)
    dm = []
    for k in range(n):
        dm.append(2 * ms[k] * (total - left - ms[k] - left))
        left += ms[k]
    return dx, dm


def _rk4(xs, ms, h, steps):
    for _ in range(steps):
        k1 = _rhs(xs, ms)
        k2 = _rhs([x + h / 2 * d for x, d in zip(xs, k1[0])],
                  [m + h / 2 * d for m, d in zip(ms, k1[1])])
        k3 = _rhs([x + h / 2 * d for x, d in zip(xs, k2[0])],
                  [m + h / 2 * d for m, d in zip(ms, k2[1])])
        k4 = _rhs([x + h * d for x, d in zip(xs, k3[0])],
                  [m + h * d for m, d in zip(ms, k3[1])])
        xs = [x + h / 6 * (a + 2 * b + 2 * c + d)
              for x, a, b, c, d in zip(xs, k1[0], k2[0], k3[0], k4[0])]
        ms = [m + h / 6 * (a + 2 * b + 2 * c + d)
              for m, a, b, c, d in zip(ms, k1[1], k2[1], k3[1], k4[1])]
    return xs, ms


def reference_flow(xs, ms, t_end: float, samples: int,
                   steps: int = REF_STEPS) -> list[tuple[list, list]]:
    """States at the evenly spaced sample times, from RK4 with `steps`
    steps per interval; raises if halving the steps moves the result."""
    h = t_end / (samples - 1)
    fine = [(list(xs), list(ms))]
    coarse = [(list(xs), list(ms))]
    for _ in range(samples - 1):
        fine.append(_rk4(*fine[-1], h / steps, steps))
        coarse.append(_rk4(*coarse[-1], 2 * h / steps, steps // 2))
    for (fx, fm), (cx, cm) in zip(fine, coarse):
        for a, b in zip(fx + fm, cx + cm):
            if abs(a - b) > REF_TOL * max(1.0, abs(a)):
                raise ArithmeticError("reference integration is not converged")
    return fine


def chain_invariants(ms, xs) -> list:
    """M_1..M_n by dynamic programming over chains ending at each mass."""
    n = len(ms)
    ending = list(ms)
    out = [sum(ending)]
    for _ in range(2, n + 1):
        ending = [ms[i] * sum(ending[h] * (xs[h] - xs[i]) ** 2
                              for h in range(i))
                  for i in range(n)]
        out.append(sum(ending))
    return out


def conserved_values(ms, xs) -> list:
    """M, M_plus, M_1..M_n."""
    return ([sum(ms), sum(m * x for m, x in zip(ms, xs))]
            + chain_invariants(ms, xs))


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def check_evolve(text: str, masses, xs, t_end: float, samples: int,
                 route: str, reference) -> list[str]:
    """CSV rows against the reference flow, and M, M_plus, M_j kept."""
    n = len(masses)
    lines = text.splitlines()
    header = (["t"] + [f"x_{i}" for i in range(1, n + 1)]
              + [f"m_{i}" for i in range(1, n + 1)] + ["M", "M_plus"]
              + [f"M_{j}" for j in range(1, n + 1)])
    if lines[0].split(",") != header:
        return [f"evolve CSV header is {lines[0]!r}"]
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    if len(rows) != samples or any(len(r) != len(header) for r in rows):
        return ["evolve CSV has the wrong shape"]
    want = conserved_values([Fraction(m) for m in masses],
                            [Fraction(x) for x in xs])
    want = [float(v) for v in want]
    tol, ctol = ROUTE_TOL[route], CONSERVED_TOL[route]
    errors = []
    for j, (row, (rx, rm)) in enumerate(zip(rows, reference)):
        t = t_end * j / (samples - 1)
        if not _close(row[0], t, 1e-15):
            errors.append(f"row {j}: t = {row[0]}, expected {t}")
        got_x, got_m = row[1:n + 1], row[n + 1:2 * n + 1]
        for a, b in zip(got_x + got_m, rx + rm):
            if not _close(a, b, tol):
                errors.append(f"{route} row {j}: {a} vs reference {b}")
                break
        mine = conserved_values(got_m, got_x)
        for name, a, b, c in zip(["M", "M_plus"] + [f"M_{i}" for i in
                                                    range(1, n + 1)],
                                 mine, want, row[2 * n + 1:]):
            if not (_close(a, b, ctol) and _close(c, b, ctol)):
                errors.append(f"{route} row {j}: {name} drifted to {a}"
                              f" (CSV {c}) from {b}")
    return errors
