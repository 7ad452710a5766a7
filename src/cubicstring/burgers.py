"""Isospectral evolution of peaked waves u(x,t) = sum m_k(t) |x - x_k(t)|.

The motion of the peaks is the ODE system

    dx_k/dt = sum_i m_i |x_k - x_i|
    dm_k/dt = 2 m_k sum_i m_i sgn(i - k)

where sgn(i - k) stands in for sgn(x_i - x_k): with positive momenta the
ordering never breaks, so the two agree, and the index form has no
discontinuity at near-collisions.  Two integrators are provided:

  * integrate_rk4: classical fixed-step fourth-order integration of the
    ODEs in double precision.  Each chain invariant M_j is the correctly
    rounded exact value for the rational string the float state denotes.

  * evolve_spectral: the exact route, the flow's explicit solution.
    Along the flow the residues of W = phi_x/phi_xx scale by
    sigma = e^{Mt} and phi_xx stays.  With P_j = m_1 + ... + m_j and
    Q_j = M - P_j, the equations above give dP_j/dt = 2 P_j Q_j and
    dl_j/dt = (P_j - Q_j) l_j, and d/dt ln(Q_j + P_j tau) = 2 P_j(t)
    for tau = sigma^2, so from the t = 0 values

        P_j(t) = M P_j tau / (Q_j + P_j tau),
        l_j(t) = l_j (Q_j + P_j tau) / (M sigma).

    A row is these O(n) rational operations (flow_state): no eigenvalue
    is isolated and no triple peeled.  The peel of the t = 0 boundary
    triple with its residues scaled by sigma gives the same string; the
    tests keep it as the reference.

    The only approximation is the rational sigma, and its precision is
    derived, not chosen.  A decimal sigma with |ln sigma - M t| <= r is
    e^(M t~) for a time t~ within r/M of t, so flow_state at it is the
    exact state at t~.  The equations above bound how far each cell
    moves from t~ to t (_certified), and a row is printed when every
    such interval rounds to one double: each position and mass is then
    the correctly rounded double of the state at t.  Otherwise sigma is
    taken to twice the digits and the row evaluated again.

The gaps fix the string up to translation.  The first moment
M+ = sum m_k x_k pins it: differentiating along the flow makes the
m-dot and x-dot contributions cancel exactly, so M+ is conserved, and
so is the centre of mass c = M+ / M.  Summed by parts,
x_n - c = sum_j P_j l_j / M, and P_j l_j scales by sigma, so the last
peak sits at x_n(t) = c + sigma (x_n(0) - c).
"""

from __future__ import annotations

from decimal import ROUND_HALF_EVEN, Decimal, Overflow, localcontext
from fractions import Fraction
from math import ceil, floor, inf, log2, nextafter, ulp

from . import forward
from .errors import (
    EmptyStringError,
    FlowOutOfRangeError,
    NonPositiveMassError,
    OrderingViolatedError,
    PrecisionExhaustedError,
)
from .forward import (
    MAX_PRECISION_BITS,
    WeylData,
    decimal_digits,
    invariant_masses,
    residues,  # unused here; perfbench/tracing.py wraps burgers.residues
    spectrum,  # unused here; perfbench/tracing.py wraps burgers.spectrum
)
from .inverse import recover  # unused here; perfbench/tracing.py wraps it
from .record import Record
from .string_model import ConservedSet, CubicString, positions

# about 40 s of RK4 at three peaks; past it the run is refused, not started
MAX_RK4_STEPS = 10 ** 6

# each spectral row takes e^(M t) to this many significant digits
# first: on 150 random runs (n = 2 to 8, M t up to about 180) every row
# was certified at the first sigma.  A row that is not doubles the
# digits, up to the FLOW_MAX_DIGITS that MAX_PRECISION_BITS gives
FLOW_START_DIGITS = 30
FLOW_MAX_DIGITS = decimal_digits(MAX_PRECISION_BITS)


class WaveState(Record):
    time: float
    positions: tuple[float, ...]
    momenta: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "positions", tuple(float(x) for x in self.positions))
        object.__setattr__(self, "momenta", tuple(float(m) for m in self.momenta))
        if not self.positions:
            raise EmptyStringError("a wave needs at least one peak")
        if len(self.positions) != len(self.momenta):
            raise ValueError("one momentum per peak required")
        _check_ordering(self.positions)
        for m in self.momenta:
            if m <= 0:
                raise NonPositiveMassError(f"momentum {m} is not positive")

    @property
    def n(self) -> int:
        return len(self.positions)


class Trajectory(Record):
    samples: tuple[tuple[float, WaveState, ConservedSet], ...]

    def __post_init__(self):
        times = [t for t, _, _ in self.samples]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("sample times must be strictly increasing")


def _check_ordering(xs) -> None:
    for a, b in zip(xs, xs[1:]):
        if b <= a:
            raise OrderingViolatedError(f"peaks out of order: {a} !< {b}")


def _rhs_arrays(xs, ms):
    _check_ordering(xs)
    n = len(xs)
    dx = [sum(ms[i] * abs(x - xs[i]) for i in range(n)) for x in xs]
    dm = [2 * ms[k] * (sum(ms[k + 1:]) - sum(ms[:k])) for k in range(n)]
    return dx, dm


def conserved_floats(state: WaveState,
                     wd: WeylData | None = None) -> ConservedSet:
    """M and M_plus as float sums; each M_j is the correctly rounded exact
    chain invariant of the state's rational string, read off wd if given."""
    xs, ms = state.positions, state.momenta
    phi_xx = (wd or forward.boundary_data(rationalize(state))).phi_xx
    return ConservedSet(sum(ms), sum(m * x for m, x in zip(ms, xs)),
                        tuple(float(v) for v in invariant_masses(phi_xx)))


def _rk4_step(xs, ms, h):
    kx1, km1 = _rhs_arrays(xs, ms)
    kx2, km2 = _rhs_arrays([x + h / 2 * d for x, d in zip(xs, kx1)],
                           [m + h / 2 * d for m, d in zip(ms, km1)])
    kx3, km3 = _rhs_arrays([x + h / 2 * d for x, d in zip(xs, kx2)],
                           [m + h / 2 * d for m, d in zip(ms, km2)])
    kx4, km4 = _rhs_arrays([x + h * d for x, d in zip(xs, kx3)],
                           [m + h * d for m, d in zip(ms, km3)])
    xs = [x + h / 6 * (a + 2 * b + 2 * c + d)
          for x, a, b, c, d in zip(xs, kx1, kx2, kx3, kx4)]
    ms = [m + h / 6 * (a + 2 * b + 2 * c + d)
          for m, a, b, c, d in zip(ms, km1, km2, km3, km4)]
    return xs, ms


def check_rk4_steps(n: int, dt: float, t_end: float) -> None:
    """A ValueError when t_end / dt RK4 steps, each counted max(1, n^2/9)
    times on n peaks, are over MAX_RK4_STEPS (README, "evolve")."""
    weight = max(1, n ** 2 / 9)
    if t_end / dt * weight > MAX_RK4_STEPS:
        peaks = (f" on {n} peaks, each counted {weight:.3g} times,"
                 if weight > 1 else ",")
        raise ValueError(f"t_end / dt asks for {t_end / dt:.3g} RK4 steps"
                         f"{peaks} over the cap of {MAX_RK4_STEPS}")


def integrate_rk4(s0: WaveState, dt: float, t_end: float, samples: int = 11,
                  wd: WeylData | None = None) -> Trajectory:
    """Fixed-step RK4 from s0.time over a window of length t_end.

    Records `samples` evenly spaced rows including both endpoints; the
    step lands exactly on each sample time (the last step into a sample
    is shortened when dt does not divide the interval).  The first row
    reads M_j off wd, the boundary triple of s0, when given.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    if samples < 2:
        raise ValueError("need at least the two endpoint samples")
    check_rk4_steps(s0.n, dt, t_end)
    xs, ms = list(s0.positions), list(s0.momenta)
    t0 = s0.time
    rows = [(t0, s0, conserved_floats(s0, wd))]
    t = t0
    for j in range(1, samples):
        target = t0 + t_end * j / (samples - 1)
        whole = floor((target - t) / dt + 1e-9)
        for _ in range(whole):
            xs, ms = _rk4_step(xs, ms, dt)
            t += dt
        if target - t > 1e-9 * dt:
            xs, ms = _rk4_step(xs, ms, target - t)
        t = target
        state = WaveState(t, tuple(xs), tuple(ms))
        try:
            rows.append((t, state, conserved_floats(state)))
        except OverflowError:
            raise FlowOutOfRangeError(f"the wave leaves the float range by "
                                      f"t = {t} at dt = {dt}") from None
    return Trajectory(tuple(rows))


def wave_state(s: CubicString) -> WaveState:
    """The t = 0 wave of a valid string s in doubles; FlowOutOfRangeError
    naming the first mass or position past the double range, mass that
    rounds to 0 or gap that rounds away."""
    doubles = []
    for name, values in (("mass", s.masses), ("position", positions(s))):
        for k, x in enumerate(values, 1):
            try:
                doubles.append(float(x))
            except OverflowError:
                raise FlowOutOfRangeError(
                    f"{name} {k} is past the double range") from None
    ms, xs = doubles[:s.n], doubles[s.n:]
    if 0.0 in ms:
        raise FlowOutOfRangeError(f"mass {ms.index(0.0) + 1} rounds to 0 "
                                  f"as a double")
    for k, (a, b) in enumerate(zip(xs, xs[1:]), 1):
        if a == b:
            raise FlowOutOfRangeError(
                f"gap {k} rounds to 0 as a double: positions {k} and "
                f"{k + 1} are both {a}")
    return WaveState(0.0, tuple(xs), tuple(ms))


# -- the exact spectral route ----------------------------------------------

def rationalize(state: WaveState) -> CubicString:
    """Promote a float state to the exact rational string it denotes."""
    xs = [Fraction(x) for x in state.positions]
    return CubicString(tuple(Fraction(m) for m in state.momenta),
                       tuple(b - a for a, b in zip(xs, xs[1:])),
                       xs[-1])


def spectral_snapshot(s: CubicString, wd: WeylData | None = None,
                      ) -> tuple[WeylData, Fraction]:
    """The flow's t = 0 data: the boundary triple of s, wd when given,
    and its first moment M+, both exact."""
    first = sum((m * x for m, x in zip(s.masses, positions(s))), Fraction(0))
    return wd or forward.boundary_data(s), first


def flow_state(s: CubicString, total_mass: Fraction,
               sigma: Fraction) -> CubicString:
    """The string the flow carries s to once the residues of W have
    scaled by sigma, anchored at zero (module docstring): each partial
    mass P_j goes to M P_j tau / (Q_j + P_j tau), tau = sigma^2, and
    each gap l_j to l_j (Q_j + P_j tau) / (M sigma)."""
    tau, scale = sigma * sigma, total_mass * sigma
    partial, partials, gaps = Fraction(0), [Fraction(0)], []
    for m, gap in zip(s.masses, s.gaps):
        partial += m
        spread = total_mass + partial * (tau - 1)  # Q_j + P_j tau
        partials.append(total_mass * partial * tau / spread)
        gaps.append(gap * spread / scale)
    partials.append(total_mass)
    return CubicString(tuple(b - a for a, b in zip(partials, partials[1:])),
                       tuple(gaps))


def _exp_mt(total_mass: Fraction, t: float, digits: int) -> Decimal:
    """e^(M t) to `digits` significant decimal digits: M t rounded to
    them, then its exp, each correctly rounded."""
    x = total_mass * Fraction(t)
    with localcontext() as ctx:
        ctx.prec, ctx.rounding = digits, ROUND_HALF_EVEN
        try:
            return (Decimal(x.numerator) / Decimal(x.denominator)).exp()
        except Overflow:
            raise FlowOutOfRangeError(
                f"e^(M t) overflows at M = {total_mass}, t = {t}") from None


def scale_factor(total_mass: Fraction, t: float):
    """The rationals sigma ~ e^(M t) the flow is evaluated at, each with a
    rational r >= |ln sigma - M t|: sigma at FLOW_START_DIGITS decimal
    digits, then at twice the digits, up to FLOW_MAX_DIGITS.

    Both roundings in _exp_mt are within half a unit in the last digit,
    a relative 10^(1-d)/2, so r = (|M t| + 1) 10^(1-d) bounds the two
    together.  At t = 0 there is one factor, exactly 1, with r = 0.
    """
    x = total_mass * Fraction(t)
    if x == 0:
        yield Fraction(1), Fraction(0)
        return
    digits = FLOW_START_DIGITS
    while True:
        yield (Fraction(_exp_mt(total_mass, t, digits)),
               Fraction(ceil(abs(x)) + 1, 10 ** (digits - 1)))
        if digits >= FLOW_MAX_DIGITS:
            return
        digits = min(2 * digits, FLOW_MAX_DIGITS)


def scale_bits(total_mass: Fraction, t: float) -> int:
    """Bit length of the integer part of e^(M t), the size the factor
    adds to the triple, read off its decimal exponent without building
    the number; FlowOutOfRangeError wherever scale_factor overflows."""
    return ceil((_exp_mt(total_mass, t, 8).adjusted() + 1) * log2(10))


def last_scale(s: CubicString, total_mass: Fraction) -> Fraction:
    """The tau = sigma^2 from which the last mass of s rounds to 0.0 on
    the flow, so the wave has left the float range: m_n goes to
    M m_n / (m_n + (M - m_n) tau), at most 2^-1075 once
    tau >= m_n (M 2^1075 - 1) / (M - m_n).  For n >= 2."""
    m = s.masses[-1]
    return m * (total_mass * 2 ** 1075 - 1) / (total_mass - m)


def _rounds_to_one_double(value: Fraction, below: Fraction,
                          above: Fraction) -> bool:
    """Whether every real in the open interval (value - below,
    value + above) rounds to float(value).

    The rounding boundaries lie halfway to the neighbouring doubles;
    toward zero from a power of two that is a quarter of its ulp, and
    ulp(f) caps the gap past the largest double.  The test is exact, on
    integers: the remainder value - f is num/den.  An open end may sit
    on a boundary, as no point of the interval does.
    """
    f = float(value)
    fn, fd = f.as_integer_ratio()
    den = value.denominator * fd
    num = value.numerator * fd - fn * value.denominator
    un, ud = min(nextafter(f, inf) - f, ulp(f)).as_integer_ratio()
    dn, dd = min(f - nextafter(f, -inf), ulp(f)).as_integer_ratio()
    bn, bd = below.numerator, below.denominator
    an, ad = above.numerator, above.denominator
    # 2 (below - rem) <= down and 2 (rem + above) <= up
    return (2 * (bn * den - num * bd) * dd <= dn * bd * den
            and 2 * (num * ad + an * den) * ud <= un * ad * den)


def _up(v: float) -> float:
    """The next double above v, so an upper bound on any real that
    rounds to v."""
    return nextafter(v, inf)


def _speed_bounds(s: CubicString, total_mass: Fraction) -> list[float]:
    """Upper bounds on v_k / M, v_k = sum_i m_i |x_k - x_i| the speed of
    peak k, from the masses and gaps in doubles rounded up."""
    ms = [_up(float(m)) for m in s.masses]
    gs = [_up(float(g)) for g in s.gaps]
    sides = []  # v_k summed over the peaks left of k, then right of k
    for order in (slice(None), slice(None, None, -1)):
        acc, weight, out = 0.0, 0.0, [0.0]
        for m, g in zip(ms[order], gs[order]):
            weight = _up(weight + m)
            acc = _up(acc + _up(weight * g))
            out.append(acc)
        sides.append(out[order])
    mass_lo = nextafter(float(total_mass), 0.0)
    return [_up(_up(a + b) / mass_lo) for a, b in zip(*sides)]


def _certified(s: CubicString, total_mass: Fraction, r: Fraction) -> bool:
    """Whether each position and mass of s, the exact state at a time t~
    with |M t~ - M t| <= r, rounds to the one double the state at t does.

    Along the flow |d ln m_k/dt| < 2M, so m_k(t) lies in the open
    m_k(t~) (1 - 2r, 1 + 4r), and below M, as every other mass is
    positive; and dx_k/dt = v_k with |dv_k/dt| <= 3M v_k, so x_k(t) lies
    within v_k(t~) (1 + 6r) r / M of x_k(t~).  Both use e^u < 1 + 2u,
    true for 0 < u <= 5/4, so for r <= 2/5.  The speed, and not the span
    of the wave, bounds a position: a heavy peak is nearly still while
    light ones run off.  The cap M matters when all the mass gathers on
    one peak and M sits on a rounding boundary.  At r = 0, s is the
    state at t.
    """
    if r == 0:
        return True
    if r > Fraction(2, 5):
        return False
    spread = (1 + 6 * r) * r
    for x, w in zip(positions(s), _speed_bounds(s, total_mass)):
        shift = Fraction(w) * spread
        if not _rounds_to_one_double(x, shift, shift):
            return False
    for m in s.masses:
        rm = r * Fraction(_up(float(m)))
        if not (_rounds_to_one_double(m, 2 * rm, 4 * rm)
                or _rounds_to_one_double(m, 2 * rm, total_mass - m)):
            return False
    return True


def _flow_row(s0: CubicString, total_mass: Fraction, first_moment: Fraction,
              t: float, elapsed: float) -> CubicString:
    """The flow state of s0 at the first sigma ~ e^(M elapsed) whose
    every cell provably rounds to the double of the state at time t,
    anchored by the centre of mass c = M+ / M (module docstring).  A
    mass that underflows to zero or a position that overflows is the
    flow leaving the float range.

    Every factor is at least 2^(scale_bits - 5).  The 8-digit e^(M t)
    that scale_bits reads is at least 10^a, a its decimal exponent, and
    its log is within 5e-8 (|M t| + 1) of M t, as is each factor's; so
    log2 sigma >= a log2 10 - 1.5e-7 (|M t| + 1) >= scale_bits - 5
    wherever e^(M t) is in the decimal range, |M t| < 2.4e6.  When that
    bound alone puts sigma at 2^ceil(B / 2) or more, so sigma^2 past
    last_scale < 2^B, B the bits of its numerator less those of its
    denominator plus 1, the first factor would stop the row, and no
    factor is built.
    """
    out_of_range = FlowOutOfRangeError(
        f"the wave leaves the float range at t = {t}")
    center = first_moment / total_mass
    last = last_scale(s0, total_mass)
    half = (last.numerator.bit_length() - last.denominator.bit_length()
            + 2) // 2
    if scale_bits(total_mass, elapsed) - 5 >= half:
        raise out_of_range
    for sigma, r in scale_factor(total_mass, elapsed):
        if sigma * sigma >= last:  # the last mass is 0.0
            break
        bare = flow_state(s0, total_mass, sigma)
        s = CubicString(bare.masses, bare.gaps,
                        center + sigma * (s0.anchor - center))
        try:
            if min(float(m) for m in s.masses) == 0:
                break
            if _certified(s, total_mass, r):
                return s
        except OverflowError:
            break
    else:
        raise PrecisionExhaustedError(
            f"could not certify the row at t = {t} with {FLOW_MAX_DIGITS} "
            f"digits of e^(M t)")
    raise out_of_range


def evolve_spectral_exact(
        s0: WaveState, times, wd: WeylData | None = None,
) -> tuple[ConservedSet, list[tuple[float, CubicString]]]:
    """Exact-route evolution: the explicit flow state of s0 at each
    time.  Returns the exact conserved set every row shares, M_j read
    off phi_xx of the t = 0 triple (wd when given), and per time the
    exact string at a nearby time whose positions and masses round to
    the doubles of the state then.  One peak does not move: every row
    is s0."""
    base = rationalize(s0)
    wd, first_moment = spectral_snapshot(base, wd)
    total = sum(base.masses, Fraction(0))
    rows = [(float(t), base if base.n == 1 else
             _flow_row(base, total, first_moment, float(t), float(t) - s0.time))
            for t in times]
    return (ConservedSet(total, first_moment,
                         tuple(invariant_masses(wd.phi_xx))), rows)


def evolve_spectral(s0: WaveState, times,
                    wd: WeylData | None = None) -> Trajectory:
    """Spectral-route trajectory from s0, wd its boundary triple when
    given, at the requested times, as floats; every position and mass is
    the correctly rounded double of the flow state, and every row carries
    the one conserved set."""
    exact, rows = evolve_spectral_exact(s0, times, wd)
    c = ConservedSet(float(exact.total_mass), float(exact.first_moment),
                     tuple(float(v) for v in exact.higher))
    return Trajectory(tuple((t, WaveState(t, positions(s), s.masses), c)
                            for t, s in rows))
