"""Isospectral evolution of peaked waves u(x,t) = sum m_k(t) |x - x_k(t)|.

The motion of the peaks is the ODE system

    dx_k/dt = sum_i m_i |x_k - x_i|
    dm_k/dt = 2 m_k sum_i m_i sgn(i - k)

where sgn(i - k) stands in for sgn(x_i - x_k): with positive momenta the
ordering never breaks, so the two agree, and the index form has no
discontinuity at near-collisions.  Two integrators are provided:

  * integrate_rk4: classical fixed-step fourth-order integration of the
    ODEs in double precision.  Each chain invariant M_j is the correctly
    rounded exact value for the rational string the float state denotes,
    summed on the integers of its doubles (invariant_masses) and
    divided once.

  * evolve_spectral: the exact route, the flow's explicit solution.
    Along the flow the residues of W = phi_x/phi_xx scale by
    sigma = e^{Mt} and phi_xx stays.  With P_j = m_1 + ... + m_j and
    Q_j = M - P_j, the equations above give dP_j/dt = 2 P_j Q_j and
    dl_j/dt = (P_j - Q_j) l_j, and d/dt ln(Q_j + P_j tau) = 2 P_j(t)
    for tau = sigma^2, so from the t = 0 values

        P_j(t) = M P_j tau / (Q_j + P_j tau),
        l_j(t) = l_j (Q_j + P_j tau) / (M sigma).

    A row is these O(n) operations (flow_state) on the integers of the
    t = 0 wave's doubles, read once, and the one conserved set is that
    wave's (spectral_snapshot), all unreduced integer pairs: each double
    printed is one integer division, and no eigenvalue is isolated, no
    triple peeled and no rational string built.  The peel of the t = 0
    triple with its residues scaled by sigma gives the same string.

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
from itertools import accumulate
from math import ceil, floor, inf, isfinite, log2, nextafter, ulp
from operator import mul, sub

from .errors import (
    EmptyStringError,
    FlowOutOfRangeError,
    NonPositiveMassError,
    OrderingViolatedError,
    PrecisionExhaustedError,
)
from .exact.rational import over_common_denominator
from .forward import (
    MAX_PRECISION_BITS,
    decimal_digits,
    residues,  # unused here; perfbench/tracing.py wraps burgers.residues
    spectrum,  # unused here; perfbench/tracing.py wraps burgers.spectrum
)
from .inverse import recover  # unused here; perfbench/tracing.py wraps it
from .record import Record
from .string_model import (
    ConservedSet,
    CubicString,
    invariant_masses,
    positions,
)

# about 12 s of RK4 at three peaks; past it the run is refused, not started
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
        if not all(map(isfinite, self.positions + self.momenta)):
            raise FlowOutOfRangeError("a position or momentum is not finite")
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
    """dx_k = sum_i m_i |x_k - x_i| and dm_k = 2 m_k (sum_{i>k} m_i -
    sum_{i<k} m_i), each sum added left to right from 0.0, in one pass
    over the peaks.  The pass checks the order as it goes, so x_k - x_i
    (i < k) and x_i - x_k (i > k) are |x_k - x_i| to the bit.  The term
    m_k |x_k - x_k| is kept: it makes dx_k nan for a peak at inf."""
    dx, dm = [], []
    n = len(xs)
    left = 0.0
    for k in range(n):
        x = xs[k]
        if k and x <= xs[k - 1]:
            raise OrderingViolatedError(
                f"peaks out of order: {xs[k - 1]} !< {x}")
        total = 0.0
        for i in range(k):
            total += ms[i] * (x - xs[i])
        m = ms[k]
        total += m * abs(x - x)
        right = 0.0
        for i in range(k + 1, n):
            total += ms[i] * (xs[i] - x)
            right += ms[i]
        dx.append(total)
        dm.append(2 * m * (right - left))
        left += m
    return dx, dm


def _chain_doubles(invariants) -> tuple[float, ...]:
    """Each M_j of invariant_masses as the double nearest it, one integer
    division; FlowOutOfRangeError naming the first past the double
    range."""
    out = []
    for j, (num, den) in enumerate(invariants, 1):
        try:
            out.append(num / den)
        except OverflowError:
            raise FlowOutOfRangeError(
                f"M_{j} is past the double range") from None
    return tuple(out)


def conserved_floats(state: WaveState) -> ConservedSet:
    """M and M_plus as float sums added left to right; each M_j is the
    correctly rounded exact chain invariant of the state's rational
    string."""
    total = first = 0.0
    for m, x in zip(state.momenta, state.positions):
        total += m
        first += m * x
    return ConservedSet(total, first, _chain_doubles(
        invariant_masses(state.momenta, state.positions)))


def _stage(xs, ms, c, kx, km):
    """The right-hand side at xs + c kx, ms + c km, both built in one loop."""
    ys, ns = [], []
    for x, m, dx, dm in zip(xs, ms, kx, km):
        ys.append(x + c * dx)
        ns.append(m + c * dm)
    return _rhs_arrays(ys, ns)


def _rk4_step(xs, ms, h):
    half = h / 2
    kx1, km1 = _rhs_arrays(xs, ms)
    kx2, km2 = _stage(xs, ms, half, kx1, km1)
    kx3, km3 = _stage(xs, ms, half, kx2, km2)
    kx4, km4 = _stage(xs, ms, h, kx3, km3)
    sixth = h / 6
    ys, ns = [], []
    for x, m, a1, b1, a2, b2, a3, b3, a4, b4 in zip(
            xs, ms, kx1, km1, kx2, km2, kx3, km3, kx4, km4):
        ys.append(x + sixth * (a1 + 2 * a2 + 2 * a3 + a4))
        ns.append(m + sixth * (b1 + 2 * b2 + 2 * b3 + b4))
    return ys, ns


def check_rk4_steps(n: int, dt: float, t_end: float, samples: int) -> None:
    """A ValueError when t_end / dt steps and a short one a row, each
    counted max(1, n^2/9) times on n peaks, are over MAX_RK4_STEPS."""
    weight = max(1, n ** 2 / 9)
    steps = t_end / dt + samples - 1
    if steps * weight > MAX_RK4_STEPS:
        peaks = (f" on {n} peaks, each counted {weight:.3g} times,"
                 if weight > 1 else ",")
        raise ValueError(f"t_end / dt and {samples} rows ask for {steps:.3g}"
                         f" RK4 steps{peaks} over the cap of {MAX_RK4_STEPS}")


def integrate_rk4(s0: WaveState, dt: float, t_end: float,
                  samples: int = 11) -> Trajectory:
    """Fixed-step RK4 from s0.time over a window of length t_end.

    Records `samples` evenly spaced rows including both endpoints; the
    step lands exactly on each sample time (the last step into a sample
    is shortened when dt does not divide the interval).  A later row
    that is not finite, or whose M_j pass the double range, is the wave
    leaving the float range; an M_j of s0 past it names itself.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    if samples < 2:
        raise ValueError("need at least the two endpoint samples")
    check_rk4_steps(s0.n, dt, t_end, samples)
    xs, ms = list(s0.positions), list(s0.momenta)
    t0 = s0.time
    rows = [(t0, s0, conserved_floats(s0))]
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
        try:
            state = WaveState(t, tuple(xs), tuple(ms))
            rows.append((t, state, conserved_floats(state)))
        except FlowOutOfRangeError:
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


def _integer_wave(masses, xs) -> tuple[list[int], int, list[int], int]:
    """(ms, dm, ps, dx): the masses as integers over their common
    denominator dm and the positions xs over theirs, dx; of rationals,
    or of doubles, whose dm and dx are powers of two."""
    return (*over_common_denominator(masses), *over_common_denominator(xs))


def spectral_snapshot(state: WaveState) -> tuple:
    """The flow's conserved set at t = 0, exact and unreduced: M, the
    first moment M+ and the list of chain invariants M_1..M_n of the
    wave (invariant_masses), each an integer pair (num, den)."""
    ms, dm, ps, dx = _integer_wave(state.momenta, state.positions)
    return ((sum(ms), dm), (sum(map(mul, ms, ps)), dm * dx),
            invariant_masses(state.momenta, state.positions))


def _flow_cells(partials: list[int], dm: int, gaps: list[int],
                S: int, T: int) -> tuple[list[tuple[int, int]], list[int]]:
    """The flow state at sigma = S/T on integers (module docstring).

    With the P_j numerators over dm, Q_j + P_j tau = E_j / (dm T^2) for
    E_j = (P_n - P_j) T^2 + P_j S^2.  Mass j, the difference of two
    partial masses, is then (P_n S T)^2 (P_j - P_(j-1)) over
    dm E_(j-1) E_j, and gap j, g_j over dx, is g_j E_j over dx T P_n S.
    Returns the mass pairs and the gap numerators; nothing is reduced.
    """
    pn = partials[-1]
    s2, t2 = S * S, T * T
    es = [(pn - p) * t2 + p * s2 for p in partials]
    lift = (pn * S * T) ** 2
    masses = [(lift * (b - a), dm * e * f)
              for a, b, e, f in zip(partials, partials[1:], es, es[1:])]
    return masses, [g * e for g, e in zip(gaps, es[1:])]


def flow_state(s: CubicString, sigma: Fraction) -> CubicString:
    """The string the flow carries s to once the residues of W have
    scaled by sigma, anchored at zero (module docstring): each partial
    mass P_j goes to M P_j tau / (Q_j + P_j tau), tau = sigma^2, and
    each gap l_j to l_j (Q_j + P_j tau) / (M sigma)."""
    ms, dm, ps, dx = _integer_wave(s.masses, positions(s))
    partials = list(accumulate(ms, initial=0))
    S, T = sigma.numerator, sigma.denominator
    masses, gaps = _flow_cells(partials, dm,
                               [b - a for a, b in zip(ps, ps[1:])], S, T)
    den = dx * T * partials[-1] * S
    return CubicString(tuple(Fraction(*m) for m in masses),
                       tuple(Fraction(g, den) for g in gaps))


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


def last_scale(ms: list[int], dm: int) -> tuple[int, int]:
    """The tau = sigma^2 from which the last of the masses ms / dm
    rounds to 0.0 on the flow, as an integer pair: m_n goes to
    M m_n / (m_n + (M - m_n) tau), at most 2^-1075 once
    tau >= m_n (M 2^1075 - 1) / (M - m_n).  For n >= 2."""
    total, m = sum(ms), ms[-1]
    return m * ((total << 1075) - dm), dm * (total - m)


def _rounds_to_one_double(num: int, den: int, below: tuple[int, int],
                          above: tuple[int, int]) -> bool:
    """Whether every real in the open interval (value - below,
    value + above) rounds to the double of value = num/den, den > 0,
    below and above given as (numerator, denominator) pairs.

    The rounding boundaries lie halfway to the neighbouring doubles;
    toward zero from a power of two that is a quarter of its ulp, and
    ulp(f) caps the gap past the largest double.  The test is exact, on
    integers: the remainder value - f is rem/d.  An open end may sit on
    a boundary, as no point of the interval does.
    """
    f = num / den
    fn, fd = f.as_integer_ratio()
    d = den * fd
    rem = num * fd - fn * den
    un, ud = min(nextafter(f, inf) - f, ulp(f)).as_integer_ratio()
    dn, dd = min(f - nextafter(f, -inf), ulp(f)).as_integer_ratio()
    bn, bd = below
    an, ad = above
    # 2 (below - rem) <= down and 2 (rem + above) <= up
    return (2 * (bn * d - rem * bd) * dd <= dn * bd * d
            and 2 * (rem * ad + an * d) * ud <= un * ad * d)


def _up(v: float) -> float:
    """The next double above v, so an upper bound on any real that
    rounds to v."""
    return nextafter(v, inf)


def _speed_bounds(masses: list[tuple[int, int]], xs: list[int],
                  den: int, total: tuple[int, int]) -> list[float]:
    """Upper bounds on v_k / M, v_k = sum_i m_i |x_k - x_i| the speed of
    peak k, from the masses and gaps in doubles rounded up; the masses
    and M as integer pairs, the positions over den."""
    ms = [_up(num / d) for num, d in masses]
    gs = [_up((b - a) / den) for a, b in zip(xs, xs[1:])]
    sides = []  # v_k summed over the peaks left of k, then right of k
    for order in (slice(None), slice(None, None, -1)):
        acc, weight, out = 0.0, 0.0, [0.0]
        for m, g in zip(ms[order], gs[order]):
            weight = _up(weight + m)
            acc = _up(acc + _up(weight * g))
            out.append(acc)
        sides.append(out[order])
    mass_lo = nextafter(total[0] / total[1], 0.0)
    return [_up(_up(a + b) / mass_lo) for a, b in zip(*sides)]


def _certified(xs: list[int], den: int, masses: list[tuple[int, int]],
               total: tuple[int, int], r: tuple[int, int]) -> bool:
    """Whether each position and mass, the exact state at a time t~
    with |M t~ - M t| <= r, rounds to the one double the state at t
    does.  The positions are numerators over den, and the masses, M and
    r integer pairs.

    Along the flow |d ln m_k/dt| < 2M, so m_k(t) lies in the open
    m_k(t~) (1 - 2r, 1 + 4r), and below M, as every other mass is
    positive; and dx_k/dt = v_k with |dv_k/dt| <= 3M v_k, so x_k(t) lies
    within v_k(t~) (1 + 6r) r / M of x_k(t~).  Both use e^u < 1 + 2u,
    true for 0 < u <= 5/4, so for r <= 2/5.  The speed, and not the span
    of the wave, bounds a position: a heavy peak is nearly still while
    light ones run off.  The cap M matters when all the mass gathers on
    one peak and M sits on a rounding boundary.  At r = 0 the state is
    the state at t.
    """
    rn, rd = r
    if rn == 0:
        return True
    if 5 * rn > 2 * rd:
        return False
    spread_n, spread_d = (rd + 6 * rn) * rn, rd * rd  # (1 + 6r) r
    for x, w in zip(xs, _speed_bounds(masses, xs, den, total)):
        wn, wd = w.as_integer_ratio()
        shift = (wn * spread_n, wd * spread_d)
        if not _rounds_to_one_double(x, den, shift, shift):
            return False
    pn, dm = total
    for num, d in masses:
        un, ud = _up(num / d).as_integer_ratio()
        below = (2 * rn * un, rd * ud)  # 2 r m rounded up
        if not (_rounds_to_one_double(num, d, below, (4 * rn * un, rd * ud))
                or _rounds_to_one_double(num, d, below,
                                         (pn * d - num * dm, dm * d))):
            return False
    return True


def _flow_rows(state: WaveState, times):
    """Per time t, lazily, (t, masses, xs, den): the flow state of the
    wave at the first sigma ~ e^(M (t - t0)) whose every cell provably
    rounds to the double of the state at time t (module docstring), the
    masses integer pairs and the positions over den.  A mass that
    underflows to zero or a position that overflows is the flow leaving
    the float range.  One peak does not move.

    Every factor is at least 2^(scale_bits - 5).  The 8-digit e^(M t)
    that scale_bits reads is at least 10^a, a its decimal exponent, and
    its log is within 5e-8 (|M t| + 1) of M t, as is each factor's; so
    log2 sigma >= a log2 10 - 1.5e-7 (|M t| + 1) >= scale_bits - 5
    wherever e^(M t) is in the decimal range, |M t| < 2.4e6.  When that
    bound alone puts sigma at 2^ceil(B / 2) or more, so sigma^2 past
    last_scale < 2^B, B the bits of its numerator less those of its
    denominator plus 1, the first factor would stop the row, and no
    factor is built.

    The positions share the gaps' denominator dx T P_n S: with
    M+ = F / (dm dx), c = M+ / M = F / (P_n dx), and
    x_n(t) = c + sigma (x_n - c) is (F T + S (p_n P_n - F)) S over it.
    """
    ms, dm, ps, dx = _integer_wave(state.momenta, state.positions)
    partials = list(accumulate(ms, initial=0))
    pn, gaps = partials[-1], [b - a for a, b in zip(ps, ps[1:])]
    total_mass = Fraction(pn, dm)
    moment = sum(map(mul, ms, ps))
    moved, g_scale = ps[-1] * pn - moment, dx * pn
    ln, ld = last_scale(ms, dm)
    half = (ln.bit_length() - ld.bit_length() + 2) // 2

    def row(t: float, elapsed: float) -> tuple:
        if len(ms) == 1:
            return [(ms[0], dm)], ps, dx
        out_of_range = FlowOutOfRangeError(
            f"the wave leaves the float range at t = {t}")
        if scale_bits(total_mass, elapsed) - 5 >= half:
            raise out_of_range
        for sigma, r in scale_factor(total_mass, elapsed):
            S, T = sigma.numerator, sigma.denominator
            if S * S * ld >= ln * T * T:  # the last mass is 0.0
                break
            masses, gap_nums = _flow_cells(partials, dm, gaps, S, T)
            den = g_scale * T * S
            # x_n(t), then leftward by the gaps
            xs = list(accumulate(reversed(gap_nums), sub,
                                 initial=(moment * T + S * moved) * S))[::-1]
            try:
                if any(num / d == 0 for num, d in masses):
                    break
                if _certified(xs, den, masses, (pn, dm),
                              (r.numerator, r.denominator)):
                    return masses, xs, den
            except OverflowError:
                break
        else:
            raise PrecisionExhaustedError(
                f"could not certify the row at t = {t} with "
                f"{FLOW_MAX_DIGITS} digits of e^(M t)")
        raise out_of_range

    for t in map(float, times):
        yield (t, *row(t, t - state.time))


def evolve_spectral_exact(
        s0: WaveState, times,
) -> tuple[ConservedSet, list[tuple[float, CubicString]]]:
    """Exact-route evolution: the explicit flow state of s0 at each
    time.  Returns the exact conserved set every row shares, that of
    s0, and per time the exact string at a nearby time whose positions
    and masses round to the doubles of the state then."""
    total, first, higher = spectral_snapshot(s0)
    conserved = ConservedSet(Fraction(*total), Fraction(*first),
                             tuple(Fraction(*v) for v in higher))
    return conserved, [
        (t, CubicString(tuple(Fraction(*m) for m in masses),
                        tuple(Fraction(b - a, den)
                              for a, b in zip(xs, xs[1:])),
                        Fraction(xs[-1], den)))
        for t, masses, xs, den in _flow_rows(s0, times)]


def _wave_row(t: float, masses: list[tuple[int, int]], xs: list[int],
              den: int) -> WaveState:
    """A certified row in doubles; two peaks on one double leave it."""
    doubles = [x / den for x in xs]
    for k, (a, b) in enumerate(zip(doubles, doubles[1:]), 1):
        if a == b:
            raise FlowOutOfRangeError(
                f"the wave leaves the float range at t = {t}: peaks {k} "
                f"and {k + 1} both round to {a}")
    return WaveState(t, tuple(doubles),
                     tuple(num / d for num, d in masses))


def evolve_spectral(s0: WaveState, times) -> Trajectory:
    """Spectral-route trajectory from s0 at the requested times, as
    floats; every position and mass is the correctly rounded double of
    the flow state, and every row carries the one conserved set.  An
    M_j past the double range names itself before any row is made."""
    (mn, md), (fn, fd), invariants = spectral_snapshot(s0)
    higher = _chain_doubles(invariants)
    c = ConservedSet(mn / md, fn / fd, higher)
    return Trajectory(tuple((t, _wave_row(t, *cells), c)
                            for t, *cells in _flow_rows(s0, times)))
