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

  * evolve_spectral: the exact route.  The initial state is promoted to
    an exact rational string, and its boundary triple is computed once.
    Along the flow phi_xx stays, W = phi_x/phi_xx scales by
    sigma = e^{Mt}, and Z = phi/phi_xx has its residues c_k scaled by
    sigma^2 and keeps its atom -1/(2M) at zero.  So the triple at time t,

        (sigma^2 phi + (sigma^2 - 1)/(2M) phi_xx/z,  sigma phi_x,  phi_xx),

    is peeled (inverse.peel) into the string at t.  No eigenvalue is
    isolated, and the only approximation is the rational sigma.  Every
    row shares phi_xx, so the chain invariants M_j are constant by
    construction, not by accuracy.

The peel fixes the string only up to translation.  The missing scalar
is pinned by the first moment M+ = sum m_k x_k: differentiating
along the flow makes the m-dot and x-dot contributions cancel exactly,
so M+ is conserved, and the anchor at time t is the unique value making
sum m_k(t) x_k(t) equal to its initial value.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, Overflow, localcontext
from fractions import Fraction
from math import ceil, floor, log2

from . import forward
from .errors import (
    EmptyStringError,
    FlowOutOfRangeError,
    NonPositiveMassError,
    OrderingViolatedError,
)
from .forward import (
    DEFAULT_PRECISION_BITS,
    WeylData,
    eigenvalue_polynomial,
    invariant_masses,
    residues,  # unused here; perfbench/tracing.py wraps burgers.residues
    resolve_precision_bits,
    spectrum,  # unused here; perfbench/tracing.py wraps burgers.spectrum
)
from .inverse import peel, recover  # recover: perfbench/tracing.py wraps it
from .string_model import ConservedSet, CubicString, positions

# about 40 s of RK4 at three peaks; past it the run is refused, not started
MAX_RK4_STEPS = 10 ** 6


@dataclass(frozen=True)
class WaveState:
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


@dataclass(frozen=True)
class Trajectory:
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


def conserved_floats(state: WaveState) -> ConservedSet:
    """M and M_plus as float sums; each M_j is the correctly rounded
    value of the exact chain invariant of the state's rational string."""
    xs, ms = state.positions, state.momenta
    phi_xx = forward.boundary_data(rationalize(state)).phi_xx
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


def integrate_rk4(s0: WaveState, dt: float, t_end: float,
                  samples: int = 11) -> Trajectory:
    """Fixed-step RK4 from s0.time over a window of length t_end.

    Records `samples` evenly spaced rows including both endpoints; the
    step lands exactly on each sample time (the last step into a sample
    is shortened when dt does not divide the interval).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    if samples < 2:
        raise ValueError("need at least the two endpoint samples")
    if t_end / dt > MAX_RK4_STEPS:
        raise ValueError(f"t_end / dt asks for {t_end / dt:.3g} RK4 steps, "
                         f"over the cap of {MAX_RK4_STEPS}")
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
        state = WaveState(t, tuple(xs), tuple(ms))
        rows.append((t, state, conserved_floats(state)))
    return Trajectory(tuple(rows))


# -- the exact spectral route ----------------------------------------------

def rationalize(state: WaveState) -> CubicString:
    """Promote a float state to the exact rational string it denotes."""
    xs = [Fraction(x) for x in state.positions]
    return CubicString(tuple(Fraction(m) for m in state.momenta),
                       tuple(b - a for a, b in zip(xs, xs[1:])),
                       xs[-1])


def spectral_snapshot(s: CubicString) -> tuple[WeylData, Fraction]:
    """The flow's t = 0 data: the boundary triple of s and its first
    moment M+, both exact."""
    first = sum((m * x for m, x in zip(s.masses, positions(s))), Fraction(0))
    return forward.boundary_data(s), first


def flow_triple(wd: WeylData, total_mass: Fraction, sigma: Fraction) -> tuple:
    """The boundary triple once the flow has scaled the residues of W by
    sigma: (sigma^2 phi + (sigma^2 - 1)/(2M) phi_xx/z, sigma phi_x, phi_xx)."""
    s2 = sigma * sigma
    shift = (s2 - 1) / (2 * total_mass)
    return (wd.phi * s2 + eigenvalue_polynomial(wd) * shift,
            wd.phi_x * sigma, wd.phi_xx)


def _exp_mt(total_mass: Fraction, t: float, digits: int) -> Decimal:
    """e^(M t) to `digits` significant decimal digits."""
    x = total_mass * Fraction(t)
    with localcontext() as ctx:
        ctx.prec = digits
        try:
            return (Decimal(x.numerator) / Decimal(x.denominator)).exp()
        except Overflow:
            raise FlowOutOfRangeError(
                f"e^(M t) overflows at M = {total_mass}, t = {t}") from None


def scale_factor(total_mass: Fraction, t: float,
                 precision_bits: int) -> Fraction:
    """Rational approximation of e^(M t) at the working precision."""
    return Fraction(_exp_mt(total_mass, t,
                            max(30, int(precision_bits * 0.302) + 10)))


def scale_bits(total_mass: Fraction, t: float) -> int:
    """Bit length of the integer part of e^(M t), the size the factor
    adds to the triple, read off its decimal exponent without building
    the number; FlowOutOfRangeError wherever scale_factor overflows."""
    return ceil((_exp_mt(total_mass, t, 8).adjusted() + 1) * log2(10))


def evolve_spectral_exact(
        s0: WaveState, times, precision_bits: int = DEFAULT_PRECISION_BITS,
) -> tuple[ConservedSet, list[tuple[float, CubicString]]]:
    """Exact-route evolution: the t = 0 triple scaled to each time and
    peeled.  Returns the exact conserved set every row shares, M_j read
    off the t = 0 phi_xx, and the strings with the M+-pinned anchor.
    One peak has no residue to scale, so there sigma stays 1."""
    resolve_precision_bits(precision_bits)
    base = rationalize(s0)
    wd, first_moment = spectral_snapshot(base)
    total = sum(base.masses, Fraction(0))
    rows = []
    for t in times:
        sigma = (1 if base.n == 1 else
                 scale_factor(total, float(t) - s0.time, precision_bits))
        bare = peel(flow_triple(wd, total, sigma))
        # anchor a solving sum m_k (offset_k + a) = M+(0)
        offs = positions(bare)  # anchored at zero: these are x_k - x_n
        hang = sum((m * o for m, o in zip(bare.masses, offs)), Fraction(0))
        anchor = (first_moment - hang) / total
        rows.append((float(t), CubicString(bare.masses, bare.gaps, anchor)))
    return (ConservedSet(total, first_moment,
                         tuple(invariant_masses(wd.phi_xx))), rows)


def _float_state(t: float, s: CubicString) -> WaveState:
    """The float wave of an exact string; a mass that underflows to zero
    or a position that overflows is the flow leaving the float range."""
    try:
        return WaveState(t, positions(s), s.masses)
    except (NonPositiveMassError, OverflowError):
        raise FlowOutOfRangeError(
            f"the wave leaves the float range at t = {t}") from None


def evolve_spectral(s0: WaveState, times,
                    precision_bits: int = DEFAULT_PRECISION_BITS) -> Trajectory:
    """Spectral-route trajectory at the requested times, as floats; every
    row carries the one conserved set."""
    exact, rows = evolve_spectral_exact(s0, times, precision_bits)
    c = ConservedSet(float(exact.total_mass), float(exact.first_moment),
                     tuple(float(v) for v in exact.higher))
    return Trajectory(tuple((t, _float_state(t, s), c) for t, s in rows))
