"""Command-line front door.

Subcommands wire the library to files:

    forward IN.json   string -> spectral data (exact when possible)
    invert IN.json    spectral data -> string, optional determinant audit
    roundtrip         random data -> recover -> certify, all exact
    evolve IN.json    peaked-wave trajectory as CSV, rk4 or spectral route
    verify            brute-force identity suite as a JSON report

Exit codes: 0 success (all checks pass), 1 validation, identity or
range failure, 2 unreadable input or malformed data.  All randomness
derives from --seed, so a rerun with the same flags is byte-identical.

Exact rationals travel as strings ("-3/4"); JSON never carries floats.
When a spectrum is irrational the forward subcommand switches the
lambdas and residues to decimal strings and records the precision in a
"precision_bits" field; such files are refused by invert, which needs
exact input.  CSV trajectories are the one float surface, printed with
17 significant digits so a double roundtrips losslessly; on the
spectral route each is the correctly rounded value of the flow.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction

from .burgers import (
    Trajectory,
    check_rk4_steps,
    evolve_spectral,
    integrate_rk4,
    scale_bits,
    wave_state,
)
from .errors import CubicStringError
from .exact import format_rational
from .exact.rational import content_free, over_common_denominator
from .forward import (
    DEFAULT_PRECISION_BITS,
    WeylData,
    decimal_digits,
    decimal_string,
    eigenvalue_polynomial,
    partial_triples,
    residues,
    resolve_precision_bits,
    spectrum,
)
from .heine import random_measure, run_checks, summand_count
from .inverse import (
    random_spectral,
    recover,
    recover_detailed,
    spectral_from_dict,
    verify_exact_roundtrip,
)
from .string_model import (
    string_from_dict,
    string_to_dict,
    validate,
)


# verify refuses runs that would sum more terms than this (counted by
# heine.summand_count); support 28 at k_max 1, 23,143 terms, the largest
# count it admits, and support 8 at k_max 10, 13,637, each take 0.9 to
# 1.5 s on a shared 2-vCPU VM
VERIFY_SUMMAND_CAP = 24 * 10 ** 3

# and any --k-max above this: one point keeps the count at 6 for every
# k_max, but the pair table and its minors still grow with k_max
VERIFY_K_MAX = 10

# evolve refuses more rows than this: at three peaks a row costs about
# 0.1 ms on the spectral route, the flow on the wave's integers, and
# 0.08 ms on rk4 at --dt 0.01, a step and the M_j of its doubles, so the
# cap is a few seconds of work, below the RK4 step cap
EVOLVE_SAMPLE_CAP = 10 ** 4

# evolve, forward and invert refuse runs estimated at over this many
# seconds, before the work (README): timed runs took 0.64 to 1.56 times
# the estimate for the crossing (35), 0.68 to 1.35 for the chain
# invariants (24), 0.66 to 1.56 for spectral evolve (38), 0.66 to 1.47
# for forward (48) and 0.73 to 1.34 for invert (40)
WORK_CAP = 30

# roundtrip refuses more masses than this: n = 48 took 4.1 s, n = 52
# 6.4 s and n = 56 10.2 s on a shared 2-vCPU VM, so the cap is about 5 s
# of work
ROUNDTRIP_N_CAP = 50


def _spectral_seconds(n: int, rows: int, chain: float) -> float:
    """Estimated seconds of an evolve --method spectral run on a shared
    2-vCPU VM (README, "evolve"): the chain seconds of the t = 0 wave's
    M_j, and 1.8e-5 (n + 2) a row, the flow's explicit solution on n
    peaks."""
    return chain + 1.8e-5 * rows * (n + 2)


def _chain_seconds(n: int, operand_bits: int) -> float:
    """Estimated seconds of the chain invariants of a wave of n peaks
    (string_model.invariant_masses) whose masses and gaps, over the
    common denominators of the masses and of the positions, carry
    S = operand_bits bits, the gaps counted twice, on a shared 2-vCPU
    VM (README, "evolve"): n^2/2 steps of the recurrence, each a few
    products on integers that grow to about S bits,
    n^2 (1.5e-7 + 9e-11 S)."""
    return n * n * (1.5e-7 + 9e-11 * operand_bits)


def _wave_bits(masses, xs) -> int:
    """The S of _chain_seconds for masses at the positions xs."""
    ms, _ = over_common_denominator(masses)
    ps, _ = over_common_denominator(xs)
    return (sum(m.bit_length() for m in ms)
            + 2 * sum((b - a).bit_length() for a, b in zip(ps, ps[1:])))


def _forward_seconds(n: int, q_bits: int, bits: int) -> float:
    """Estimated seconds of a forward run past its boundary data on a
    shared 2-vCPU VM (README, "forward"): the Sturm chain of the integer
    q = phi_xx/z of Q = q_bits bits, 4.3e-12 d^4.5 Q^1.8, then the
    refinement and the residues' integer Horner on the boxes of the
    d = n - 1 eigenvalues, whose values carry W = Q + d max(bits, 64)
    bits, 7.1e-9 d W^1.5, and the gcds and rounding of the quotient
    ends, 4.2e-14 d^3 W^2.  With q_bits = 0 it is a lower bound."""
    d, q, w = n - 1, q_bits, q_bits + (n - 1) * max(bits, 64)
    return 4.3e-12 * d ** 4.5 * q ** 1.8 + 7.1e-9 * d * w ** 1.5 \
        + 4.2e-14 * d ** 3 * w ** 2


def _crossing_seconds(k: int, triple_bits: int, step_bits: int) -> float:
    """Estimated seconds of the crossing step that makes the triple of
    the first k masses (README, "forward") from one whose largest
    numerator and its denominator take T = triple_bits bits, across a
    gap and a mass of O = step_bits bits: k numerators of T bits read,
    multiplied by O-bit scalars and written, and a gcd of T-bit
    integers, 1.75e-6 k + 6.1e-10 k T + 1.34e-12 k T O + 1.74e-12 T^2."""
    t, o = triple_bits, step_bits
    return k * (1.75e-6 + 6.1e-10 * t + 1.34e-12 * t * o) + 1.74e-12 * t * t


def _invert_seconds(n: int, operand_bits: int, lcm_bits: int) -> float:
    """Estimated seconds of invert on spectral data for n masses whose
    eigenvalues, residues and total mass carry S = operand_bits bits,
    and the lcm of their denominators L = lcm_bits, on a shared 2-vCPU
    VM (README, "invert"): the boundary triple and its peel,
    3.2e-12 n^4 (S + 3 L)^1.8.  Data whose denominators share factors
    has a small L and peels faster than random ratios of its size."""
    return 3.2e-12 * n ** 4 * (operand_bits + 3 * lcm_bits) ** 1.8


def _audit_seconds(n: int, operand_bits: int, lcm_bits: int) -> float:
    """Estimated seconds --report-determinants adds to invert on the same
    data (README, "invert"): the pair table of order n - 1 and its one
    bordered elimination, 2.3e-14 n^6.25 (S + 8 L)^1.9."""
    return 2.3e-14 * n ** 6.25 * (operand_bits + 8 * lcm_bits) ** 1.9


def _bits(x: Fraction) -> int:
    return x.numerator.bit_length() + x.denominator.bit_length()


def _priced_boundary_data(s, estimate, over) -> tuple[WeylData, float]:
    """The boundary data of s and the estimated seconds of its crossing;
    `over` once estimate(the price so far) passes WORK_CAP.  Each step is
    priced from the triple built so far before it is made, so a string
    that cancels, as recovered ones do, is priced by what it carries."""
    built = 0.0
    for k, triple in enumerate(partial_triples(s), 1):
        if k < s.n:  # T: a largest numerator plus its denominator
            t = max(max((c.bit_length() for c in p.numerators), default=0)
                    + p.denominator.bit_length() for p in triple)
            built += _crossing_seconds(
                k + 1, t, _bits(s.gaps[k - 1]) + _bits(s.masses[k]))
        if estimate(built) > WORK_CAP:
            raise over
    return WeylData(*triple), built


def _read_json(path: str):
    """The JSON document in a file; one nested past the parser's
    recursion limit is bad input, like any other unreadable file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_json(doc: dict, path: str | None) -> None:
    _emit(json.dumps(doc, indent=2) + "\n", path)


def _run_forward(ns: argparse.Namespace) -> int:
    s = string_from_dict(_read_json(ns.input))
    validate(s)
    bits = resolve_precision_bits(ns.precision_bits)
    operand_bits = sum(_bits(x) for x in s.masses + s.gaps)
    over = ValueError(f"forward on {s.n} masses of {operand_bits} operand "
                      f"bits at {bits} bits is over the work cap")
    # isolation with Q = 0 while the data is built, then on q = phi_xx/z
    wd, built = _priced_boundary_data(
        s, lambda b: b + _forward_seconds(s.n, 0, bits), over)
    q = content_free(eigenvalue_polynomial(wd).numerators)
    if built + _forward_seconds(s.n, max(abs(c).bit_length() for c in q),
                                bits) > WORK_CAP:
        raise over
    wd = residues(spectrum(wd, bits), bits)
    # exact when every eigenvalue is (and so every residue); else every
    # lambda and residue correctly rounded, as both ends of its interval
    # round alike, and the working precision recorded
    exact = all(e.width == 0 for e in wd.eigenvalues)
    digits = decimal_digits(bits)
    show = format_rational if exact else (
        lambda x: decimal_string(x, digits))
    doc = {"lambdas": [show(e.lo) for e in wd.eigenvalues],
           "residues_b": [show(b.lo) for b in wd.w_residues],
           "total_mass": format_rational(sum(s.masses, Fraction(0)))}
    if not exact:
        doc["precision_bits"] = bits
    _emit_json(doc, ns.output)
    return 0


def _run_invert(ns: argparse.Namespace) -> int:
    doc = _read_json(ns.input)
    if isinstance(doc, dict) and "precision_bits" in doc:
        raise ValueError("inversion needs exact rational spectral data; "
                         "this file carries decimal approximations")
    sd = spectral_from_dict(doc)
    values = (*sd.eigenvalues, *sd.residues, sd.total_mass)
    operand_bits = sum(_bits(x) for x in values)

    def seconds(lcm_bits: int) -> float:
        return _invert_seconds(sd.n, operand_bits, lcm_bits) + (
            _audit_seconds(sd.n, operand_bits, lcm_bits)
            if ns.report_determinants else 0)

    # the bound with L = 0 first, so no lcm of a large input is taken
    if (seconds(0) > WORK_CAP or seconds(
            math.lcm(*(x.denominator for x in values)).bit_length())
            > WORK_CAP):
        raise ValueError(f"invert on {sd.n - 1} eigenvalues of {operand_bits} "
                         f"operand bits is over the work cap")
    if ns.report_determinants:
        out = recover_detailed(sd).to_dict()
    else:
        out = string_to_dict(recover(sd))
    _emit_json(out, ns.output)
    return 0


def _run_roundtrip(ns: argparse.Namespace) -> int:
    if ns.n < 1:
        raise ValueError(f"--n must be at least 1, got {ns.n}")
    if ns.n > ROUNDTRIP_N_CAP:
        raise ValueError(f"--n {ns.n} is over the cap of {ROUNDTRIP_N_CAP}")
    sd = random_spectral(ns.n, ns.seed)
    verify_exact_roundtrip(sd)
    print("exact roundtrip OK")
    return 0


def _run_evolve(ns: argparse.Namespace) -> int:
    s = string_from_dict(_read_json(ns.input))
    validate(s)
    for flag, value in (("--t-end", ns.t_end), ("--dt", ns.dt)):
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{flag} must be a finite number, got {value}")
    if ns.t_end <= 0:
        raise ValueError("--t-end must be positive")
    if ns.samples < 2:
        raise ValueError("--samples must be at least 2")
    if ns.samples > EVOLVE_SAMPLE_CAP:
        raise ValueError(f"--samples {ns.samples} is over the cap of "
                         f"{EVOLVE_SAMPLE_CAP} rows")
    state = wave_state(s)
    over = ValueError(f"--samples {ns.samples} on {s.n} peaks to --t-end "
                      f"{ns.t_end} is over the {ns.method} work cap")
    chain = _chain_seconds(s.n, _wave_bits(state.momenta, state.positions))
    if ns.method == "rk4":
        if ns.dt is None or ns.dt <= 0:
            raise ValueError("--method rk4 needs a positive --dt")
        check_rk4_steps(s.n, ns.dt, ns.t_end, ns.samples)
        if ns.samples * chain > WORK_CAP:  # the M_j of every row
            raise over
        traj = integrate_rk4(state, ns.dt, ns.t_end, ns.samples)
    else:
        # e^(M t_end) is the largest factor: where it overflows, exit 1
        scale_bits(sum(s.masses, Fraction(0)), ns.t_end)
        if _spectral_seconds(s.n, ns.samples, chain) > WORK_CAP:
            raise over
        times = [i * ns.t_end / (ns.samples - 1) for i in range(ns.samples)]
        traj = evolve_spectral(state, times)
    _emit(_csv_text(traj), ns.output)
    return 0


def _csv_text(traj: Trajectory) -> str:
    _, first, _ = traj.samples[0]
    n = first.n
    header = (["t"]
              + [f"x_{i}" for i in range(1, n + 1)]
              + [f"m_{i}" for i in range(1, n + 1)]
              + ["M", "M_plus"]
              + [f"M_{j}" for j in range(1, n + 1)])
    lines = [",".join(header)]
    for t, state, cs in traj.samples:
        vals = [t, *state.positions, *state.momenta,
                cs.total_mass, cs.first_moment, *cs.higher]
        lines.append(",".join(format(v, ".17g") for v in vals))
    return "\n".join(lines) + "\n"


def _run_verify(ns: argparse.Namespace) -> int:
    if ns.support < 1 or ns.k_max < 1:
        raise ValueError(f"--support and --k-max must be at least 1, "
                         f"got {ns.support} and {ns.k_max}")
    # the k_max cap first, so the count never sums a huge range
    if ns.k_max > VERIFY_K_MAX:
        raise ValueError(f"--k-max {ns.k_max} is over the cap of "
                         f"{VERIFY_K_MAX}")
    if summand_count(ns.support, ns.k_max) > VERIFY_SUMMAND_CAP:
        raise ValueError(f"--support {ns.support} --k-max {ns.k_max} is over "
                         f"the cap of {VERIFY_SUMMAND_CAP} summed terms")
    mu = random_measure(ns.support, ns.seed)
    report = run_checks(mu, ns.k_max)
    _emit_json(report.to_dict(), None)
    return 0 if report.all_pass else 1


_HANDLERS = {
    "forward": _run_forward,
    "invert": _run_invert,
    "roundtrip": _run_roundtrip,
    "evolve": _run_evolve,
    "verify": _run_verify,
}


def run(ns: argparse.Namespace) -> int:
    try:
        return _HANDLERS[ns.command](ns)
    except CubicStringError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OverflowError as exc:  # a float state left the double range
        print(f"error: out of float range: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ValueError, so that main prints it as
    one line, like any other bad input, not the usage text."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cubicstring",
        description="Exact forward and inverse spectral maps of the "
                    "discrete cubic string, with isospectral wave "
                    "evolution and brute-force identity checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("forward", help="string JSON -> spectral JSON")
    p.add_argument("input", help="string JSON file")
    p.add_argument("-o", "--output", help="output file (default: stdout)")
    p.add_argument("--precision-bits", type=int, dest="precision_bits",
                   default=DEFAULT_PRECISION_BITS,
                   help="eigenvalue precision in bits (default: %(default)s)")

    p = sub.add_parser("invert", help="spectral JSON -> string JSON")
    p.add_argument("input", help="spectral JSON file, exact rationals only")
    p.add_argument("-o", "--output", help="output file (default: stdout)")
    p.add_argument("--report-determinants", action="store_true",
                   help="emit the determinant audit (all minor families "
                        "and every mass-formula variant) with the string")

    p = sub.add_parser(
        "roundtrip",
        help="random spectral data -> recover -> certify exactly")
    p.add_argument("--n", type=int, required=True, help="number of masses")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("evolve",
                       help="integrate the peaked-wave flow, write CSV")
    p.add_argument("input", help="string JSON file, the t = 0 state")
    p.add_argument("--method", choices=("rk4", "spectral"), required=True)
    p.add_argument("--dt", type=float, help="rk4 step size")
    p.add_argument("--t-end", type=float, required=True, dest="t_end")
    p.add_argument("--samples", type=int, default=11,
                   help="evenly spaced rows, endpoints included")
    p.add_argument("-o", "--output", help="output file (default: stdout)")

    p = sub.add_parser("verify", help="brute-force identity suite")
    p.add_argument("--suite", choices=("heine",), required=True)
    p.add_argument("--support", type=int, default=3,
                   help="support points of the random measure")
    p.add_argument("--k-max", type=int, default=3, dest="k_max")
    p.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    # exact operands outgrow Python's 4,300-digit int <-> str guard (invert
    # of random_spectral(36, 7) prints longer ones); a 10^5-digit
    # conversion takes 0.1 to 0.2 s, and a longer literal is still refused
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(10 ** 5)
    try:
        ns = build_parser().parse_args(argv)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(ns)


if __name__ == "__main__":
    raise SystemExit(main())
