"""Command-line front door.

Subcommands wire the library to files:

    forward IN.json   string -> spectral data (exact when possible)
    invert IN.json    spectral data -> string, optional determinant audit
    roundtrip         random data -> recover -> certify, all exact
    evolve IN.json    peaked-wave trajectory as CSV, rk4 or spectral route
    verify            brute-force identity suite as a JSON report

Exit codes: 0 success (all checks pass), 1 validation, identity or
range failure, 2 unreadable input or malformed data.  All randomness
derives from --seed, so a rerun with the same flags is byte-identical.  The
environment variable CUBICSTRING_PRECISION_BITS overrides the default
isolation precision of 256 bits wherever --precision-bits is not given.

Exact rationals travel as strings ("-3/4"); JSON never carries floats.
When a spectrum is irrational the forward subcommand switches the
lambdas and residues to decimal strings and records the precision in a
"precision_bits" field; such files are refused by invert, which needs
exact input.  CSV trajectories are the one float surface, printed with
17 significant digits so a double roundtrips losslessly.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

from .burgers import Trajectory, WaveState, evolve_spectral, integrate_rk4
from .errors import CubicStringError
from .exact import format_rational
from .forward import residues, resolve_precision_bits, spectrum
from .heine import random_measure, run_checks
from .inverse import (
    SpectralData,
    random_spectral,
    recover,
    recover_detailed,
    spectral_from_dict,
    spectral_to_dict,
    verify_exact_roundtrip,
)
from .string_model import (
    positions,
    string_from_dict,
    string_to_dict,
    validate,
)


# verify refuses runs that would enumerate more ordered tuples of support
# points than this: support^(2 k_max) for the split sums, support^support
# for the Cauchy form
VERIFY_TUPLE_CAP = 10 ** 6

# and any --k-max above this: from two points on the tuple cap already
# refuses it, and one point, one tuple at every k, still grows the pair
# table and its minors with k_max
VERIFY_K_MAX = 10

# evolve refuses more rows than this: at three peaks a row costs about
# 2.5 ms on the spectral route and 0.4 ms on rk4, so the cap is about
# 25 s of work, the scale of the RK4 step cap
EVOLVE_SAMPLE_CAP = 10 ** 4


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


def _approx(v) -> Fraction:
    """Representative rational of an enclosure (or the exact value)."""
    if isinstance(v, Fraction):
        return v
    return v.midpoint


def _decimal_str(q: Fraction, digits: int) -> str:
    with localcontext() as ctx:
        ctx.prec = digits
        return str(Decimal(q.numerator) / Decimal(q.denominator))


def _run_forward(ns: argparse.Namespace) -> int:
    s = string_from_dict(_read_json(ns.input))
    validate(s)
    bits = resolve_precision_bits(ns.precision_bits)
    wd = residues(spectrum(s, width=Fraction(1, 2 ** bits)), bits)
    total = sum(s.masses, Fraction(0))
    if wd.all_exact and all(isinstance(b, Fraction) for b in wd.w_residues):
        doc = spectral_to_dict(SpectralData(
            tuple(e.exact for e in wd.eigenvalues), wd.w_residues, total))
    else:
        # decimal mode: every lambda and residue as a plain decimal, the
        # working precision recorded; the mass stays exact either way
        digits = max(1, int(bits * 0.30103))
        doc = {
            "lambdas": [_decimal_str(_approx(e), digits)
                        for e in wd.eigenvalues],
            "residues_b": [_decimal_str(_approx(b), digits)
                           for b in wd.w_residues],
            "total_mass": format_rational(total),
            "precision_bits": bits,
        }
    _emit_json(doc, ns.output)
    return 0


def _run_invert(ns: argparse.Namespace) -> int:
    doc = _read_json(ns.input)
    if isinstance(doc, dict) and "precision_bits" in doc:
        raise ValueError("inversion needs exact rational spectral data; "
                         "this file carries decimal approximations")
    sd = spectral_from_dict(doc)
    if ns.report_determinants:
        out = recover_detailed(sd).to_dict()
    else:
        out = string_to_dict(recover(sd))
    _emit_json(out, ns.output)
    return 0


def _run_roundtrip(ns: argparse.Namespace) -> int:
    if ns.n < 1:
        raise ValueError(f"--n must be at least 1, got {ns.n}")
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
    bits = resolve_precision_bits(ns.precision_bits)
    state = WaveState(0.0,
                      tuple(float(x) for x in positions(s)),
                      tuple(float(m) for m in s.masses))
    if ns.method == "rk4":
        if ns.dt is None or ns.dt <= 0:
            raise ValueError("--method rk4 needs a positive --dt")
        traj = integrate_rk4(state, ns.dt, ns.t_end, ns.samples)
    else:
        times = [i * ns.t_end / (ns.samples - 1)
                 for i in range(ns.samples)]
        traj = evolve_spectral(state, times, bits)
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
    if ns.suite != "heine":
        raise ValueError(f"unknown suite: {ns.suite}")
    if ns.support < 1 or ns.k_max < 1:
        raise ValueError(f"--support and --k-max must be at least 1, "
                         f"got {ns.support} and {ns.k_max}")
    # support 8 or k_max 10 alone passes the cap from two points on, so
    # clamping there keeps the powers small; one point counts as one, as
    # the split sums skip every tuple that repeats it before listing halves
    support, k_max = min(ns.support, 8), min(ns.k_max, VERIFY_K_MAX)
    if max(support ** (2 * k_max), support ** support) > VERIFY_TUPLE_CAP:
        raise ValueError(f"--support {ns.support} --k-max {ns.k_max} is over "
                         f"the cap of {VERIFY_TUPLE_CAP} enumerated tuples")
    if ns.k_max > VERIFY_K_MAX:
        raise ValueError(f"--k-max {ns.k_max} is over the cap of "
                         f"{VERIFY_K_MAX}")
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubicstring",
        description="Exact forward and inverse spectral maps of the "
                    "discrete cubic string, with isospectral wave "
                    "evolution and brute-force identity checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("forward", help="string JSON -> spectral JSON")
    p.add_argument("input", help="string JSON file")
    p.add_argument("-o", "--output", help="output file (default: stdout)")
    p.add_argument("--precision-bits", type=int, dest="precision_bits",
                   help="eigenvalue isolation precision "
                        "(default: CUBICSTRING_PRECISION_BITS or 256)")

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
    p.add_argument("--precision-bits", type=int, dest="precision_bits",
                   help="spectral-route working precision")
    p.add_argument("-o", "--output", help="output file (default: stdout)")

    p = sub.add_parser("verify", help="brute-force identity suite")
    p.add_argument("--suite", choices=("heine",), required=True)
    p.add_argument("--support", type=int, default=3,
                   help="support points of the random measure")
    p.add_argument("--k-max", type=int, default=3, dest="k_max")
    p.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    return run(ns)


if __name__ == "__main__":
    raise SystemExit(main())
