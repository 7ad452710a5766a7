"""Command-line front door.

Subcommands wire the library to files:

    forward IN.json   string -> spectral data (exact when possible)
    invert IN.json    spectral data -> string, optional determinant audit
    roundtrip         random data -> recover -> certify, all exact
    evolve IN.json    peaked-wave trajectory as CSV, rk4 or spectral route
    verify            brute-force identity suite as a JSON report

Exit codes: 0 success (all checks pass), 1 validation or identity
failure, 2 unreadable input or malformed data.  All randomness derives
from --seed, so a rerun with the same flags is byte-identical.  The
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
import os
import sys
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction

from .burgers import Trajectory, WaveState, evolve_spectral, integrate_rk4
from .errors import CubicStringError
from .exact import format_rational
from .forward import DEFAULT_PRECISION_BITS, residues, spectrum
from .heine import random_measure, run_checks
from .inverse import (
    SpectralData,
    random_spectral,
    recover_detailed,
    spectral_from_dict,
    spectral_to_dict,
    verify_exact_roundtrip,
)
from .string_model import load_string, positions, string_to_dict, validate


@dataclass(frozen=True)
class RunConfig:
    command: str
    input_path: str | None = None
    output_path: str | None = None
    seed: int = 0
    n: int = 1
    precision_bits: int | None = None  # None: environment, then 256
    suite: str = "heine"
    method: str = "rk4"
    dt: float | None = None
    t_end: float = 1.0
    samples: int = 11
    k_max: int = 3
    support: int = 3
    report_determinants: bool = False


def _effective_bits(cfg: RunConfig) -> int:
    if cfg.precision_bits is not None:
        bits = cfg.precision_bits
    else:
        bits = int(os.environ.get("CUBICSTRING_PRECISION_BITS",
                                  DEFAULT_PRECISION_BITS))
    if bits < 1:
        raise ValueError(f"precision bits must be a positive integer, got {bits}")
    return bits


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


def _run_forward(cfg: RunConfig) -> int:
    s = load_string(cfg.input_path)
    validate(s)
    bits = _effective_bits(cfg)
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
    _emit_json(doc, cfg.output_path)
    return 0


def _run_invert(cfg: RunConfig) -> int:
    with open(cfg.input_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if "precision_bits" in doc:
        raise ValueError("inversion needs exact rational spectral data; "
                         "this file carries decimal approximations")
    sd = spectral_from_dict(doc)
    report = recover_detailed(sd)
    if cfg.report_determinants:
        out = report.to_dict()
    else:
        out = string_to_dict(report.string)
    _emit_json(out, cfg.output_path)
    return 0


def _run_roundtrip(cfg: RunConfig) -> int:
    if cfg.n < 1:
        raise ValueError(f"--n must be at least 1, got {cfg.n}")
    sd = random_spectral(cfg.n, cfg.seed)
    verify_exact_roundtrip(sd)
    print("exact roundtrip OK")
    return 0


def _run_evolve(cfg: RunConfig) -> int:
    s = load_string(cfg.input_path)
    validate(s)
    if cfg.t_end <= 0:
        raise ValueError("--t-end must be positive")
    if cfg.samples < 2:
        raise ValueError("--samples must be at least 2")
    bits = _effective_bits(cfg)
    state = WaveState(0.0,
                      tuple(float(x) for x in positions(s)),
                      tuple(float(m) for m in s.masses))
    if cfg.method == "rk4":
        if cfg.dt is None or cfg.dt <= 0:
            raise ValueError("--method rk4 needs a positive --dt")
        traj = integrate_rk4(state, cfg.dt, cfg.t_end, cfg.samples)
    else:
        times = [i * cfg.t_end / (cfg.samples - 1)
                 for i in range(cfg.samples)]
        traj = evolve_spectral(state, times, bits)
    _emit(_csv_text(traj), cfg.output_path)
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


def _run_verify(cfg: RunConfig) -> int:
    if cfg.suite != "heine":
        raise ValueError(f"unknown suite: {cfg.suite}")
    mu = random_measure(cfg.support, cfg.seed)
    report = run_checks(mu, cfg.k_max)
    _emit_json(report.to_dict(), cfg.output_path)
    return 0 if report.all_pass else 1


_HANDLERS = {
    "forward": _run_forward,
    "invert": _run_invert,
    "roundtrip": _run_roundtrip,
    "evolve": _run_evolve,
    "verify": _run_verify,
}


def run(cfg: RunConfig) -> int:
    try:
        return _HANDLERS[cfg.command](cfg)
    except CubicStringError as exc:
        print(f"error: {exc}", file=sys.stderr)
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


def config_from_args(ns: argparse.Namespace) -> RunConfig:
    return RunConfig(
        command=ns.command,
        input_path=getattr(ns, "input", None),
        output_path=getattr(ns, "output", None),
        seed=getattr(ns, "seed", 0),
        n=getattr(ns, "n", 1),
        precision_bits=getattr(ns, "precision_bits", None),
        suite=getattr(ns, "suite", "heine"),
        method=getattr(ns, "method", "rk4"),
        dt=getattr(ns, "dt", None),
        t_end=getattr(ns, "t_end", 1.0),
        samples=getattr(ns, "samples", 11),
        k_max=getattr(ns, "k_max", 3),
        support=getattr(ns, "support", 3),
        report_determinants=getattr(ns, "report_determinants", False),
    )


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    return run(config_from_args(ns))


if __name__ == "__main__":
    raise SystemExit(main())
