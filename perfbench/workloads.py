"""The three workloads: inputs made from the seed, and the CLI calls and
output checks of every rung.

A rung is the workload's set of CLI calls at one size n.  Each rung
starts from base data that depends on n alone, and the seed shuffles it:
the masses and the gaps of a string, or the residues over a fixed set of
eigenvalues.  Every seed thus gives other inputs with the same operand
sizes, so the cost of a rung barely moves with the seed.  Shuffles use
random.Random seeded with a string of the workload name, the seed and n,
so the same seed gives the same files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from pathlib import Path
from random import Random
from typing import Callable

from checks import (
    boundary_polys,
    check_evolve,
    check_forward_decimal,
    check_forward_exact,
    check_invert,
    check_report,
    check_roundtrip,
    format_rational,
    reference_flow,
)

LADDERS = {
    "forward-ladder": (3, 5, 8),
    "inverse-ladder": (4, 9, 14),
    "evolve-flow": (3, 4, 5),
}
# passes of the smallest rung in each round: its passes are short, so it
# gets more of them to take the median over
SMALL_REPEATS = 5
EVOLVE_SAMPLES = 5
RK4_DT = "0.001"


@dataclass(frozen=True)
class Rung:
    n: int
    calls: tuple[tuple[str, ...], ...]  # argv of each CLI call
    check: Callable[[list[str]], list[str]]  # outputs -> failure messages


def _string_doc(masses, gaps) -> dict:
    return {"masses": [format_rational(m) for m in masses],
            "gaps": [format_rational(g) for g in gaps],
            "anchor": "0"}


def _write(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return str(path)


def _has_no_rational_root(q: list) -> bool:
    """Sufficient test: q scaled to integers has no root modulo some small
    prime that does not divide its leading coefficient."""
    scale = lcm(*(c.denominator for c in q))
    ints = [int(c * scale) for c in q]
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        if ints[-1] % p == 0:
            continue
        if all(sum(c * pow(x, j, p) for j, c in enumerate(ints)) % p
               for x in range(p)):
            return True
    return False


def _shuffled(rng: Random, values) -> list:
    out = list(values)
    rng.shuffle(out)
    return out


def _base_string(workload: str, n: int, masses, gaps) -> tuple[list, list]:
    """Masses and gaps drawn once per workload and n, by the given rules."""
    rng = Random(f"{workload}/base/{n}")
    return ([masses(rng) for _ in range(n)], [gaps(rng) for _ in range(n - 1)])


def _base_spectral(n: int):
    """random_spectral data for n masses from a seed fixed by n."""
    from cubicstring.inverse import random_spectral

    return random_spectral(n, n)


def _shuffled_spectral(rng: Random, sd):
    """The same eigenvalues and mass, with the residues shuffled."""
    return type(sd)(sd.eigenvalues, _shuffled(rng, sd.residues),
                    sd.total_mass)


def _forward_rung(n: int, seed: int, folder: Path) -> Rung:
    from cubicstring.inverse import recover

    rng = Random(f"forward-ladder/{seed}/{n}")
    base_m, base_g = _base_string(
        "forward-ladder", n,
        lambda r: Fraction(r.randint(1, 9), r.randint(1, 4)),
        lambda r: Fraction(r.randint(1, 9), r.randint(1, 4)))
    for _ in range(1000):  # reshuffle until no eigenvalue can be rational
        masses, gaps = _shuffled(rng, base_m), _shuffled(rng, base_g)
        if _has_no_rational_root(boundary_polys(masses, gaps)[2][1:]):
            break
    else:
        raise RuntimeError(f"no shuffle of the n={n} base string is "
                           "certified irrational")
    irr = _write(folder / f"irrational-n{n}.json", _string_doc(masses, gaps))
    sd = _shuffled_spectral(rng, _base_spectral(n))
    built = recover(sd)
    rat = _write(folder / f"rational-n{n}.json",
                 _string_doc(built.masses, built.gaps))

    def check(outs):
        return (check_forward_decimal(outs[0], masses, gaps)
                + check_forward_exact(outs[1], sd.eigenvalues, sd.residues,
                                      sd.total_mass))

    return Rung(n, (("forward", irr), ("forward", rat)), check)


def _inverse_rung(n: int, seed: int, folder: Path) -> Rung:
    base = _base_spectral(n)
    sd = _shuffled_spectral(Random(f"inverse-ladder/{seed}/{n}"), base)
    path = _write(folder / f"spectral-n{n}.json",
                  {"lambdas": [format_rational(x) for x in sd.eigenvalues],
                   "residues_b": [format_rational(x) for x in sd.residues],
                   "total_mass": format_rational(sd.total_mass)})

    def check(outs):
        return (check_invert(outs[0], sd.eigenvalues, sd.residues,
                             sd.total_mass)
                + check_report(outs[1], outs[0])
                + check_roundtrip(outs[2]))

    # roundtrip draws random_spectral(n, seed) itself: it gets the base
    return Rung(n, (("invert", path),
                    ("invert", path, "--report-determinants"),
                    ("roundtrip", "--n", str(n), "--seed", str(n))),
                check)


def _evolve_rung(n: int, seed: int, folder: Path) -> Rung:
    rng = Random(f"evolve-flow/{seed}/{n}")
    # quarters are exact in binary, so the CLI's float state is the string
    base_m, base_g = _base_string(
        "evolve-flow", n,
        lambda r: Fraction(r.randint(1, 8), 4),
        lambda r: Fraction(r.randint(2, 8), 4))
    masses, gaps = _shuffled(rng, base_m), _shuffled(rng, base_g)
    path = _write(folder / f"wave-n{n}.json", _string_doc(masses, gaps))
    xs = [Fraction(0)]
    for g in reversed(gaps):
        xs.insert(0, xs[0] - g)
    t_end = float(1 / sum(masses))  # M t_end = 1: residues scale by e
    common = ("--t-end", repr(t_end), "--samples", str(EVOLVE_SAMPLES))

    def check(outs):
        ref = reference_flow([float(x) for x in xs],
                             [float(m) for m in masses], t_end, EVOLVE_SAMPLES)
        return (check_evolve(outs[0], masses, xs, t_end, EVOLVE_SAMPLES,
                             "spectral", ref)
                + check_evolve(outs[1], masses, xs, t_end, EVOLVE_SAMPLES,
                               "rk4", ref))

    return Rung(n, (("evolve", path, "--method", "spectral", *common),
                    ("evolve", path, "--method", "rk4", "--dt", RK4_DT,
                     *common)),
                check)


_RUNG_MAKERS = {
    "forward-ladder": _forward_rung,
    "inverse-ladder": _inverse_rung,
    "evolve-flow": _evolve_rung,
}


def build(workload: str, seed: int, folder: Path) -> list[Rung]:
    """Write the workload's inputs under folder; rungs smallest first."""
    folder.mkdir(parents=True, exist_ok=True)
    return [_RUNG_MAKERS[workload](n, seed, folder) for n in LADDERS[workload]]
