"""Shows that every output check rejects a slightly perturbed output.

    python3 perfbench/selftest.py

Runs the smallest rung of each workload once (seed 0), confirms that the
true outputs pass their checks, then changes one value at a time by a
small relative amount and confirms that the rung's check now fails.
Exits 1 if any true output fails or any perturbed output passes.
"""

from __future__ import annotations

import json
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import workloads
from checks import format_rational, parse_rational
from run import OUT, load_cli, run_cli


def bump_decimal(text: str, rel: str) -> str:
    with localcontext() as ctx:
        ctx.prec = len(text) + 20
        return str(Decimal(text) * (1 + Decimal(rel)))


def bump_rational(text: str, rel: Fraction) -> str:
    return format_rational(parse_rational(text) * (1 + rel))


def edit_json(fn):
    def edit(text):
        doc = json.loads(text)
        fn(doc)
        return json.dumps(doc, indent=2) + "\n"
    return edit


def edit_csv(row: int, col: int, rel: float):
    def edit(text):
        lines = text.splitlines()
        cells = lines[row].split(",")
        cells[col] = format(float(cells[col]) * (1 + rel), ".17g")
        lines[row] = ",".join(cells)
        return "\n".join(lines) + "\n"
    return edit


TINY = Fraction(1, 10 ** 12)


def _shift_masses(doc):
    doc["masses"][0] = bump_rational(doc["masses"][0], TINY)
    first = parse_rational(doc["masses"][0])
    # keep the total mass, so only the transfer product can notice
    doc["masses"][-1] = format_rational(
        parse_rational(doc["masses"][-1]) - first * TINY / (1 + TINY))


PERTURBATIONS = {
    "forward-ladder": [
        (0, "decimal lambda_1 by 1e-60",
         edit_json(lambda d: d["lambdas"].__setitem__(
             0, bump_decimal(d["lambdas"][0], "1e-60")))),
        (0, "decimal b_last by 1e-60",
         edit_json(lambda d: d["residues_b"].__setitem__(
             -1, bump_decimal(d["residues_b"][-1], "1e-60")))),
        (1, "exact lambda_1 by 1e-12",
         edit_json(lambda d: d["lambdas"].__setitem__(
             0, bump_rational(d["lambdas"][0], TINY)))),
        (1, "exact b_1 by 1e-12",
         edit_json(lambda d: d["residues_b"].__setitem__(
             0, bump_rational(d["residues_b"][0], TINY)))),
    ],
    "inverse-ladder": [
        (0, "invert: mass moved between the ends, M kept",
         edit_json(_shift_masses)),
        (0, "invert gap_1 by 1e-12",
         edit_json(lambda d: d["gaps"].__setitem__(
             0, bump_rational(d["gaps"][0], TINY)))),
        (1, "report string gap_last by 1e-12",
         edit_json(lambda d: d["string"]["gaps"].__setitem__(
             -1, bump_rational(d["string"]["gaps"][-1], TINY)))),
        (1, "report step 0 mass by 1e-12",
         edit_json(lambda d: d["steps"][0].__setitem__(
             "mass", bump_rational(d["steps"][0]["mass"], TINY)))),
        (2, "roundtrip message", lambda text: "exact roundtrip OK.\n"),
    ],
    "evolve-flow": [
        (0, "spectral x_1, last row, by 1e-9", edit_csv(-1, 1, 1e-9)),
        (0, "spectral M_2, row 2, by 1e-11", edit_csv(2, -2, 1e-11)),
        (1, "rk4 m_last, last row, by 1e-6", edit_csv(-1, 6, 1e-6)),
        (1, "rk4 x_2, row 1, by 1e-7", edit_csv(1, 2, 1e-7)),
    ],
}


def main() -> int:
    cli = load_cli()
    bad = 0
    for workload, perturbations in PERTURBATIONS.items():
        rung = workloads.build(workload, 0, OUT / "inputs" /
                               f"{workload}-selftest")[0]
        outs = []
        for argv in rung.calls:
            rc, text = run_cli(cli, argv)
            if rc:
                print(f"{workload}: {' '.join(argv)} exited {rc}")
                return 1
            outs.append(text)
        errors = rung.check(outs)
        print(f"{workload} n={rung.n}: true outputs "
              f"{'FAIL ' + str(errors) if errors else 'pass'}")
        bad += bool(errors)
        for index, what, edit in perturbations:
            changed = list(outs)
            changed[index] = edit(outs[index])
            if changed[index] == outs[index]:
                raise RuntimeError(f"perturbation left the output as is: {what}")
            errors = rung.check(changed)
            verdict = f"rejected ({errors[0]})" if errors else "ACCEPTED"
            print(f"  {what}: {verdict}")
            bad += not errors
    print("self-test", "failed" if bad else "passed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
