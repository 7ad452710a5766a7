"""Compare the command line of this tree with that of a git revision.

    python tests/cli_identity.py --rev HEAD~1

Extracts `git archive REV src` into a temporary folder, writes one set
of seeded input files, and runs a fixed list of CLI calls, each in a
fresh interpreter, once against this tree's `src` and once against the
revision's.  Every call whose stdout, stderr or exit code differs is
printed, then a count per subcommand.  The exit code is 0 when no call
differs, else 1.

The list covers `forward` at 1, 8, 64 and 256 bits on random strings,
on strings recovered from random spectral data (rational spectra) and
on mixed strings (rational and irrational eigenvalues side by side),
on the mixed strings at 4096 bits, where the residue enclosures carry
their largest operands, at 64 and 256 bits on strings of large
operands (4 masses of 300-digit ratios, 6 of 100-digit ratios), and at
1024 bits on 12 and 16 masses of 1-digit ratios, where the root
refinement runs deepest;
`invert` with and without the determinant audit, on spectra of n = 2
to 32, where the peel's operands reach thousands of bits; `roundtrip`,
up to n = 32;
`evolve` by both routes, on small integers and quarters and on a wave
of 24 random doubles, out of range included, and by the spectral route
on a wave of 100 random doubles and on 400 rows of 5 small ratios;
`verify` up to support 6 at k_max 4, 5 at 5 and 7 at 3, where the split
sums do most of the work; and the error paths of each subcommand.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tarfile
import tempfile
from collections import Counter
from fractions import Fraction
from pathlib import Path
from random import Random

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from cubicstring.exact import format_rational  # noqa: E402
from cubicstring.inverse import (  # noqa: E402
    random_spectral,
    recover,
    spectral_to_dict,
)
from cubicstring.string_model import string_to_dict  # noqa: E402

# strings with a rational eigenvalue beside irrational ones
MIXED = [
    (["1", "1", "2", "1"], ["1/2", "2", "1"]),
    (["3", "2", "4", "2"], ["1", "1", "1/2"]),
    (["2", "4", "2", "1"], ["3", "1", "2"]),
    (["1", "2", "2", "1/2"], ["3", "3/2", "3"]),
    (["3", "3/2", "1", "2", "3"], ["2", "1", "3/2", "1"]),
]


def _random_string(rng: Random, n: int) -> dict:
    return {key: [f"{rng.randint(1, 9)}/{rng.randint(1, 4)}"
                  for _ in range(size)]
            for key, size in (("masses", n), ("gaps", n - 1))}


def ratio_string(rng: Random, n: int, digits: int) -> dict:
    """A string of n masses and n - 1 gaps, each the ratio of two random
    integers of the given digits."""
    def ratio():
        return "/".join(str(rng.randrange(10 ** (digits - 1), 10 ** digits))
                        for _ in range(2))
    return {"masses": [ratio() for _ in range(n)],
            "gaps": [ratio() for _ in range(n - 1)]}


def double_wave(rng: Random, n: int) -> dict:
    """A wave of n peaks whose gaps, uniform in (0.1, 1), and masses,
    uniform in (0.1, 2), are random doubles, each written as the exact
    ratio the double is."""
    gaps = [rng.uniform(0.1, 1) for _ in range(n - 1)]
    masses = [rng.uniform(0.1, 2) for _ in range(n)]
    return {"masses": [format_rational(Fraction(m)) for m in masses],
            "gaps": [format_rational(Fraction(g)) for g in gaps]}


def write_inputs(folder: Path) -> list[list[str]]:
    """Write the input files into folder; return the calls that read
    them, each an argv for the `cubicstring` command."""
    rng = Random(2024)

    def put(name: str, doc) -> str:
        text = doc if isinstance(doc, str) else json.dumps(doc)
        (folder / name).write_text(text + "\n", encoding="utf-8")
        return name

    strings = [put(f"random{n}.json", _random_string(rng, n))
               for n in (2, 3, 5, 8)]
    strings += [put(f"recovered{n}.json",
                    string_to_dict(recover(random_spectral(n, n))))
                for n in (3, 5, 8)]
    mixed = [put(f"mixed{i}.json", {"masses": m, "gaps": g})
             for i, (m, g) in enumerate(MIXED)]
    strings += mixed
    calls = [["forward", s, "--precision-bits", str(bits)]
             for s in strings for bits in (1, 8, 64, 256)]
    calls += [["forward", s] for s in strings[:2]]
    calls += [["forward", s, "--precision-bits", "4096"] for s in mixed]
    large = [put(f"large{n}.json", ratio_string(Random(n), n, digits))
             for n, digits in ((4, 300), (6, 100))]
    calls += [["forward", s, "--precision-bits", str(bits)]
              for s in large for bits in (64, 256)]
    # twelve and sixteen masses at 1,024 bits: long refinements of a
    # large q, where most grid cells are guessed by Newton steps
    deep = [put(f"deep{n}.json", ratio_string(Random(n), n, 1))
            for n in (12, 16)]
    calls += [["forward", s, "--precision-bits", "1024"] for s in deep]

    spectra = [put(f"spectral{n}.json", spectral_to_dict(random_spectral(n, n)))
               for n in (2, 4, 7, 10, 14, 20, 24, 32)]
    calls += [["invert", s, *flag] for s in spectra
              for flag in ([], ["--report-determinants"])]
    calls += [["roundtrip", "--n", str(n), "--seed", str(n)]
              for n in (1, 4, 9, 32)]

    waves = [put("wave3.json", {"masses": ["1", "2", "1"],
                                "gaps": ["1", "1/2"]}),
             put("wave5.json", _random_string(rng, 5)),
             put("cycle6.json", {"masses": ["1", "2", "3"] * 2,
                                 "gaps": ["1"] * 5})]
    for w in waves:
        calls.append(["evolve", w, "--method", "spectral", "--t-end", "1",
                      "--samples", "6"])
        calls.append(["evolve", w, "--method", "rk4", "--dt", "0.01",
                      "--t-end", "1", "--samples", "6"])
    doubles = put("doubles24.json", double_wave(Random(24), 24))
    calls.append(["evolve", doubles, "--method", "spectral", "--t-end", "1",
                  "--samples", "3"])
    calls.append(["evolve", doubles, "--method", "rk4", "--dt", "0.01",
                  "--t-end", "1", "--samples", "3"])
    wide = put("doubles100.json", double_wave(Random(100), 100))
    calls.append(["evolve", wide, "--method", "spectral", "--t-end", "1",
                  "--samples", "3"])
    calls.append(["evolve", waves[1], "--method", "spectral", "--t-end", "1",
                  "--samples", "400"])
    calls.append(["evolve", waves[2], "--method", "spectral", "--t-end", "40",
                  "--samples", "11"])
    calls.append(["evolve", waves[0], "--method", "spectral", "--t-end",
                  "2000", "--samples", "2"])
    calls.append(["evolve", waves[0], "--method", "spectral", "--t-end",
                  "383333", "--samples", "2"])
    calls += [["verify", "--suite", "heine", "--support", str(s),
               "--k-max", str(k), "--seed", str(seed)]
              for s, k, seed in ((1, 2, 3), (3, 3, 6), (4, 2, 6),
                                 (6, 4, 4), (5, 5, 5), (7, 3, 7))]

    decimal = put("decimal.json", {"lambdas": ["2.5"], "residues_b": ["-1"],
                                   "total_mass": "2"})
    bad = put("bad.json", "{not json")
    calls += [
        ["forward", strings[1], "--precision-bits", "0"],
        ["forward", strings[1], "--precision-bits", "-5"],
        ["forward", strings[1], "--precision-bits", "16385"],
        ["forward", "missing.json"],
        ["forward", bad],
        ["invert", decimal],
        ["invert", put("positive.json", {"lambdas": ["2"], "residues_b": ["1"],
                                         "total_mass": "2"})],
        ["roundtrip", "--n", "0"],
        ["evolve", waves[0], "--method", "spectral", "--t-end", "1",
         "--samples", "1"],
        ["evolve", waves[0], "--method", "rk4", "--dt", "1e-9",
         "--t-end", "1"],
        ["verify", "--suite", "heine", "--k-max", "11"],
        ["frobnicate"],
    ]
    return calls


def run(src: Path, argv: list[str], cwd: Path) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one call on the tree at src."""
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); "
         "from cubicstring.cli import main; "
         "raise SystemExit(main(sys.argv[2:]))", str(src), *argv],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return done.returncode, done.stdout, done.stderr


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rev", required=True,
                        help="git revision whose src is compared")
    ns = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(["git", "archive", ns.rev, "src"], cwd=REPO,
                                 capture_output=True, check=True).stdout
        (tmp / "rev.tar").write_bytes(archive)
        with tarfile.open(tmp / "rev.tar") as tar:
            tar.extractall(tmp / "rev")
        inputs = tmp / "inputs"
        inputs.mkdir()
        calls = write_inputs(inputs)
        differ = Counter()
        for argv in calls:
            ours = run(REPO / "src", argv, inputs)
            theirs = run(tmp / "rev" / "src", argv, inputs)
            parts = [name for name, a, b in zip(("exit code", "stdout",
                                                 "stderr"), ours, theirs)
                     if a != b]
            if parts:
                differ[argv[0]] += 1
                print(f"differs ({', '.join(parts)}): cubicstring "
                      + " ".join(argv))
        total = Counter(argv[0] for argv in calls)
        for command in sorted(total):
            print(f"{command}: {differ[command]} of {total[command]} "
                  f"calls differ")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
