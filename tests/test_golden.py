"""CLI output pinned byte for byte against texts under tests/golden/.

Any change to a minor, a solve, a formula or a default that reaches
the output shows here as a diff.
"""

import json
from pathlib import Path

import pytest

from cubicstring.cli import main
from cubicstring.inverse import random_spectral, spectral_to_dict

GOLDEN = Path(__file__).parent / "golden"
N3_STRING = {"masses": ["1", "2", "1"], "gaps": ["1", "1/2"], "anchor": "0"}


def _write_json(path, doc):
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    return str(path)


def _expect(name):
    return (GOLDEN / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("n,seed", [(4, 3), (7, 5)])
def test_invert_report_golden(tmp_path, capsys, n, seed):
    p = _write_json(tmp_path / "sd.json",
                    spectral_to_dict(random_spectral(n, seed)))
    assert main(["invert", p, "--report-determinants"]) == 0
    assert capsys.readouterr().out == _expect(f"invert_n{n}_seed{seed}.json")


@pytest.mark.parametrize("n", [9, 14])
def test_invert_plain_golden(tmp_path, capsys, n):
    p = _write_json(tmp_path / "sd.json",
                    spectral_to_dict(random_spectral(n, n)))
    assert main(["invert", p]) == 0
    assert capsys.readouterr().out == _expect(f"invert_plain_n{n}_seed{n}.json")


def test_verify_heine_golden(capsys):
    assert main(["verify", "--suite", "heine", "--support", "3",
                 "--k-max", "3", "--seed", "1"]) == 0
    assert capsys.readouterr().out == _expect("verify_heine.json")


def test_evolve_spectral_golden(tmp_path, capsys):
    p = _write_json(tmp_path / "n3.json", N3_STRING)
    assert main(["evolve", p, "--method", "spectral", "--t-end", "0.5",
                 "--samples", "3"]) == 0
    assert capsys.readouterr().out == _expect("evolve_spectral_n3.csv")


def test_evolve_rk4_golden(tmp_path, capsys):
    # every M_j of every row is the correctly rounded exact value for
    # the row's doubles
    p = _write_json(tmp_path / "n3.json", N3_STRING)
    assert main(["evolve", p, "--method", "rk4", "--dt", "0.01", "--t-end",
                 "0.5", "--samples", "3"]) == 0
    assert capsys.readouterr().out == _expect("evolve_rk4_n3.csv")
