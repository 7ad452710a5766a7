"""End-to-end runs of every subcommand through main(argv)."""

import json
import math
import os
import random
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from cli_identity import double_wave, ratio_string, spread_wave
from oracles import decimal_spectrum

from cubicstring import burgers, cli, forward, inverse
from cubicstring.burgers import rationalize, wave_state
from cubicstring.cli import (
    EVOLVE_SAMPLE_CAP,
    ROUNDTRIP_N_CAP,
    WORK_CAP,
    _audit_seconds,
    _chain_seconds,
    _crossing_seconds,
    _forward_seconds,
    _invert_seconds,
    _priced_boundary_data,
    _spectral_seconds,
    _wave_bits,
    main,
)
from cubicstring.forward import (
    MAX_PRECISION_BITS,
    decimal_digits,
)
from cubicstring.inverse import (
    SpectralData,
    random_spectral,
    recover,
    spectral_to_dict,
)
from cubicstring.string_model import (
    CubicString,
    positions,
    string_from_dict,
    string_to_dict,
)

N2_STRING = {"masses": ["1", "1"], "gaps": ["1"], "anchor": "0"}
N3_STRING = {"masses": ["1", "2", "1"], "gaps": ["1", "1/2"], "anchor": "0"}


def write_json(path, doc):
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    return str(path)


def test_forward_worked_example(tmp_path, capsys):
    p = write_json(tmp_path / "n2.json", N2_STRING)
    assert main(["forward", p]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"lambdas": ["2"], "residues_b": ["-1"], "total_mass": "2"}


def test_forward_decimal_mode(tmp_path, capsys):
    p = write_json(tmp_path / "n3.json", N3_STRING)
    assert main(["forward", p, "--precision-bits", "64"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["precision_bits"] == 64
    assert doc["total_mass"] == "4"
    lams = [float(x) for x in doc["lambdas"]]
    res = [float(x) for x in doc["residues_b"]]
    assert abs(lams[0] - 0.9339156193815630) < 1e-12
    assert abs(lams[1] - 8.5660843806184370) < 1e-12
    assert all(b < 0 for b in res)
    # residues of phi_x/phi_xx sum to the slope/curvature leading ratio
    assert abs(sum(res) - (-2.0)) < 1e-12


def test_precision_environment_variable_is_ignored(tmp_path, capsys,
                                                   monkeypatch):
    # precision comes from --precision-bits alone, so a rerun with the
    # same flags prints the same bytes whatever the environment holds,
    # an override named after the flag included
    p = write_json(tmp_path / "n3.json", N3_STRING)
    runs = (["forward", p],
            ["evolve", p, "--method", "spectral", "--t-end", "1",
             "--samples", "3"])
    plain = []
    for argv in runs:
        assert main(argv) == 0
        plain.append(capsys.readouterr().out)
    monkeypatch.setenv("CUBICSTRING_" + "precision_bits".upper(), "32")
    for argv, out in zip(runs, plain):
        assert main(argv) == 0
        assert capsys.readouterr().out == out


# forward output pinned byte for byte: N3_STRING has an irrational
# spectrum (decimal mode), EXACT_N3 the rational spectrum 2, 7/2, and
# MIXED_N4 the exact eigenvalue 2 between two irrational ones (decimal
# mode, with 2 and its residue -26/31 printed from point intervals);
# every decimal is the correctly rounded one of oracles.decimal_spectrum
MIXED_N4 = {"masses": ["1", "1", "2", "1"], "gaps": ["1/2", "2", "1"],
            "anchor": "0"}
EXACT_N3 = {"masses": ["10368/216241", "5010906208/2720528021", "1386/12581"],
            "gaps": ["216241/77616", "12581/6468"], "anchor": "0"}
EXACT_N3_OUT = """{
  "lambdas": [
    "2",
    "7/2"
  ],
  "residues_b": [
    "-8/3",
    "-2"
  ],
  "total_mass": "2"
}
"""
GOLDEN_FORWARD = {
    ("decimal", 64): """{
  "lambdas": [
    "0.9339156193815629937",
    "8.566084380618437006"
  ],
  "residues_b": [
    "-0.4103903961276234668",
    "-1.589609603872376533"
  ],
  "total_mass": "4",
  "precision_bits": 64
}
""",
    ("decimal", 256): """{
  "lambdas": [
    "0.93391561938156299368601282484988010316782663034754336800846371672566273131257",
    "8.5660843806184370063139871751501198968321733696524566319915362832743372686874"
  ],
  "residues_b": [
    "-0.41039039612762346683560713173646216186284016606228137874808881460138994990237",
    "-1.5896096038723765331643928682635378381371598339377186212519111853986100500976"
  ],
  "total_mass": "4",
  "precision_bits": 256
}
""",
    ("exact", 64): EXACT_N3_OUT,
    ("exact", 256): EXACT_N3_OUT,
    ("mixed", 64): """{
  "lambdas": [
    "0.1219145205119675130",
    "2",
    "10.25308547948803249"
  ],
  "residues_b": [
    "-0.1560671343593698383",
    "-0.8387096774193548387",
    "-0.005223188221275322995"
  ],
  "total_mass": "5",
  "precision_bits": 64
}
""",
    ("mixed", 256): """{
  "lambdas": [
    "0.12191452051196751300918830160347164774735288922740723168246246571276471147667",
    "2",
    "10.253085479488032486990811698396528352252647110772592768317537534287235288523"
  ],
  "residues_b": [
    "-0.15606713435936983829500312351532994153394009025708484756622638003505663156273",
    "-0.83870967741935483870967741935483870967741935483870967741935483870967741935484",
    "-0.0052231882212753229953194571298313487886405549042054750144187812552659490824315"
  ],
  "total_mass": "5",
  "precision_bits": 256
}
""",
}


@pytest.mark.parametrize("kind,bits", sorted(GOLDEN_FORWARD))
def test_forward_golden_output(tmp_path, capsys, kind, bits):
    doc = {"decimal": N3_STRING, "exact": EXACT_N3, "mixed": MIXED_N4}[kind]
    p = write_json(tmp_path / "s.json", doc)
    assert main(["forward", p, "--precision-bits", str(bits)]) == 0
    assert capsys.readouterr().out == GOLDEN_FORWARD[kind, bits]


def _assert_correctly_rounded(doc, s):
    """Every decimal of a forward document is the correctly rounded value
    of the reference; returns how many were checked."""
    lams, bs = decimal_spectrum(s, decimal_digits(doc["precision_bits"]))
    assert [Decimal(x) for x in doc["lambdas"]] == lams
    assert [Decimal(x) for x in doc["residues_b"]] == bs
    return len(lams) + len(bs)


@pytest.mark.parametrize("kind,bits", [("decimal", 64), ("decimal", 256),
                                       ("mixed", 64), ("mixed", 256)])
def test_forward_golden_decimals_are_correctly_rounded(kind, bits):
    doc = {"decimal": N3_STRING, "mixed": MIXED_N4}[kind]
    _assert_correctly_rounded(json.loads(GOLDEN_FORWARD[kind, bits]),
                              string_from_dict(doc))


def test_forward_prints_correctly_rounded_decimals(tmp_path, capsys):
    # random strings of 3 to 8 masses at 64 and 256 bits, against
    # Newton's method in decimal at 40 more digits
    rng = random.Random(17)
    checked = 0
    for i in range(16):
        n = rng.randint(3, 8)
        doc = {key: [f"{rng.randint(1, 9)}/{rng.randint(1, 4)}"
                     for _ in range(size)]
               for key, size in (("masses", n), ("gaps", n - 1))}
        p = write_json(tmp_path / f"s{i}.json", doc)
        for bits in (64, 256):
            assert main(["forward", p, "--precision-bits", str(bits)]) == 0
            out = json.loads(capsys.readouterr().out)
            checked += _assert_correctly_rounded(out, string_from_dict(doc))
    assert checked >= 200, checked


def _assert_one_line_error(capsys):
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1


@pytest.mark.parametrize("bits", ["-5", "0"])
def test_non_positive_precision_bits_is_bad_input(tmp_path, capsys, bits):
    p = write_json(tmp_path / "n3.json", N3_STRING)
    assert main(["forward", p, "--precision-bits", bits]) == 2
    _assert_one_line_error(capsys)


def test_precision_bits_over_the_cap_is_bad_input(tmp_path, capsys):
    # refused before any isolation starts
    p = write_json(tmp_path / "n3.json", N3_STRING)
    over = str(MAX_PRECISION_BITS + 1)
    assert main(["forward", p, "--precision-bits", over]) == 2
    _assert_one_line_error(capsys)


def test_forward_byte_identical(tmp_path):
    p = write_json(tmp_path / "n3.json", N3_STRING)
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert main(["forward", p, "-o", a]) == 0
    assert main(["forward", p, "-o", b]) == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_invert_roundtrips_the_forward_output(tmp_path, capsys):
    p = write_json(tmp_path / "n2.json", N2_STRING)
    data = str(tmp_path / "spectral.json")
    assert main(["forward", p, "-o", data]) == 0
    assert main(["invert", data]) == 0
    assert json.loads(capsys.readouterr().out) == N2_STRING


def test_invert_rejects_decimal_data(tmp_path):
    p = write_json(tmp_path / "n3.json", N3_STRING)
    data = str(tmp_path / "spectral.json")
    assert main(["forward", p, "-o", data, "--precision-bits", "64"]) == 0
    assert main(["invert", data]) == 2
    # a decimal literal is refused even without the precision marker
    bad = write_json(tmp_path / "bad.json",
                     {"lambdas": ["2.0"], "residues_b": ["-1"],
                      "total_mass": "2"})
    assert main(["invert", bad]) == 2


def test_invert_missing_file(tmp_path):
    assert main(["invert", str(tmp_path / "nope.json")]) == 2


def test_invert_invalid_spectral_data(tmp_path):
    # positive residue: well-formed JSON, invalid as spectral data
    bad = write_json(tmp_path / "bad.json",
                     {"lambdas": ["2"], "residues_b": ["1"],
                      "total_mass": "2"})
    assert main(["invert", bad]) == 1


def test_invert_determinant_report(tmp_path, capsys):
    data = write_json(tmp_path / "spectral.json",
                      {"lambdas": ["2"], "residues_b": ["-1"],
                       "total_mass": "2"})
    assert main(["invert", data, "--report-determinants"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["string"] == N2_STRING
    assert set(doc["minors"]) == {"mass_corner", "corner", "inner",
                                  "shifted", "beta_shifted", "beta_inner"}
    steps = doc["steps"]
    assert [s["mass"] for s in steps] == ["1", "1"]
    assert steps[0]["mass_cramer"] == "1"
    # the two closed forms disagree here; the report keeps both
    assert steps[1]["mass_printed"] == "2"
    assert steps[1]["printed_agrees"] is False
    assert steps[1]["gap"] == "1"


def test_roundtrip_prints_ok(capsys):
    for n in (1, 3, 5):
        assert main(["roundtrip", "--n", str(n), "--seed", "7"]) == 0
        assert capsys.readouterr().out == "exact roundtrip OK\n"


@pytest.mark.parametrize("n", ["0", "-3"])
def test_roundtrip_rejects_non_positive_n(capsys, n):
    assert main(["roundtrip", "--n", n, "--seed", "7"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1


def test_evolve_rk4_csv(tmp_path):
    p = write_json(tmp_path / "n2.json", N2_STRING)
    out = tmp_path / "traj.csv"
    rc = main(["evolve", p, "--method", "rk4", "--dt", "0.001",
               "--t-end", "0.5", "--samples", "3", "-o", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,x_1,x_2,m_1,m_2,M,M_plus,M_1,M_2"
    assert len(lines) == 4
    assert lines[1] == "0,-1,0,1,1,2,-1,2,1"
    last = [float(v) for v in lines[3].split(",")]
    assert last[0] == 0.5
    assert abs(last[5] - 2.0) < 1e-10   # M
    assert abs(last[6] + 1.0) < 1e-10   # M_plus


def test_evolve_spectral_matches_rk4(tmp_path):
    p = write_json(tmp_path / "n2.json", N2_STRING)
    a, b = tmp_path / "rk4.csv", tmp_path / "spectral.csv"
    assert main(["evolve", p, "--method", "rk4", "--dt", "0.001",
                 "--t-end", "0.5", "--samples", "3", "-o", str(a)]) == 0
    assert main(["evolve", p, "--method", "spectral", "--t-end", "0.5",
                 "--samples", "3", "-o", str(b)]) == 0
    rows_a = [r.split(",") for r in a.read_text().splitlines()]
    rows_b = [r.split(",") for r in b.read_text().splitlines()]
    assert rows_a[0] == rows_b[0]
    for ra, rb in zip(rows_a[1:], rows_b[1:]):
        for va, vb in zip(ra, rb):
            assert abs(float(va) - float(vb)) < 1e-8
    # the spectral route carries conserved values exactly
    for row in rows_b[1:]:
        assert row[5:] == ["2", "-1", "2", "1"]


def test_evolve_argument_validation(tmp_path):
    p = write_json(tmp_path / "n2.json", N2_STRING)
    assert main(["evolve", p, "--method", "rk4", "--t-end", "1"]) == 2
    assert main(["evolve", p, "--method", "rk4", "--dt", "0.1",
                 "--t-end", "0"]) == 2
    assert main(["evolve", p, "--method", "spectral", "--t-end", "1",
                 "--samples", "1"]) == 2


def test_verify_heine_report(capsys):
    args = ["verify", "--suite", "heine", "--support", "3",
            "--k-max", "3", "--seed", "1"]
    assert main(args) == 0
    first = capsys.readouterr().out
    doc = json.loads(first)
    assert doc["all_pass"] is True
    assert doc["rows"]
    for row in doc["rows"]:
        assert set(row) == {"identity", "k", "lhs", "rhs", "pass"}
        assert row["pass"] is True
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_verify_seed_changes_measure(capsys):
    assert main(["verify", "--suite", "heine", "--support", "2",
                 "--k-max", "2", "--seed", "1"]) == 0
    one = json.loads(capsys.readouterr().out)["measure"]
    assert main(["verify", "--suite", "heine", "--support", "2",
                 "--k-max", "2", "--seed", "2"]) == 0
    two = json.loads(capsys.readouterr().out)["measure"]
    assert one != two


@pytest.mark.parametrize("flags", [["--support", "-1"], ["--k-max", "-3"],
                                   ["--support", "0"], ["--k-max", "0"]])
def test_verify_rejects_sizes_below_one(capsys, flags):
    assert main(["verify", "--suite", "heine", *flags]) == 2
    _assert_one_line_error(capsys)


@pytest.mark.parametrize("support,k_max", [
    (10, 4),           # 62,263 summed terms, over the cap of 24,000
    (20, 2),           # 45,851
    (29, 1),           # 25,666, of which 29^3 build the Cauchy matrix
    (1, 11),           # one point, six terms, but k_max over its cap
    (10 ** 9, 3),      # huge flags are refused without enumerating them
    (3, 10 ** 9),
    (1, 10 ** 9),      # refused by the k_max cap alone
])
def test_verify_enumeration_cap(capsys, support, k_max):
    start = time.perf_counter()
    assert main(["verify", "--suite", "heine", "--support", str(support),
                 "--k-max", str(k_max)]) == 2
    assert time.perf_counter() - start < 0.1
    _assert_one_line_error(capsys)


@pytest.mark.parametrize("support,k_max", [
    (6, 4),            # 1,165 summed terms
    (28, 1),           # 23,143, the most the cap admits
    (8, 1),            # the Cauchy form is one term at any support
    (2, 10),           # two points have no k-subset past k = 2
])
def test_verify_shapes_the_summand_cap_admits(capsys, support, k_max):
    assert main(["verify", "--suite", "heine", "--support", str(support),
                 "--k-max", str(k_max), "--seed", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["all_pass"] is True


def test_verify_one_point_counts_as_one(capsys):
    # one point has no k-subset past k = 1, so the sums past it visit
    # no term and the largest k_max runs at once
    start = time.perf_counter()
    assert main(["verify", "--suite", "heine", "--support", "1",
                 "--k-max", "10"]) == 0
    assert time.perf_counter() - start < 0.5
    assert json.loads(capsys.readouterr().out)["all_pass"] is True


def test_verify_largest_acceptance_shape_is_allowed(capsys):
    assert main(["verify", "--suite", "heine", "--support", "4",
                 "--k-max", "4", "--seed", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["all_pass"] is True


@pytest.mark.parametrize("flags,bad", [
    (["--method", "rk4", "--dt", "0.1", "--t-end", "inf"], "--t-end"),
    (["--method", "rk4", "--dt", "nan", "--t-end", "1"], "--dt"),
    (["--method", "rk4", "--dt", "inf", "--t-end", "1"], "--dt"),
    (["--method", "rk4", "--dt", "0.1", "--t-end", "nan"], "--t-end"),
    (["--method", "spectral", "--t-end", "inf"], "--t-end"),
])
def test_evolve_rejects_non_finite_times(tmp_path, capsys, flags, bad):
    p = write_json(tmp_path / "n3.json", N3_STRING)
    assert main(["evolve", p, *flags]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"error: {bad} must be a finite number")
    assert out.err.count("\n") == 1


@pytest.mark.parametrize("flags", [
    # e^(M t) overflows the decimal context
    ["--method", "spectral", "--t-end", "1e300"],
    # the recovered positions pass the double range
    ["--method", "spectral", "--t-end", "2000"],
    # the RK4 state passes the double range
    ["--method", "rk4", "--dt", "0.5", "--t-end", "300"],
])
def test_evolve_overflow_is_one_line(tmp_path, capsys, flags):
    p = write_json(tmp_path / "n3.json", N3_STRING)
    assert main(["evolve", p, *flags, "--samples", "2"]) == 1
    _assert_one_line_error(capsys)


def test_evolve_rk4_leaving_the_float_range_names_the_row(tmp_path,
                                                          capsys):
    # RK4 steps of 0.5 on three peaks diverge: the chain invariants of
    # the state pass the double range between the rows at t = 50 and 100
    p = write_json(tmp_path / "n3.json", N3_STRING)
    assert main(["evolve", p, "--method", "rk4", "--dt", "0.5",
                 "--t-end", "300", "--samples", "7"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("error: the wave leaves the float range by "
                       "t = 100.0 at dt = 0.5\n")


def test_evolve_rk4_step_cap_is_bad_input(tmp_path, capsys):
    # 10^9 steps would run for hours; the cap refuses them up front
    p = write_json(tmp_path / "n3.json", N3_STRING)
    assert main(["evolve", p, "--method", "rk4", "--dt", "1e-9",
                 "--t-end", "1"]) == 2
    _assert_one_line_error(capsys)


def test_forward_at_6000_bits(tmp_path, capsys):
    # 1,806 correctly rounded digits, whose first 16 are those of the
    # 64-bit run
    p = write_json(tmp_path / "s.json",
                   {"masses": ["1", "2", "3"], "gaps": ["1", "1/2"]})
    assert main(["forward", p, "--precision-bits", "6000"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["precision_bits"] == 6000
    assert main(["forward", p, "--precision-bits", "64"]) == 0
    low = json.loads(capsys.readouterr().out)
    for key in ("lambdas", "residues_b"):
        assert [x[:16] for x in doc[key]] == [x[:16] for x in low[key]]


def test_forward_at_low_precision_certifies_every_residue(tmp_path, capsys):
    # residue signs once gave up at 4x the bits (2^-4 from 1 bit), and 21
    # of these 36 calls exited 1; the bits now double to the cap
    rng = random.Random(15)
    for i in range(12):
        n = rng.randint(2, 10)
        doc = {key: [f"{rng.randint(1, 9)}/{rng.randint(1, 4)}"
                     for _ in range(size)]
               for key, size in (("masses", n), ("gaps", n - 1))}
        p = write_json(tmp_path / f"s{i}.json", doc)
        for bits in (1, 3, 8):
            assert main(["forward", p, "--precision-bits", str(bits)]) == 0
            out = json.loads(capsys.readouterr().out)
            assert len(out["residues_b"]) == n - 1
            assert all(b.startswith("-") for b in out["residues_b"])


@pytest.mark.parametrize("command,key", [
    ("forward", "masses"), ("forward", "gaps"),
    ("invert", "lambdas"), ("invert", "residues_b"),
])
def test_rational_lists_must_be_json_lists(tmp_path, capsys, command, key):
    # "11" would otherwise parse as the list ["1", "1"]
    doc = dict(N2_STRING if command == "forward" else
               {"lambdas": ["2"], "residues_b": ["-1"], "total_mass": "2"})
    doc[key] = "11"
    assert main([command, write_json(tmp_path / "in.json", doc)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: {key} must be a JSON list, got str\n"


@pytest.mark.parametrize("text", [
    "[" * 100000 + "]" * 100000, "5",
    # wire digits are ASCII: Arabic-Indic and fullwidth ones are not read
    # as 1, 2 and 3/4
    '{"masses": ["\u0661", "\uff12"], "gaps": ["\u0663/\u0664"]}',
    "", "null", "[]", "{}", '{"masses": ["1", "1"]', "\ufeff{}",
    '{"masses": ["1"]}',
    '{"masses": ["1", "1"], "gaps": []}',
    '{"masses": [1, 2], "gaps": ["1"]}',
    '{"masses": ["1", "x"], "gaps": ["1"]}',
    '{"masses": ["1", "1/0"], "gaps": ["1"]}',
    '{"masses": ["1.5"], "gaps": []}',
    '{"masses": ["1e3"], "gaps": []}',
    '{"masses": ["1", "1"], "gaps": ["1"], "anchor": 0}',
    '{"masses": ["1", "1"], "gaps": ["1"], "anchor": ["0"]}',
    '{"lambdas": ["2"], "residues_b": ["-1"]}',
    '{"lambdas": ["2"], "residues_b": ["-1"], "total_mass": "2/0"}',
])
@pytest.mark.parametrize("argv", [
    ["forward"], ["invert"],
    ["evolve", "--method", "rk4", "--dt", "0.1", "--t-end", "1"],
    ["evolve", "--method", "spectral", "--t-end", "1"],
])
def test_malformed_json_documents_are_bad_input(tmp_path, capsys, text,
                                                argv):
    # a parser stack overflow, a bare number, non-ASCII digits, and any
    # document that is not JSON or not the object asked for are bad
    # input too
    p = tmp_path / "in.json"
    p.write_text(text, encoding="utf-8")
    assert main([argv[0], str(p), *argv[1:]]) == 2
    _assert_one_line_error(capsys)


@pytest.mark.parametrize("method", [["spectral"], ["rk4", "--dt", "0.01"]])
def test_evolve_sample_cap_is_bad_input(tmp_path, capsys, method):
    p = write_json(tmp_path / "n3.json", N3_STRING)
    samples = str(EVOLVE_SAMPLE_CAP + 1)
    assert main(["evolve", p, "--method", *method, "--t-end", "1",
                 "--samples", samples]) == 2
    _assert_one_line_error(capsys)


def test_evolve_spectral_work_cap_is_bad_input(tmp_path, capsys):
    # 200 peaks on 10,000 rows: 44.4 s by the estimate (40.5 s timed),
    # refused at once
    p = write_json(tmp_path / "s.json", _cycling_string(200))
    start = time.perf_counter()
    assert main(["evolve", p, "--method", "spectral", "--t-end", "1",
                 "--samples", "10000"]) == 2
    assert time.perf_counter() - start < 0.1
    _assert_one_line_error(capsys)


def test_evolve_spectral_work_cap_admits_the_benchmark_shape(tmp_path,
                                                             capsys):
    p = write_json(tmp_path / "n3.json", N3_STRING)
    assert main(["evolve", p, "--method", "spectral", "--t-end", "1",
                 "--samples", "5"]) == 0
    assert capsys.readouterr().out.count("\n") == 6


def _cycling_string(n):
    """Masses 1, 2, 3, 1, 2, ... with unit gaps."""
    return {"masses": [str(1 + i % 3) for i in range(n)],
            "gaps": ["1"] * (n - 1)}


def test_evolve_spectral_leaving_the_float_range_is_one_line(tmp_path,
                                                            capsys):
    # masses decay like e^(-2Mt): at M = 12 the smallest underflows to
    # 0.0 by t = 32, which is the flow's range, not a bad mass
    p = write_json(tmp_path / "s.json", _cycling_string(6))
    assert main(["evolve", p, "--method", "spectral", "--t-end", "40",
                 "--samples", "11"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: the wave leaves the float range at t = 32.0\n"


@pytest.mark.parametrize("doc,err", [
    ({"masses": ["1", "1" + "0" * 400], "gaps": ["1"]},
     "mass 2 is past the double range"),
    ({"masses": ["1", "2"], "gaps": ["1"], "anchor": "1" + "0" * 400},
     "position 1 is past the double range"),
    ({"masses": ["1/1" + "0" * 400, "2"], "gaps": ["1"]},
     "mass 1 rounds to 0 as a double"),
    ({"masses": ["1", "2", "1"], "gaps": ["1", "1/1" + "0" * 39],
      "anchor": "1"},
     "gap 2 rounds to 0 as a double: positions 2 and 3 are both 1.0"),
])
@pytest.mark.parametrize("method", [["--method", "spectral"],
                                    ["--method", "rk4", "--dt", "0.1"]])
def test_evolve_names_the_input_a_double_cannot_hold(tmp_path, capsys, doc,
                                                     err, method):
    # forward runs each of these strings; the flow runs in doubles
    p = write_json(tmp_path / "s.json", doc)
    assert main(["forward", p]) == 0
    capsys.readouterr()
    assert main(["evolve", p, *method, "--t-end", "1"]) == 1
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", f"error: {err}\n")


@pytest.mark.parametrize("n,flags,leaves", [
    # M t_end = 80,000 on 10^4 rows: the last mass underflows at
    # M t = 373.46 (t = 62.24), and the run stops at the row after it;
    # no row is priced by e^(M t), so the rows alone price it at 1.1 s
    (3, ["--t-end", "13333.333333333334", "--samples", "10000"],
     62.67293396006268),
    # e^(M t_end) of 216,408 and of 865,619 bits on the one row past
    # t = 0: its last mass underflows, so no state is evaluated
    (8, ["--t-end", "10000", "--samples", "2"], 10000.0),
    (3, ["--t-end", "100000", "--samples", "2"], 100000.0),
])
def test_evolve_spectral_work_cap_prices_rows_that_can_run(
        tmp_path, capsys, n, flags, leaves):
    p = write_json(tmp_path / "s.json", _cycling_string(n))
    start = time.perf_counter()
    assert main(["evolve", p, "--method", "spectral", *flags]) == 1
    assert time.perf_counter() - start < 2
    out = capsys.readouterr()
    assert out.err == f"error: the wave leaves the float range at t = {leaves}\n"


def test_evolve_spectral_far_out_of_range_builds_no_factor(tmp_path,
                                                          capsys):
    # masses 1, 2, 3 to M t = 2.3 million: e^(M t) has 3.3 million bits,
    # and the bits alone put its square past the last row's bound, so the
    # row exits 1 before the factor is built (it took 1 s when it was)
    p = write_json(tmp_path / "s.json", _cycling_string(3))
    start = time.perf_counter()
    assert main(["evolve", p, "--method", "spectral", "--t-end", "383333",
                 "--samples", "2"]) == 1
    assert time.perf_counter() - start < 0.1
    assert capsys.readouterr().err == (
        "error: the wave leaves the float range at t = 383333.0\n")


def test_evolve_spectral_last_row_bound(tmp_path, capsys):
    # masses 1, 2, 3 with unit gaps: the last mass rounds to 0.0 from
    # M t = 373.46, t = 62.2437 (burgers.last_scale), however far past
    # it t_end is, and the bound splits t = 62.2436 from 62.2438
    p = write_json(tmp_path / "s.json", _cycling_string(3))
    assert main(["evolve", p, "--method", "spectral", "--t-end", "1000",
                 "--samples", "2"]) == 1
    assert capsys.readouterr().err == (
        "error: the wave leaves the float range at t = 1000.0\n")
    for t_end, code in (("62.2436", 0), ("62.2438", 1)):
        assert main(["evolve", p, "--method", "spectral", "--t-end", t_end,
                     "--samples", "2"]) == code
    assert capsys.readouterr().err == (
        "error: the wave leaves the float range at t = 62.2438\n")


@pytest.mark.parametrize("doc,method", [
    # 10^4 rows on 200 peaks of 1, 2, 3 (40.5 s when run) are over the
    # cap by the row term alone
    pytest.param(_cycling_string(200),
                 ["--method", "spectral", "--t-end", "0.0025",
                  "--samples", "10000"], id="spectral-200-10000"),
    # on 2,000 peaks of random doubles the M_j of the t = 0 wave and
    # their reduction alone are priced at 233 s
    pytest.param(double_wave(random.Random(2000), 2000),
                 ["--method", "spectral", "--t-end", "0.001",
                  "--samples", "2"], id="spectral-2000-2"),
    # and 3,000 rk4 rows on 100 peaks of doubles at their M_j, 0.016 s
    # a row
    pytest.param(double_wave(random.Random(100), 100),
                 ["--method", "rk4", "--dt", "1e-3", "--t-end", "0.1",
                  "--samples", "3000"], id="rk4-100-3000"),
])
def test_evolve_work_cap_refuses_before_any_work(tmp_path, capsys,
                                                 monkeypatch, doc, method):
    # refused before any M_j is summed or any gap crossed
    calls = []
    monkeypatch.setattr(burgers, "invariant_masses",
                        lambda *args: calls.append(args))
    seen = _count_crossing_steps(monkeypatch)
    p = write_json(tmp_path / "s.json", doc)
    start = time.perf_counter()
    assert main(["evolve", p, *method]) == 2
    assert time.perf_counter() - start < 1
    _assert_one_line_error(capsys)
    assert not calls and not seen


def test_evolve_spectral_peels_nothing(tmp_path, capsys, monkeypatch):
    # each row is the explicit solution on the t = 0 string, on small
    # integers and on a wave of doubles: no boundary triple is peeled
    peels = []
    real = inverse.peel

    def counted(triple):
        peels.append(triple)
        return real(triple)

    for module in (inverse, burgers):
        monkeypatch.setattr(module, "peel", counted, raising=False)
    for doc in (_cycling_string(5), double_wave(random.Random(10), 10)):
        p = write_json(tmp_path / "s.json", doc)
        assert main(["evolve", p, "--method", "spectral", "--t-end", "1",
                     "--samples", "5"]) == 0
    assert not peels
    capsys.readouterr()


# (n, rows, M t_end, seconds the run took, best of up to three) on
# masses 1, 2, 3, 1, 2, ... with unit gaps, in-process on a shared
# 2-vCPU VM; the refused run ran once, bypassing the cap
ADMITTED_RUNS = [
    # one peak: every row is the input
    (1, 10000, 1, 0.071), (1, 10000, 1000, 0.072),
    (2, 10000, 3, 0.98), (2, 3000, 3, 0.30),
    (3, 5000, 6, 0.63), (3, 10000, 6, 1.31),
    (4, 3000, 7, 0.43), (5, 3000, 9, 0.49), (6, 1000, 12, 0.19),
    (8, 1000, 15, 0.23), (8, 3000, 15, 0.69), (8, 10000, 15, 2.3),
    (12, 500, 24, 0.15), (12, 1000, 24, 0.32), (12, 5000, 24, 1.63),
    (16, 200, 31, 0.076), (16, 500, 31, 0.18), (16, 5000, 31, 1.99),
    (16, 10000, 31, 4.26), (20, 200, 39, 0.093),
    (24, 100, 48, 0.054), (24, 300, 48, 0.184), (24, 1500, 48, 0.83),
    (24, 3000, 48, 1.7), (32, 3000, 64, 2.11), (24, 10000, 48, 6.0),
    (32, 6000, 64, 4.46), (32, 10000, 64, 7.62), (400, 100, 0.5, 0.83),
    (64, 10000, 128, 13.5), (100, 6000, 200, 13.8),
    # exit 1 at an early row, long before e^(M t_end)
    (3, 20, 3000, 0.0007), (8, 200, 2000, 0.011),
    # the evolve-flow benchmark's largest shape and the golden shape
    (5, 5, 1, None), (3, 3, 2, None),
]
REFUSED_RUNS = [(200, 10000, 1, 40.5)]


def _crossing_estimate(s):
    return _priced_boundary_data(s, lambda built: 0, None)[1]


def _bits(s):
    """The operand bits of the exact string s for _chain_seconds."""
    return _wave_bits(s.masses, positions(s))


def _chain_estimate(s):
    """The chain seconds evolve charges for the wave of s."""
    return _chain_seconds(s.n, _bits(rationalize(wave_state(s))))


def test_evolve_spectral_estimate_against_timed_runs():
    def estimate(n, rows, mt, _):
        chain = _chain_estimate(string_from_dict(_cycling_string(n)))
        return _spectral_seconds(n, rows, chain)

    assert all(estimate(*run) <= WORK_CAP for run in ADMITTED_RUNS)
    assert all(estimate(*run) > WORK_CAP for run in REFUSED_RUNS)
    # every refused run really took longer than the cap
    assert all(run[-1] > WORK_CAP for run in REFUSED_RUNS)
    # and within a factor 1.6 of every timed run, either way
    for run in ADMITTED_RUNS + REFUSED_RUNS:
        if run[-1] is not None and run[-1] >= 0.1:
            assert 1 / 1.6 < run[-1] / estimate(*run) < 1.6, run


# (n, rows, t_end, the wave's operand bits S, seconds the run took, best
# of three, or of one past 40,000 peak-rows) on double_wave(Random(n),
# n), in-process on a shared 2-vCPU VM.  Two rows on hundreds of peaks
# time the M_j of the t = 0 wave and their reduction; the run over
# WORK_CAP ran once, bypassing the cap
DOUBLE_WAVE_RUNS = [
    (10, 2000, 1, 1481, 0.64), (25, 1000, 1, 3893, 0.69),
    (50, 500, 1, 7755, 0.68), (100, 200, 1, 16293, 0.56),
    (200, 2, 1, 31443, 0.225), (200, 50, 1, 31443, 0.52),
    (300, 2, 1, 48194, 0.74), (400, 2, 0.5, 64368, 1.65),
    (500, 2, 0.5, 78905, 2.96), (500, 4000, 0.5, 78905, 63.6),
]


def test_evolve_spectral_estimate_on_waves_of_doubles():
    # the M_j carry the operands of the doubles, and a row does not
    # much: a row of 10 random doubles takes about as long as one of 12
    # small integers
    for n, rows, _, bits, seconds in DOUBLE_WAVE_RUNS:
        if n <= 100:  # the stored bits are those the CLI prices
            assert _bits(_timed_string("double", n, 0)) == bits, n
        estimate = _spectral_seconds(n, rows, _chain_seconds(n, bits))
        assert 1 / 1.6 < seconds / estimate < 1.6, (n, rows)
        assert (estimate > WORK_CAP) == (seconds > WORK_CAP), (n, rows)


# (kind, n, the wave's operand bits S, seconds string_model.invariant_
# masses took, best of five, of two past 300 peaks), in-process on a
# shared 2-vCPU VM, on the waves of _chain_wave
CHAIN_TIMED_RUNS = [
    ("double", 10, 1481, 8.4e-05), ("double", 25, 3893, 0.00055),
    ("double", 50, 7755, 0.00185), ("double", 100, 16293, 0.0219),
    ("double", 150, 24604, 0.0404), ("double", 200, 31443, 0.0915),
    ("double", 300, 48194, 0.312), ("double", 400, 64368, 0.864),
    ("double", 500, 78905, 1.26),
    ("cycle", 25, 89, 9.5e-05), ("cycle", 100, 364, 0.00167),
    ("cycle", 200, 731, 0.00688), ("cycle", 400, 1464, 0.033),
    ("cycle", 600, 2198, 0.0859),
    ("small", 25, 4052, 0.00031), ("small", 100, 15361, 0.0124),
    ("small", 200, 30801, 0.0864), ("small", 400, 66580, 0.668),
    ("spread", 8, 1187, 3.1e-05), ("spread", 25, 4228, 0.00040),
    ("spread", 50, 9689, 0.00276), ("spread", 100, 21740, 0.0212),
    ("spread", 200, 35110, 0.118),
]


def _chain_wave(kind, n):
    """The exact string evolve reads off the doubles of a wave: of
    random doubles, of masses 1, 2, 3, ... with unit gaps, of ratios of
    small integers, or with masses spread over 2^-40 to 2^41."""
    if kind == "spread":
        s = string_from_dict(spread_wave(random.Random(n), n, 40))
    else:
        s = _timed_string(kind, n, 0)
    return rationalize(wave_state(s))


def test_chain_estimate_against_timed_runs():
    for kind, n, bits, seconds in CHAIN_TIMED_RUNS:
        if seconds >= 1e-3:
            assert 1 / 1.6 < seconds / _chain_seconds(n, bits) < 1.6, (
                kind, n)
        if n <= 200:  # the stored bits are those the CLI prices
            assert _bits(_chain_wave(kind, n)) == bits, (kind, n)


# (n, rows, dt, t_end, seconds its M_j took, seconds the run took, best
# of two, of one from 200 peaks) by integrate_rk4 on
# double_wave(Random(n), n), in-process on a shared 2-vCPU VM; the rest
# of a run is its RK4 steps, which MAX_RK4_STEPS caps
RK4_TIMED_RUNS = [
    (25, 1000, 1e-3, 0.1, 0.331, 0.578), (50, 300, 1e-3, 0.1, 0.575, 0.806),
    (100, 11, 1e-3, 0.1, 0.15, 0.393), (100, 100, 1e-3, 0.1, 1.396, 1.909),
    (200, 11, 1e-3, 0.1, 1.192, 2.132), (200, 50, 1e-3, 0.1, 5.625, 7.052),
    (300, 11, 1e-3, 0.05, 3.74, 4.852),
]


def test_rk4_estimate_against_timed_runs():
    # a row is priced at its M_j, within a factor 1.6 of what they took
    for n, rows, _, _, chains, _ in RK4_TIMED_RUNS:
        chain = _chain_estimate(_timed_string("double", n, 0))
        assert 1 / 1.6 < chains / (rows * chain) < 1.6, (n, rows)


# (n, operand bits S, bits of the integer q, precision bits, seconds
# spectrum and residues took, best of three under 3 s, None when stopped
# after 100 s), in-process on a shared 2-vCPU VM; masses and gaps are
# random ratios of two integers of 1 to 1,000 digits,
# ratio_string(random.Random(n), n, digits)
FORWARD_TIMED_RUNS = [
    (2, 19922, 13276, 4096, 0.024), (3, 33212, 23248, 4096, 0.11),
    (3, 26, 17, 16384, 0.059), (4, 46497, 33211, 1024, 0.2),
    (4, 13928, 9950, 4096, 0.065), (4, 46497, 33211, 4096, 0.27),
    (4, 4626, 3310, 8192, 0.082), (4, 34, 24, 16384, 0.18),
    (6, 40167, 29205, 256, 0.69), (6, 73030, 53116, 256, 2.2),
    (6, 73030, 53116, 1024, 2.4), (6, 7274, 5292, 4096, 0.19),
    (6, 700, 499, 8192, 0.26), (8, 29850, 21891, 64, 2.0),
    (8, 29850, 21891, 256, 1.8), (8, 99626, 73054, 256, 19.4),
    (8, 77, 55, 4096, 0.17), (8, 2965, 2171, 4096, 0.23),
    (10, 12567, 9257, 64, 1.1), (10, 12567, 9257, 256, 1.2),
    (10, 1209, 886, 4096, 0.58), (10, 3761, 2773, 4096, 0.56),
    (12, 15200, 11243, 256, 4.3), (12, 45782, 33823, 256, 33.5),
    (12, 4525, 3344, 1024, 0.65), (12, 106, 72, 4096, 1.0),
    (12, 106, 72, 16384, 10.3), (16, 20524, 15227, 256, 26.7),
    (16, 6100, 4524, 256, 2.5), (16, 1957, 1449, 256, 0.46),
    (16, 1957, 1449, 1024, 0.6), (16, 145, 100, 2048, 0.69),
    (20, 158, 112, 1024, 0.48), (24, 2994, 2235, 64, 4.6),
    (24, 2994, 2235, 256, 4.9), (24, 210, 143, 1024, 1.3),
    (48, 406, 288, 64, 2.6), (32, 296, 213, 1024, 3.3),
    (40, 374, 257, 1024, 8.9), (10, 126188, 92986, 256, 91.2),
    (8, 77, 55, 16384, 2.5), (16, 61716, 45788, 256, None),
    (20, 25793, 19185, 256, None), (24, 210, 143, 4096, 10.7),
    (32, 296, 213, 2048, 9.8), (40, 374, 257, 2048, 22.9),
    (20, 158, 112, 8192, 19.3), (32, 296, 213, 4096, 37.4),
    (48, 406, 288, 2048, 38.6), (20, 158, 112, 16384, 57.2),
]


def test_forward_estimate_against_timed_runs():
    # the boundary data of these runs took under a second; it is priced
    # step by step as it is built (test below)
    for n, _, q_bits, bits, seconds in FORWARD_TIMED_RUNS:
        estimate = _forward_seconds(n, q_bits, bits)
        if seconds is None:
            assert estimate > WORK_CAP
        else:
            assert 1 / 1.6 < seconds / estimate < 1.6, \
                (n, q_bits, bits, seconds, estimate)
            # and a run is refused exactly when it took over the cap
            assert (estimate > WORK_CAP) == (seconds > WORK_CAP), \
                (n, q_bits, bits, seconds, estimate)


@pytest.mark.parametrize("n,digits,bits", [
    (20, 100, 256),   # large operands: stopped after 100 s
    (48, 1, 2048),    # many masses at a high precision: 39 s
    (400, 1, 256),    # many masses: refused before the boundary data
    (20, 1, 16384),   # high precision: 57 s, likewise
])
def test_forward_work_cap_refuses_at_once(tmp_path, capsys, n, digits, bits):
    p = write_json(tmp_path / "s.json",
                   ratio_string(random.Random(n), n, digits))
    start = time.perf_counter()
    assert main(["forward", p, "--precision-bits", str(bits)]) == 2
    assert time.perf_counter() - start < 1
    _assert_one_line_error(capsys)


@pytest.mark.parametrize("n,digits", [(10, 100), (6, 550)])
def test_forward_work_cap_admits_large_operands(tmp_path, capsys, n, digits):
    # spectrum and residues take about 1 s and 0.5 s at 256 bits; both
    # were refused while the estimate carried the grid's old Q bits
    p = write_json(tmp_path / "s.json",
                   ratio_string(random.Random(n), n, digits))
    assert main(["forward", p, "--precision-bits", "256"]) == 0
    assert len(json.loads(capsys.readouterr().out)["lambdas"]) == n - 1


def test_forward_work_cap_admits_the_benchmark_shapes(tmp_path, capsys):
    # forward-ladder runs n = 3, 5, 8 at 256 bits, on small random
    # strings and on strings recovered from random spectral data; four
    # masses of 1,000-digit ratios (0.5 s) are under the budget too
    rng = random.Random(0)
    for n in (3, 5, 8):
        for i, doc in enumerate((ratio_string(rng, n, 1), string_to_dict(
                recover(random_spectral(n, n))))):
            p = write_json(tmp_path / f"s{n}_{i}.json", doc)
            assert main(["forward", p, "--precision-bits", "256"]) == 0
    capsys.readouterr()
    assert _forward_seconds(4, 33199, 256) < WORK_CAP


@pytest.mark.parametrize("n", [20, 24])
def test_forward_work_cap_prices_the_data_it_builds(tmp_path, capsys, n):
    # strings recovered from spectral data carry ratios of minors, some
    # 400,000 operand bits at n = 24, yet their crossings cancel to a
    # triple of 2,000-bit coefficients: about a second of work, which
    # priced as if the operands were random came to over 250 s
    p = write_json(tmp_path / "s.json",
                   string_to_dict(recover(random_spectral(n, n))))
    assert main(["forward", p, "--precision-bits", "256"]) == 0
    assert json.loads(capsys.readouterr().out) == \
        spectral_to_dict(random_spectral(n, n))


def test_forward_work_cap_stops_the_crossing_it_prices(tmp_path, capsys,
                                                      monkeypatch):
    # random operands do not cancel: with the cap at 0.03 s the crossing
    # of 300-digit ratios, priced 0.045 s in all, stops before its last
    # steps are made
    steps = []
    real = forward.jump_step
    monkeypatch.setattr(forward, "jump_step",
                        lambda t, m: steps.append(m) or real(t, m))
    monkeypatch.setattr(cli, "WORK_CAP", 0.03)
    p = write_json(tmp_path / "s.json",
                   ratio_string(random.Random(3), 12, 300))
    assert main(["forward", p, "--precision-bits", "64"]) == 2
    assert 1 < len(steps) < 12
    _assert_one_line_error(capsys)


def _timed_string(kind, n, digits):
    """The strings CROSSING_TIMED_RUNS builds."""
    if kind == "ratio":
        return string_from_dict(ratio_string(random.Random(n), n, digits))
    if kind == "small":  # masses, then gaps, randint(1, 9)/randint(1, 4)
        rng = random.Random(n)
        draw = [Fraction(rng.randint(1, 9), rng.randint(1, 4))
                for _ in range(2 * n - 1)]
        return CubicString(tuple(draw[:n]), tuple(draw[n:]))
    if kind == "cycle":
        return string_from_dict(_cycling_string(n))
    if kind == "recovered":
        return recover(random_spectral(n, n))
    # the exact string evolve builds from a wave of random doubles
    return rationalize(wave_state(
        string_from_dict(double_wave(random.Random(n), n))))


# (kind, n, digits, then over the crossing steps the sums of k, k T,
# k T O and T^2, seconds the crossing took, best of five), in-process
# on a shared 2-vCPU VM, on the strings of _timed_string
CROSSING_TIMED_RUNS = [
    ("ratio", 3, 20000, 5, 1.86e06, 4.944e11, 3.001e11, 1.65),
    ("ratio", 3, 5000, 5, 4.65e05, 3.089e10, 1.876e10, 0.116),
    ("ratio", 4, 2000, 9, 5.58e05, 1.483e10, 1.165e10, 0.0542),
    ("ratio", 6, 1000, 20, 1.129e06, 1.498e10, 1.476e10, 0.0549),
    ("ratio", 10, 1000, 54, 5.857e06, 7.78e10, 9.089e10, 0.262),
    ("ratio", 12, 300, 77, 3.106e06, 1.237e10, 1.505e10, 0.0509),
    ("ratio", 20, 300, 209, 1.505e07, 5.99e10, 7.929e10, 0.242),
    ("ratio", 30, 100, 464, 1.724e07, 2.28e10, 3.149e10, 0.103),
    ("ratio", 50, 100, 1274, 8.089e07, 1.071e11, 1.526e11, 0.469),
    ("ratio", 100, 30, 5049, 1.935e08, 7.587e10, 1.107e11, 0.49),
    ("ratio", 100, 10, 5049, 6.28e07, 7.994e09, 1.166e10, 0.109),
    ("ratio", 200, 10, 20099, 5.02e08, 6.391e10, 9.381e10, 0.851),
    ("ratio", 300, 3, 45149, 4.505e08, 1.531e10, 2.244e10, 0.647),
    ("ratio", 200, 1, 20099, 2.862e07, 2.675e08, 3.05e08, 0.0516),
    ("ratio", 400, 1, 80199, 2.215e08, 2.065e09, 2.292e09, 0.34),
    ("ratio", 600, 1, 180299, 7.862e08, 7.079e09, 8.564e09, 1.13),
    ("small", 64, 0, 2079, 6.152e05, 5.067e06, 4.244e06, 0.00448),
    ("small", 128, 0, 8255, 5.843e06, 4.829e07, 4.829e07, 0.0192),
    ("small", 256, 0, 32895, 4.268e07, 3.403e08, 3.239e08, 0.0854),
    ("small", 400, 0, 80199, 1.639e08, 1.307e09, 1.255e09, 0.261),
    ("cycle", 128, 0, 8255, 1.548e06, 7.225e06, 3.39e06, 0.0114),
    ("cycle", 400, 0, 80199, 4.766e07, 2.223e08, 1.061e08, 0.109),
    ("recovered", 24, 0, 299, 1.828e06, 3.146e10, 9.711e08, 0.0382),
    ("recovered", 32, 0, 527, 5.331e06, 1.571e11, 3.693e09, 0.163),
    ("recovered", 40, 0, 819, 1.353e07, 6.645e11, 1.25e10, 0.677),
    ("recovered", 48, 0, 1175, 2.915e07, 2.178e12, 3.353e10, 1.92),
    ("double", 50, 0, 1274, 1.199e07, 2.428e09, 3.35e09, 0.0188),
    ("double", 75, 0, 2849, 4.057e07, 8.199e09, 1.148e10, 0.0515),
    ("double", 100, 0, 5049, 9.596e07, 1.939e10, 2.722e10, 0.109),
    ("double", 130, 0, 8514, 2.112e08, 4.263e10, 6.022e10, 0.218),
    ("double", 160, 0, 12879, 3.907e08, 7.805e10, 1.108e11, 0.385),
    ("double", 200, 0, 20099, 7.616e08, 1.517e11, 2.159e11, 0.721),
    ("double", 250, 0, 31374, 1.483e09, 2.949e11, 4.195e11, 1.36),
    ("double", 300, 0, 45149, 2.552e09, 5.06e11, 7.202e11, 2.29),
    ("double", 400, 0, 80199, 6.009e09, 1.185e12, 1.687e12, 5.75),
]


def _summed_crossing(*sums):
    """The crossing estimate at these step sums: _crossing_seconds is
    a k + b k T + c k T O + d T^2, so a sum of step estimates is a, b,
    c and d, read off it, times the sums."""
    d = _crossing_seconds(0, 1, 0)
    a = _crossing_seconds(1, 0, 0)
    b = _crossing_seconds(1, 1, 0) - a - d
    c = _crossing_seconds(1, 1, 1) - _crossing_seconds(1, 1, 0)
    return sum(x * s for x, s in zip((a, b, c, d), sums))


def test_crossing_estimate_against_timed_runs():
    for *run, seconds in CROSSING_TIMED_RUNS:
        assert 1 / 1.6 < seconds / _summed_crossing(*run[3:]) < 1.6, run
    # the sums are those the priced build adds up, step by step
    for kind, n, digits, *sums, seconds in CROSSING_TIMED_RUNS:
        if seconds < 0.1 and kind != "recovered":
            built = _crossing_estimate(_timed_string(kind, n, digits))
            assert built == pytest.approx(_summed_crossing(*sums),
                                          rel=1e-3), (kind, n)


@pytest.mark.parametrize("n,flags,seconds", [
    # 10,000 rows of the explicit solution, 45 s by the estimate
    (200, ["--method", "spectral", "--t-end", "1", "--samples", "10000"], 1),
    # 3,000 rows of 0.016 s each for the exact M_j of their doubles
    (100, ["--method", "rk4", "--dt", "1e-3", "--t-end", "0.1",
           "--samples", "3000"], 1),
    # 10^6 RK4 steps on 50 peaks, each counted 278 times (29 min)
    (50, ["--method", "rk4", "--dt", "1e-6", "--t-end", "1"], 1),
    # refused on the step cap before the triple of 400 peaks is built
    (400, ["--method", "rk4", "--dt", "1e-9", "--t-end", "1",
           "--samples", "2"], 1),
])
def test_evolve_many_peaks_of_doubles_are_refused(tmp_path, capsys, n, flags,
                                                  seconds):
    p = write_json(tmp_path / "w.json", double_wave(random.Random(n), n))
    start = time.perf_counter()
    assert main(["evolve", p, *flags]) == 2
    assert time.perf_counter() - start < seconds
    _assert_one_line_error(capsys)


def _count_crossing_steps(monkeypatch) -> list:
    """Every boundary_data call and every mass a crossing steps across."""
    seen = []
    real_data, real_step = forward.boundary_data, forward.jump_step
    monkeypatch.setattr(forward, "boundary_data",
                        lambda s: seen.append(s) or real_data(s))
    monkeypatch.setattr(forward, "jump_step",
                        lambda t, m: seen.append(m) or real_step(t, m))
    return seen


def test_evolve_starts_from_the_priced_triple(tmp_path, capsys, monkeypatch):
    # no route builds a boundary triple: the run is priced off the
    # wave's operand bits, and every M_j comes from the recurrence, on
    # small integers and on a wave of doubles
    seen = _count_crossing_steps(monkeypatch)
    for doc in (_cycling_string(5), double_wave(random.Random(10), 10)):
        p = write_json(tmp_path / "s.json", doc)
        assert main(["evolve", p, "--method", "spectral", "--t-end", "1",
                     "--samples", "3"]) == 0
        assert main(["evolve", p, "--method", "rk4", "--dt", "0.01",
                     "--t-end", "1", "--samples", "3"]) == 0
    assert not seen
    capsys.readouterr()


@pytest.mark.parametrize("doc,flags,err", [
    # the first stage overflows to inf and nan: a row that is not finite
    # is the wave leaving the float range, not a bad momentum
    ({"masses": ["1" + "0" * 300, "1"], "gaps": ["1"]},
     ["--method", "rk4", "--dt", "1e-100", "--t-end", "1e-99",
      "--samples", "2"],
     "the wave leaves the float range by t = 1e-99 at dt = 1e-100"),
    # M_2 of the input is about 10^400, on either route
    ({"masses": ["1" + "0" * 300, "1" + "0" * 100, "1"], "gaps": ["1", "1"]},
     ["--method", "rk4", "--dt", "0.5", "--t-end", "1"],
     "M_2 is past the double range"),
    ({"masses": ["1" + "0" * 300, "1" + "0" * 100, "1"], "gaps": ["1", "1"]},
     ["--method", "spectral", "--t-end", "1e-300", "--samples", "2"],
     "M_2 is past the double range"),
])
def test_evolve_float_range_exits_name_the_cause(tmp_path, capsys, doc,
                                                 flags, err):
    p = write_json(tmp_path / "s.json", doc)
    assert main(["evolve", p, *flags]) == 1
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", f"error: {err}\n")


def _ratio_spectral(rng, n, digits):
    """Spectral data for n masses, fewer if two eigenvalues coincide:
    eigenvalues, residues and total mass are random ratios of two
    integers of the given digits."""
    def ratio():
        return Fraction(*(rng.randrange(10 ** (digits - 1), 10 ** digits)
                          for _ in range(2)))
    lams = sorted({ratio() for _ in range(n - 1)})
    return SpectralData(tuple(lams), tuple(-ratio() for _ in lams), ratio())


# (n, operand bits S, bits L of the lcm of the denominators, with the
# audit, seconds recover or recover_detailed took, None when stopped
# after 100 s), in-process on a shared 2-vCPU VM; the data is
# _ratio_spectral(random.Random(1000 k + digits), k, digits) for 1 to
# 3,000 digits, with k = n or, where two eigenvalues coincide, n + 1, or
# random_spectral(n, 1), whose denominators divide 12 (L = 4)
INVERT_TIMED_RUNS = [
    (3, 99642, 49811, False, 1.1), (5, 59783, 29883, False, 4.2),
    (9, 11258, 5579, False, 2.2), (9, 33840, 16881, False, 20.5),
    (13, 4908, 2366, False, 2.0), (13, 16554, 8202, False, 19.1),
    (17, 2087, 909, False, 1.0), (17, 6533, 3124, False, 9.8),
    (25, 1494, 567, False, 2.1), (25, 3118, 1331, False, 9.5),
    (32, 1066, 261, False, 2.1), (33, 1120, 304, False, 2.8),
    (39, 821, 96, False, 1.9), (40, 554, 4, False, 0.96),
    (48, 681, 4, False, 2.5), (56, 814, 4, False, 6.0),
    (64, 929, 4, False, 11.8), (72, 1078, 4, False, 20.0),
    (80, 1224, 4, False, 35.7), (33, 4127, 1796, False, 44.9),
    (9, 45133, 22526, False, 32.3), (9, 56425, 28169, False, 52.3),
    (3, 99642, 49811, True, 3.3),
    (5, 17917, 8938, True, 1.7), (9, 3305, 1589, True, 1.8),
    (9, 11258, 5579, True, 20.2), (13, 776, 312, True, 0.86),
    (13, 1595, 691, True, 5.2), (13, 4908, 2366, True, 43.9),
    (16, 556, 206, True, 2.2), (16, 954, 394, True, 6.0),
    (17, 2087, 909, True, 45.9), (20, 409, 85, True, 1.9),
    (20, 674, 172, True, 8.2), (24, 496, 81, True, 6.6),
    (24, 293, 4, True, 0.68), (28, 352, 4, True, 1.9),
    (32, 422, 4, True, 7.1), (36, 486, 4, True, 17.6),
    (40, 554, 4, True, 42.0), (42, 583, 4, True, 57.7),
    (9, 225828, 112877, False, None),
    (17, 21836, 10830, False, None), (20, 2494, 1073, True, None),
]


def _invert_operands(sd):
    values = (*sd.eigenvalues, *sd.residues, sd.total_mass)
    return (sum(x.numerator.bit_length() + x.denominator.bit_length()
                for x in values),
            math.lcm(*(x.denominator for x in values)).bit_length())


def _invert_estimate(n, operand_bits, lcm_bits, audit):
    return (_invert_seconds(n, operand_bits, lcm_bits)
            + (_audit_seconds(n, operand_bits, lcm_bits) if audit else 0))


def test_invert_estimate_against_timed_runs():
    # one band for random ratios and for data with shared denominators
    for n, bits, lcm_bits, audit, seconds in INVERT_TIMED_RUNS:
        estimate = _invert_estimate(n, bits, lcm_bits, audit)
        if seconds is None:
            assert estimate > WORK_CAP
        else:
            assert 1 / 1.6 < seconds / estimate < 1.6, \
                (n, bits, lcm_bits, audit, seconds, estimate)


@pytest.mark.parametrize("sd,flags", [
    (_ratio_spectral(random.Random(9500), 9, 500), []),  # 52 s
    (_ratio_spectral(random.Random(11000), 9, 2000), []),  # over 100 s
    (random_spectral(80, 1), []),  # 36 s
    (random_spectral(40, 1), ["--report-determinants"]),  # 42 s
    (random_spectral(42, 1), ["--report-determinants"]),  # 58 s
])
def test_invert_work_cap_refuses_at_once(tmp_path, capsys, sd, flags):
    p = write_json(tmp_path / "sd.json", spectral_to_dict(sd))
    start = time.perf_counter()
    assert main(["invert", p, *flags]) == 2
    assert time.perf_counter() - start < 1
    _assert_one_line_error(capsys)


def test_invert_work_cap_admits_the_benchmark_shapes():
    # inverse-ladder runs n = 4, 9, 14 with and without the audit, and
    # tests/cli_identity.py n = 2 to 32; nine masses of 100-digit ratios
    # take 2 s without the audit, and the audit of random_spectral(36, 1)
    # 18 s
    for n in (2, 4, 7, 9, 10, 14, 20, 24, 32):
        sd = random_spectral(n, n)
        assert _invert_estimate(n, *_invert_operands(sd), True) < WORK_CAP
    sd = _ratio_spectral(random.Random(9100), 9, 100)
    assert _invert_estimate(9, *_invert_operands(sd), False) < WORK_CAP
    sd = random_spectral(36, 1)
    assert _invert_estimate(36, *_invert_operands(sd), True) < WORK_CAP


def test_forward_reads_back_integers_over_4300_digits(tmp_path, capsys):
    # past Python's default int <-> str guard of 4,300 digits
    mass = "7" * 5000
    p = write_json(tmp_path / "n1.json", {"masses": [mass], "gaps": []})
    assert main(["forward", p]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "lambdas": [], "residues_b": [], "total_mass": mass}


def test_evolve_spectral_one_peak_ignores_the_flow_factor(tmp_path, capsys):
    # one mass has no residues for e^(M t) to grow
    p = write_json(tmp_path / "n1.json", {"masses": ["5/2"], "gaps": []})
    assert main(["evolve", p, "--method", "spectral", "--t-end", "100000",
                 "--samples", "3"]) == 0
    assert capsys.readouterr().out.count("\n") == 4


def test_roundtrip_size_cap_is_bad_input(capsys):
    start = time.perf_counter()
    assert main(["roundtrip", "--n", str(10 ** 9)]) == 2
    assert time.perf_counter() - start < 0.1
    _assert_one_line_error(capsys)
    assert main(["roundtrip", "--n", str(ROUNDTRIP_N_CAP + 1)]) == 2
    _assert_one_line_error(capsys)


def test_bad_usage_exits_two(capsys):
    assert main(["forward"]) == 2
    _assert_one_line_error(capsys)
    assert main(["evolve", "x.json", "--method", "euler", "--t-end", "1"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("error: cubicstring evolve: argument --method: invalid "
                       "choice: 'euler' (choose from 'rk4', 'spectral')\n")


def test_a_usage_error_leaves_the_next_call_as_a_fresh_one_prints(capsys):
    # main keeps one parser across calls; a call it refuses must not
    # change what the next call prints
    argv = ["verify", "--suite", "heine", "--support", "2", "--k-max", "2",
            "--seed", "5"]
    fresh = subprocess.run(
        [sys.executable, "-c",
         "import sys; from cubicstring.cli import main; "
         "raise SystemExit(main(sys.argv[1:]))", *argv],
        env=dict(os.environ,
                 PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src")),
        capture_output=True, text=True)
    assert fresh.returncode == 0
    assert main(["verify", "--suite", "heine", "--support", "x",
                 "--seed", "9"]) == 2
    _assert_one_line_error(capsys)
    assert main(argv) == 0
    out = capsys.readouterr()
    assert (out.out, out.err) == (fresh.stdout, fresh.stderr)


@pytest.mark.parametrize("argv", [
    [], ["bogus"], ["forward"], ["forward", "{p}", "--unknown"],
    ["forward", "{p}", "--precision-bits", "x"],
    ["forward", "{p}", "--precision-bits"],
    ["invert", "{p}", "--report-determinants=yes"],
    ["roundtrip"], ["roundtrip", "--n", "2.5"],
    ["verify", "--suite", "other"], ["verify", "--suite", "heine", "--k-max"],
    ["evolve", "{p}", "--t-end", "1"],
    ["evolve", "{p}", "--method", "spectral"],
    ["evolve", "{p}", "--method", "spectral", "--t-end", "one"],
    ["evolve", "{p}", "--method", "rk4", "--t-end", "1", "--dt", "--1"],
    ["evolve", "{p}", "--method", "spectral", "--t-end", "1",
     "--samples", "3.0"],
    # the flow derives its own precision: the flag is gone
    ["evolve", "{p}", "--method", "spectral", "--t-end", "1",
     "--precision-bits", "256"],
])
def test_fuzzed_flags_are_bad_input(tmp_path, capsys, argv):
    p = write_json(tmp_path / "n3.json", N3_STRING)
    assert main([a.replace("{p}", p) for a in argv]) == 2
    _assert_one_line_error(capsys)


def test_forward_builds_the_boundary_data_once(tmp_path, capsys,
                                               monkeypatch):
    # one crossing step per mass: the data the cap prices is the data
    # forward isolates
    calls = []
    real = forward.jump_step
    monkeypatch.setattr(forward, "jump_step",
                        lambda t, m: calls.append(m) or real(t, m))
    for doc in (N3_STRING, MIXED_N4):
        assert main(["forward", write_json(tmp_path / "s.json", doc)]) == 0
        assert len(calls) == len(doc["masses"])
        calls.clear()
    capsys.readouterr()


def test_evolve_spectral_past_the_digit_cap_is_a_math_error(tmp_path, capsys,
                                                            monkeypatch):
    # a row whose cells do not round to one double at the most digits
    # the flow carries is refused, not printed uncertified
    monkeypatch.setattr(burgers, "FLOW_START_DIGITS", 2)
    monkeypatch.setattr(burgers, "FLOW_MAX_DIGITS", 4)
    p = write_json(tmp_path / "n3.json", N3_STRING)
    assert main(["evolve", p, "--method", "spectral", "--t-end", "0.25",
                 "--samples", "2"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("error: could not certify the row at t = 0.25 with 4 "
                       "digits of e^(M t)\n")


def test_cli_import_loads_no_numpy():
    # the runtime has no dependencies; numpy serves only the test oracles
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, cubicstring.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"
