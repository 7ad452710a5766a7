"""End-to-end runs of every subcommand through main(argv)."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cubicstring.cli import EVOLVE_SAMPLE_CAP, main
from cubicstring.forward import MAX_PRECISION_BITS

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


def test_forward_env_precision(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CUBICSTRING_PRECISION_BITS", "32")
    p = write_json(tmp_path / "n3.json", N3_STRING)
    assert main(["forward", p]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["precision_bits"] == 32


# forward output pinned byte for byte: N3_STRING has an irrational
# spectrum (decimal mode), EXACT_N3 the rational spectrum 2, 7/2
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
}


@pytest.mark.parametrize("kind,bits", sorted(GOLDEN_FORWARD))
def test_forward_golden_output(tmp_path, capsys, kind, bits):
    doc = N3_STRING if kind == "decimal" else EXACT_N3
    p = write_json(tmp_path / "s.json", doc)
    assert main(["forward", p, "--precision-bits", str(bits)]) == 0
    assert capsys.readouterr().out == GOLDEN_FORWARD[kind, bits]


def _assert_one_line_error(capsys):
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1


@pytest.mark.parametrize("bits", ["-5", "0"])
def test_non_positive_precision_bits_is_bad_input(tmp_path, capsys,
                                                  monkeypatch, bits):
    p = write_json(tmp_path / "n3.json", N3_STRING)
    assert main(["forward", p, "--precision-bits", bits]) == 2
    _assert_one_line_error(capsys)
    for method in (["spectral"], ["rk4", "--dt", "0.01"]):
        assert main(["evolve", p, "--method", *method, "--t-end", "0.1",
                     "--precision-bits", bits]) == 2
        _assert_one_line_error(capsys)
    monkeypatch.setenv("CUBICSTRING_PRECISION_BITS", bits)
    assert main(["forward", p]) == 2
    _assert_one_line_error(capsys)
    assert main(["evolve", p, "--method", "spectral", "--t-end", "0.1"]) == 2
    _assert_one_line_error(capsys)


def test_precision_bits_over_the_cap_is_bad_input(tmp_path, capsys,
                                                  monkeypatch):
    # refused before any isolation starts, from the flag or the environment
    p = write_json(tmp_path / "n3.json", N3_STRING)
    over = str(MAX_PRECISION_BITS + 1)
    spectral = ["evolve", p, "--method", "spectral", "--t-end", "0.1"]
    for argv in (["forward", p], spectral):
        assert main([*argv, "--precision-bits", over]) == 2
        _assert_one_line_error(capsys)
    monkeypatch.setenv("CUBICSTRING_PRECISION_BITS", over)
    for argv in (["forward", p], spectral):
        assert main(argv) == 2
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
                 "--samples", "3", "--precision-bits", "128",
                 "-o", str(b)]) == 0
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
    (6, 4),            # 6^8 = 1,679,616 split-sum tuples
    (8, 1),            # 8^8 Cauchy tuples
    (2, 10),           # 2^20 split-sum tuples
    (1, 11),           # one point, one tuple, but k_max over its cap
    (10 ** 9, 3),      # huge flags are refused without powering them
    (3, 10 ** 9),
    (1, 10 ** 9),      # one tuple, refused by the k_max cap alone
])
def test_verify_enumeration_cap(capsys, support, k_max):
    assert main(["verify", "--suite", "heine", "--support", str(support),
                 "--k-max", str(k_max)]) == 2
    _assert_one_line_error(capsys)


def test_verify_one_point_counts_as_one(capsys):
    # every split-sum tuple repeats the point and is skipped before any
    # halves are listed, so the largest k_max runs at once
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
    ["--method", "spectral", "--t-end", "1e300", "--precision-bits", "64"],
    # the recovered positions pass the double range
    ["--method", "spectral", "--t-end", "2000", "--precision-bits", "64"],
    # the RK4 state passes the double range
    ["--method", "rk4", "--dt", "0.5", "--t-end", "300"],
])
def test_evolve_overflow_is_one_line(tmp_path, capsys, flags):
    p = write_json(tmp_path / "n3.json", N3_STRING)
    assert main(["evolve", p, *flags, "--samples", "2"]) == 1
    _assert_one_line_error(capsys)


def test_evolve_rk4_step_cap_is_bad_input(tmp_path, capsys):
    # 10^9 steps would run for hours; the cap refuses them up front
    p = write_json(tmp_path / "n3.json", N3_STRING)
    assert main(["evolve", p, "--method", "rk4", "--dt", "1e-9",
                 "--t-end", "1"]) == 2
    _assert_one_line_error(capsys)


def test_forward_at_6000_bits(tmp_path, capsys):
    # the exact-root probe walks about 2,000 continued-fraction terms
    # per eigenvalue here, which once overflowed the stack
    p = write_json(tmp_path / "s.json",
                   {"masses": ["1", "2", "3"], "gaps": ["1", "1/2"]})
    assert main(["forward", p, "--precision-bits", "6000"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["precision_bits"] == 6000
    assert main(["forward", p, "--precision-bits", "64"]) == 0
    low = json.loads(capsys.readouterr().out)
    for key in ("lambdas", "residues_b"):
        assert [x[:16] for x in doc[key]] == [x[:16] for x in low[key]]


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


@pytest.mark.parametrize("text", ["[" * 100000 + "]" * 100000, "5"])
@pytest.mark.parametrize("argv", [
    ["forward"], ["invert"],
    ["evolve", "--method", "rk4", "--dt", "0.1", "--t-end", "1"],
])
def test_malformed_json_documents_are_bad_input(tmp_path, capsys, text,
                                                argv):
    # a parser stack overflow and a bare number are bad input too
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


def test_bad_usage_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["forward"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["evolve", "x.json", "--method", "euler", "--t-end", "1"])
    assert exc.value.code == 2


def test_cli_import_loads_no_numpy():
    # the runtime has no dependencies; numpy serves only the test oracles
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, cubicstring.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"
