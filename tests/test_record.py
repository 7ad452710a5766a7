"""The Record base: construction, equality, hashing, immutability, repr,
replace; and a start-up that loads neither dataclasses nor inspect."""

import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from cubicstring.exact import Polynomial, RatInterval
from cubicstring.forward import WeylData, boundary_data, residues, spectrum
from cubicstring.inverse import (
    MomentMinors,
    SpectralData,
    random_spectral,
    recover,
    recover_detailed,
)
from cubicstring.record import Record
from cubicstring.string_model import ConservedSet, CubicString

REPO = Path(__file__).resolve().parents[1]


class Point(Record):
    x: int
    y: int = 0


class Pair(Record):
    x: int
    y: int = 0


def test_a_record_equals_no_tuple_nor_another_record_type():
    assert RatInterval(F(0), F(1)) != (F(0), F(1))
    assert (F(0), F(1)) != RatInterval(F(0), F(1))
    assert Point(1, 2) != Pair(1, 2)
    assert Point(1, 2) == Point(1, 2) and Point(1, 2) != Point(1, 3)
    assert ConservedSet(F(1), F(2), ()) != (F(1), F(2), ())


def test_equal_records_hash_alike():
    a = CubicString((1, 2), (3,))
    b = CubicString(gaps=(F(3),), masses=(F(1), F(2)), anchor=F(0))
    assert a == b and hash(a) == hash(b)
    assert len({a, b, CubicString((1, 2), (3,), 1)}) == 2


def test_a_record_refuses_assignment_and_deletion():
    s = CubicString((1,), ())
    with pytest.raises(AttributeError):
        s.anchor = F(1)
    with pytest.raises(AttributeError):
        s.new_field = 1
    with pytest.raises(AttributeError):
        del s.anchor
    assert s.anchor == 0


def test_replace_builds_and_validates_anew():
    box = RatInterval(F(0), F(1))
    assert box.replace(hi=F(3)) == RatInterval(F(0), F(3))
    assert box == RatInterval(F(0), F(1))
    with pytest.raises(ValueError, match="out of order"):
        box.replace(lo=2)
    assert CubicString((1,), ()).replace(anchor=2).anchor == F(2)
    with pytest.raises(TypeError):
        box.replace(width=1)


def test_defaults_hold():
    assert CubicString((1,), ()).anchor == F(0)
    p = Polynomial.one()
    wd = WeylData(p, p, p)
    assert (wd.eigenvalues, wd.w_residues, wd.z_residues) == (None,) * 3
    assert Point(5) == Point(x=5, y=0)


def test_missing_unknown_or_repeated_fields_are_refused():
    with pytest.raises(TypeError, match="missing"):
        RatInterval(F(0))
    with pytest.raises(TypeError, match="missing"):
        CubicString(gaps=())
    with pytest.raises(TypeError, match="unexpected"):
        RatInterval(F(0), F(1), width=F(1))
    with pytest.raises(TypeError, match="twice"):
        RatInterval(F(0), F(1), lo=F(0))
    with pytest.raises(TypeError, match="positional"):
        RatInterval(F(0), F(1), F(2))


def test_keyword_construction_keeps_the_field_order():
    assert repr(Point(y=2, x=1)) == "Point(x=1, y=2)"
    sd = random_spectral(3, 3)
    report = recover_detailed(sd)
    shuffled = MomentMinors(**dict(reversed(vars(report.minors).items())))
    assert list(report.replace(minors=shuffled).to_dict()["minors"]) == [
        "mass_corner", "corner", "inner", "shifted", "beta_shifted",
        "beta_inner"]


def test_the_readme_library_example_prints_as_shown():
    readme = (REPO / "README.md").read_text()
    s = CubicString(masses=(F(1), F(1)), gaps=(F(1),))
    wd = residues(spectrum(boundary_data(s)))
    eigenvalues = "(RatInterval(lo=Fraction(2, 1), hi=Fraction(2, 1)),)"
    string = ("CubicString(masses=(Fraction(1, 1), Fraction(1, 1)), "
              "gaps=(Fraction(1, 1),), anchor=Fraction(0, 1))")
    assert repr(wd.eigenvalues) == eigenvalues
    assert repr(recover(SpectralData((F(2),), (F(-1),), F(2)))) == string
    assert eigenvalues in readme and string in readme


def test_start_up_loads_neither_dataclasses_nor_inspect():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import cubicstring.cli, cubicstring.inverse, "
            "cubicstring.burgers, cubicstring.heine; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", code,
                           str(REPO / "src")],
                          capture_output=True, text=True, timeout=60,
                          check=True)
    assert done.stdout.strip() == "[]"
