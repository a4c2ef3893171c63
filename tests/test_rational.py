from fractions import Fraction

import pytest

from lctforge.rational import parse_rat, rat_str


def test_parse_plain_integer():
    assert parse_rat("7") == Fraction(7)
    assert parse_rat("-3") == Fraction(-3)
    assert parse_rat("0") == 0


def test_parse_fraction_reduces():
    assert parse_rat("6/8") == Fraction(3, 4)
    assert parse_rat("-10/4") == Fraction(-5, 2)


def test_parse_strips_whitespace():
    assert parse_rat("  21/407 ") == Fraction(21, 407)


@pytest.mark.parametrize("bad", ["", "  ", "a/b", "1/2/3", "1.5", "1/-2x"])
def test_parse_junk_raises(bad):
    with pytest.raises(ValueError):
        parse_rat(bad)


def test_parse_zero_denominator():
    with pytest.raises(ZeroDivisionError,
                       match="zero denominator in rational '3/0'"):
        parse_rat("3/0")


def test_rat_str_round_trip():
    for text in ["3/4", "-47/609", "12", "0", "-1"]:
        assert rat_str(parse_rat(text)) == text


def test_rat_str_normalizes():
    # unreduced input comes back reduced
    assert rat_str(parse_rat("147/2849")) == "21/407"
    assert rat_str(Fraction(4, 2)) == "2"
