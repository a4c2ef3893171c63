from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lctforge.syntax import Cursor, ParseError, parse_rat


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


def test_str_round_trip():
    for text in ["3/4", "-47/609", "12", "0", "-1"]:
        assert str(parse_rat(text)) == text


def test_str_normalizes():
    # unreduced input comes back reduced
    assert str(parse_rat("147/2849")) == "21/407"
    assert str(Fraction(4, 2)) == "2"


@pytest.mark.parametrize("bad", ["1_0", "+1", "1/-2", "1 /2", "1/ 2", "- 1",
                                 "--1", "\u0661", "\uff11", "1\u00a0"])
def test_parse_refuses_what_the_lexer_does_not_read(bad):
    with pytest.raises(ValueError) as exc:
        parse_rat(bad)
    assert str(exc.value) == f"malformed number {bad.strip(' ')!r}"


@pytest.mark.parametrize("text, value", [
    ("1", 1), (" -3/4 ", Fraction(-3, 4)), ("-0/5", 0),
    ("\t007/14\t", Fraction(1, 2)),
])
def test_parse_reads_a_signed_number_between_blanks(text, value):
    assert parse_rat(text) == value


def _cursor_read(text):
    """The rational a Cursor reads from text when nothing follows it."""
    cur = Cursor(text, 1)
    value = cur.rational()
    if not cur.at_end():
        cur.fail("trailing text")
    return value


# text made of digits, ASCII or not, the characters next to a number
# and a letter; half of it is shaped like a signed number between blanks
NUMBERISH = st.one_of(
    st.text(alphabet="0123456789\u0661\u0662\uff11\u00b2_+-/ \tx",
            max_size=8),
    st.from_regex(r"[ \t]{0,2}-?[0-9\u0661_]{1,3}(/[-+0-9_]{1,3})?"
                  r"[ \t]{0,2}", fullmatch=True),
)


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(NUMBERISH)
def test_parse_rat_is_the_lexers_number_rule(text):
    """parse_rat reads exactly the texts that a Cursor reads as one
    rational and nothing after it, to the same value."""
    try:
        want = _cursor_read(text)
    except ParseError:
        with pytest.raises((ValueError, ZeroDivisionError)):
            parse_rat(text)
    else:
        assert parse_rat(text) == want
