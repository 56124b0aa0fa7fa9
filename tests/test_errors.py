"""How an error message quotes an offending value."""

from fractions import Fraction

import pytest

from hardysim.errors import ECHO_MAX_CHARS, QUOTE_MAX_BITS, echo
from helpers import deep_list

TOO_LONG = "(too long to quote)"


@pytest.mark.parametrize("value, quoted", [
    ("abc", "'abc'"),
    ("x" * 10**6, "'" + "x" * (ECHO_MAX_CHARS - 1) + "..."),
    (Fraction(1, 3), "1/3"),
    (Fraction(2**QUOTE_MAX_BITS, 3), TOO_LONG),
    ([10**5000], TOO_LONG),
    (deep_list(), TOO_LONG),
], ids=["short-text", "1MB-text", "fraction", "257-bit-fraction",
        "huge-int-in-list", "deep-list"])
def test_echo(value, quoted):
    assert echo(value) == quoted
