import tracemalloc

import pytest

from cosetgeom.words import (MAX_NESTING, MAX_WORD_LETTERS, ParseError,
                             Presentation, Word, commutator_word,
                             parse_presentation, parse_word)
from cosetgeom.words import X, XI, Y, YI


def test_free_reduction():
    assert Word((X, XI)).letters == ()
    assert Word((X, Y, YI, XI)).letters == ()
    assert Word((X, Y, X)).letters == (X, Y, X)


def test_word_algebra():
    w = parse_word("x*y")
    assert (w * w.inverse()).is_identity()
    assert w.inverse() == parse_word("y^-1*x^-1")
    assert w ** 3 == parse_word("x*y*x*y*x*y")
    assert w ** -1 == w.inverse()
    assert str(parse_word("x^2*y^-3")) == "x^2*y^-3"


def test_cyclic_reduction():
    w = parse_word("x^-1*y*x")
    assert w.cyclically_reduced() == parse_word("y")


def test_commutator():
    a, b = parse_word("x"), parse_word("y")
    assert commutator_word(a, b) == parse_word("x^-1*y^-1*x*y")
    assert commutator_word(a, a).is_identity()
    assert parse_word("[x,y]") == commutator_word(a, b)


def test_conjugation_syntax():
    assert parse_word("x^y") == parse_word("y^-1*x*y")
    assert parse_word("(x*y)^2") == parse_word("x*y*x*y")


def test_presentation_roundtrip():
    p = parse_presentation("< x, y | y^2, x^4, ((y*x^-1)^2*(y^-1*x)^2)^2 >")
    assert len(p.relators) == 3
    assert parse_presentation(str(p)) == p


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_word("z")
    with pytest.raises(ParseError):
        parse_word("x*")
    with pytest.raises(ParseError):
        parse_presentation("< x | x^2 >")
    for text, message in [("(x", r"expected '\)'"),
                          ("x^", "expected integer"),
                          ("x*y)", "trailing input")]:
        with pytest.raises(ParseError, match=message):
            parse_word(text)
    for text, message in [("< x, y | x^2 > z", "trailing input"),
                          ("< x, y | x*x^-1 >", "reduces to the identity")]:
        with pytest.raises(ParseError, match=message):
            parse_presentation(text)
    with pytest.raises(ValueError):
        Presentation((Word(),))


def test_power_is_linear():
    # one free reduction of the repeated letters, not one per factor
    assert len(parse_word("x^100000")) == 100000
    w = parse_word("x*y*x^-1")
    assert w ** 3 == parse_word("x*y^3*x^-1")
    assert w ** -2 == parse_word("x*y^-2*x^-1")
    assert w ** 0 == Word()


def test_huge_power_is_refused_before_it_is_built():
    tracemalloc.start()
    try:
        with pytest.raises(ParseError):
            parse_word("x^1000000000")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@pytest.mark.parametrize("text", [
    "(x*y)^%d" % (MAX_WORD_LETTERS // 2 + 1),
    "x^-%d" % (MAX_WORD_LETTERS + 1),
    "x^" + "9" * 5000,                  # beyond int()'s own digit limit
    "x^(y^%d)" % (MAX_WORD_LETTERS // 2),
    "x^%d*y" % MAX_WORD_LETTERS,
])
def test_word_over_the_letter_bound_is_a_parse_error(text):
    with pytest.raises(ParseError):
        parse_word(text)


def test_nested_commutators_are_refused():
    # each level at least doubles the length
    text = "x"
    for _ in range(25):
        text = "[%s,y]" % text
    with pytest.raises(ParseError):
        parse_word(text)


@pytest.mark.parametrize("text", [
    "(" * 5000 + "x" + ")" * 5000,
    "[" * 5000 + "x" + ",y]" * 5000,
    "x^" + "(" * 5000 + "y" + ")" * 5000,
])
def test_deep_nesting_is_a_parse_error(text):
    # refused before the parser recurses that deep
    with pytest.raises(ParseError, match="nested deeper"):
        parse_word(text)


def test_nesting_at_the_bound_parses():
    assert parse_word("(" * MAX_NESTING + "x" + ")" * MAX_NESTING) == \
        parse_word("x")
    inner = "(" * (MAX_NESTING - 1) + "x" + ")" * (MAX_NESTING - 1)
    assert parse_word("[%s,y]" % inner) == parse_word("[x,y]")
