"""Malformed input: the exception type and position each parser reports.

The positions are pinned per input; messages may be reworded freely.
Each error survives ``pickle`` with its type, text and position.
"""

from __future__ import annotations

import pickle

import pytest

import condalg as c

TERM_ERRORS = [
    # unterminated quote
    ('"unterminated', 0),
    ('a <| "b', 5),
    # empty quote
    ('""', 0),
    ('a <| "" |> b', 5),
    ('"""', 0),
    ('"" $', 0),
    # stray character
    ("a <| ? |> b", 5),
    ("A", 0),
    ("a <| b |> c$", 11),
    ("a <| |> $", 8),
    # missing |> (or <|)
    ("T <| a F", 7),
    ("(T <| a F)", 8),
    ("(a)", 2),
    # trailing input
    ("a <| b |> c d", 12),
    ("T <| a |> F <| b |> F", 12),
    ("a)", 1),
    # premature end
    ("", 0),
    ("   ", 0),
    ("T <| a", 6),
    ("T <| a |>", 9),
    ("(T <| a |> F", 12),
    # a token out of place
    ("a <| |> b", 5),
]

SC_ERRORS = [
    # unterminated quote
    ('"abc', 0),
    ('a && "b', 5),
    # empty quote
    ('""', 0),
    ('a && ""', 5),
    ('"" )', 0),
    ('"" $', 3),
    # stray character
    ("a & b", 2),
    ("a $ b", 2),
    ("?", 0),
    # missing )
    ("(a b", 3),
    # trailing input
    ("a)", 1),
    ("a ! b", 2),
    ("a b", 2),
    # premature end
    ("", 0),
    ("  ", 0),
    ("(a", 2),
    ("a &&", 4),
    ("!", 1),
    # a token out of place
    ("&& a", 0),
    ("a || )", 5),
]


def assert_pickles(error: Exception) -> None:
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(error, protocol))
        assert type(copy) is type(error)
        assert (str(copy), copy.position) == (str(error), error.position)


@pytest.mark.parametrize("text,position", TERM_ERRORS)
def test_parse_term_error_position(text, position):
    with pytest.raises(c.TermSyntaxError) as err:
        c.parse_term(text)
    assert type(err.value) is c.TermSyntaxError
    assert err.value.position == position
    assert_pickles(err.value)


@pytest.mark.parametrize("text,position", SC_ERRORS)
def test_parse_sc_error_position(text, position):
    with pytest.raises(c.TermSyntaxError) as err:
        c.parse_sc(text)
    assert type(err.value) is c.TermSyntaxError
    assert err.value.position == position
    assert_pickles(err.value)


@pytest.mark.parametrize(
    "atom_text",
    [
        "(n==$)",
        "(n==N)",
        "(n==(1)",
        "(n==1 2)",
        "(n==1))",
        "(n==)",
        "(n==1+)",
        "(n==+1)",
        "(n==())",
        "(n==x)",
        "(n=(n-)",
        # characters str.isdigit accepts but the grammar's [0-9] does not
        "(n==²)",
        "(n==٣)",
    ],
)
def test_register_expression_errors(atom_text):
    oracle = c.make_register_oracle({"n": 0})
    with pytest.raises(c.OracleError):
        oracle(c.Atom(atom_text))
