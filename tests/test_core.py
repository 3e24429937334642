import random

import pytest

from artinword.core import (
    GroupParams,
    ParseError,
    format_word,
    free_reduce,
    invert_word,
    is_freely_reduced,
    make_alternating,
    parse_word,
)

P = parse_word
F = format_word


class TestGroupParams:
    def test_m_values(self, params5):
        assert params5.m("ab") == 3
        assert params5.m("ac") == 2
        assert params5.m("bc") == 5

    def test_small_n_guarded(self):
        with pytest.raises(ValueError):
            GroupParams(4)
        assert GroupParams(4, allow_small_n=True).n == 4
        with pytest.raises(ValueError):
            GroupParams(2, allow_small_n=True)


class TestAlternating:
    def test_start_anchor(self):
        assert F(make_alternating(1, 2, 5, "start")) == "bcbcb"

    def test_empty(self):
        assert make_alternating(0, 1, 0, "start") == ()

    def test_end_anchor(self):
        # (c,b)_4 ends with its second letter
        assert F(make_alternating(2, 1, 4, "end")) == "cbcb"

    def test_equal_names_rejected(self):
        with pytest.raises(ValueError):
            make_alternating(0, 3, 4, "start")
        with pytest.raises(ValueError):
            make_alternating(0, 4, 4, "start")  # mixed signs

    def test_reversal_symmetry(self):
        for length in range(13):
            for x, y in ((0, 1), (1, 2), (2, 0), (4, 5)):
                fwd = make_alternating(x, y, length, "start")
                assert fwd[::-1] == make_alternating(y, x, length, "end")


class TestFreeReduce:
    @pytest.mark.parametrize("text,expected", [
        ("abB", "a"),
        ("aA", ""),
        ("abBAc", "c"),
        ("", ""),
    ])
    def test_examples(self, text, expected):
        assert F(free_reduce(P(text))) == expected

    def test_idempotent_and_parity(self):
        rng = random.Random(0)
        for _ in range(3000):
            w = tuple(rng.randrange(6) for _ in range(rng.randint(0, 20)))
            r = free_reduce(w)
            assert free_reduce(r) == r
            assert is_freely_reduced(r)
            assert (len(w) - len(r)) % 2 == 0


class TestInvert:
    def test_examples(self):
        assert F(invert_word(P("ab"))) == "BA"
        assert invert_word(()) == ()
        # the inverse of a b^-1 c is c^-1 b a^-1 (a tempting "Cba"
        # would fail the w * invert(w) = identity contract)
        assert F(invert_word(P("aBc"))) == "CbA"

    def test_cancels_to_identity(self):
        rng = random.Random(1)
        for _ in range(500):
            w = tuple(rng.randrange(6) for _ in range(rng.randint(0, 16)))
            assert free_reduce(w + invert_word(w)) == ()


class TestParseFormat:
    def test_powers_and_whitespace(self):
        assert F(P("a^3 B")) == "aaaB"
        assert F(P(" b^-2c ")) == "BBc"
        assert F(P("a^0")) == ""
        assert P("") == ()

    def test_round_trip(self):
        rng = random.Random(2)
        for _ in range(300):
            w = tuple(rng.randrange(6) for _ in range(rng.randint(0, 12)))
            assert P(F(w)) == w

    def test_error_positions(self):
        with pytest.raises(ParseError) as exc:
            P("abd")
        assert exc.value.position == 2
        with pytest.raises(ParseError) as exc:
            P("a^x")
        assert exc.value.position == 1
        with pytest.raises(ParseError) as exc:
            P("a^-")
        assert exc.value.position == 1
        # only ASCII digits make an exponent: "\u0663" is Arabic-Indic
        # three and "\u00b2" a superscript two, which int() refuses
        for text in ("a^\u0663", "a^\u00b2", "ba^-\u0663"):
            with pytest.raises(ParseError, match="malformed exponent") as exc:
                P(text)
            assert exc.value.position == text.index("^"), text
