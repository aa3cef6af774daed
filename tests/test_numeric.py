import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from identity_forge.numeric import (
    MAT2_IDENTITY,
    Mat2,
    companion,
    ensure_fraction,
    format_rational,
    mat2_det,
    mat2_inverse,
    mat2_mul,
    mat2_pow,
    parse_int,
    parse_rational,
    quote,
    rat_pow,
)
from identity_forge.sequences import FIBONACCI, term

from oracles import brute_term

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=30
)


class TestRationalCodec:
    def test_format_collapses_unit_denominator(self):
        assert format_rational(Fraction(-2)) == "-2"
        assert format_rational(Fraction(0)) == "0"
        assert format_rational(Fraction(-1, 2)) == "-1/2"

    def test_parse_accepts_and_canonicalizes(self):
        assert parse_rational("2/4") == Fraction(1, 2)
        assert parse_rational(" -3/4 ") == Fraction(-3, 4)
        assert parse_rational("+7") == Fraction(7)

    @pytest.mark.parametrize("bad", ["1/0", "1.5", "2e3", "a/b", "", "1//2", "--1"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    @given(rationals)
    def test_round_trip(self, q):
        assert parse_rational(format_rational(q)) == q

    def test_floats_are_rejected_everywhere(self):
        with pytest.raises(TypeError):
            ensure_fraction(0.5)
        with pytest.raises(TypeError):
            Mat2(1.0, 0, 0, 1)


@pytest.fixture
def default_digit_limit():
    """CPython's default int<->str limit, as a library caller without cli.main has it."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    yield sys.int_info.default_max_str_digits
    sys.set_int_max_str_digits(limit)


class TestDigitBoundOutsideMain:
    """numeric holds MAX_DIGITS itself: no caller raises CPython's limit first."""

    def test_long_value_formats_exactly(self, default_digit_limit):
        text = format_rational(term(FIBONACCI, 30000))
        assert len(text) > default_digit_limit
        sys.set_int_max_str_digits(0)
        assert text == str(brute_term(1, 1, 0, 1, 30000))

    def test_long_literal_parses_exactly(self, default_digit_limit):
        assert parse_int("7" * 5000) == 7 * (10 ** 5000 - 1) // 9
        assert sys.get_int_max_str_digits() == default_digit_limit

    def test_far_index_refusal_is_the_packages_own(self, default_digit_limit):
        with pytest.raises(ValueError) as exc:
            term(FIBONACCI, 10 ** 5000)
        assert "beyond the limit of" in str(exc.value)
        assert "set_int_max_str_digits" not in str(exc.value)

    @pytest.mark.parametrize("limit", [0, 200_000])
    def test_a_higher_limit_is_never_lowered(self, limit):
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(limit)
        try:
            assert len(format_rational(term(FIBONACCI, 30000))) == 6270
            assert sys.get_int_max_str_digits() == limit
        finally:
            sys.set_int_max_str_digits(saved)


@pytest.fixture
def least_digit_limit():
    """The least int<->str limit CPython lets a caller set."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield 640
    sys.set_int_max_str_digits(limit)


def unlimited(convert, value):
    """convert(value) under no int<->str limit, or the message it is refused
    with; the limit in force before is restored."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return convert(value)
    except ValueError as exc:
        return str(exc)
    finally:
        sys.set_int_max_str_digits(limit)


def cut_repr(value) -> str:
    text = unlimited(repr, value)
    return text if len(text) <= 100 else f"{text[:100]}... ({len(text)} characters)"


def _ints_near_piece_bounds(digit_counts=(599, 600, 601, 1200, 1201, 100_000)):
    rng = random.Random(600)
    values = []
    for digits in digit_counts:
        n = rng.randrange(10 ** (digits - 1), 10 ** digits)
        values += [n, -n, 10 ** digits - 1, -(10 ** digits - 1), 10 ** (digits - 1)]
    return values


class TestPiecewiseCodec:
    """numeric converts ints to and from text in pieces of at most 600
    digits, and never changes CPython's process-wide int<->str limit."""

    def test_limit_is_never_set(self, default_digit_limit, monkeypatch):
        def refuse(limit):
            raise AssertionError("set_int_max_str_digits was called")

        monkeypatch.setattr(sys, "set_int_max_str_digits", refuse)
        assert len(format_rational(term(FIBONACCI, 30000))) == 6270
        assert parse_int("7" * 5000) == 7 * (10 ** 5000 - 1) // 9
        assert quote({"j": 10 ** 5000}) == "{'j': 1" + "0" * 93 + "... (5008 characters)"
        assert sys.get_int_max_str_digits() == default_digit_limit

    def test_ints_near_piece_bounds(self, least_digit_limit):
        for n in _ints_near_piece_bounds():
            text = unlimited(str, n)
            assert format_rational(n) == text
            assert parse_int(text) == n
            assert quote(n) == cut_repr(n)
        assert sys.get_int_max_str_digits() == least_digit_limit

    def test_fractions(self, least_digit_limit):
        values = _ints_near_piece_bounds((599, 600, 601, 1200, 1201))
        fractions = [Fraction(num, abs(den)) for num, den in zip(values, reversed(values))]
        for q in [*fractions, Fraction(-(10 ** 100_000 - 1), 10 ** 1200 + 7)]:
            assert format_rational(q) == unlimited(str, q)
            assert parse_rational(unlimited(str, q)) == q
            assert quote(q) == cut_repr(q)

    def test_params_dict_with_long_fraction(self, least_digit_limit):
        params = {"j": Fraction(7 ** 5916, 3), "name": "x'y", "k": -(10 ** 4999)}
        assert len(unlimited(str, params["j"].numerator)) == 5000
        assert quote(params) == cut_repr(params)

    @pytest.mark.parametrize("text", [
        "+" + "1" * 700, "-" + "1" * 700, " \t" + "9" * 700 + "\n", "\u2003-" + "12_3" * 200 + "\u2003",
        "_".join(["7"] * 700), "\u0661" * 300 + "2" * 400, "0" * 700,
        "1" * 5000 + "x", "_" + "1" * 700, "1" * 700 + "_", "1" * 300 + "__" + "1" * 400,
        "+_" + "1" * 700, "-" + " " * 700, " " * 701, "1" * 350 + " " + "1" * 350,
        "1" * 350 + "+" + "1" * 350, "1" * 700 + "\u00b2", "1" * 300 + "'" + "1" * 400 + '"',
    ], ids=["plus", "minus", "whitespace", "unicode-space", "underscores", "unicode-digits",
            "zeros", "trailing-letter", "leading-underscore", "trailing-underscore",
            "double-underscore", "underscore-after-sign", "sign-only", "blank", "inner-space",
            "inner-sign", "superscript", "quotes"])
    def test_long_literal_grammar_is_ints(self, least_digit_limit, text):
        # a value where int() gives one, else int()'s own refusal
        try:
            parsed = parse_int(text)
        except ValueError as exc:
            parsed = str(exc)
        assert parsed == unlimited(int, text)


class TestQuote:
    @pytest.mark.parametrize("value", [
        0, 7, -7, 10 ** 99, 10 ** 100 - 1, -(10 ** 99), 10 ** 100, -(10 ** 100), 10 ** 100_000 - 1,
        -(10 ** 100_000 - 1), 7 ** 100_000, True, "x" * 150, {"j": 10 ** 5000},
    ], ids=["0", "7", "-7", "99-zeros", "100-nines", "minus-99-zeros", "101-digits",
            "minus-101-digits", "widest", "minus-widest", "7^100000", "bool", "string", "dict"])
    def test_is_its_repr_cut(self, default_digit_limit, value):
        quoted = quote(value)
        sys.set_int_max_str_digits(0)
        text = repr(value)
        assert quoted == (text if len(text) <= 100 else f"{text[:100]}... ({len(text)} characters)")

    def test_int_past_max_digits_is_described(self):
        assert quote(-(10 ** 100_000)) == "<an integer of more than 100000 digits>"


class TestRatPow:
    def test_square_of_negative(self):
        assert rat_pow(Fraction(-3, 4), 2) == Fraction(9, 16)

    def test_zero_exponent_is_one(self):
        for q in (Fraction(5), Fraction(-1, 7), Fraction(2, 3)):
            assert rat_pow(q, 0) == 1

    def test_cube(self):
        assert rat_pow(Fraction(-2), 3) == -8

    def test_negative_exponent_inverts(self):
        assert rat_pow(Fraction(2, 3), -2) == Fraction(9, 4)

    def test_zero_base_negative_exponent(self):
        with pytest.raises(ZeroDivisionError):
            rat_pow(Fraction(0), -1)

    @given(rationals.filter(lambda q: q != 0),
           st.integers(-10, 10), st.integers(-10, 10))
    def test_additivity(self, q, a, b):
        assert rat_pow(q, a + b) == rat_pow(q, a) * rat_pow(q, b)


class TestMat2:
    def test_companion_fifth_power_is_fibonacci_window(self):
        m = mat2_pow(companion(1, 1), 5)
        assert m == Mat2(8, 5, 5, 3)

    def test_zeroth_power_is_identity(self):
        assert mat2_pow(Mat2(3, 1, 4, 1), 0) == MAT2_IDENTITY

    def test_inverse_times_matrix_is_identity(self):
        m = companion(1, 1)
        assert mat2_mul(mat2_pow(m, -1), m) == MAT2_IDENTITY

    def test_companion_determinant(self):
        assert mat2_det(companion(Fraction(7), Fraction(-3, 2))) == Fraction(3, 2)

    def test_simple_determinants(self):
        assert mat2_det(MAT2_IDENTITY) == 1
        assert mat2_det(Mat2(2, 1, 1, 3)) == 5

    def test_singular_negative_power_raises(self):
        singular = Mat2(1, 2, 2, 4)
        with pytest.raises(ZeroDivisionError):
            mat2_pow(singular, -1)
        with pytest.raises(ZeroDivisionError):
            mat2_inverse(singular)

    def test_det_of_power_is_power_of_det(self):
        rng = random.Random(20240)
        pool = [Fraction(p, q) for p in range(-3, 4) for q in (1, 2, 3)]
        checked = 0
        while checked < 40:
            m = Mat2(*(rng.choice(pool) for _ in range(4)))
            if mat2_det(m) == 0:
                continue
            checked += 1
            for k in range(-8, 9):
                assert mat2_det(mat2_pow(m, k)) == rat_pow(mat2_det(m), k)

    def test_negative_power_is_inverse_of_positive(self):
        m = companion(Fraction(2), Fraction(1))
        for e in range(1, 7):
            assert mat2_mul(mat2_pow(m, -e), mat2_pow(m, e)) == MAT2_IDENTITY


def test_canonical_form_closure_over_random_ops():
    # Fraction guarantees den > 0 and gcd(|num|, den) = 1; make sure nothing
    # in the arithmetic mix ever breaks that, over 10^4 random operations.
    rng = random.Random(99)
    values = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(8)]
    for _ in range(10_000):
        a, b = rng.choice(values), rng.choice(values)
        op = rng.randrange(4)
        if op == 0:
            c = a + b
        elif op == 1:
            c = a - b
        elif op == 2:
            c = a * b
        else:
            if b == 0:
                continue
            c = a / b
        assert c.denominator > 0
        assert math.gcd(abs(c.numerator), c.denominator) == 1
        values[rng.randrange(len(values))] = c
