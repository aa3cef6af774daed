"""Exact scalar and 2x2 matrix arithmetic.

Everything downstream works over arbitrary-precision rationals; floating
point is forbidden throughout the package. ``fractions.Fraction`` already
keeps values in canonical form (positive denominator, reduced), so it is
the scalar carrier here, wrapped with a strict text codec. The codec
converts a long integer to and from text in pieces short enough for any
int<->str limit CPython lets a caller set, and never touches that
process-wide limit. The 2x2 matrix
helpers serve no part of the engine: the acceptance suite's oracle checks
the product identities against companion-matrix determinants with them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

_RATIONAL_RE = re.compile(r"^[+-]?[0-9]+(?:\s*/\s*[0-9]+)?$")

# digits in a decimal literal; A015530, the fastest-growing named family, has
# about 66,700 digits at sequences.MAX_INDEX
MAX_DIGITS = 100_000
TOO_LONG = f"Exceeds the limit ({MAX_DIGITS} digits) for a decimal number"

# digits that one str() or int() call converts: CPython refuses to convert
# more than a process-wide limit of digits, and the least limit it lets a
# caller set is 640, so longer numbers are converted in pieces
_PIECE_DIGITS = 600
_PIECE_BOUND = 10 ** _PIECE_DIGITS

QUOTE_CHARS = 100  # characters of an input that an error message quotes


class DigitLimitError(ValueError):
    """A decimal number past MAX_DIGITS digits, read or about to be written."""

    def __init__(self):
        super().__init__(TOO_LONG)


def quote(value) -> str:
    """repr(value) for an error message, cut after QUOTE_CHARS characters; an
    int past MAX_DIGITS digits is described, and of a shorter one only the
    leading digits are converted."""
    dropped = 0
    if type(value) is int and not _past_max_digits(value):  # not a bool, whose repr is a word
        # digits surely past the first QUOTE_CHARS: 0.301 < log10(2)
        dropped = max(0, (abs(value).bit_length() - 1) * 301 // 1000 - QUOTE_CHARS)
        text = f"{'-' if value < 0 else ''}{abs(value) // 10 ** dropped}"
    else:
        text = _repr(value)
    if len(text) + dropped <= QUOTE_CHARS:
        return text
    return f"{text[:QUOTE_CHARS]}... ({len(text) + dropped} characters)"


def _repr(value) -> str:
    """repr(value) of a str, an int, a Fraction or a dict of them, each int
    converted by _digits; an int past MAX_DIGITS digits is described."""
    if type(value) is int:
        if _past_max_digits(value):
            return f"<an integer of more than {MAX_DIGITS} digits>"
        return _digits(value)
    if type(value) is Fraction:
        return f"Fraction({_repr(value.numerator)}, {_repr(value.denominator)})"
    if type(value) is dict:
        return "{" + ", ".join(f"{_repr(k)}: {_repr(v)}" for k, v in value.items()) + "}"
    return repr(value)


def _digits(n: int) -> str:
    """str(n), converted in pieces of at most _PIECE_DIGITS digits: n is split
    at about half its digits until the pieces are that short."""
    if -_PIECE_BOUND < n < _PIECE_BOUND:
        return str(n)
    if n < 0:
        return f"-{_digits(-n)}"
    k = n.bit_length() * 1233 >> 13  # about half the digits of n: 1233 / 4096 < log10(2)
    # divmod(n, 10**k), with 10**k = 5**k << k: a divisor of fewer bits
    hi, rest = divmod(n >> k, 5 ** k)
    lo = (rest << k) + (n & ((1 << k) - 1))
    return _digits(hi) + _digits(lo).zfill(k)


def _from_digits(text: str, pow5: dict[int, int] | None = None) -> int:
    """int(text) for a string of decimal digits, converted in the fewest
    pieces of at most _PIECE_DIGITS digits: hi * 10**k + lo, where lo holds
    half the pieces. pow5 holds the powers 5**k this conversion computed."""
    if len(text) <= _PIECE_DIGITS:
        return int(text)
    if pow5 is None:
        pow5 = {}
    pieces = -(-len(text) // _PIECE_DIGITS)
    k = len(text) * (pieces // 2) // pieces
    if k not in pow5:
        pow5[k] = 5 ** k
    # hi * 10**k, with 10**k = 5**k << k: a factor of fewer bits
    return (_from_digits(text[:-k], pow5) * pow5[k] << k) + _from_digits(text[-k:], pow5)


def _past_max_digits(n: int) -> bool:
    """|n| has more than MAX_DIGITS digits, told without an int->str conversion."""
    n = abs(n)
    # 10**MAX_DIGITS has more than 3.32 * MAX_DIGITS bits, so the exact
    # comparison runs only for numbers within a few dozen digits of the limit
    return 100 * n.bit_length() > 332 * MAX_DIGITS and n >= 10 ** MAX_DIGITS


def ensure_fraction(value) -> Fraction:
    """Coerce an int or Fraction to Fraction, rejecting floats outright."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an exact rational, got {type(value).__name__}")
    return Fraction(value)


def fraction_fields(obj, *names: str) -> None:
    """Coerce the named fields of a frozen dataclass instance with
    ensure_fraction, skipping any that already hold a Fraction."""
    for name in names:
        value = getattr(obj, name)
        if not isinstance(value, Fraction):
            object.__setattr__(obj, name, ensure_fraction(value))


def parse_int(text: str) -> int:
    """int(text), refusing more than MAX_DIGITS digits with DigitLimitError,
    which does not echo the literal."""
    if len(text) <= _PIECE_DIGITS:
        return int(text)
    if len(text) > MAX_DIGITS and sum(c.isdigit() for c in text) > MAX_DIGITS:
        raise DigitLimitError()
    # int()'s grammar: decimal digits, single underscores between them, a
    # sign and surrounding whitespace
    body = text.strip()
    sign = body[:1] if body.startswith(("+", "-")) else ""
    groups = body[len(sign):].split("_")
    digits = "".join(groups)
    # digits.isdecimal(), told at C speed for ASCII text
    if "" in groups or not (digits.isascii() and digits.encode().isdigit() or digits.isdecimal()):
        # the refusal int() gives, which cuts its echo at 200 characters
        raise ValueError(f"invalid literal for int() with base 10: {text!r:.200}")
    n = _from_digits(digits)
    return -n if sign == "-" else n


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" (or bare "p") into a Fraction.

    Non-canonical input such as "2/4" is accepted and reduced; a zero
    denominator or anything outside integer/fraction syntax (decimals,
    exponents) is rejected.
    """
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise ValueError(f"not a rational literal: {quote(text)}")
    if "/" in s:
        num_text, den_text = (part.strip() for part in s.split("/"))
        den = parse_int(den_text)
        if den == 0:
            raise ValueError(f"zero denominator in {quote(text)}")
        return Fraction(parse_int(num_text), den)
    return Fraction(parse_int(s))


def format_rational(q: Fraction) -> str:
    """Canonical text form: "p/q" with q > 0, collapsing to "p" when q = 1.

    A numerator or denominator past MAX_DIGITS digits raises DigitLimitError.
    """
    q = ensure_fraction(q)
    num, den = q.numerator, q.denominator
    if _past_max_digits(num) or _past_max_digits(den):
        raise DigitLimitError()
    return _digits(num) if den == 1 else f"{_digits(num)}/{_digits(den)}"


def lowest_terms(n: int, p: int) -> tuple[int, int]:
    """n/p (p != 0) in lowest terms as the ints (numerator, denominator), the
    denominator positive: what Fraction(n, p).as_integer_ratio() gives,
    with no Fraction built."""
    if p < 0:
        n, p = -n, -p
    k = gcd(n, p)
    return n // k, p // k


def rat_pow(q, e: int) -> Fraction:
    """Exact integer power of a rational; 0 with e < 0 is a domain error."""
    q = ensure_fraction(q)
    if e < 0 and q == 0:
        raise ZeroDivisionError("0 cannot be raised to a negative power")
    return q ** e


@dataclass(frozen=True)
class Mat2:
    """2x2 matrix with exact rational entries, row-major [[a, b], [c, d]]."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    def __post_init__(self):
        fraction_fields(self, "a", "b", "c", "d")


MAT2_IDENTITY = Mat2(1, 0, 0, 1)


def companion(c1, c2) -> Mat2:
    """Companion matrix [[c1, c2], [1, 0]] of x_n = c1*x_{n-1} + c2*x_{n-2}."""
    return Mat2(c1, c2, 1, 0)


def mat2_mul(m: Mat2, n: Mat2) -> Mat2:
    return Mat2(
        m.a * n.a + m.b * n.c,
        m.a * n.b + m.b * n.d,
        m.c * n.a + m.d * n.c,
        m.c * n.b + m.d * n.d,
    )


def mat2_det(m: Mat2) -> Fraction:
    return m.a * m.d - m.b * m.c


def mat2_inverse(m: Mat2) -> Mat2:
    det = mat2_det(m)
    if det == 0:
        raise ZeroDivisionError("singular matrix has no inverse")
    return Mat2(m.d / det, -m.b / det, -m.c / det, m.a / det)


def mat2_pow(m: Mat2, e: int) -> Mat2:
    """Binary exponentiation on |e|, inverting the result once when e < 0."""
    result = MAT2_IDENTITY
    base = m
    k = abs(e)
    while k:
        if k & 1:
            result = mat2_mul(result, base)
        k >>= 1
        if k:
            base = mat2_mul(base, base)
    if e < 0:
        return mat2_inverse(result)
    return result
