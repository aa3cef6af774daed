"""Exact scalar and 2x2 matrix arithmetic.

Everything downstream works over arbitrary-precision rationals; floating
point is forbidden throughout the package. ``fractions.Fraction`` already
keeps values in canonical form (positive denominator, reduced), so it is
the scalar carrier here, wrapped with a strict text codec. The 2x2 matrix
helpers serve no part of the engine: the acceptance suite's oracle checks
the product identities against companion-matrix determinants with them.
"""

from __future__ import annotations

import re
import sys
from _thread import allocate_lock  # threading.Lock, without importing threading
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

_RATIONAL_RE = re.compile(r"^[+-]?[0-9]+(?:\s*/\s*[0-9]+)?$")

# digits in a decimal literal; A015530, the fastest-growing named family, has
# about 66,700 digits at sequences.MAX_INDEX
MAX_DIGITS = 100_000
TOO_LONG = f"Exceeds the limit ({MAX_DIGITS} digits) for a decimal number"

QUOTE_CHARS = 100  # characters of an input that an error message quotes


class DigitLimitError(ValueError):
    """A decimal number past MAX_DIGITS digits, read or about to be written."""

    def __init__(self):
        super().__init__(TOO_LONG)


class _RaisedDigitLimit:
    """CPython's int<->str digit bound, raised to MAX_DIGITS only around this
    module's size-checked conversions. The bound is process-wide: the first
    conversion in saves and raises it, the last one out restores it, so
    overlapping conversions in threads neither lower it under each other nor
    leave it raised; a limit past MAX_DIGITS, or 0 (none), is left alone."""

    def __init__(self):
        self._lock = allocate_lock()
        self._depth = 0
        self._saved = 0

    def __enter__(self):
        with self._lock:
            if self._depth == 0:
                self._saved = sys.get_int_max_str_digits()
                if 0 < self._saved < MAX_DIGITS:
                    sys.set_int_max_str_digits(MAX_DIGITS)
            self._depth += 1

    def __exit__(self, *exc_info):
        with self._lock:
            self._depth -= 1
            if self._depth == 0 and 0 < self._saved < MAX_DIGITS:
                sys.set_int_max_str_digits(self._saved)


_DIGIT_LIMIT = _RaisedDigitLimit()


def quote(value) -> str:
    """repr(value) for an error message, cut after QUOTE_CHARS characters; an
    int past MAX_DIGITS digits is described, and of a shorter one only the
    leading digits are converted."""
    if isinstance(value, int) and _past_max_digits(value):
        return f"<an integer of more than {MAX_DIGITS} digits>"
    dropped = 0
    if type(value) is int:  # not a bool, whose repr is a word
        # digits surely past the first QUOTE_CHARS: 0.301 < log10(2)
        dropped = max(0, (abs(value).bit_length() - 1) * 301 // 1000 - QUOTE_CHARS)
        text = f"{'-' if value < 0 else ''}{abs(value) // 10 ** dropped}"
    else:
        with _DIGIT_LIMIT:
            text = repr(value)
    if len(text) + dropped <= QUOTE_CHARS:
        return text
    return f"{text[:QUOTE_CHARS]}... ({len(text) + dropped} characters)"


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
    if len(text) > MAX_DIGITS and sum(c.isdigit() for c in text) > MAX_DIGITS:
        raise DigitLimitError()
    with _DIGIT_LIMIT:
        return int(text)


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
        if parse_int(den_text) == 0:
            raise ValueError(f"zero denominator in {quote(text)}")
        return Fraction(parse_int(num_text), parse_int(den_text))
    return Fraction(parse_int(s))


def format_rational(q: Fraction) -> str:
    """Canonical text form: "p/q" with q > 0, collapsing to "p" when q = 1.

    A numerator or denominator past MAX_DIGITS digits raises DigitLimitError.
    """
    q = ensure_fraction(q)
    if _past_max_digits(q.numerator) or _past_max_digits(q.denominator):
        raise DigitLimitError()
    with _DIGIT_LIMIT:
        return str(q)


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
