"""Second-order linear recurrence sequences over exact rationals.

A :class:`SequenceDef` fixes coefficients (c1, c2) and initial values
(x0, x1) of the bi-infinite sequence

    X_n = c1*X_{n-1} + c2*X_{n-2},

with negative indices reached through the inverted step
X_{n-2} = (X_n - c1*X_{n-1}) / c2, which is well defined because c2 != 0.
Definitions are immutable values with no cache, so callers share no state.

One kernel, :func:`walk`, steps every second-order recurrence in the package:
single terms, subsequence seeds, the side stream of :mod:`engine` and the
residual sweep of :mod:`verifier`. It runs on plain ints: with E the lcm of
the denominators of the start values and D the lcm of den(c1) and den(c2), or
of den(c1) and sqrt(den(c2)) when den(c2) is a perfect square, W_m = E*D^m*Y_m
obeys W_m = (c1*D)*W_{m-1} + (c2*D^2)*W_{m-2}, whose coefficients are
integers, so no step reduces a fraction. Any multiples of that D and E serve
as well, so a caller may put several walks on one common scale and combine
their ints directly. Backward,
Y_m = X_{-m} is the same kind of sequence, with coefficients (-c1/c2, 1/c2).
A walk skips at most :data:`MAX_INDEX` steps, which bounds the work that
untrusted indices can demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import isqrt, lcm

from .numeric import ensure_fraction, quote, rat_pow


@dataclass(frozen=True)
class SequenceDef:
    """Immutable definition of one sequence."""

    c1: Fraction
    c2: Fraction
    x0: Fraction
    x1: Fraction
    label: str = ""

    def __post_init__(self):
        for name in ("c1", "c2", "x0", "x1"):
            object.__setattr__(self, name, ensure_fraction(getattr(self, name)))
        if self.c2 == 0:
            raise ValueError("c2 must be nonzero (the recurrence must be second order)")


FIBONACCI = SequenceDef(1, 1, 0, 1, label="Fibonacci")
LUCAS = SequenceDef(1, 1, 2, 1, label="Lucas")
PELL = SequenceDef(2, 1, 0, 1, label="Pell")
PELL_LUCAS = SequenceDef(2, 1, 1, 1, label="Pell-Lucas")
BRONZE = SequenceDef(3, 1, 0, 1, label="bronze")
A015530 = SequenceDef(4, 3, 0, 1, label="A015530")

_PLAIN_FAMILIES = {
    "fibonacci": FIBONACCI,
    "lucas": LUCAS,
    "pell": PELL,
    "pelllucas": PELL_LUCAS,
    "bronze": BRONZE,
    "a015530": A015530,
}


MAX_INDEX = 100_000


def scale_of(c1: Fraction, c2: Fraction, y0: Fraction, y1: Fraction) -> tuple[int, int]:
    """The least scale (D, E) on which a walk from these runs on ints (module docstring)."""
    q = c2.denominator
    root = isqrt(q)
    return lcm(c1.denominator, root if root * root == q else q), lcm(y0.denominator, y1.denominator)


def walk(c1: Fraction, c2: Fraction, y0: Fraction, y1: Fraction, m: int = 0, scale=None):
    """Yield Y_m, Y_{m+1}, ... of Y_j = c1*Y_{j-1} + c2*Y_{j-2} from (y0, y1).

    Every step runs on the scaled ints W_j = E*D^j*Y_j (see the module
    docstring). Given the caller's scale = (D, E), multiples of
    :func:`scale_of`'s D and E, the walk yields those ints; without it, the
    fractions Y_j, read off the ints of its own scale. c2 may be 0: (r, 0)
    from (z, z*r) is the geometric z*r^j.
    """
    if m > MAX_INDEX:
        raise ValueError(f"a walk of {m} steps is beyond the limit of {MAX_INDEX}")
    if scale is None:
        d, e = scale_of(c1, c2, y0, y1)
        s = e * d ** m
        for w in walk(c1, c2, y0, y1, m, (d, e)):
            yield Fraction(w, s)
            s *= d
        return
    d, e = scale
    a = c1.numerator * (d // c1.denominator)
    b = c2.numerator * (d * d // c2.denominator)
    lo = y0.numerator * (e // y0.denominator)
    hi = y1.numerator * (e * d // y1.denominator)
    for _ in range(m):
        lo, hi = hi, a * hi + b * lo
    while True:
        yield lo
        lo, hi = hi, a * hi + b * lo


def window(seq: SequenceDef, n: int) -> tuple[Fraction, Fraction]:
    """(X_n, X_{n+1}) at any integer index: the first two values of a walk.

    For n < 0 it walks Y_m = X_{-m}, coefficients (-c1/c2, 1/c2) and start
    (X_0, X_{-1}), from m = -n-1 and swaps the pair.
    """
    c1, c2, x0, x1 = seq.c1, seq.c2, seq.x0, seq.x1
    if n >= 0:
        return tuple(islice(walk(c1, c2, x0, x1, n), 2))
    y_hi, y_lo = islice(walk(-c1 / c2, 1 / c2, x0, (x1 - c1 * x0) / c2, -n - 1), 2)
    return y_lo, y_hi


def term(seq: SequenceDef, n: int) -> Fraction:
    """Value of the sequence at any integer index, forward or backward."""
    return window(seq, n)[0]


def generalized_u(a, b, label: str = "") -> SequenceDef:
    """U-sequence for coefficients (a, b): starts 0, 1 (Fibonacci when a=b=1)."""
    a = ensure_fraction(a)
    b = ensure_fraction(b)
    return SequenceDef(a, b, 0, 1, label=label or f"U({a},{b})")


def generalized_v_def(a, b, label: str = "") -> SequenceDef:
    """V-sequence for coefficients (a, b): starts 2, a (Lucas when a=b=1)."""
    a = ensure_fraction(a)
    b = ensure_fraction(b)
    return SequenceDef(a, b, 2, a, label=label or f"V({a},{b})")


def family_key(name: str) -> str:
    """The lookup key of a family name: lower case, without '-', '_' or spaces."""
    return name.lower().replace("-", "").replace("_", "").replace(" ", "")


def named_def(name: str, a=None, b=None) -> SequenceDef:
    """Look up a family by name; generalized_u / generalized_v need (a, b)."""
    key = family_key(name)
    if key in _PLAIN_FAMILIES:
        return _PLAIN_FAMILIES[key]
    if key in ("generalizedu", "u"):
        builder = generalized_u
    elif key in ("generalizedv", "v"):
        builder = generalized_v_def
    else:
        raise ValueError(f"unknown sequence family: {quote(name)}")
    if a is None or b is None:
        raise ValueError(f"family {quote(name)} requires parameters a and b")
    return builder(a, b)


def generalized_v(c1, c2, j: int) -> Fraction:
    """j-th term of the V-sequence (2, c1, c1^2 + 2*c2, ...) for (c1, c2)."""
    if j < 0:
        raise ValueError("j must be >= 0")
    return term(generalized_v_def(c1, c2), j)


def subsequence_def(seq: SequenceDef, j: int, k: int = 0) -> SequenceDef:
    """Definition of Y_n = X_{j*n + k}, the every-j-th-term subsequence.

    Y is itself second order with coefficients (V_j, -(-c2)^j), where V_j is
    the V-sequence value for (c1, c2); its initial values are X_k and X_{j+k},
    the latter walked j steps on from the window at k.
    """
    if j < 1:
        raise ValueError("j must be >= 1")
    x_k, x_k1 = window(seq, k)
    offset = f"+{k}" if k >= 0 else str(k)
    return SequenceDef(
        generalized_v(seq.c1, seq.c2, j),
        -rat_pow(-seq.c2, j),
        x_k,
        next(walk(seq.c1, seq.c2, x_k, x_k1, j)),
        label=f"{seq.label or 'X'}[{j}n{offset}]",
    )
