"""Second-order linear recurrence sequences over exact rationals.

A :class:`SequenceDef` fixes coefficients (c1, c2) and initial values
(x0, x1) of the bi-infinite sequence

    X_n = c1*X_{n-1} + c2*X_{n-2},

with negative indices reached through the inverted step
X_{n-2} = (X_n - c1*X_{n-1}) / c2, which is well defined because c2 != 0.
Definitions are immutable values with no cache, so callers share no state.

One kernel, :func:`int_walk`, steps every second-order recurrence in the
package: single terms and windows (:func:`int_window`), subsequence seeds,
the recurrence classes of :mod:`engine` and the residual sweep of
:mod:`verifier`. It runs on plain ints: with E the lcm of the denominators of
the start values and D the lcm of den(c1) and den(c2), or of den(c1) and
sqrt(den(c2)) when den(c2) is a perfect square, W_m = E*D^m*Y_m obeys
W_m = (c1*D)*W_{m-1} + (c2*D^2)*W_{m-2}, whose coefficients are integers, so
no step reduces a fraction. Any multiples of that D and E serve as well, so a
caller may put several walks on one common scale and combine their ints
directly. :func:`int_window` gives a window as such ints with their
denominators E*D^m, and :func:`window`, :func:`term` and :func:`walk` read
fractions off them. Backward, Y_m = X_{-m} is the same kind of sequence, with
coefficients (-c1/c2, 1/c2). A walk skips at most :data:`MAX_INDEX` steps,
which bounds the work that untrusted indices can demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice, repeat
from math import isqrt, lcm
from operator import mul

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


def step_scale(c1: Fraction, c2: Fraction) -> int:
    """The least D for which c1*D and c2*D^2 are ints (module docstring)."""
    q = c2.denominator
    root = isqrt(q)
    return lcm(c1.denominator, root if root * root == q else q)


def _scaled_ints(c1: Fraction, c2: Fraction, y0: Fraction, y1: Fraction, m: int):
    """(D, E, ints): the least scale of a walk from (y0, y1) and its ints from
    W_m on (:func:`int_walk`), refusing a skip of m past MAX_INDEX."""
    if m > MAX_INDEX:
        raise ValueError(f"a walk of {m} steps is beyond the limit of {MAX_INDEX}")
    d, e = step_scale(c1, c2), lcm(y0.denominator, y1.denominator)
    lo, hi = y0.numerator * (e // y0.denominator), y1.numerator * (e * d // y1.denominator)
    return d, e, int_walk(c1, c2, d, lo, hi, m)


def walk(c1: Fraction, c2: Fraction, y0: Fraction, y1: Fraction, m: int = 0):
    """An iterator over Y_m, Y_{m+1}, ... of Y_j = c1*Y_{j-1} + c2*Y_{j-2} from (y0, y1).

    Every step runs on the scaled ints W_j = E*D^j*Y_j of the least scale
    (see the module docstring); the fractions Y_j are read off them. c2 may
    be 0: (r, 0) from (z, z*r) is the geometric z*r^j.
    """
    d, e, ints = _scaled_ints(c1, c2, y0, y1, m)
    return map(Fraction, ints, accumulate(repeat(d), mul, initial=e * d ** m))


def int_walk(c1: Fraction, c2: Fraction, d: int, lo: int, hi: int, m: int = 0):
    """Yield W_m, W_{m+1}, ... of W_j = (c1*d)*W_{j-1} + (c2*d^2)*W_{j-2} from
    the ints (W_0, W_1) = (lo, hi), where c1*d and c2*d^2 are ints.

    This is the package's one recurrence loop: it steps the ints E*d^j*Y_j of
    any walk on a scale (d, E). The caller bounds m (:func:`walk` and
    :func:`int_window` by MAX_INDEX).
    """
    a = c1.numerator * (d // c1.denominator)
    b = c2.numerator * (d * d // c2.denominator)
    for _ in range(m):
        lo, hi = hi, a * hi + b * lo
    while True:
        yield lo
        lo, hi = hi, a * hi + b * lo


def int_window(seq: SequenceDef, n: int) -> tuple[int, int, int, int]:
    """(u, v, p, q) with X_n = u/p and X_{n+1} = v/q at any integer index,
    with no fraction built: the first two ints of a walk on its own scale
    (D, E), whose denominators are E*D^m and E*D^(m+1), not reduced.

    For n < 0 it walks Y_m = X_{-m}, coefficients (-c1/c2, 1/c2) and start
    (X_0, X_{-1}), from m = -n-1 and swaps the pair. Like :func:`walk`, it
    skips at most MAX_INDEX steps.
    """
    c1, c2, x0, x1 = seq.c1, seq.c2, seq.x0, seq.x1
    m = n
    if n < 0:
        c1, c2, x1, m = -c1 / c2, 1 / c2, (x1 - c1 * x0) / c2, -n - 1
    d, e, ints = _scaled_ints(c1, c2, x0, x1, m)
    lo, hi = next(ints), next(ints)
    den = e * d ** m
    return (lo, hi, den, den * d) if n >= 0 else (hi, lo, den * d, den)


def window(seq: SequenceDef, n: int) -> tuple[Fraction, Fraction]:
    """(X_n, X_{n+1}) at any integer index: the fractions of :func:`int_window`."""
    u, v, p, q = int_window(seq, n)
    return Fraction(u, p), Fraction(v, q)


def term(seq: SequenceDef, n: int) -> Fraction:
    """Value of the sequence at any integer index, forward or backward."""
    u, _, p, _ = int_window(seq, n)
    return Fraction(u, p)


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


def stride_recurrence(seq: SequenceDef, j: int, k: int = 0) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """(V_j, -(-c2)^j, X_k, X_{j+k}): the coefficients and start values of
    Y_n = X_{j*n + k}, for j >= 1, with no definition built.

    Y is second order because its characteristic roots are the j-th powers of
    X's: their sum is V_j, the V-sequence value for (c1, c2), and their
    product (-c2)^j. X_{j+k} is walked j steps on from the window at k.
    """
    c1, c2 = seq.c1, seq.c2
    x_k, x_k1 = window(seq, k)
    if j == 1:  # X itself, from k
        return c1, c2, x_k, x_k1
    v_j = next(walk(c1, c2, Fraction(2), c1, j))
    return v_j, -rat_pow(-c2, j), x_k, next(walk(c1, c2, x_k, x_k1, j))


def subsequence_def(seq: SequenceDef, j: int, k: int = 0) -> SequenceDef:
    """Definition of Y_n = X_{j*n + k}, the every-j-th-term subsequence
    (see :func:`stride_recurrence`)."""
    if j < 1:
        raise ValueError("j must be >= 1")
    offset = f"+{k}" if k >= 0 else str(k)
    return SequenceDef(*stride_recurrence(seq, j, k), label=f"{seq.label or 'X'}[{j}n{offset}]")
