"""Second-order linear recurrence sequences over exact rationals.

A :class:`SequenceDef` fixes coefficients (c1, c2) and initial values
(x0, x1) of the bi-infinite sequence

    X_n = c1*X_{n-1} + c2*X_{n-2},

with negative indices reached through the inverted step
X_{n-2} = (X_n - c1*X_{n-1}) / c2, which is well defined because c2 != 0.
Definitions are immutable values with no cache, so callers share no state.

One kernel, :func:`int_walk` with its skip :func:`_skip`, steps every
second-order recurrence in the package: single terms and windows
(:func:`int_window`), the recurrence and seeds of every element
(:func:`stride_recurrence`), and the recurrence classes and residual stream
of :mod:`engine`. It runs on plain ints: with E the lcm of the denominators
of the start values and D the lcm of den(c1) and den(c2), or of den(c1) and
sqrt(den(c2)) when den(c2) is a perfect square, W_m = E*D^m*Y_m obeys
W_m = (c1*D)*W_{m-1} + (c2*D^2)*W_{m-2}, whose coefficients (a, b) are
integers, so no step reduces a fraction. Any multiples of that D and E serve
as well, so a caller may put several walks on one common scale and combine
their ints directly. :func:`int_window` gives a window as such ints with
their denominators E*D^m, and :func:`window` and :func:`term` read
fractions off them. Backward, Y_m = X_{-m} is the same kind of sequence,
with coefficients (-c1/c2, 1/c2), which :func:`int_window` forms in lowest
terms from the ints of c1 and c2, so that a window at any index builds no
fraction. A point read skips at most :data:`MAX_INDEX`
steps, which bounds the work that untrusted indices can demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm

from .numeric import ensure_fraction, fraction_fields, lowest_terms, quote


@dataclass(frozen=True)
class SequenceDef:
    """Immutable definition of one sequence."""

    c1: Fraction
    c2: Fraction
    x0: Fraction
    x1: Fraction
    label: str = ""

    def __post_init__(self):
        fraction_fields(self, "c1", "c2", "x0", "x1")
        if self.c2 == 0:
            raise ValueError("c2 must be nonzero (the recurrence must be second order)")


FIBONACCI = SequenceDef(1, 1, 0, 1, label="Fibonacci")
LUCAS = SequenceDef(1, 1, 2, 1, label="Lucas")
PELL = SequenceDef(2, 1, 0, 1, label="Pell")
PELL_LUCAS = SequenceDef(2, 1, 1, 1, label="Pell-Lucas")
BRONZE = SequenceDef(3, 1, 0, 1, label="bronze")
A015530 = SequenceDef(4, 3, 0, 1, label="A015530")

# the named families by family_key: definition, LaTeX letter and OEIS b-file id
NAMED_FAMILIES = {
    "fibonacci": (FIBONACCI, "F", "A000045"),
    "lucas": (LUCAS, "L", "A000032"),
    "pell": (PELL, "P", "A000129"),
    "pelllucas": (PELL_LUCAS, "Q", "A001333"),
    "bronze": (BRONZE, "B", "A006190"),
    "a015530": (A015530, None, "A015530"),
}


MAX_INDEX = 100_000


def step_scale(p1: int, p2: int) -> int:
    """The least D for which c1*D and c2*D^2 are ints, from the reduced
    denominators p1 of c1 and p2 of c2 (module docstring)."""
    root = isqrt(p2)
    return lcm(p1, root if root * root == p2 else p2)


def _scaled_ints(c1, c2, y0, y1, m: int):
    """(D, E, W_m, W_{m+1}): the least scale of a walk from (y0, y1) and its
    ints at m and m + 1 (:func:`int_walk`), refusing a skip of m past
    MAX_INDEX; c1, c2, y0 and y1 are given as (numerator, denominator) pairs
    in lowest terms."""
    if m > MAX_INDEX:
        raise ValueError(f"a walk of {quote(m)} steps is beyond the limit of {MAX_INDEX}")
    (n1, p1), (n2, p2), (u0, q0), (u1, q1) = c1, c2, y0, y1
    d, e = step_scale(p1, p2), lcm(q0, q1)
    # the walk of (c1, c2) on scale d is that of the ints (c1*d, c2*d^2) on scale 1
    a, b = n1 * (d // p1), n2 * (d * d // p2)
    return d, e, *_skip(a, b, u0 * (e // q0), u1 * (e * d // q1), m)


def _skip(a: int, b: int, lo: int, hi: int, m: int) -> tuple[int, int]:
    """(W_m, W_{m+1}) of W_j = a*W_{j-1} + b*W_{j-2} from (W_0, W_1) = (lo, hi)."""
    for _ in range(m):
        lo, hi = hi, a * hi + b * lo
    return lo, hi


def int_walk(a: int, b: int, lo: int, hi: int, m: int = 0):
    """Yield W_m, W_{m+1}, ... of W_j = a*W_{j-1} + b*W_{j-2} from the ints
    (W_0, W_1) = (lo, hi).

    With :func:`_skip`, which takes its first m steps and reads a window
    without a generator, this is the package's one recurrence loop: with
    (a, b) = (c1*D, c2*D^2) it steps the ints E*D^j*Y_j of any walk on a
    scale (D, E). It does not bound m itself; the proof core's walks are
    bounded by :func:`engine._check_range`.
    """
    lo, hi = _skip(a, b, lo, hi, m)
    while True:
        yield lo
        lo, hi = hi, a * hi + b * lo


def int_window(seq: SequenceDef, n: int) -> tuple[int, int, int, int]:
    """(u, v, p, q) with X_n = u/p and X_{n+1} = v/q at any integer index,
    with no fraction built: the first two ints of a walk on its own scale
    (D, E), whose denominators are E*D^m and E*D^(m+1), not reduced.

    For n < 0 it walks Y_m = X_{-m}, coefficients (-c1/c2, 1/c2) and start
    (X_0, X_{-1}), from m = -n-1 and swaps the pair; those three values are
    formed in lowest terms from the ints of c1, c2, x0 and x1, so D and E
    are the least for them. It skips at most MAX_INDEX steps.
    """
    c1, c2 = seq.c1.as_integer_ratio(), seq.c2.as_integer_ratio()
    x0, x1 = seq.x0.as_integer_ratio(), seq.x1.as_integer_ratio()
    m = n
    if n < 0:
        (n1, p1), (n2, p2), (u0, q0), (u1, q1) = c1, c2, x0, x1
        # X_{-1} = (x1 - c1*x0)/c2
        c1, c2, x1, m = (
            lowest_terms(-n1 * p2, p1 * n2),
            lowest_terms(p2, n2),
            lowest_terms((u1 * p1 * q0 - n1 * u0 * q1) * p2, q1 * p1 * q0 * n2),
            -n - 1,
        )
    d, e, lo, hi = _scaled_ints(c1, c2, x0, x1, m)
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
    if key in NAMED_FAMILIES:
        return NAMED_FAMILIES[key][0]
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


def stride_recurrence(seq: SequenceDef | None, j: int, k: int = 0):
    """(a, b, y0, y1), each an int (numerator, denominator) pair: the
    coefficients and start values of the element Y_n = X_{j*n + k}, a walk
    of Y_n = a*Y_{n-1} + b*Y_{n-2} from (y0, y1), with no fraction built.

    With no sequence (X = 1) or j = 0, Y is the constant walk (1, 0) from
    (X_k, X_k). For j >= 1 Y is second order because its characteristic
    roots are the j-th powers of X's: their sum is V_j, the V-sequence value
    for (c1, c2), and their product (-c2)^j, so (a, b) = (V_j, -(-c2)^j), in
    lowest terms; (y0, y1) = (X_k, X_{j+k}), read off :func:`int_window` at k
    and, for j >= 2, walked j steps on, with their denominators not reduced.
    """
    if seq is None:
        return (1, 1), (0, 1), (1, 1), (1, 1)
    u, v, p, q = int_window(seq, k)
    if j == 0:
        return (1, 1), (0, 1), (u, p), (u, p)
    c1, c2 = seq.c1.as_integer_ratio(), seq.c2.as_integer_ratio()
    if j == 1:  # X itself, from k
        return c1, c2, (u, p), (v, q)
    d, e, v_j, _ = _scaled_ints(c1, c2, (2, 1), c1, j)
    _, f, x_jk, _ = _scaled_ints(c1, c2, (u, p), (v, q), j)
    n2, p2 = c2
    return lowest_terms(v_j, e * d ** j), (-(-n2) ** j, p2 ** j), (u, p), (x_jk, f * d ** j)


def subsequence_def(seq: SequenceDef, j: int, k: int = 0) -> SequenceDef:
    """Definition of Y_n = X_{j*n + k}, the every-j-th-term subsequence
    (see :func:`stride_recurrence`)."""
    if j < 1:
        raise ValueError("j must be >= 1")
    offset = f"+{k}" if k >= 0 else str(k)
    values = (Fraction(n, p) for n, p in stride_recurrence(seq, j, k))
    return SequenceDef(*values, label=f"{seq.label or 'X'}[{j}n{offset}]")
