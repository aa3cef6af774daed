"""Independent brute-force oracles for the test suite.

Everything here is deliberately written against the bare recurrence
definitions (plain loops over Fractions, no caching, no shared code with
the package) so that expected values in the tests come from a second,
independent computation path.
"""

from fractions import Fraction


def brute_term(c1, c2, x0, x1, n):
    """Walk the recurrence step by step from (x0, x1) to index n."""
    c1, c2, x0, x1 = (Fraction(v) for v in (c1, c2, x0, x1))
    if n >= 0:
        lo, hi = x0, x1
        for _ in range(n):
            lo, hi = hi, c1 * hi + c2 * lo
        return lo
    lo, hi = x0, x1
    for _ in range(-n):
        lo, hi = (hi - c1 * lo) / c2, lo
    return lo


def brute_sides(d, n):
    """Both sides of descriptor d at n, every term by brute_term and every
    power taken explicitly; only d's fields are read, no package code runs."""

    def x(seq, m):
        return brute_term(seq.c1, seq.c2, seq.x0, seq.x1, m)

    lhs = Fraction(0)
    for t in d.lhs:
        value = t.coef * t.ratio ** n
        if t.seq is not None:
            value *= x(t.seq, t.stride * n + t.offset)
        lhs += value
    total = Fraction(0)
    for i in range(n + 1):
        for s in d.rhs.summands:
            total += d.rhs.beta ** i * s.coef * x(s.seq, s.stride * i + s.offset)
    return lhs, d.rhs.outer_coef * d.rhs.outer_ratio ** n * total


def brute_first_failure(d, n_lo, n_hi):
    """(n, lhs, rhs) at the first n in [n_lo, n_hi] where brute_sides differ,
    or None when they agree on the whole range."""
    for n in range(n_lo, n_hi + 1):
        lhs, rhs = brute_sides(d, n)
        if lhs != rhs:
            return n, lhs, rhs
    return None


def fib(n):
    return brute_term(1, 1, 0, 1, n)


def luc(n):
    return brute_term(1, 1, 2, 1, n)


def pell(n):
    return brute_term(2, 1, 0, 1, n)


def pell_lucas(n):
    return brute_term(2, 1, 1, 1, n)


def bronze(n):
    return brute_term(3, 1, 0, 1, n)


def a015530(n):
    return brute_term(4, 3, 0, 1, n)


# Hand-typed anchors: transcribed values, not computed by any code here.
KNOWN_FIBONACCI = [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377,
                   610, 987, 1597, 2584, 4181]
KNOWN_LUCAS = [2, 1, 3, 4, 7, 11, 18, 29, 47, 76]
KNOWN_PELL = [0, 1, 2, 5, 12, 29, 70, 169, 408, 985]
KNOWN_PELL_LUCAS = [1, 1, 3, 7, 17, 41, 99, 239, 577, 1393]
KNOWN_BRONZE = [0, 1, 3, 10, 33, 109, 360, 1189]
KNOWN_A015530 = [0, 1, 4, 19, 88, 409, 1900, 8827]
