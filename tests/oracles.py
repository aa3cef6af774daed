"""Independent brute-force oracles for the test suite.

Everything here is deliberately written against the bare recurrence
definitions (plain loops over Fractions, no caching, no shared code with
the package) so that expected values in the tests come from a second,
independent computation path.
"""

from fractions import Fraction
from math import isqrt, lcm


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


def brute_class_sides(d, m):
    """{(c1, c2): [L, S]}: the LHS terms' and the summand elements' values at
    m, each element coef * r^m * X_{stride*m + offset} (a summand's with coef
    times outer_coef and r = outer_ratio*beta) added into the class of the
    recurrence it obeys: (V_s*r, -(-c2)^s*r^2) for stride s >= 1, with V_s
    the V-sequence value of its (c1, c2), and (r, 0) with no sequence or
    stride 0."""
    rhs = d.rhs
    elements = [(0, t.coef, t.ratio, t) for t in d.lhs]
    elements += [(1, rhs.outer_coef * s.coef, rhs.outer_ratio * rhs.beta, s) for s in rhs.summands]
    classes = {}
    for side, coef, r, t in elements:
        value = coef * r ** m
        if t.seq is None or t.stride == 0:
            key = (r, Fraction(0))
        else:
            c1, c2 = t.seq.c1, t.seq.c2
            key = (brute_term(c1, c2, 2, c1, t.stride) * r, -((-c2) ** t.stride) * r * r)
        if t.seq is not None:
            value *= brute_term(t.seq.c1, t.seq.c2, t.seq.x0, t.seq.x1, t.stride * m + t.offset)
        classes.setdefault(key, [Fraction(0), Fraction(0)])[side] += value
    return classes


def brute_first_failure(d, n_lo, n_hi):
    """(n, lhs, rhs) at the first n in [n_lo, n_hi] where brute_sides differ,
    or None when they agree on the whole range."""
    for n in range(n_lo, n_hi + 1):
        lhs, rhs = brute_sides(d, n)
        if lhs != rhs:
            return n, lhs, rhs
    return None


def swept_first_failure(d, n_lo, n_hi):
    """brute_first_failure(d, n_lo, n_hi) in one pass, for ranges too long to
    sum from scratch at every n: each term's X_{stride*n + offset} is walked
    forward, stride steps per n, from brute_term's values at its offset, and
    the sum side is a running total of the same summand values."""

    def xs(t):
        if t.seq is None:
            while True:
                yield 1
        c1, c2 = t.seq.c1, t.seq.c2
        x, y = (brute_term(c1, c2, t.seq.x0, t.seq.x1, j) for j in (t.offset, t.offset + 1))
        while True:
            yield x
            for _ in range(t.stride):
                x, y = y, c1 * y + c2 * x

    lhs_terms = [(t.coef, t.ratio, xs(t)) for t in d.lhs]
    summands = [(s.coef, xs(s)) for s in d.rhs.summands]
    total = Fraction(0)
    for n in range(n_hi + 1):
        total += d.rhs.beta ** n * sum(coef * next(x) for coef, x in summands)
        lhs = Fraction(sum(coef * ratio ** n * next(x) for coef, ratio, x in lhs_terms))
        rhs = d.rhs.outer_coef * d.rhs.outer_ratio ** n * total
        if n >= n_lo and lhs != rhs:
            return n, lhs, rhs
    return None


def backward_window(seq, n):
    """The (u, v, p, q) of sequences.int_window for n < 0, with X_n = u/p and
    X_{n+1} = v/q, computed over Fractions: the backward coefficients
    (-c1/c2, 1/c2) and start X_{-1} = (x1 - c1*x0)/c2 as Fractions, then the ints
    W_m = E*D^m*Y_m of Y_m = X_{-m} on the least scale (D, E), walked from
    m = 0 to -n-1 and swapped; the denominators E*D^m are not reduced."""
    assert n < 0
    c1, c2, x0, x1 = seq.c1, seq.c2, seq.x0, seq.x1
    c1, c2, x1 = -c1 / c2, 1 / c2, (x1 - c1 * x0) / c2
    root = isqrt(c2.denominator)
    d = lcm(c1.denominator, root if root * root == c2.denominator else c2.denominator)
    e = lcm(x0.denominator, x1.denominator)
    scaled = (c1 * d, c2 * d * d, x0 * e, x1 * e * d)
    assert all(w.denominator == 1 for w in scaled)
    a, b, lo, hi = (w.numerator for w in scaled)
    m = -n - 1
    for _ in range(m):
        lo, hi = hi, a * hi + b * lo
    return hi, lo, e * d ** (m + 1), e * d ** m


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
