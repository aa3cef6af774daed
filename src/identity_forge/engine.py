"""Identities as data: weighted geometric sums equated to geometric terms.

An :class:`IdentityDescriptor` asserts, for every n >= n_min,

    sum of GeometricTerm values at n  =  SumSide value at n,

where the sum side is outer_coef * outer_ratio^n * sum_{i=0..n} beta^i * (...).
The classical "t^(n-i)" presentation is stored as outer_ratio = t with
beta = 1/t, so one description, :func:`recurrences`, covers every identity
shape in the catalog. Each element coef * r^n * X_{s*n+o}, a summand's with
r = outer_ratio*beta, is C-finite of order at most 2: it obeys a two-term
recurrence (c1, c2). Elements of one recurrence add up to one more solution
of it, so :func:`recurrences` groups them into classes and gives each class's
seeds as ints on one common scale, built straight from the elements' integer
windows (:func:`sequences.int_window`) with no fraction on the way; each side
of a class is then one :func:`sequences.int_walk`. :func:`sides`, which
serves :func:`descriptor_eval` and the verifier's witnesses, reads fractions
off those ints and carries the sum side in Horner form, so its running value
is the side itself and not the powers r^n and beta^i, which grow apart when
r = t = -c2*X_{k-1}/X_k at far k. A range sweep needs no running sum at all:
:func:`verifier.verify` walks the residual of each class.

:func:`theorem2_descriptor` generates descriptors for any sequence and summand
offset k, with weight t = -c2 * X_{k-1} / X_k, valid whenever X_k and X_{k-1}
are both nonzero (k may be negative), read from one integer window.
:func:`theorem1_descriptor` is its k = 0 case for normalized sequences (first
term 1), with t = c1 - A_1, under its own id and citation.

Product identities of d'Ocagne and Cassini type are provided as exact
two-sided evaluations; the companion-matrix determinant gives an independent
oracle for them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import count
from math import gcd, lcm

from .numeric import ensure_fraction, rat_pow
from .sequences import FIBONACCI, LUCAS, MAX_INDEX, SequenceDef, int_walk, int_window, step_scale
from .sequences import stride_recurrence, term, window


class DegenerateRatioError(ValueError):
    """The normalized-sequence generator needs t = c1 - x1 to be nonzero."""


class OffsetInvalidError(ValueError):
    """The offset generator needs X_k and X_{k-1} to both be nonzero."""


@dataclass(frozen=True)
class GeometricTerm:
    """coef * ratio^n * X_{stride*n + offset}; a pure geometric when seq is None."""

    coef: Fraction
    ratio: Fraction
    seq: SequenceDef | None = None
    stride: int = 0
    offset: int = 0

    def __post_init__(self):
        object.__setattr__(self, "coef", ensure_fraction(self.coef))
        object.__setattr__(self, "ratio", ensure_fraction(self.ratio))
        if self.stride < 0:
            raise ValueError("stride must be >= 0")


@dataclass(frozen=True)
class Summand:
    """coef * X_{stride*i + offset}, evaluated at the running sum index i."""

    coef: Fraction
    seq: SequenceDef
    stride: int = 1
    offset: int = 0

    def __post_init__(self):
        object.__setattr__(self, "coef", ensure_fraction(self.coef))
        if self.stride < 0:
            raise ValueError("stride must be >= 0")


@dataclass(frozen=True)
class SumSide:
    """outer_coef * outer_ratio^n * sum_{i=0..n} beta^i * (summand values at i)."""

    outer_coef: Fraction
    outer_ratio: Fraction
    beta: Fraction
    summands: tuple[Summand, ...]

    def __post_init__(self):
        object.__setattr__(self, "outer_coef", ensure_fraction(self.outer_coef))
        object.__setattr__(self, "outer_ratio", ensure_fraction(self.outer_ratio))
        object.__setattr__(self, "beta", ensure_fraction(self.beta))
        object.__setattr__(self, "summands", tuple(self.summands))


@dataclass(frozen=True)
class IdentityDescriptor:
    """Machine form of one identity: LHS terms = weighted sum, for n >= n_min."""

    id: str
    lhs: tuple[GeometricTerm, ...]
    rhs: SumSide
    n_min: int = 0
    citation: str = ""

    def __post_init__(self):
        object.__setattr__(self, "lhs", tuple(self.lhs))
        if self.n_min < 0:
            raise ValueError("n_min must be >= 0")


_ONE, _ZERO = Fraction(1), Fraction(0)


def _unscaled(t) -> tuple[Fraction, Fraction, int, int, int, int]:
    """(a, b, u, v, p, q): the values of t, a GeometricTerm or a Summand, are
    coef * r^m * Y_m with Y obeying (a, b) from Y_0 = u/p and Y_1 = v/q: the
    stride subsequence of t's sequence, or with no sequence, or stride 0, the
    constant X_offset, (a, b) = (1, 0)."""
    if t.seq is None:
        return _ONE, _ZERO, 1, 1, 1, 1
    if t.stride == 0:
        u, _, p, _ = int_window(t.seq, t.offset)
        return _ONE, _ZERO, u, u, p, p
    if t.stride == 1:
        return (t.seq.c1, t.seq.c2, *int_window(t.seq, t.offset))
    a, b, y0, y1 = stride_recurrence(t.seq, t.stride, t.offset)
    return a, b, y0.numerator, y1.numerator, y0.denominator, y1.denominator


def _plus(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """x + y, each a fraction as the ints (numerator, denominator), not reduced."""
    (n, p), (m, q) = x, y
    if p == q:
        return n + m, p
    k = lcm(p, q)
    return n * (k // p) + m * (k // q), k


def _lowest(n: int, p: int) -> tuple[int, int]:
    """n/p in lowest terms, as ints."""
    k = gcd(n, p)
    return n // k, p // k


def recurrences(d: IdentityDescriptor) -> tuple[int, int, list[tuple[Fraction, Fraction, tuple, tuple]]]:
    """(D, E, classes): one (c1, c2, lhs seeds, sum seeds) per recurrence
    class of d's walks, every seed an int on one common scale (D, E).

    Every LHS term and every summand, folded into the element
    c*coef*g^i*X_{stride*i+offset} with c = outer_coef and g = outer_ratio*beta,
    is a walk of some recurrence (c1, c2), so that the sum side is
    R_n = r*R_{n-1} + S_n with r = outer_ratio and S_n the summand walks at n.
    Walks of one recurrence are linear in their seeds (y0, y1), so each class,
    the walks of one exact (c1, c2), adds up the seeds of its LHS terms and,
    apart, of its summands; a side with no walk in a class has seeds (0, 0).

    No fraction is built: each element's window comes from
    :func:`sequences.int_window` as ints over their denominators, and its
    coef multiplies both. Elements are grouped by their unscaled recurrence
    (a, b) and ratio r first, so r, which makes the class (a*r, b*r^2) and
    the second seed r*y1, is applied once per group; groups of equal (c1, c2)
    then merge. D is the lcm of the classes' :func:`sequences.step_scale`
    and E that of the seeds' reduced denominators, and a side's seeds are the
    ints (E*y0, E*D*y1): a :func:`sequences.int_walk` on scale D from them
    yields E*D^m times the side's class walk at m.
    """
    rhs = d.rhs
    c, g = rhs.outer_coef, rhs.outer_ratio * rhs.beta
    elements = [(1, *t.coef.as_integer_ratio(), t.ratio, t) for t in d.lhs]
    elements += [
        (2, c.numerator * s.coef.numerator, c.denominator * s.coef.denominator, g, s) for s in rhs.summands
    ]
    zero = ((0, 1), (0, 1))
    # [(a, b, r), lhs seeds, sum seeds] per group, found by a list scan: there
    # are few groups, and hashing a Fraction costs more than comparing it
    groups = []
    for side, num, den, r, t in elements:
        a, b, u, v, p, q = _unscaled(t)
        key = (a, b, r)
        for grp in groups:
            if grp[0] == key:
                break
        else:
            grp = [key, zero, zero]
            groups.append(grp)
        y0, y1 = grp[side]
        grp[side] = _plus(y0, (num * u, den * p)), _plus(y1, (num * v, den * q))
    classes = []  # [c1, c2, lhs seeds, sum seeds]
    for (a, b, r), *both in groups:
        c1, c2 = (a, b) if r == 1 else (a * r, b * r * r)
        for cls in classes:
            if cls[0] == c1 and cls[1] == c2:
                break
        else:
            cls = [c1, c2, zero, zero]
            classes.append(cls)
        for side, (z0, (n1, p1)) in enumerate(both, 2):
            y0, y1 = cls[side]
            cls[side] = _plus(y0, z0), _plus(y1, (r.numerator * n1, r.denominator * p1))
    classes = [(c1, c2, *([_lowest(*y) for y in seeds] for seeds in both)) for c1, c2, *both in classes]
    e = lcm(*(p for _, _, *both in classes for seeds in both for _, p in seeds))
    scale = lcm(*(step_scale(c1, c2) for c1, c2, _, _ in classes))

    def ints(seeds):
        (n0, p0), (n1, p1) = seeds
        return n0 * (e // p0), n1 * (e * scale // p1)

    return scale, e, [(c1, c2, ints(lhs), ints(sums)) for c1, c2, lhs, sums in classes]


def sides(d: IdentityDescriptor, n_lo: int, rec=None):
    """Yield (n, lhs, rhs), both sides exact, for n = n_lo, n_lo + 1, ... without end.

    One LHS walk and one summand walk per recurrence class of
    :func:`recurrences` (rec, when the caller has it already), stepped as
    ints on its common scale (D, E); each side at n is one fraction, the sum
    of its class walks' ints over E*D^n. The sum side is carried in Horner
    form, R_n = r*R_{n-1} + S_n. Like an LHS term's r^n, each summand's g^i
    lives in its class's walk, and R_n is the side's own value, so nothing
    carried outgrows it.
    """
    if n_lo < d.n_min:
        raise ValueError(f"n={n_lo} is below the descriptor's n_min={d.n_min}")
    if n_lo > MAX_INDEX:
        raise ValueError(f"n={n_lo} is beyond the limit of {MAX_INDEX}")
    scale, den, classes = recurrences(d) if rec is None else rec
    lhs = [int_walk(c1, c2, scale, *seeds, n_lo) for c1, c2, seeds, _ in classes]
    summands = [int_walk(c1, c2, scale, *seeds) for c1, c2, _, seeds in classes]
    r = d.rhs.outer_ratio
    total = _ZERO
    for n in count():
        total = r * total + Fraction(sum(map(next, summands)), den)
        if n >= n_lo:
            yield n, Fraction(sum(map(next, lhs)), den), total
        den *= scale


def descriptor_eval(d: IdentityDescriptor, n: int) -> tuple[Fraction, Fraction]:
    """Exact values of both sides at n: the first item of :func:`sides` from n."""
    return next(sides(d, n))[1:]


def _weighted_sum(x: SequenceDef, k: int, id: str, citation: str) -> IdentityDescriptor:
    """The descriptor of :func:`theorem2_descriptor`, under the given id and citation.

    X_{k-1} and X_k come as ints from one :func:`sequences.int_window`, and
    X_2 = c1*X_1 + c2*X_0, so t and the outer coefficient are each one
    fraction of ints, and 1/t one division.
    """
    u, v, p, q = int_window(x, k - 1)  # X_{k-1} = u/p, X_k = v/q
    if v == 0:
        raise OffsetInvalidError(f"X_k = 0 at k={k}: offset violates the nonzero hypothesis")
    if u == 0:
        raise OffsetInvalidError(f"X_(k-1) = 0 at k={k}: offset violates the nonzero hypothesis")
    (n1, d1), (n2, d2) = x.c1.as_integer_ratio(), x.c2.as_integer_ratio()
    (a0, b0), (a1, b1) = x.x0.as_integer_ratio(), x.x1.as_integer_ratio()
    # p and q are E*D^m and E*D^(m+1) in some order: cancelling their gcd, the
    # smaller, first leaves t's own reduction operands the size of X_k
    g = gcd(p, q)
    t = Fraction(-n2 * u * (q // g), d2 * (p // g) * v)
    # X_2 = x2/y2, and outer = (X_0*X_2 - X_1^2) / X_k
    x2, y2 = n1 * a1 * d2 * b0 + n2 * a0 * d1 * b1, d1 * d2 * b0 * b1
    outer = Fraction((a0 * x2 * b1 * b1 - a1 * a1 * b0 * y2) * q, b0 * y2 * b1 * b1 * v)
    return IdentityDescriptor(
        id=id,
        lhs=(
            GeometricTerm(x.x0, _ONE, x, 1, 2),
            GeometricTerm(-x.x1, _ONE, x, 1, 1),
        ),
        rhs=SumSide(outer, t, 1 / t, (Summand(_ONE, x, 1, k),)),
        n_min=0,
        citation=citation,
    )


def theorem1_descriptor(a: SequenceDef) -> IdentityDescriptor:
    """Weighted-sum identity for a normalized sequence (A_0 = 1).

    Asserts A_{n+2} - A_1*A_{n+1} = (A_2 - A_1^2) * sum_{i=0..n} t^{n-i} A_i
    with t = c1 - A_1; degenerate t = 0 is rejected rather than skipped.
    This is theorem2_descriptor(a, 0) under its own id and citation: with
    A_0 = 1 its weight -c2*A_{-1} equals c1 - A_1, which is zero exactly when
    A_{-1} is.
    """
    if a.x0 != 1:
        raise ValueError("normalized sequence required: x0 must equal 1")
    if a.c1 == a.x1:
        raise DegenerateRatioError("degenerate weight: c1 - x1 = 0")
    return _weighted_sum(
        a, 0, f"theorem1[{a.label or 'A'}]", "generated: normalized-sequence weighted sum"
    )


def theorem2_descriptor(x: SequenceDef, k: int) -> IdentityDescriptor:
    """Weighted-sum identity for an arbitrary sequence with summand offset k.

    Asserts X_0*X_{n+2} - X_1*X_{n+1}
              = ((X_0*X_2 - X_1^2) / X_k) * sum_{i=0..n} t^{n-i} X_{i+k}
    with t = -c2*X_{k-1}/X_k. Requires X_k != 0 and X_{k-1} != 0, which also
    forces t != 0 (c2 is nonzero by construction).
    """
    return _weighted_sum(x, k, f"theorem2[{x.label or 'X'},k={k}]", f"generated: offset-{k} weighted sum")


def docagne_general(x: SequenceDef, k: int, n: int) -> tuple[Fraction, Fraction]:
    """Both sides of the two-index product identity

    X_{n+k+2}*X_k - X_{k+1}*X_{n+k+1} = (-c2)^k * (X_{n+2}*X_0 - X_{n+1}*X_1),

    which holds for k positive, negative, or zero.
    """
    x_k, x_k1 = window(x, k)
    x_nk1, x_nk2 = window(x, n + k + 1)
    x_n1, x_n2 = window(x, n + 1)
    lhs = x_nk2 * x_k - x_k1 * x_nk1
    rhs = rat_pow(-x.c2, k) * (x_n2 * x.x0 - x_n1 * x.x1)
    return lhs, rhs


def cassini_general(x: SequenceDef, k: int) -> tuple[Fraction, Fraction]:
    """Both sides of X_{k+2}*X_k - X_{k+1}^2 = (-c2)^k * (X_2*X_0 - X_1^2)."""
    x_k, x_k1 = window(x, k)
    x_k2 = x.c1 * x_k1 + x.c2 * x_k
    lhs = x_k2 * x_k - x_k1 ** 2
    rhs = rat_pow(-x.c2, k) * (term(x, 2) * x.x0 - x.x1 * x.x1)
    return lhs, rhs


def _fib(n: int) -> Fraction:
    return term(FIBONACCI, n)


def _luc(n: int) -> Fraction:
    return term(LUCAS, n)


def _ruggles(a: int, b: int):
    return _fib(a + b), _luc(b) * _fib(a) + rat_pow(-1, b + 1) * _fib(a - b)


def _lucas_add(a: int, b: int):
    return _luc(a + b), _luc(b) * _luc(a) + rat_pow(-1, b + 1) * _luc(a - b)


def _koshy55(j: int, n: int):
    return (
        _luc(j * (n + 2)),
        5 * _fib(j) * _fib(j * (n + 1)) - rat_pow(-1, j + 1) * _luc(j * n),
    )


def _catalan_fib(a: int, b: int, c: int):
    return (
        _fib(a + c) * _fib(b - c) - _fib(a) * _fib(b),
        rat_pow(-1, b + c + 1) * _fib(a + c - b) * _fib(c),
    )


def _lucas_fib_mixed(a: int, b: int, c: int):
    return (
        _luc(a + c) * _fib(b - c) - _luc(a) * _fib(b),
        rat_pow(-1, b + c + 1) * _luc(a + c - b) * _fib(c),
    )


def _lucas_lucas(a: int, b: int, c: int):
    return (
        _luc(a + c) * _luc(b - c) - _luc(a) * _luc(b),
        5 * rat_pow(-1, b + c) * _fib(a + c - b) * _fib(c),
    )


_CLASSICAL = {
    "ruggles": (_ruggles, 2),
    "lucas_add": (_lucas_add, 2),
    "koshy55": (_koshy55, 2),
    "catalan_fib": (_catalan_fib, 3),
    "lucas_fib_mixed": (_lucas_fib_mixed, 3),
    "lucas_lucas": (_lucas_lucas, 3),
}


def classical_eval(name: str, *args: int) -> tuple[Fraction, Fraction]:
    """Evaluate both sides of a classical Fibonacci/Lucas product identity.

    Supported names: ruggles(a, b), lucas_add(a, b), koshy55(j, n),
    catalan_fib(a, b, c), lucas_fib_mixed(a, b, c), lucas_lucas(a, b, c).
    Negative indices are fine; the contract is lhs == rhs for every input.
    """
    try:
        fn, arity = _CLASSICAL[name]
    except KeyError:
        raise ValueError(f"unknown classical identity: {name!r}") from None
    if len(args) != arity:
        raise ValueError(f"{name} takes {arity} integer arguments, got {len(args)}")
    return fn(*args)


def rewrite_scale(d: IdentityDescriptor, sigma, lam) -> IdentityDescriptor:
    """Multiply both sides by sigma * lam^n; truth is preserved for all n."""
    sigma = ensure_fraction(sigma)
    lam = ensure_fraction(lam)
    if sigma == 0 or lam == 0:
        raise ValueError("scale factors must be nonzero")
    lhs = tuple(replace(t, coef=t.coef * sigma, ratio=t.ratio * lam) for t in d.lhs)
    rhs = replace(
        d.rhs,
        outer_coef=d.rhs.outer_coef * sigma,
        outer_ratio=d.rhs.outer_ratio * lam,
    )
    return replace(d, lhs=lhs, rhs=rhs)
