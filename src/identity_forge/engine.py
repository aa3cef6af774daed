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
seeds as ints on one common scale E*D^n, read from the elements' integer
windows (:func:`sequences.int_window`) with no fraction on the way.

The difference of the sides obeys Delta_n = r*Delta_{n-1} + rho_n, and the
residual rho, which involves no partial sum, is a sum of class walks: one int
stream (:func:`_residuals`) is all that steps a descriptor.
:func:`first_difference` sweeps it for a range, and :func:`sides`, which
serves :func:`descriptor_eval`, reads the LHS off the class walks and the sum
side as L_n - Delta_n, so nothing carried outgrows the sides themselves.

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
from itertools import count, islice, repeat
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
    coef multiplies both. An element of unscaled recurrence (a, b) and ratio
    r is a walk of (a*r, b*r^2) from the seeds (y0, r*y1). D is the lcm of the
    classes' :func:`sequences.step_scale` and E that of the seeds' reduced
    denominators, and a side's seeds are the ints (E*y0, E*D*y1): a
    :func:`sequences.int_walk` on scale D from them yields E*D^m times the
    side's class walk at m.
    """
    rhs = d.rhs
    c, g = rhs.outer_coef, rhs.outer_ratio * rhs.beta
    elements = [(2, *t.coef.as_integer_ratio(), t.ratio, t) for t in d.lhs]
    elements += [
        (3, c.numerator * s.coef.numerator, c.denominator * s.coef.denominator, g, s) for s in rhs.summands
    ]
    zero = ((0, 1), (0, 1))
    # [c1, c2, lhs seeds, sum seeds] per class, found by a list scan: there
    # are few classes, and hashing a Fraction costs more than comparing it
    classes = []
    for side, num, den, r, t in elements:
        a, b, u, v, p, q = _unscaled(t)
        c1, c2 = (a, b) if r == 1 else (a * r, b * r * r)
        for cls in classes:
            if cls[0] == c1 and cls[1] == c2:
                break
        else:
            cls = [c1, c2, zero, zero]
            classes.append(cls)
        y0, y1 = cls[side]
        cls[side] = _plus(y0, (num * u, den * p)), _plus(y1, (r.numerator * num * v, r.denominator * den * q))
    classes = [(c1, c2, *([_lowest(*y) for y in seeds] for seeds in both)) for c1, c2, *both in classes]
    e = lcm(*(p for _, _, *both in classes for seeds in both for _, p in seeds))
    scale = lcm(*(step_scale(c1, c2) for c1, c2, _, _ in classes))

    def ints(seeds):
        (n0, p0), (n1, p1) = seeds
        return n0 * (e // p0), n1 * (e * scale // p1)

    return scale, e, [(c1, c2, ints(lhs), ints(sums)) for c1, c2, lhs, sums in classes]


def _residuals(d: IdentityDescriptor, rec):
    """(E*Delta_0, a stream of den(r)*E*D^n*rho_n for n = 1, 2, ...) on the
    scale (D, E) of rec = recurrences(d).

    With L_n the LHS and R_n = r*R_{n-1} + S_n the sum side, Delta_n = L_n -
    R_n obeys Delta_n = r*Delta_{n-1} + rho_n with the residual

        rho_n = L_n - r*L_{n-1} - S_n,

    and Delta_0 = L_0 - S_0. rho is the sum over classes G of rho^G_n =
    L^G_n - r*L^G_{n-1} - S^G_n, a combination of walks of G's recurrence, so
    it obeys that recurrence for n >= 3 and is one int walk per class. With
    L~_n = E*D^n*L^G_n and S~_n the ints of G's walks, its seeds
    den(r)*E*D^n*rho^G_n = den(r)*(L~_n - S~_n) - num(r)*D*L~_{n-1} at n = 1
    and 2 come from their first three ints.
    """
    scale, _, classes = rec
    r = d.rhs.outer_ratio
    p, q = r.numerator * scale, r.denominator
    delta, walks = 0, []
    for c1, c2, lhs_seeds, sum_seeds in classes:
        l0, l1, l2 = islice(int_walk(c1, c2, scale, *lhs_seeds), 3)
        s0, s1, s2 = islice(int_walk(c1, c2, scale, *sum_seeds), 3)
        delta += l0 - s0
        walks.append(int_walk(c1, c2, scale, q * (l1 - s1) - p * l0, q * (l2 - s2) - p * l1))
    return delta, map(sum, zip(*walks)) if walks else repeat(0)


def _carried(d: IdentityDescriptor, rec, n_lo: int):
    """(Delta_{n_lo}, the stream of :func:`_residuals` left at n_lo + 1),
    with a Fraction built only while Delta or rho is nonzero."""
    scale, e, _ = rec
    delta, rhos = _residuals(d, rec)
    delta = Fraction(delta, e) if delta else 0
    r = d.rhs.outer_ratio
    for n, rho in zip(range(1, n_lo + 1), rhos):
        if delta or rho:
            delta = r * delta + Fraction(rho, r.denominator * e * scale ** n)
    return delta, rhos


def first_difference(d: IdentityDescriptor, n_lo: int, n_hi: int):
    """The first (n, lhs, rhs) with lhs != rhs for n in [n_lo, n_hi], else None.

    Delta_{n_lo} comes from :func:`_carried`; past n_lo the first n with
    Delta_n != 0 is the first with rho_n != 0, so the sweep is one int step
    per class and one zero test per n. There Delta_{n-1} = 0 and Delta_n =
    rho_n, so the witness is (n, L_n, L_n - rho_n), L_n read by one skip of
    each class's LHS walk. The caller bounds the range, as
    :func:`verifier.verify` does.
    """
    rec = recurrences(d)
    scale, e, classes = rec
    delta, rhos = _carried(d, rec, n_lo)
    n = n_lo
    if not delta:
        for n, rho in zip(range(n_lo + 1, n_hi + 1), rhos):
            if rho:
                delta = Fraction(rho, d.rhs.outer_ratio.denominator * e * scale ** n)
                break
        else:
            return None
    lhs = Fraction(sum(next(int_walk(c1, c2, scale, *seeds, n)) for c1, c2, seeds, _ in classes), e * scale ** n)
    return n, lhs, lhs - delta


def sides(d: IdentityDescriptor, n_lo: int):
    """Yield (n, lhs, rhs), both sides exact, for n = n_lo, n_lo + 1, ... without end.

    The LHS is one walk per recurrence class of :func:`recurrences`, stepped
    as ints on its common scale (D, E) and read as one fraction over E*D^n;
    the sum side is L_n - Delta_n, with Delta carried in Horner form,
    Delta_n = r*Delta_{n-1} + rho_n, from the residual stream of
    :func:`_residuals`. Delta is the difference of the sides, 0 for a true
    identity, so nothing carried outgrows them.
    """
    if n_lo < d.n_min:
        raise ValueError(f"n={n_lo} is below the descriptor's n_min={d.n_min}")
    if n_lo > MAX_INDEX:
        raise ValueError(f"n={n_lo} is beyond the limit of {MAX_INDEX}")
    rec = recurrences(d)
    scale, den, classes = rec
    delta, rhos = _carried(d, rec, n_lo)
    lhs = [int_walk(c1, c2, scale, *seeds, n_lo) for c1, c2, seeds, _ in classes]
    r = d.rhs.outer_ratio
    den *= scale ** n_lo
    for n in count(n_lo):
        value = Fraction(sum(map(next, lhs)), den)
        yield n, value, value - delta
        den *= scale
        delta = r * delta + Fraction(next(rhos), r.denominator * den)


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
