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
seeds as ints on one common scale E*D^n, read from each element's integer
recurrence and seeds (:func:`sequences.stride_recurrence`) with no fraction
on the way.

The difference of the sides obeys Delta_n = r*Delta_{n-1} + rho_n, and the
residual rho, which involves no partial sum, is a sum of class walks: one int
stream (:func:`_residuals`), one loop over it (:func:`_difference`) for a
range or a single n, and one read-out of L_n, off the class walks, and
L_n - Delta_n serve every caller, so nothing carried outgrows the sides.

:func:`pair_sum` is the one builder of the two-sequence theorem: for X and
Y of one recurrence it equates X_0*X_{jn+2j} - X_j*X_{jn+j} to a weighted
sum of Y_{ji+k}, with weight t = (-c2)^j * Y_{k-j}/Y_k, valid whenever Y_k
and Y_{k-j} are both nonzero (k may be negative), on ints throughout.
:func:`theorem2_descriptor` is its Y = X, j = 1 case for any sequence and
offset k, and :func:`theorem1_descriptor` is theorem2's k = 0 case for
normalized sequences (first term 1), with t = c1 - A_1, each under its own
id and citation; :mod:`catalog` builds 91 of its entries from it.

Product identities of d'Ocagne and Cassini type are provided as exact
two-sided evaluations; the companion-matrix determinant gives an independent
oracle for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import gcd, lcm

from .numeric import ensure_fraction, fraction_fields, lowest_terms, quote, rat_pow
from .sequences import FIBONACCI, LUCAS, MAX_INDEX, SequenceDef, int_walk, step_scale
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
        fraction_fields(self, "coef", "ratio")
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
        fraction_fields(self, "coef")
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
        fraction_fields(self, "outer_coef", "outer_ratio", "beta")
        if not isinstance(self.summands, tuple):
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
        if not isinstance(self.lhs, tuple):
            object.__setattr__(self, "lhs", tuple(self.lhs))
        if self.n_min < 0:
            raise ValueError("n_min must be >= 0")


_ONE = Fraction(1)


def recurrences(d: IdentityDescriptor) -> tuple[int, int, list[tuple[int, int, tuple, tuple]]]:
    """(D, E, classes): one (a, b, lhs seeds, sum seeds) per recurrence
    class (c1, c2) of d's walks, its int step (a, b) = (c1*D, c2*D^2) and
    every seed an int on one common scale (D, E).

    Every LHS term and every summand, folded into the element
    c*coef*g^i*X_{stride*i+offset} with c = outer_coef and g = outer_ratio*beta,
    is a walk of some recurrence (c1, c2), so that the sum side is
    R_n = r*R_{n-1} + S_n with r = outer_ratio and S_n the summand walks at n.
    Walks of one recurrence are linear in their seeds (y0, y1), so each class,
    the walks of one exact (c1, c2), adds up the seeds of its LHS terms and,
    apart, of its summands; a side with no walk in a class has seeds (0, 0).

    Everything runs on ints: :func:`sequences.stride_recurrence` reads each
    element's unscaled recurrence (u1, u2) and seeds (y0, y1) as int pairs,
    the constant walk (1, 0) where it has no sequence or stride 0, and its
    coef multiplies both seeds. With ratio r the element is a walk of
    (u1*r, u2*r^2) from the seeds (y0, r*y1), and the class key is the ints
    of (u1*r, u2*r^2) in lowest terms. A class adds its elements' seeds as
    numerators over unreduced denominators, directly where the denominators
    are equal, and reduces only its final seeds. D is
    the lcm of the classes' :func:`sequences.step_scale` and E that of the
    reduced seed denominators, and a side's seeds are the ints
    (E*y0, E*D*y1): a :func:`sequences.int_walk` of the class's (a, b)
    from them yields E*D^m times the side's class walk at m.
    """
    rhs = d.rhs
    c, ratio, beta = rhs.outer_coef, rhs.outer_ratio, rhs.beta
    gn, gd = lowest_terms(ratio.numerator * beta.numerator, ratio.denominator * beta.denominator)
    elements = [(0, *t.coef.as_integer_ratio(), *t.ratio.as_integer_ratio(), t) for t in d.lhs]
    elements += [
        (1, c.numerator * s.coef.numerator, c.denominator * s.coef.denominator, gn, gd, s)
        for s in rhs.summands
    ]
    # per class key, the LHS seeds and the sum seeds, each (n0, p0, n1, p1) for y0 = n0/p0 and
    # y1 = n1/p1 with p0 and p1 not reduced; a dict keeps the order classes are found in
    classes = {}
    for side, num, den, rn, rd, t in elements:
        (an, ad), (bn, bd), (u, p), (v, q) = stride_recurrence(t.seq, t.stride, t.offset)
        if rn != rd:  # r != 1
            an, ad = lowest_terms(an * rn, ad * rd)
            bn, bd = lowest_terms(bn * rn * rn, bd * rd * rd)
        key = an, ad, bn, bd
        n0, p0, n1, p1 = num * u, den * p, rn * num * v, rd * den * q
        both = classes.setdefault(key, [(0, 1, 0, 1), (0, 1, 0, 1)])
        m0, q0, m1, q1 = both[side]
        n0, p0 = (m0 + n0, p0) if q0 == p0 else (m0 * p0 + n0 * q0, q0 * p0)
        n1, p1 = (m1 + n1, p1) if q1 == p1 else (m1 * p1 + n1 * q1, q1 * p1)
        both[side] = n0, p0, n1, p1
    scale = e = 1
    for (_, ad, _, bd), both in classes.items():
        for i, (n0, p0, n1, p1) in enumerate(both):
            (n0, p0), (n1, p1) = lowest_terms(n0, p0), lowest_terms(n1, p1)
            both[i] = n0, p0, n1, p1
            e = lcm(e, p0, p1)
        scale = lcm(scale, step_scale(ad, bd))
    es = e * scale
    return scale, e, [
        (
            an * (scale // ad),
            bn * (scale * scale // bd),
            (l0 * (e // p0), l1 * (es // p1)),
            (s0 * (e // q0), s1 * (es // q1)),
        )
        for (an, ad, bn, bd), ((l0, p0, l1, p1), (s0, q0, s1, q1)) in classes.items()
    ]


def _residuals(d: IdentityDescriptor, rec):
    """(E*Delta_0, a stream of den(r)*E*D^n*rho_n for n = 1, 2, ...) on the
    scale (D, E) of rec = recurrences(d).

    With L_n the LHS and R_n = r*R_{n-1} + S_n the sum side, Delta_n = L_n -
    R_n obeys Delta_n = r*Delta_{n-1} + rho_n with the residual

        rho_n = L_n - r*L_{n-1} - S_n,

    and Delta_0 = L_0 - S_0. rho is the sum over classes G of rho^G_n =
    L^G_n - r*L^G_{n-1} - S^G_n, a combination of walks of G's recurrence, so
    it obeys that recurrence for n >= 3 and is one int walk per class, seeded
    at n = 1 and 2; :func:`first_difference` reads its proof bound off that. With
    L~_n = E*D^n*L^G_n and S~_n the ints of G's walks, its seeds
    den(r)*E*D^n*rho^G_n = den(r)*(L~_n - S~_n) - num(r)*D*L~_{n-1} at n = 1
    and 2 come from their first three ints, the third one step of G's int
    step (a, b) on from the seeds.
    """
    scale, _, classes = rec
    r = d.rhs.outer_ratio
    p, q = r.numerator * scale, r.denominator
    delta, walks = 0, []
    for a, b, (l0, l1), (s0, s1) in classes:
        l2, s2 = a * l1 + b * l0, a * s1 + b * s0
        delta += l0 - s0
        walks.append(int_walk(a, b, q * (l1 - s1) - p * l0, q * (l2 - s2) - p * l1))
    if len(walks) == 1:
        return delta, walks[0]
    return delta, map(sum, zip(*walks)) if walks else repeat(0)


def _difference(d: IdentityDescriptor, rec, n_lo: int, n_hi: int):
    """(n, Delta_n): Delta carried from 0 to n_lo on :func:`_residuals`, then
    stepped on while it is 0 up to min(n_hi, n_lo + B), B the proof bound of
    :func:`first_difference`; a Fraction is built only while Delta or rho is
    nonzero."""
    scale, e, classes = rec
    delta, rhos = _residuals(d, rec)
    delta = Fraction(delta, e) if delta else 0
    r = d.rhs.outer_ratio
    stop = min(n_hi, n_lo + sum(1 if b == 0 else 2 for _, b, _, _ in classes))
    n = 0
    for n, rho in zip(range(1, stop + 1), rhos):
        if delta and n > n_lo:
            return n - 1, delta
        if delta or rho:
            delta = r * delta + Fraction(rho, r.denominator * e * scale ** n)
    return n, delta


def _read_out(rec, n: int, delta) -> tuple[Fraction, Fraction]:
    """(L_n, L_n - Delta_n), L_n read by one skip of each class's LHS walk."""
    scale, e, classes = rec
    lhs = Fraction(sum(next(int_walk(a, b, *seeds, n)) for a, b, seeds, _ in classes), e * scale ** n)
    return lhs, lhs - delta


def first_difference(d: IdentityDescriptor, n_lo: int, n_hi: int):
    """The first (n, lhs, rhs) with lhs != rhs for n in [n_lo, n_hi], else None.

    :func:`_difference` carries Delta to n_lo; past n_lo the first n with
    Delta_n != 0 is the first with rho_n != 0. The sweep stops at the proof
    bound: it tests rho only on (n_lo, min(n_hi, n_lo + B)], with B the sum
    over classes of 1 where b = 0 and 2 otherwise, one int step per class
    and one zero test per n.

    Proof that those B residuals decide the whole range: each class's stream
    in :func:`_residuals` is an :func:`sequences.int_walk` of its int step
    (a, b) from n = 1, so it obeys that recurrence for n >= 3, that is, its
    monic operator S^2 - a*S - b (S the shift) kills it from n = 1 on. b = 0
    holds exactly when c2 = 0, and a class with c2 = 0 holds only geometric,
    stride-0 and ratio-0 elements (:func:`recurrences`): each is a walk of
    (c1, 0), c1 being the element's ratio, whose values are its first one
    times c1^m, so its seed ints satisfy W_1 = a*W_0. By linearity so do the
    class's summed seed ints, so L~_{m+1} = a*L~_m and S~_{m+1} = a*S~_m for
    m >= 0, and the stream's seeds, den(r)*(L~_1 - S~_1) - num(r)*D*L~_0 at
    n = 1 and the same with every index one higher at n = 2, satisfy
    rho_2 = a*rho_1 in its ints. That class's stream is then a times the one
    before it from n = 1, so the operator S - a, of order 1, kills it from
    n = 1 on. The product of the classes' operators, monic of order B,
    therefore kills their sum, so for n >= B + 1 rho_n is a fixed
    combination of the B residuals before it. If rho is 0 at n_lo + 1, ...,
    n_lo + B, with n_lo >= 0, each later rho_n, n >= n_lo + B + 1 >= B + 1,
    is then 0 as well, up to n_hi and beyond; so any first nonzero rho past
    n_lo lies among the first B, and a range whose first B residuals are 0
    has no counterexample past n_lo.

    The witness is (n, L_n, L_n - Delta_n) from :func:`_read_out`. The
    caller bounds the range, as :func:`verifier.verify` does.
    """
    rec = recurrences(d)
    n, delta = _difference(d, rec, n_lo, n_hi)
    return (n, *_read_out(rec, n, delta)) if delta else None


def descriptor_eval(d: IdentityDescriptor, n: int) -> tuple[Fraction, Fraction]:
    """Exact values of both sides at n, Delta_n carried by :func:`_difference`."""
    if n < d.n_min:
        raise ValueError(f"n={quote(n)} is below the descriptor's n_min={d.n_min}")
    if n > MAX_INDEX:
        raise ValueError(f"n={quote(n)} is beyond the limit of {MAX_INDEX}")
    rec = recurrences(d)
    return _read_out(rec, *_difference(d, rec, n, n))


def pair_sum(x: SequenceDef, y: SequenceDef, j: int, k: int) -> tuple[tuple[GeometricTerm, ...], SumSide]:
    """(lhs, rhs) of the two-sequence theorem on the stride-j subsequences
    X_{jn} of x and Y_{jn+k} of y, for x and y of one recurrence and j >= 1:

        X_0*X_{jn+2j} - X_j*X_{jn+j}
            = ((X_0*X_{2j} - X_j^2) / Y_k) * sum_{i=0..n} t^{n-i} Y_{ji+k}

    with t = (-c2)^j * Y_{k-j}/Y_k. Both subsequences obey (a, b) = (V_j,
    -(-c2)^j), which :func:`sequences.stride_recurrence` reads as ints with
    Y_{k-j} and Y_k (at j = 1 one :func:`sequences.int_window`). X_0 and X_1
    are fields, X_j for j >= 2 is read the same way, and X_{2j} = a*X_j +
    b*X_0, so t and the outer coefficient are each one fraction of ints, and
    beta = 1/t is t's own ints swapped. Requires Y_k != 0 and Y_{k-j} != 0,
    which also forces t != 0; a refusal names the summand's sequence X, as
    for theorem2.

    Proof, in closed form. Let v_i = Y_{ji+k}, a walk of (a, b), and let
    P(t) = t^2 - a*t - b != 0. Then

        sum_{i=0..n} t^{n-i} v_i = W_n + C*t^n,

    with W_n = A*v_{n+1} + B*v_n, A = -t/P(t) and B = -b/P(t): substituting
    v_{n+1} = a*v_n + b*v_{n-1} gives W_n - t*W_{n-1} = v_n, the step of the
    sum itself, so the two differ by C*t^n with C = v_0 - W_0 =
    t*(v_0*t - a*v_0 + v_1)/P(t). As t != 0, C = 0 exactly when t = a -
    v_1/v_0, and with v_0 = Y_k, v_1 = Y_{k+j} = a*Y_k + b*Y_{k-j} that is
    -b*Y_{k-j}/Y_k = (-c2)^j * Y_{k-j}/Y_k, the t above. The sum is then W_n,
    a walk of (a, b); times the outer coefficient it is the LHS, written in
    the basis X_{jn+2j}, X_{jn+j}. Where P(t) = 0 the closed form does not
    apply: t is then a root of z^2 - a*z - b, and v_1 = (a - t)*v_0 makes
    v_i = v_0*s^i for the other root s = a - t. Those descriptors are proved,
    like any other, by the bounded sweep of :func:`first_difference`.
    """
    if j < 1:
        raise ValueError("j must be >= 1")
    if x is not y and (x.c1 != y.c1 or x.c2 != y.c2):
        raise ValueError("the two sequences must share one recurrence (c1, c2)")
    (an, ad), (bn, bd), (u, p), (v, q) = stride_recurrence(y, j, k - j)  # Y_{k-j} = u/p, Y_k = v/q
    if v == 0:
        raise OffsetInvalidError(f"X_k = 0 at k={k}: offset violates the nonzero hypothesis")
    if u == 0:
        raise OffsetInvalidError(f"X_(k-{j}) = 0 at k={k}: offset violates the nonzero hypothesis")
    # p and q are powers of one walk's scale apart, one dividing the other:
    # cancelling their gcd, the smaller, first leaves t's own reduction
    # operands the size of Y_k
    g = gcd(p, q)
    t = Fraction(-bn * u * (q // g), bd * (p // g) * v)
    beta = Fraction(t.denominator, t.numerator)
    # X_0 = a0/b0, X_j = a1/b1, X_{2j} = x2/y2 and outer = (X_0*X_{2j} - X_j^2) / Y_k
    x_j = x.x1 if j == 1 else Fraction(*stride_recurrence(x, j)[3])
    (a0, b0), (a1, b1) = x.x0.as_integer_ratio(), x_j.as_integer_ratio()
    x2, y2 = an * a1 * bd * b0 + bn * a0 * ad * b1, ad * bd * b0 * b1
    outer = Fraction((a0 * x2 * b1 * b1 - a1 * a1 * b0 * y2) * q, b0 * y2 * b1 * b1 * v)
    return (
        (GeometricTerm(x.x0, _ONE, x, j, 2 * j), GeometricTerm(-x_j, _ONE, x, j, j)),
        SumSide(outer, t, beta, (Summand(_ONE, y, j, k),)),
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
    lhs, rhs = pair_sum(a, a, 1, 0)
    return IdentityDescriptor(
        f"theorem1[{a.label or 'A'}]", lhs, rhs, citation="generated: normalized-sequence weighted sum"
    )


def theorem2_descriptor(x: SequenceDef, k: int) -> IdentityDescriptor:
    """Weighted-sum identity for an arbitrary sequence with summand offset k:
    :func:`pair_sum` with Y = X and stride 1, that is

    X_0*X_{n+2} - X_1*X_{n+1}
        = ((X_0*X_2 - X_1^2) / X_k) * sum_{i=0..n} t^{n-i} X_{i+k}

    with t = -c2*X_{k-1}/X_k. Requires X_k != 0 and X_{k-1} != 0.
    """
    lhs, rhs = pair_sum(x, x, 1, k)
    return IdentityDescriptor(
        f"theorem2[{x.label or 'X'},k={k}]", lhs, rhs, citation=f"generated: offset-{k} weighted sum"
    )


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


def _scaled(lhs, rhs: SumSide, sigma, lam) -> tuple[tuple[GeometricTerm, ...], SumSide]:
    """(lhs, rhs) with both sides multiplied by sigma * lam^n."""
    return (
        tuple(GeometricTerm(t.coef * sigma, t.ratio * lam, t.seq, t.stride, t.offset) for t in lhs),
        SumSide(rhs.outer_coef * sigma, rhs.outer_ratio * lam, rhs.beta, rhs.summands),
    )


def rewrite_scale(d: IdentityDescriptor, sigma, lam) -> IdentityDescriptor:
    """Multiply both sides by sigma * lam^n; truth is preserved for all n."""
    sigma = ensure_fraction(sigma)
    lam = ensure_fraction(lam)
    if sigma == 0 or lam == 0:
        raise ValueError("scale factors must be nonzero")
    return IdentityDescriptor(d.id, *_scaled(d.lhs, d.rhs, sigma, lam), d.n_min, d.citation)
