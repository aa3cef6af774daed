"""Catalog of citable weighted-sum identities with fixed parameter grids.

Each family id maps to a builder producing the polished display form of the
identity as an :class:`IdentityDescriptor`. Parametrized families are
enumerated over small fixed grids so the whole catalog is a bounded,
deterministic test surface; out-of-grid parameters are available through the
generators in :mod:`identity_forge.engine` instead. Where a family is a
polished rewrite of raw generator output, the test suite ties the two
together by exact evaluation.

Twelve families, 91 entries, are instances of the two-sequence theorem,
:func:`engine.pair_sum`, on the stride-j subsequences X_{jn} and Y_{jn+k}
of two sequences of one recurrence. With X_0 = 0, :func:`_pair_sum`
divides by -X_j, which leaves X_{jn+j} = (X_j/Y_k) * sum_{i=0..n}
t^(n-i) Y_{ji+k}, and multiplies by sigma*lam^n: nine families (eq3, eq9,
eq10, eq12, eq19, eq44, eq45, eqA, eqPP) with sigma = lam = 1, and eq1,
eq2 and eq8b rescaled. The other families add constant terms or several
summands and keep their own builders; eq33[j] is eq8 at m = j rescaled by
sigma = 2/F_j and lam = (-1)^j.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .engine import GeometricTerm, IdentityDescriptor, Summand, SumSide, _fib, _luc, _scaled, pair_sum
from .numeric import format_rational, quote, rat_pow
from .sequences import (
    A015530,
    BRONZE,
    FIBONACCI,
    LUCAS,
    PELL,
    PELL_LUCAS,
    generalized_u,
    generalized_v_def,
)


@dataclass(frozen=True)
class CatalogEntry:
    """One instantiated identity: family id, descriptor, source note, parameters."""

    id: str
    descriptor: IdentityDescriptor
    citation: str
    params: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        return self.descriptor.id


def _fmt_param(value) -> str:
    return format_rational(value) if isinstance(value, Fraction) else str(value)


def _label(entry_id: str, params: dict) -> str:
    if not params:
        return entry_id
    inner = ",".join(f"{key}={_fmt_param(value)}" for key, value in params.items())
    return f"{entry_id}[{inner}]"


# Builders. LHS terms are (coef, ratio, seq, stride, offset); a missing seq is
# a pure geometric/constant term. Sum sides store t^(n-i) weights as
# outer_ratio = t, beta = 1/t.

def _pair_sum(x, y, j, k, sigma=1, lam=1):
    """:func:`engine.pair_sum` with X_0 = 0, divided by -X_j so that its one
    nonzero LHS term is X_{jn+j}, then multiplied by sigma*lam^n."""
    (_, x_j), rhs = pair_sum(x, y, j, k)
    return _scaled((x_j,), rhs, sigma / x_j.coef, lam)


def _eq5(t):
    return (
        (GeometricTerm(t, t, FIBONACCI, 1, 1),),
        SumSide(1, 1, t, (Summand(1, LUCAS, 1, 0), Summand(t - 2, FIBONACCI, 1, 1))),
    )


def _eq7(a, b, t):
    u = generalized_u(a, b)
    v = generalized_v_def(a, b)
    return (
        (GeometricTerm(t, t, u, 1, 1),),
        SumSide(
            Fraction(1, 1) / a,
            1,
            t,
            (Summand(1, v, 1, 0), Summand(a * t - 2, u, 1, 1)),
        ),
    )


def _eq8(m):
    sign = rat_pow(-1, m)
    half_lucas = _luc(m) / 2
    return (
        (
            GeometricTerm(half_lucas, sign * half_lucas, FIBONACCI, m, 0),
            GeometricTerm(_fib(m), 1),
        ),
        SumSide(_fib(m) / 2, 1, sign * half_lucas, (Summand(1, LUCAS, m, 0),)),
    )


def _eq11():
    third = Fraction(1, 3)
    return (
        (GeometricTerm(1, 1), GeometricTerm(-third, third, PELL_LUCAS, 1, 1)),
        SumSide(Fraction(2, 3), 1, third, (Summand(1, PELL, 1, -1),)),
    )


def _eq23(j):
    sign = rat_pow(-1, j)
    lj = _luc(j)
    return (
        (
            GeometricTerm(lj, lj, FIBONACCI, j, -j),
            GeometricTerm(sign * _fib(2 * j), sign),
        ),
        SumSide(1, sign, sign * lj, (Summand(1, FIBONACCI, j, 0),)),
    )


def _eqDT(j):
    sign = rat_pow(-1, j)
    ratio = 1 / _luc(j)
    return (
        (
            GeometricTerm(sign * _fib(2 * j), 1),
            GeometricTerm(-sign, ratio, FIBONACCI, j, 2 * j),
        ),
        SumSide(1, 1, ratio, (Summand(1, FIBONACCI, j, 0),)),
    )


def _eqPP2():
    return (
        (GeometricTerm(1, 1, PELL, 1, 2), GeometricTerm(-2, 2)),
        SumSide(1, 2, Fraction(1, 2), (Summand(1, PELL, 1, 0),)),
    )


@dataclass(frozen=True)
class _Family:
    build: callable
    grid: tuple
    citation: str


_FAMILIES: dict[str, _Family] = {
    "eq1": _Family(
        lambda: _pair_sum(FIBONACCI, LUCAS, 1, 0, sigma=2, lam=2),
        ({},),
        "Sury's identity: powers of two against the Lucas numbers",
    ),
    "eq2": _Family(
        lambda: _pair_sum(FIBONACCI, LUCAS, 1, 1, lam=Fraction(-1, 2)),
        ({},),
        "Martinjak's alternating half-weight Lucas sum",
    ),
    "eq3": _Family(
        lambda: _pair_sum(FIBONACCI, LUCAS, 1, 1), ({},), "convolution form of Martinjak's identity"
    ),
    "eq4": _Family(lambda: _eq5(3), ({},), "Marques' base-3 variant of Sury's identity"),
    "eq5": _Family(
        _eq5,
        ({"t": Fraction(2)}, {"t": Fraction(3)}, {"t": Fraction(-1, 2)}, {"t": Fraction(5)}),
        "Edgar's one-parameter family with weight t",
    ),
    "eq7": _Family(
        _eq7,
        tuple(
            {"a": Fraction(a), "b": Fraction(b), "t": t}
            for (a, b) in ((1, 1), (2, 1), (3, 1))
            for t in (Fraction(1), Fraction(2), Fraction(-1, 2))
        ),
        "Abd-Elhameed/Zeyada family over generalized Fibonacci-Lucas pairs",
    ),
    "eq8": _Family(
        _eq8,
        ({"m": 3}, {"m": 6}, {"m": 9}),
        "closed-form m-step Lucas sums with weight half the m-th Lucas number",
    ),
    "eq8b": _Family(
        lambda j: _pair_sum(FIBONACCI, LUCAS, j, 0, lam=2 / _luc(j)),
        ({"j": 3}, {"j": 6}, {"j": 9}),
        "Adegoke/Frontczak-style reciprocal-weight companions of the m-step sums",
    ),
    "eq9": _Family(
        lambda j, summand: _pair_sum(FIBONACCI, FIBONACCI if summand == "fibonacci" else LUCAS, j, 1),
        tuple({"j": j, "summand": s} for j in (2, 3, 4) for s in ("fibonacci", "lucas")),
        "unit-offset j-step sums with Fibonacci or Lucas summands",
    ),
    "eq10": _Family(
        lambda k: _pair_sum(PELL, PELL, 1, k),
        ({"k": 2}, {"k": 3}, {"k": 4}),
        "Pell sums starting at offset k",
    ),
    "eq11": _Family(
        _eq11,
        ({},),
        "Abd-Elhameed/Zeyada Pell-Lucas sum over down-shifted Pell numbers",
    ),
    "eq12": _Family(
        lambda j: _pair_sum(BRONZE, BRONZE, j, 1),
        ({"j": 2}, {"j": 3}, {"j": 4}),
        "bronze Fibonacci j-step sums with unit offset",
    ),
    "eq19": _Family(
        lambda k: _pair_sum(FIBONACCI, LUCAS, 1, k),
        ({"k": 1}, {"k": 2}, {"k": 3}, {"k": 4}),
        "Lucas-offset family producing F_{n+1} from sums starting at L_k",
    ),
    "eq23": _Family(
        _eq23,
        tuple({"j": j} for j in range(1, 10)),
        "zero-offset j-step Fibonacci weighted sum",
    ),
    "eq33": _Family(
        lambda j: _scaled(*_eq8(j), 2 / _fib(j), rat_pow(-1, j)),
        tuple({"j": j} for j in range(1, 10)),
        "zero-offset j-step Lucas weighted sum",
    ),
    "lzero3": _Family(lambda: _eq8(3), ({},), "polished 3-step form of the zero-offset Lucas sum"),
    "lzero6": _Family(lambda: _eq8(6), ({},), "polished 6-step form of the zero-offset Lucas sum"),
    "eq44": _Family(
        lambda j, k: _pair_sum(FIBONACCI, FIBONACCI, j, k),
        tuple({"j": j, "k": k} for j in range(2, 7) for k in range(-(j - 1), j) if k != 0),
        "j-step Fibonacci sums with nonzero offset k (|k| < j)",
    ),
    "eq45": _Family(
        lambda j, k: _pair_sum(FIBONACCI, LUCAS, j, k),
        tuple({"j": j, "k": k} for j in range(1, 7) for k in range(-(j - 1), j)),
        "j-step Lucas sums with offset k (|k| < j)",
    ),
    "eqDT": _Family(
        _eqDT,
        ({"j": 2}, {"j": 3}, {"j": 4}),
        "Dresden/Tulskikh reciprocal-weight Fibonacci step sums",
    ),
    "eqPP": _Family(lambda: _pair_sum(PELL, PELL, 1, -1), ({},), "Pell sum with offset -1 and weight 2"),
    "eqPP2": _Family(
        _eqPP2,
        ({},),
        "Dresden/Tulskikh companion: P_{n+2} against zero-offset Pell sums",
    ),
    "eqA": _Family(
        lambda k: _pair_sum(A015530, A015530, 1, k),
        ({"k": 2}, {"k": 3}),
        "offset-k sums for the (4, 3) recurrence A015530",
    ),
}


def entry(entry_id: str, **params) -> CatalogEntry:
    """Instantiate one catalog identity; unknown ids or parameters are errors."""
    family = _FAMILIES.get(entry_id)
    if family is None:
        raise ValueError(f"unknown catalog id: {quote(entry_id)}")
    canonical = None
    for point in family.grid:
        if point == params:
            canonical = point
            break
    if canonical is None:
        raise ValueError(f"parameters {quote(params)} are outside the grid for {entry_id}")
    lhs, rhs = family.build(**canonical)
    descriptor = IdentityDescriptor(
        id=_label(entry_id, canonical),
        lhs=lhs,
        rhs=rhs,
        n_min=0,
        citation=family.citation,
    )
    return CatalogEntry(entry_id, descriptor, family.citation, dict(canonical))


def all_entries() -> list[CatalogEntry]:
    """Every catalog identity, instantiated over its grid, in a fixed order."""
    return [
        entry(entry_id, **point)
        for entry_id, family in _FAMILIES.items()
        for point in family.grid
    ]


def catalog_ids() -> list[str]:
    return list(_FAMILIES)
