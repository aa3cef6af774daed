"""Expected outputs for the far_index ops, computed without identity_forge.

Terms come from a power of the companion matrix over exact rationals, so
the oracle shares no code and no algorithm with the package's memoised
step-by-step recurrence. Callers that turn these values into text must
lift the interpreter's int->str digit limit first (the harness does); the
program under test keeps the default limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

# CLI family name -> (c1, c2, x0, x1, label printed in generated ids).
FAMILIES = {
    "fibonacci": (1, 1, 0, 1, "Fibonacci"),
    "lucas": (1, 1, 2, 1, "Lucas"),
    "pell": (2, 1, 0, 1, "Pell"),
    "pelllucas": (2, 1, 1, 1, "Pell-Lucas"),
    "bronze": (3, 1, 0, 1, "bronze"),
    "a015530": (4, 3, 0, 1, "A015530"),
}

# The rationals p/q with |p| <= 3 and 1 <= q <= 3, the fuzzers' coefficient pool.
POOL = tuple(sorted({Fraction(p, q) for p in range(-3, 4) for q in range(1, 4)}))


@dataclass(frozen=True)
class Seq:
    """A second-order sequence as the CLI receives it: a family or four rationals."""

    c1: Fraction
    c2: Fraction
    x0: Fraction
    x1: Fraction
    family: str | None = None

    @classmethod
    def named(cls, family: str) -> "Seq":
        c1, c2, x0, x1, _ = FAMILIES[family]
        return cls(Fraction(c1), Fraction(c2), Fraction(x0), Fraction(x1), family)

    @property
    def label(self) -> str:
        return FAMILIES[self.family][4] if self.family else "custom"

    def cli_flags(self) -> list[str]:
        if self.family:
            return ["--family", self.family]
        return [f"--{name}={getattr(self, name)}" for name in ("c1", "c2", "x0", "x1")]


def _mat_mul(m, n):
    (a, b), (c, d) = m
    (e, f), (g, h) = n
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def _mat_pow(m, e: int):
    result = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    while e:
        if e & 1:
            result = _mat_mul(result, m)
        e >>= 1
        if e:
            m = _mat_mul(m, m)
    return result


def term(s: Seq, n: int) -> Fraction:
    """X_n, from (X_{n+1}, X_n) = M^n (X_1, X_0) with M = [[c1, c2], [1, 0]]."""
    if n >= 0:
        step = ((s.c1, s.c2), (Fraction(1), Fraction(0)))
    else:
        step = ((Fraction(0), Fraction(1)), (1 / s.c2, -s.c1 / s.c2))
    (_, _), (c, d) = _mat_pow(step, abs(n))
    return c * s.x1 + d * s.x0


@dataclass(frozen=True)
class Generated:
    """What `generate --k K` must print, or the error it must exit 2 with."""

    error: str | None
    id: str = ""
    t: Fraction = Fraction(0)
    coefficient: Fraction = Fraction(0)


def generated(s: Seq, k: int) -> Generated:
    """Offset-k weighted-sum identity: t = -c2*X_{k-1}/X_k, front (X0*X2 - X1^2)/X_k."""
    xk = term(s, k)
    if xk == 0:
        return Generated(error=f"error: X_k = 0 at k={k}:")
    xk1 = term(s, k - 1)
    if xk1 == 0:
        return Generated(error=f"error: X_(k-1) = 0 at k={k}:")
    return Generated(
        error=None,
        id=f"theorem2[{s.label},k={k}]",
        t=-s.c2 * xk1 / xk,
        coefficient=(s.x0 * term(s, 2) - s.x1 * s.x1) / xk,
    )
