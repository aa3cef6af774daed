"""Exact range verification of identity descriptors and seeded fuzzing.

Verification decides whether the two sides of a descriptor agree at every
integer in a range. Each side is C-finite and the sum side is a partial sum,
so the difference of the sides at n is r times the difference at n-1 plus a
residual that involves no partial sum; :func:`verify` checks the first
difference and then the residual at each n. The residual of each recurrence
class obeys that class's recurrence, so it is stepped as one walk on plain
ints (the derivation is in its docstring); the classes come from
:func:`engine.recurrences` on one integer scale, built once per call. A
single exact counterexample falsifies an identity, so a failed sweep stops at
the first witness, whose exact sides it reads from :func:`engine.sides` on
the same classes.

The fuzzers draw random sequence definitions from a small rational pool,
apply a generator from :mod:`identity_forge.engine`, and verify the result;
instances that violate a generator hypothesis are reported as skipped with
the reason, never as crashes. The instance stream is a pure function of the
seed, so every run is reproducible.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice

from .catalog import all_entries
from .engine import (
    DegenerateRatioError,
    IdentityDescriptor,
    OffsetInvalidError,
    recurrences,
    sides,
    theorem1_descriptor,
    theorem2_descriptor,
)
from .numeric import format_rational
from .sequences import MAX_INDEX, SequenceDef, int_walk


# the most that the reaches of one descriptor's terms may add up to (see
# verify); a theorem1/theorem2 descriptor, whose three terms each reach at
# most MAX_INDEX when n_hi > 0, stays within it on any range that passes the
# MAX_INDEX check
MAX_TOTAL_REACH = 3 * MAX_INDEX


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one exact sweep; elapsed time never affects equality."""

    id: str
    n_lo: int
    n_hi: int
    status: str  # "pass" | "fail" | "skipped"
    reason: str | None = None
    first_failure: tuple[int, Fraction, Fraction] | None = None
    elapsed: float = field(default=0.0, compare=False)

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def report_line(report: VerificationReport) -> str:
    head = f"{report.status.upper():7s} {report.id}  n in [{report.n_lo}, {report.n_hi}]"
    if report.status == "fail" and report.first_failure is not None:
        n, lhs, rhs = report.first_failure
        return (
            f"{head}  first counterexample at n={n}: "
            f"lhs={format_rational(lhs)} rhs={format_rational(rhs)}"
        )
    if report.status == "skipped":
        return f"{head}  ({report.reason})"
    return f"{head}  ({report.elapsed:.3f}s)"


def verify(d: IdentityDescriptor, n_lo: int, n_hi: int) -> VerificationReport:
    """Exact pass/fail over [n_lo, n_hi] with the first counterexample, if any.

    With L_n the LHS and R_n = r*R_{n-1} + S_n the sum side (see
    :func:`engine.recurrences`), the difference Delta_n = L_n - R_n obeys
    Delta_n = r*Delta_{n-1} + rho_n with the residual

        rho_n = L_n - r*L_{n-1} - S_n.

    So Delta is 0 on [n_lo, n_hi] exactly when Delta_{n_lo} = 0 and rho is 0
    on (n_lo, n_hi], and the first n with Delta_n != 0 is the first n with
    rho_n != 0; the witness there is read from :func:`engine.sides`.

    rho is the sum over recurrence classes G of rho^G_n = L^G_n -
    r*L^G_{n-1} - S^G_n, each a combination of walks of G's recurrence, so
    rho^G obeys that recurrence itself for n >= n_lo + 3 and is stepped as one
    int walk per class: one int step per class and one zero test per n, with
    no running sum and no Fraction. :func:`engine.recurrences` gives every
    class's seeds as ints on one scale (D, E), so L~_n = E*D^n*L^G_n and S~_n
    are ints of G's walks and the seeds
    den(r)*E*D^n*rho^G_n = den(r)*(L~_n - S~_n) - num(r)*D*L~_{n-1} at
    n_lo + 1 and n_lo + 2 come from their first three ints. At n_lo = 0,
    Delta_0 = L_0 - S_0 is the sum over G of L~_0 - S~_0 from the same ints;
    at n_lo > 0 it is the first item of :func:`engine.sides`. The classes are
    built once and serve the sweep, Delta_{n_lo} and the witness.

    The walks step n up to n_hi and are seeded at X_offset, so a range whose
    n_hi or any |stride*n + offset| at n in {0, n_hi} exceeds MAX_INDEX is
    rejected before anything is walked. So is one whose terms' reaches add
    up past MAX_TOTAL_REACH, a term's reach being the largest of n_hi, the
    |index| of its seeds X_offset and X_{offset+stride} and |stride*n_hi +
    offset|: a term's walks step no further than that, so their sum bounds
    the work of the descriptor's set-up and sweep together.
    """
    if not d.n_min <= n_lo <= n_hi:
        raise ValueError(
            f"bad range: need n_min={d.n_min} <= n_lo <= n_hi, got [{n_lo}, {n_hi}]"
        )
    terms = (*d.lhs, *d.rhs.summands)
    reach = max([n_hi] + [abs(t.stride * n + t.offset) for t in terms for n in (0, n_hi)])
    if reach > MAX_INDEX:
        raise ValueError(
            f"range [{n_lo}, {n_hi}] reaches index {reach}, beyond the limit of {MAX_INDEX}"
        )
    total = sum(
        max(n_hi, abs(t.offset), abs(t.stride + t.offset), abs(t.stride * n_hi + t.offset)) for t in terms
    )
    if total > MAX_TOTAL_REACH:
        raise ValueError(
            f"range [{n_lo}, {n_hi}] has its {len(terms)} terms reach {total} indices in all, "
            f"beyond the limit of {MAX_TOTAL_REACH}"
        )
    start = time.perf_counter()
    rec = recurrences(d)

    def report(first_failure=None):
        status = "pass" if first_failure is None else "fail"
        elapsed = time.perf_counter() - start
        return VerificationReport(d.id, n_lo, n_hi, status, None, first_failure, elapsed)

    def witness(n):
        return next(sides(d, n, rec))  # (n, lhs, rhs)

    if n_lo > 0:
        first = witness(n_lo)
        if first[1] != first[2]:
            return report(first)
    scale, _, classes = rec
    r = d.rhs.outer_ratio
    p, q = r.numerator * scale, r.denominator
    delta, residuals = 0, []
    for c1, c2, lhs_seeds, sum_seeds in classes:
        l0, l1, l2 = islice(int_walk(c1, c2, scale, *lhs_seeds, n_lo), 3)
        s0, s1, s2 = islice(int_walk(c1, c2, scale, *sum_seeds, n_lo), 3)
        delta += l0 - s0
        residuals.append(int_walk(c1, c2, scale, q * (l1 - s1) - p * l0, q * (l2 - s2) - p * l1))
    if n_lo == 0 and delta:
        return report(witness(0))
    for n, rho in zip(range(n_lo + 1, n_hi + 1), map(sum, zip(*residuals))):
        if rho:
            return report(witness(n))
    return report()


def verify_catalog(n_hi: int) -> list[VerificationReport]:
    """One report per catalog entry over [n_min, n_hi]."""
    if n_hi < 0:
        raise ValueError("n_hi must be >= 0")
    return [
        verify(e.descriptor, e.descriptor.n_min, n_hi)
        for e in all_entries()
    ]


DEFAULT_POOL: tuple[Fraction, ...] = tuple(
    sorted({Fraction(p, q) for p in range(-3, 4) for q in range(1, 4)})
)


@dataclass(frozen=True)
class FuzzConfig:
    """Reproducible fuzzing parameters: the seed fixes the instance stream."""

    seed: int
    instance_count: int = 500
    coefficient_pool: tuple[Fraction, ...] = DEFAULT_POOL
    k_range: tuple[int, int] = (-4, 5)
    n_range: tuple[int, int] = (0, 32)


def theorem2_instances(cfg: FuzzConfig):
    """Deterministic stream of (label, SequenceDef, k) drawn from the pool."""
    rng = random.Random(cfg.seed)
    pool = tuple(cfg.coefficient_pool)
    nonzero = tuple(q for q in pool if q != 0)
    for idx in range(cfg.instance_count):
        c1 = rng.choice(pool)
        c2 = rng.choice(nonzero)
        x0 = rng.choice(pool)
        x1 = rng.choice(pool)
        k = rng.randint(*cfg.k_range)
        label = (
            f"t2#{idx}(c1={format_rational(c1)},c2={format_rational(c2)},"
            f"x0={format_rational(x0)},x1={format_rational(x1)},k={k})"
        )
        yield label, SequenceDef(c1, c2, x0, x1, label=f"t2#{idx}"), k


def theorem1_instances(cfg: FuzzConfig):
    """Deterministic stream of (label, SequenceDef) with x0 forced to 1."""
    rng = random.Random(cfg.seed)
    pool = tuple(cfg.coefficient_pool)
    nonzero = tuple(q for q in pool if q != 0)
    for idx in range(cfg.instance_count):
        c1 = rng.choice(pool)
        c2 = rng.choice(nonzero)
        x1 = rng.choice(pool)
        label = (
            f"t1#{idx}(c1={format_rational(c1)},c2={format_rational(c2)},"
            f"x1={format_rational(x1)})"
        )
        yield label, SequenceDef(c1, c2, 1, x1, label=f"t1#{idx}")


def _fuzz(cfg: FuzzConfig, instances, generator, skip) -> list[VerificationReport]:
    """Verify generator(*args) for each (label, *args); a skip error skips."""
    n_lo, n_hi = cfg.n_range
    reports = []
    for label, *args in instances:
        try:
            d = generator(*args)
        except skip as exc:
            reports.append(
                VerificationReport(label, n_lo, n_hi, "skipped", reason=str(exc))
            )
            continue
        report = verify(d, n_lo, n_hi)
        reports.append(
            VerificationReport(label, n_lo, n_hi, report.status, None, report.first_failure, report.elapsed)
        )
    return reports


def fuzz_theorem2(cfg: FuzzConfig) -> list[VerificationReport]:
    """Generate and verify offset-sum identities; hypothesis violations skip."""
    return _fuzz(cfg, theorem2_instances(cfg), theorem2_descriptor, OffsetInvalidError)


def fuzz_theorem1(cfg: FuzzConfig) -> list[VerificationReport]:
    """Generate and verify normalized-sequence identities; t = 0 skips."""
    return _fuzz(cfg, theorem1_instances(cfg), theorem1_descriptor, DegenerateRatioError)
