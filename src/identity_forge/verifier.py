"""Exact range verification of identity descriptors and seeded fuzzing.

Verification compares the two sides of a descriptor at every integer in a
range, reading them from the incremental stream :func:`engine.sides`. A
single exact counterexample falsifies an identity, so a failed sweep stops at
the first witness.

The fuzzers draw random sequence definitions from a small rational pool,
apply a generator from :mod:`identity_forge.engine`, and verify the result;
instances that violate a generator hypothesis are reported as skipped with
the reason, never as crashes. The instance stream is a pure function of the
seed, so every run is reproducible.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import islice

from .catalog import all_entries
from .engine import (
    DegenerateRatioError,
    IdentityDescriptor,
    OffsetInvalidError,
    sides,
    theorem1_descriptor,
    theorem2_descriptor,
)
from .numeric import format_rational
from .sequences import MAX_INDEX, SequenceDef


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

    The stream steps n from 0 to n_hi and seeds each term at X_offset, so a
    range whose n_hi or any |stride*n + offset| at n in {0, n_hi} exceeds
    MAX_INDEX is rejected before anything is walked.
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
    start = time.perf_counter()
    for n, lhs_val, rhs_val in islice(sides(d, n_lo), n_hi - n_lo + 1):
        if lhs_val != rhs_val:
            return VerificationReport(
                id=d.id,
                n_lo=n_lo,
                n_hi=n_hi,
                status="fail",
                first_failure=(n, lhs_val, rhs_val),
                elapsed=time.perf_counter() - start,
            )
    return VerificationReport(
        id=d.id,
        n_lo=n_lo,
        n_hi=n_hi,
        status="pass",
        elapsed=time.perf_counter() - start,
    )


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
        reports.append(replace(verify(d, n_lo, n_hi), id=label))
    return reports


def fuzz_theorem2(cfg: FuzzConfig) -> list[VerificationReport]:
    """Generate and verify offset-sum identities; hypothesis violations skip."""
    return _fuzz(cfg, theorem2_instances(cfg), theorem2_descriptor, OffsetInvalidError)


def fuzz_theorem1(cfg: FuzzConfig) -> list[VerificationReport]:
    """Generate and verify normalized-sequence identities; t = 0 skips."""
    return _fuzz(cfg, theorem1_instances(cfg), theorem1_descriptor, DegenerateRatioError)
