"""Exact range verification of identity descriptors and seeded fuzzing.

Verification decides whether the two sides of a descriptor agree at every
integer in a range. Each side is C-finite and the sum side is a partial sum,
so the difference of the sides at n is r times the difference at n-1 plus a
residual that involves no partial sum; :func:`verify` checks the first
difference and then the residual at each n. The residual of each recurrence
class obeys that class's recurrence, so it is stepped as one walk on plain
ints (the derivation is in its docstring). A single exact counterexample falsifies an identity, so a
failed sweep stops at the first witness, whose exact sides it reads from
:func:`engine.descriptor_eval`.

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
from math import lcm

from .catalog import all_entries
from .engine import (
    DegenerateRatioError,
    IdentityDescriptor,
    OffsetInvalidError,
    descriptor_eval,
    recurrences,
    theorem1_descriptor,
    theorem2_descriptor,
)
from .numeric import format_rational
from .sequences import MAX_INDEX, SequenceDef, int_walk, scale_of, walk


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
    rho_n != 0; the witness there is read from :func:`engine.descriptor_eval`.

    rho is the sum over recurrence classes G of rho^G_n = L^G_n -
    r*L^G_{n-1} - S^G_n, each a combination of walks of G's recurrence, so
    rho^G obeys that recurrence itself for n >= n_lo + 3 and is stepped as one
    int walk per class: one int step per class and one zero test per n, with
    no running sum and no Fraction. All walks run on one scale E*D^n (D and E
    the lcms of the classes' own), where L~_n = E*D^n*L^G_n and S~_n are ints
    and the seeds den(r)*E*D^n*rho^G_n = den(r)*(L~_n - S~_n) - num(r)*D*L~_{n-1}
    at n_lo + 1 and n_lo + 2 come from the first three ints of G's walks.
    At n_lo = 0, Delta_0 = L_0 - S_0 is the sum over G of L~_0 - S~_0 from the
    same ints; at n_lo > 0 it is one descriptor_eval.

    The walks step n up to n_hi and are seeded at X_offset, so a range whose
    n_hi or any |stride*n + offset| at n in {0, n_hi} exceeds MAX_INDEX is
    rejected before anything is walked.
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

    def report(first_failure=None):
        status = "pass" if first_failure is None else "fail"
        elapsed = time.perf_counter() - start
        return VerificationReport(d.id, n_lo, n_hi, status, None, first_failure, elapsed)

    if n_lo > 0:
        lhs_val, rhs_val = descriptor_eval(d, n_lo)
        if lhs_val != rhs_val:
            return report((n_lo, lhs_val, rhs_val))
    classes = recurrences(d)
    scales = [scale_of(c1, c2, *seeds) for c1, c2, *both in classes for seeds in both]
    scale = lcm(*(s for s, _ in scales)), lcm(*(e for _, e in scales))
    r = d.rhs.outer_ratio
    p, q = r.numerator * scale[0], r.denominator
    delta, residuals = 0, []
    for c1, c2, lhs_seeds, sum_seeds in classes:
        l0, l1, l2 = islice(walk(c1, c2, *lhs_seeds, n_lo, scale), 3)
        s0, s1, s2 = islice(walk(c1, c2, *sum_seeds, n_lo, scale), 3)
        delta += l0 - s0
        residuals.append(int_walk(c1, c2, scale[0], q * (l1 - s1) - p * l0, q * (l2 - s2) - p * l1))
    if n_lo == 0 and delta:
        return report((0, *descriptor_eval(d, 0)))
    for n, rho in zip(range(n_lo + 1, n_hi + 1), map(sum, zip(*residuals))):
        if rho:
            return report((n, *descriptor_eval(d, n)))
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
        reports.append(replace(verify(d, n_lo, n_hi), id=label))
    return reports


def fuzz_theorem2(cfg: FuzzConfig) -> list[VerificationReport]:
    """Generate and verify offset-sum identities; hypothesis violations skip."""
    return _fuzz(cfg, theorem2_instances(cfg), theorem2_descriptor, OffsetInvalidError)


def fuzz_theorem1(cfg: FuzzConfig) -> list[VerificationReport]:
    """Generate and verify normalized-sequence identities; t = 0 skips."""
    return _fuzz(cfg, theorem1_instances(cfg), theorem1_descriptor, DegenerateRatioError)
