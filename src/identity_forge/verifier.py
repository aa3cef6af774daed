"""Exact range verification of identity descriptors and seeded fuzzing.

Verification decides whether the two sides of a descriptor agree at every
integer in a range: :func:`verify` bounds the range and the work it may
demand, and :func:`engine.first_difference` sweeps it on plain ints. A single
exact counterexample falsifies an identity, so a failed sweep stops at the
first witness; a passing one stops at its proof bound, once the residuals
it has seen decide the rest of the range.

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

from .catalog import all_entries
from .engine import (
    DegenerateRatioError,
    IdentityDescriptor,
    OffsetInvalidError,
    first_difference,
    theorem1_descriptor,
    theorem2_descriptor,
)
from .numeric import format_rational, quote
from .sequences import MAX_INDEX, SequenceDef


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

    The sweep and its witness are :func:`engine.first_difference`. Its walks
    are seeded at X_offset and step n to at most n_hi (a passing sweep stops
    at its proof bound n_lo + B, B = 2 per recurrence class or 1 per class
    with c2 = 0, with the verdict of the whole range), so a range whose n_hi
    or any |stride*n + offset| at n in {0, n_hi} exceeds MAX_INDEX is
    rejected before anything is walked. So is one whose terms' reaches add
    up past MAX_TOTAL_REACH, a term's reach being the largest of n_hi, the
    |index| of its seeds X_offset and X_{offset+stride} and
    |stride*n_hi + offset|: a term's walks step no further than that, so
    their sum bounds the work of the descriptor's set-up and sweep together.
    Both limits are contracts on the range asked for, whatever part of it
    the sweep walks.
    """
    if not d.n_min <= n_lo <= n_hi:
        raise ValueError(
            f"bad range: need n_min={d.n_min} <= n_lo <= n_hi, got [{quote(n_lo)}, {quote(n_hi)}]"
        )
    terms = (*d.lhs, *d.rhs.summands)
    reach, total = n_hi, 0
    for t in terms:
        stride, offset = t.stride, t.offset
        ends = max(abs(offset), abs(stride * n_hi + offset))
        reach = max(reach, ends)
        total += max(n_hi, ends, abs(stride + offset))
    if reach > MAX_INDEX:
        raise ValueError(
            f"range [{quote(n_lo)}, {quote(n_hi)}] reaches index {quote(reach)}, "
            f"beyond the limit of {MAX_INDEX}"
        )
    if total > MAX_TOTAL_REACH:
        raise ValueError(
            f"range [{quote(n_lo)}, {quote(n_hi)}] has its {len(terms)} terms reach "
            f"{quote(total)} indices in all, beyond the limit of {MAX_TOTAL_REACH}"
        )
    start = time.perf_counter()
    first_failure = first_difference(d, n_lo, n_hi)
    status = "pass" if first_failure is None else "fail"
    elapsed = time.perf_counter() - start
    return VerificationReport(d.id, n_lo, n_hi, status, None, first_failure, elapsed)


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


def _pool_texts(cfg: FuzzConfig):
    """(pool, nonzero): the pool as (value, text) pairs, each text formatted
    once, and those of nonzero value. rng.choice on them draws as on the
    values, since it reads only their length."""
    pool = tuple((q, format_rational(q)) for q in cfg.coefficient_pool)
    return pool, tuple(item for item in pool if item[0] != 0)


def theorem2_instances(cfg: FuzzConfig):
    """Deterministic stream of (label, SequenceDef, k) drawn from the pool."""
    rng = random.Random(cfg.seed)
    pool, nonzero = _pool_texts(cfg)
    for idx in range(cfg.instance_count):
        c1, c1_text = rng.choice(pool)
        c2, c2_text = rng.choice(nonzero)
        x0, x0_text = rng.choice(pool)
        x1, x1_text = rng.choice(pool)
        k = rng.randint(*cfg.k_range)
        label = f"t2#{idx}(c1={c1_text},c2={c2_text},x0={x0_text},x1={x1_text},k={k})"
        yield label, SequenceDef(c1, c2, x0, x1, label=f"t2#{idx}"), k


def theorem1_instances(cfg: FuzzConfig):
    """Deterministic stream of (label, SequenceDef) with x0 forced to 1."""
    rng = random.Random(cfg.seed)
    pool, nonzero = _pool_texts(cfg)
    for idx in range(cfg.instance_count):
        c1, c1_text = rng.choice(pool)
        c2, c2_text = rng.choice(nonzero)
        x1, x1_text = rng.choice(pool)
        label = f"t1#{idx}(c1={c1_text},c2={c2_text},x1={x1_text})"
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
        # verify's report is new and held nowhere else, so it is relabelled in place, not
        # copied; calling verify itself keeps these sweeps in perfbench's traces
        object.__setattr__(report, "id", label)
        reports.append(report)
    return reports


def fuzz_theorem2(cfg: FuzzConfig) -> list[VerificationReport]:
    """Generate and verify offset-sum identities; hypothesis violations skip."""
    return _fuzz(cfg, theorem2_instances(cfg), theorem2_descriptor, OffsetInvalidError)


def fuzz_theorem1(cfg: FuzzConfig) -> list[VerificationReport]:
    """Generate and verify normalized-sequence identities; t = 0 skips."""
    return _fuzz(cfg, theorem1_instances(cfg), theorem1_descriptor, DegenerateRatioError)
