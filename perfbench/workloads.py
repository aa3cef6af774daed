"""The benchmark's workloads: which CLI ops make up one pass, and their checks.

Each workload yields passes forever; the harness runs as many as fit in a
run. A pass calls ``run(argv, verdict)`` once per op, where ``verdict``
maps the op's outcome to OK, REFUSED or WRONG and, when the op verified
identities, sets ``outcome.checks`` to the exact (identity, n) equalities
it checked.

* catalog_sweep: ``catalog verify-all --n-max 512``. 133 entries x 513
  indices; the named-family memo is shared across entries, the operands
  are huge integers and the verifier's own arithmetic dominates, so sweep
  arithmetic changes show here.
* fuzz_stream: ``fuzz --seed S --count 1000 --theorem both``. Every
  instance gets a fresh sequence, so nothing is shared; operands are small
  rationals (gcd/Fraction overhead) and the generators run 2000 times. A
  cache-sharing gain shows nothing here.
* far_index: single terms at far indices through ``seq-eval``, ``generate
  --k K --json`` and ``verify --json FILE --n-max 32`` on the file the
  generate op printed. ``sequences.term`` is evaluated once, far out,
  instead of along a sweep, and the JSON path adds writes beside reads.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import oracle

OK, REFUSED, WRONG, TIMED_OUT = "ok", "refused", "wrong", "timed_out"

CATALOG_ENTRIES = 133
CATALOG_N_MAX = 512
FUZZ_COUNT = 1000
FUZZ_N_RANGE = 33  # the fuzzers verify n in [0, 32]
VERIFY_N_MAX = 32
NAMED_RANGE = (1000, 16000)
CUSTOM_RANGE = (300, 6000)


def refused(code: int, err: str) -> bool:
    """The known defect: a valid op exits 2 because CPython will not print an
    int of more than 4300 digits. It counts as a failed op, not a wrong one."""
    return code == 2 and "Exceeds the limit" in err


def _verdict(good: bool, code: int, err: str) -> str:
    if good:
        return OK
    return REFUSED if refused(code, err) else WRONG


def catalog_sweep(seed: int, workdir: Path):
    del seed, workdir  # the catalog is fixed, and the op writes no file
    argv = ["catalog", "verify-all", f"--n-max={CATALOG_N_MAX}"]
    summary = f"{CATALOG_ENTRIES}/{CATALOG_ENTRIES} entries verified on [0, {CATALOG_N_MAX}]"

    def check(o) -> str:
        lines = o.out.splitlines()
        passes = sum(1 for line in lines if line.startswith("PASS "))
        good = (o.code == 0 and passes == CATALOG_ENTRIES
                and len(lines) == CATALOG_ENTRIES + 1 and lines[-1] == summary)
        if good:
            o.checks = CATALOG_ENTRIES * (CATALOG_N_MAX + 1)
        return _verdict(good, o.code, o.err)

    return itertools.repeat(lambda run: run(argv, check))


def _fuzz_counts(out: str, seed: int):
    """{theorem: (pass, skipped)} when the report is well formed and clean, else None."""
    lines = out.splitlines()
    if not lines or lines[0] != f"seed = {seed}":
        return None
    counts = {}
    for line in lines[1:]:
        name, _, rest = line.partition(": ")
        words = rest.replace(",", "").split()
        if (len(words) != 8 or words[1:6:2] != ["pass", "skipped", "fail"]
                or words[4] != "0" or words[6] != f"({FUZZ_COUNT}"):
            return None
        passed, skipped = int(words[0]), int(words[2])
        if passed + skipped != FUZZ_COUNT:
            return None
        counts[name] = (passed, skipped)
    return counts if set(counts) == {"theorem1", "theorem2"} else None


def fuzz_stream(seed: int, workdir: Path):
    del workdir  # the op writes no file
    argv = ["fuzz", f"--seed={seed}", f"--count={FUZZ_COUNT}", "--theorem=both"]
    first: list = []  # counts of the first clean pass; every later pass must match

    def check(o) -> str:
        counts = _fuzz_counts(o.out, seed) if o.code == 0 else None
        if counts is not None and not first:
            first.append(counts)
        good = counts is not None and counts == first[0]
        if good:
            o.checks = FUZZ_N_RANGE * sum(passed for passed, _ in counts.values())
        return _verdict(good, o.code, o.err)

    return itertools.repeat(lambda run: run(argv, check))


@dataclass(frozen=True)
class Slot:
    """One far-index request: evaluate X_n, or generate at offset n and verify."""

    seq: oracle.Seq
    n: int
    kind: str  # "seq-eval" | "generate"


CELLS = [(1, "seq-eval"), (-1, "seq-eval"), (1, "generate"), (-1, "generate")]
CUSTOMS_PER_CELL = 6
DESIGN_SEED = 0


def _log_uniform(bounds: tuple[int, int], q: float) -> int:
    lo, hi = bounds
    return min(hi, max(lo, round(lo * math.exp(q * math.log(hi / lo)))))


def _custom(rng: random.Random) -> oracle.Seq:
    nonzero = [q for q in oracle.POOL if q != 0]
    return oracle.Seq(rng.choice(oracle.POOL), rng.choice(nonzero),
                      rng.choice(oracle.POOL), rng.choice(oracle.POOL))


def _variant(s: oracle.Seq, rng: random.Random) -> oracle.Seq:
    """-X_n or (-1)^n X_n in place of X_n: other values at the same cost."""
    c1, x0, x1 = s.c1, s.x0, s.x1
    if rng.random() < 0.5:
        x0, x1 = -x0, -x1
    if rng.random() < 0.5:
        c1, x1 = -c1, -x1
    return oracle.Seq(c1, s.c2, x0, x1)


def far_index_plan(seed: int) -> list[Slot]:
    """The 48 slots of one far_index pass, in a seeded order.

    Every cell of CELLS (sign x op) holds each named family once and
    CUSTOMS_PER_CELL custom sequences. Magnitudes are log-uniform on
    NAMED_RANGE or CUSTOM_RANGE, stratified: the named (custom) slots of a
    cell take every fourth of the 24 equal strata of the range, and the seed
    places each magnitude within its stratum. Which family or custom
    sequence takes which stratum is fixed by DESIGN_SEED; the seed picks
    only -X or (-1)^n X of each custom sequence, whose terms cost the same.
    A run holds a single pass, so fresh draws of families against strata
    would make runs on different seeds do different amounts of work: one
    A015530 term at n = -16000 alone takes ten seconds.
    """
    design = random.Random(DESIGN_SEED)
    rng = random.Random(seed)
    slots = []
    named_strata = len(oracle.FAMILIES) * len(CELLS)
    custom_strata = CUSTOMS_PER_CELL * len(CELLS)
    for c, (sign, kind) in enumerate(CELLS):
        families = sorted(oracle.FAMILIES)
        design.shuffle(families)
        for j, family in enumerate(families):
            q = (c + len(CELLS) * j + rng.random()) / named_strata
            slots.append(Slot(oracle.Seq.named(family), sign * _log_uniform(NAMED_RANGE, q), kind))
        for j in range(CUSTOMS_PER_CELL):
            seq = _variant(_custom(design), rng)
            q = (c + len(CELLS) * j + rng.random()) / custom_strata
            slots.append(Slot(seq, sign * _log_uniform(CUSTOM_RANGE, q), kind))
    rng.shuffle(slots)
    return slots


def _check_generated(out: str, s: Slot, want: oracle.Generated) -> str | None:
    """The descriptor JSON when the generate output matches the oracle, else None."""
    head = [f"id: {want.id}", f"t = {want.t}", f"coefficient = {want.coefficient}"]
    lines = out.splitlines()
    if lines[:3] != head or len(lines) < 5 or not lines[3].startswith("identity: "):
        return None
    text = "\n".join(lines[4:])
    try:
        doc = json.loads(text)
        rhs = doc["rhs"]
        good = (doc["id"] == want.id
                and rhs["outer_coef"] == str(want.coefficient)
                and rhs["outer_ratio"] == str(want.t)
                and rhs["beta"] == str(1 / want.t)
                and [m["offset"] for m in rhs["summands"]] == [s.n]
                and [t["coef"] for t in doc["lhs"]] == [str(s.seq.x0), str(-s.seq.x1)])
    except (ValueError, KeyError, TypeError):
        return None
    return text if good else None


def far_index_pass(slots: list[Slot], run, descriptor_path: Path):
    """Run each slot's op; a generate op that passes is followed by a verify
    op on the descriptor it printed, kept in descriptor_path."""
    for s in slots:
        flags = s.seq.cli_flags()
        if s.kind == "seq-eval":
            want = f"{oracle.term(s.seq, s.n)}\n"
            run(["seq-eval", *flags, f"--n={s.n}"],
                lambda o: _verdict(o.code == 0 and o.out == want, o.code, o.err))
            continue
        gen = oracle.generated(s.seq, s.n)

        def check_generate(o) -> str:
            if gen.error is not None:
                good = o.code == 2 and o.out == "" and o.err.startswith(gen.error)
                return _verdict(good, o.code, o.err)
            text = _check_generated(o.out, s, gen) if o.code == 0 else None
            if text is not None:
                descriptor_path.write_text(text)
            return _verdict(text is not None, o.code, o.err)

        descriptor_path.unlink(missing_ok=True)
        run(["generate", *flags, f"--k={s.n}", "--json"], check_generate)
        if not descriptor_path.exists():
            continue

        def check_verify(o) -> str:
            words = o.out.split()
            good = (o.code == 0 and words[:2] == ["PASS", gen.id]
                    and f"n in [0, {VERIFY_N_MAX}]" in o.out)
            if good:
                o.checks = VERIFY_N_MAX + 1
            return _verdict(good, o.code, o.err)

        run(["verify", f"--json={descriptor_path}", f"--n-max={VERIFY_N_MAX}"], check_verify)


def far_index(seed: int, workdir: Path):
    slots = far_index_plan(seed)
    return itertools.repeat(lambda run: far_index_pass(slots, run, workdir / "descriptor.json"))


@dataclass(frozen=True)
class Workload:
    passes: Callable[[int, Path], Iterator]  # (seed, workdir) -> endless passes
    min_passes: int  # a run makes at least this many, even past its seconds


WORKLOADS = {
    "catalog_sweep": Workload(catalog_sweep, min_passes=5),
    "fuzz_stream": Workload(fuzz_stream, min_passes=5),
    # One pass is 48 slots, about 70 ops, so ten op latencies lie beyond op_p75_s.
    "far_index": Workload(far_index, min_passes=1),
}
