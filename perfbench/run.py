"""identity-forge benchmark: times CLI ops, each in a fresh interpreter.

Usage, from the root of a source checkout (no install needed):

    python3 perfbench/run.py --workload far_index --seed 1 --seconds 40 --trace 0

Every op is a fresh ``python -m identity_forge ...`` process, run one at a
time from this one: the named-family memo lives for the whole process,
so repeating ops inside one interpreter would time a warm cache that no CLI
user gets. Every op's output is checked (see workloads.py). The last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics; progress notes go to stderr.

A run repeats passes of its workload until ``--seconds`` are used, and
reports medians over them. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs every pass twice, plain and then under tracer.py, and
reports the per-layer metrics, each per pass. Seed 1 is the default and
seed 2 is held out: a claimed gain must also hold on seed 2.

An op that exits 2 because CPython refuses to print an int of more than
4300 digits counts in ``failed`` and lowers ``ok_op_share``, but leaves
``correct`` true: it gives no answer rather than a wrong one. Any other
mismatch with the expected output makes ``correct`` false and the exit
code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from workloads import OK, REFUSED, TIMED_OUT, WRONG

DEFAULT_SEED = 1  # seed 2 is held out: a claimed gain must also hold on it
SETUP_PROBES = 15
RUN_LIMIT_S = 150  # hard stop for the whole run, inside the 180 s allowed
TRACER = Path(__file__).resolve().parent / "tracer.py"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "checks_per_s": "1/s",
    "op_p50_s": "s",
    "op_p75_s": "s",
    "peak_rss_mb": "MB",
    "ok_op_share": "ratio",
}

# Per-layer metric -> (span name in tracer.py, statistic, unit).
PER_LAYER = {
    "cli.main.busy_s": ("cli.main", "busy_s", "s"),
    "catalog.all_entries.calls": ("catalog.all_entries", "calls", "count"),
    "catalog.all_entries.busy_s": ("catalog.all_entries", "busy_s", "s"),
    "engine.generate.calls": ("engine.generate", "calls", "count"),
    "engine.generate.rejected": ("engine.generate", "errors", "count"),
    "engine.generate.busy_s": ("engine.generate", "busy_s", "s"),
    "verifier.verify.calls": ("verifier.verify", "calls", "count"),
    "verifier.verify.busy_s": ("verifier.verify", "busy_s", "s"),
    "verifier.verify.self_s": ("verifier.verify", "self_s", "s"),
    "verifier.checks": ("verifier.verify", "checks", "count"),
    "sequences.term.calls": ("sequences.term", "calls", "count"),
    "sequences.term.busy_s": ("sequences.term", "busy_s", "s"),
    "sequences.term.max_index": ("sequences.term", "max_index", "index"),
    "sequences.term.max_bits": ("sequences.term", "max_bits", "bit"),
    "numeric.rat_pow.calls": ("numeric.rat_pow", "calls", "count"),
    "numeric.rat_pow.busy_s": ("numeric.rat_pow", "busy_s", "s"),
    "numeric.format_rational.calls": ("numeric.format_rational", "calls", "count"),
    "numeric.format_rational.busy_s": ("numeric.format_rational", "busy_s", "s"),
    "numeric.format_rational.failed": ("numeric.format_rational", "errors", "count"),
    "numeric.format_rational.max_digits": ("numeric.format_rational", "max_digits", "digit"),
    **{
        f"serialize.{fn}.{stat}": (f"serialize.{fn}", stat, unit)
        for fn in ("to_json", "from_json", "to_latex")
        for stat, unit in (("calls", "count"), ("busy_s", "s"), ("bytes", "B"))
    },
}
# Derived per-layer metrics, computed in layer_metrics().
DERIVED_LAYER = {
    "engine.generate.useful_ratio": "ratio",
    "sequences.term.seq_eval_share": "ratio",
    "trace.overhead_s": "s",
}
MAXIMA = {"max_index", "max_bits", "max_digits"}


@dataclass
class Outcome:
    timed_out: bool  # killed at the run's deadline
    code: int
    out: str
    err: str
    wall: float
    cpu: float
    rss_mb: float
    spans: dict | None = None
    checks: int = 0  # exact equalities verified, set by the op's verdict
    command: str = ""  # the CLI subcommand, such as "seq-eval"


@dataclass
class PassResult:
    wall: float = 0.0
    cpu: float = 0.0
    outcomes: list = field(default_factory=list)


class Runner:
    """Runs CLI ops as child processes and keeps score of their verdicts."""

    def __init__(self, root: Path, workdir: Path, deadline: float):
        self.root = root
        self.workdir = workdir
        self.deadline = deadline
        # The children keep CPython's default int->str limit, whatever ours is.
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
        self.env["PYTHONPATH"] = str(root / "src")
        self.verdicts = {OK: 0, REFUSED: 0, WRONG: 0, TIMED_OUT: 0}
        self.wrong: list[str] = []

    def spawn(self, cmd: list[str]) -> Outcome:
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=err, env=self.env, cwd=self.root)
            killed = threading.Event()

            def kill():
                killed.set()
                proc.kill()

            killer = threading.Timer(max(0.0, self.deadline - time.monotonic()), kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Outcome(
            timed_out=killed.is_set(),
            code=proc.returncode,
            out=out_path.read_text(errors="replace"),
            err=err_path.read_text(errors="replace"),
            wall=wall,
            cpu=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024,  # Linux reports KiB
        )

    def setup_probe(self, setup: list[float]):
        """Time a fresh interpreter that imports the CLI and builds its parser."""
        o = self.spawn([sys.executable, "-c",
                        "import identity_forge.cli as c; c.build_parser()"])
        if o.timed_out:
            return
        if o.code != 0:
            raise RuntimeError(f"identity_forge.cli does not import:\n{o.err}")
        setup.append(o.wall)

    def run_pass(self, one_pass, traced: bool) -> PassResult:
        result = PassResult()

        def run(argv: list[str], verdict) -> str:
            if traced:
                spans_path = self.workdir / "spans.json"
                spans_path.unlink(missing_ok=True)
                o = self.spawn([sys.executable, str(TRACER), str(spans_path), *argv])
                o.spans = json.loads(spans_path.read_text()) if spans_path.exists() else {}
            else:
                o = self.spawn([sys.executable, "-m", "identity_forge", *argv])
            o.command = argv[0]
            v = TIMED_OUT if o.timed_out else verdict(o)
            self.verdicts[v] += 1
            if v == WRONG and len(self.wrong) < 5:
                self.wrong.append(f"{' '.join(argv)} -> exit {o.code}: {o.err.strip()[-200:]}")
            result.wall += o.wall
            result.cpu += o.cpu
            result.outcomes.append(o)
            return v

        one_pass(run)
        return result

    @property
    def attempted(self) -> int:
        return sum(self.verdicts.values())


def _quartiles(values: list[float]) -> list[float]:
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def end_to_end_metrics(passes: list[PassResult], setup: list[float], ok_ops: int) -> dict:
    """The user-visible figures of a plain run; passes hold only plain ops."""
    ops = [o for p in passes for o in p.outcomes]
    op_quartiles = _quartiles([o.wall for o in ops])
    # Per pass: equalities checked per second of the ops that checked them.
    rates = [sum(o.checks for o in p.outcomes) / sum(o.wall for o in p.outcomes if o.checks)
             for p in passes if any(o.checks for o in p.outcomes)]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p.wall for p in passes),
        "cpu_s": statistics.median(p.cpu for p in passes),
        "checks_per_s": statistics.median(rates) if rates else 0.0,
        "op_p50_s": op_quartiles[1],
        "op_p75_s": op_quartiles[2],
        "peak_rss_mb": _quartiles([o.rss_mb for o in ops])[2],
        "ok_op_share": ok_ops / len(ops),
    }


def layer_metrics(plain: list[PassResult], traced: list[PassResult]) -> dict:
    """Per-layer figures from the traced passes, each a mean per pass."""
    totals: dict[str, dict] = {}
    for p in traced:
        for o in p.outcomes:
            for span, stats in (o.spans or {}).items():
                into = totals.setdefault(span, {})
                for stat, value in stats.items():
                    if stat in MAXIMA:
                        into[stat] = max(into.get(stat, 0), value)
                    else:
                        into[stat] = into.get(stat, 0) + value
    values = {}
    for name, (span, stat, _) in PER_LAYER.items():
        value = totals.get(span, {}).get(stat, 0)
        values[name] = value if stat in MAXIMA else value / len(traced)
    generate = totals.get("engine.generate", {})
    calls = generate.get("calls", 0)
    values["engine.generate.useful_ratio"] = (
        (calls - generate.get("errors", 0)) / calls if calls else 0.0
    )
    # Share of the seq-eval ops' main() time spent in term(); 0 without such ops.
    seq_evals = [o.spans for p in traced for o in p.outcomes
                 if o.command == "seq-eval" and o.spans]
    main_busy = sum(spans["cli.main"]["busy_s"] for spans in seq_evals)
    values["sequences.term.seq_eval_share"] = (
        sum(spans["sequences.term"]["busy_s"] for spans in seq_evals) / main_busy
        if main_busy else 0.0
    )
    values["trace.overhead_s"] = (statistics.median(p.wall for p in traced)
                                  - statistics.median(p.wall for p in plain))
    return values


def measure(workload: str, seed: int, seconds: int, trace: bool, root: Path):
    workdir = root / ".bench_work" / str(os.getpid())  # private to this run
    workdir.mkdir(parents=True, exist_ok=True)
    start = time.monotonic()
    runner = Runner(root, workdir, start + RUN_LIMIT_S)
    setup: list[float] = []
    runner.setup_probe([])  # untimed: writes the bytecode caches
    plain: list[PassResult] = []
    traced: list[PassResult] = []
    spec = workloads.WORKLOADS[workload]
    for one_pass in spec.passes(seed, workdir):
        if not trace and len(setup) < SETUP_PROBES:
            runner.setup_probe(setup)
        plain.append(runner.run_pass(one_pass, traced=False))
        cost = plain[-1].wall
        if trace:
            traced.append(runner.run_pass(one_pass, traced=True))
            cost += traced[-1].wall
        elif setup:  # the probes still to come must fit in the time box too
            cost += max(0, SETUP_PROBES - len(setup)) * statistics.median(setup)
        now = time.monotonic()
        enough = len(plain) >= (1 if trace else spec.min_passes)
        if now >= runner.deadline or (enough and now - start + cost > seconds):
            break
    while not trace and len(setup) < SETUP_PROBES and time.monotonic() < runner.deadline:
        runner.setup_probe(setup)
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        workdir.parent.rmdir()
    except OSError:  # another run is still using it
        pass

    if trace:
        values = layer_metrics(plain, traced)
        units = {**{k: v[2] for k, v in PER_LAYER.items()}, **DERIVED_LAYER}
    else:
        values = end_to_end_metrics(plain, setup, runner.verdicts[OK])
        units = END_TO_END
    print(f"{workload} seed={seed}: {len(plain)} passes, {runner.attempted} ops, "
          f"{len(setup)} setup probes, verdicts {runner.verdicts}", file=sys.stderr)
    for line in runner.wrong:
        print(f"WRONG: {line}", file=sys.stderr)
    return {
        "correct": runner.verdicts[WRONG] == 0,
        "attempted": runner.attempted,
        "failed": runner.attempted - runner.verdicts[OK],
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "identity_forge" / "__init__.py").is_file():
        print("error: run from the root of an identity-forge checkout "
              "(src/identity_forge not found)", file=sys.stderr)
        return 2
    sys.set_int_max_str_digits(0)  # the oracle prints exact values of any size
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), root)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
