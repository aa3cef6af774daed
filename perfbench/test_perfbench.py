"""Tests of the benchmark itself. Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import oracle
import run
import workloads
from identity_forge import cli
from identity_forge.sequences import SequenceDef, named_def, term
from identity_forge.verifier import DEFAULT_POOL

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _customs(count: int, seed: int = 0) -> list[oracle.Seq]:
    rng = random.Random(seed)
    return [workloads._custom(rng) for _ in range(count)]


def test_pool_and_families_match_the_package():
    assert oracle.POOL == DEFAULT_POOL
    for family, (c1, c2, x0, x1, label) in oracle.FAMILIES.items():
        seq = named_def(family)
        assert (seq.c1, seq.c2, seq.x0, seq.x1, seq.label) == (c1, c2, x0, x1, label)


@pytest.mark.parametrize("n", range(-25, 26))
def test_oracle_terms_agree_with_the_package_in_both_directions(n):
    seqs = [oracle.Seq.named(f) for f in oracle.FAMILIES] + _customs(12)
    for s in seqs:
        fresh = SequenceDef(s.c1, s.c2, s.x0, s.x1)
        assert oracle.term(s, n) == term(fresh, n), (s, n)


class InProcess:
    """Stands in for the harness: runs each op through cli.main in this process."""

    def __init__(self):
        self.verdicts = []
        self.checks = 0

    def __call__(self, argv, verdict):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        o = run.Outcome(False, code, out.getvalue(), err.getvalue(), 0.0, 0.0, 0.0)
        self.verdicts.append((argv[0], verdict(o)))
        self.checks += o.checks
        return self.verdicts[-1][1]


def test_oracle_agrees_with_cli_ops_at_small_indices(tmp_path):
    seqs = [oracle.Seq.named(f) for f in oracle.FAMILIES] + _customs(10, seed=3)
    # Hypothesis violations: X_k = 0 everywhere, and X_(k-1) = F_0 = 0 at k = 1.
    zero = oracle.Seq(Fraction(1), Fraction(1), Fraction(0), Fraction(0))
    slots = [workloads.Slot(zero, 3, "generate"),
             workloads.Slot(oracle.Seq.named("fibonacci"), 1, "generate")]
    slots += [workloads.Slot(s, n, kind) for i, s in enumerate(seqs)
              for n in (7 + i, -5 - i) for kind in ("seq-eval", "generate")]
    fake = InProcess()
    workloads.far_index_pass(slots, fake, tmp_path / "d.json")
    assert {v for _, v in fake.verdicts} == {workloads.OK}
    kinds = [kind for kind, _ in fake.verdicts]
    assert kinds.count("seq-eval") == kinds.count("generate") - 2 == len(seqs) * 2
    assert 2 < kinds.count("verify") < kinds.count("generate")
    assert fake.checks == kinds.count("verify") * (workloads.VERIFY_N_MAX + 1)


def test_a_wrong_answer_is_caught(tmp_path):
    bad = run.Outcome(False, 0, "13\n", "", 0.0, 0.0, 0.0)
    verdicts = []
    slots = [workloads.Slot(oracle.Seq.named("pell"), 6, kind) for kind in ("seq-eval", "generate")]
    workloads.far_index_pass(slots, lambda argv, v: verdicts.append(v(bad)), tmp_path / "d.json")
    assert verdicts == [workloads.WRONG, workloads.WRONG]


def test_the_int_to_str_refusal_counts_as_failed_not_wrong():
    err = ("error: Exceeds the limit (4300 digits) for integer string conversion; "
           "use sys.set_int_max_str_digits() to increase the limit\n")
    assert workloads._verdict(False, 2, err) == workloads.REFUSED
    assert workloads._verdict(False, 2, "error: c2 must be nonzero\n") == workloads.WRONG


def test_far_index_plan_is_seeded_stratified_and_in_range():
    plan = workloads.far_index_plan(7)
    assert plan == workloads.far_index_plan(7) and plan != workloads.far_index_plan(8)
    assert len(plan) == 48
    for cell in workloads.CELLS:
        in_cell = [s for s in plan if (s.n > 0) - (s.n < 0) == cell[0] and s.kind == cell[1]]
        assert sorted(s.seq.family for s in in_cell if s.seq.family) == sorted(oracle.FAMILIES)
        assert sum(1 for s in in_cell if not s.seq.family) == workloads.CUSTOMS_PER_CELL
    for bounds, named in ((workloads.NAMED_RANGE, True), (workloads.CUSTOM_RANGE, False)):
        sizes = sorted(abs(s.n) for s in plan if bool(s.seq.family) == named)
        lo, hi = bounds
        # one magnitude in each of the equal log-strata of the range
        strata = [int(len(sizes) * math.log(n / lo) / math.log(hi / lo)) for n in sizes]
        assert [min(k, len(sizes) - 1) for k in strata] == list(range(len(sizes)))
    for s in plan:
        if not s.seq.family:
            assert s.seq.c2 != 0 and {s.seq.c1, s.seq.c2, s.seq.x0, s.seq.x1} <= set(oracle.POOL)


def test_fuzz_report_parser():
    out = ("seed = 4\ntheorem2: 942 pass, 58 skipped, 0 fail (1000 instances)\n"
           "theorem1: 928 pass, 72 skipped, 0 fail (1000 instances)\n")
    assert workloads._fuzz_counts(out, 4) == {"theorem2": (942, 58), "theorem1": (928, 72)}
    assert workloads._fuzz_counts(out, 5) is None
    assert workloads._fuzz_counts(out.replace("0 fail", "1 fail", 1), 4) is None


def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _fake_pass(spans=None):
    o = run.Outcome(False, 0, "", "", 0.5, 0.4, 30.0, spans, checks=10)
    return run.PassResult(wall=0.5, cpu=0.4, outcomes=[o])


def test_printed_metric_names_and_units_are_those_in_benchmark_json(tmp_path):
    spec = _benchmark_json()
    e2e = run.end_to_end_metrics([_fake_pass(), _fake_pass()], [0.1, 0.2], 2)
    assert set(e2e) == set(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    spans = json.loads(_trace(tmp_path, "seq-eval", "--family=pell", "--n=5")[0])
    layers = run.layer_metrics([_fake_pass()], [_fake_pass(spans)])
    units = {**{k: v[2] for k, v in run.PER_LAYER.items()}, **run.DERIVED_LAYER}
    assert set(layers) == set(units)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == units
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def _trace(tmp_path, *argv):
    """(spans JSON, stdout, exit code) of one op run under tracer.py."""
    spans = tmp_path / "spans.json"
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": ""}
    p = subprocess.run([sys.executable, str(HERE / "tracer.py"), str(spans), *argv],
                       capture_output=True, text=True, env=env, cwd=tmp_path)
    return spans.read_text(), p.stdout, p.returncode


@pytest.mark.parametrize("argv", [
    ("seq-eval", "--family=lucas", "--n=-40"),
    ("generate", "--c1=1/2", "--c2=-1/3", "--x0=1", "--x1=2", "--k=-3", "--json"),
    ("verify", "--id=eq8", "--param=m=9", "--n-max=16"),
    ("catalog", "verify-all", "--n-max=4"),
    ("fuzz", "--seed=2", "--count=20"),
])
def test_self_times_of_one_op_sum_to_at_most_its_main_busy_time(argv, tmp_path):
    spans_text, out, code = _trace(tmp_path, *argv)
    spans = json.loads(spans_text)
    assert code == 0 and spans["cli.main"]["calls"] == 1
    main_busy = spans["cli.main"]["busy_s"]
    assert sum(s["self_s"] for s in spans.values()) <= main_busy * (1 + 1e-9)
    for s in spans.values():
        assert 0 <= s["self_s"] <= s["busy_s"] * (1 + 1e-9) + 1e-12
        assert s["busy_s"] <= main_busy * (1 + 1e-9)


def test_tracer_leaves_output_and_int_limit_alone(tmp_path):
    plain = subprocess.run([sys.executable, "-m", "identity_forge", "seq-eval",
                            "--family=a015530", "--n=8000"],
                           capture_output=True, text=True,
                           env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""})
    spans_text, out, code = _trace(tmp_path, "seq-eval", "--family=a015530", "--n=8000")
    assert (code, out) == (plain.returncode, plain.stdout)
    fmt = json.loads(spans_text)["numeric.format_rational"]
    if code == 2:  # the interpreter's 4300-digit limit is in force
        assert fmt["errors"] == 1 and fmt["max_digits"] > 4300
