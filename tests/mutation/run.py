"""Mutation gate: apply each mutant of mutants.py to a copy of the tree and
run the tier-1 suite on it with -x.

Usage: python tests/mutation/run.py [NAME ...]

A mutant is killed when the suite fails on it and survives when the suite
passes. Prints one line per mutant and exits 0 only if every mutant is
killed, or survives with an ``equivalent`` note; a row whose old text does
not occur exactly once in its file is an error (exit 2).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = Path("src") / "identity_forge"
TIMEOUT_S = 600  # a surviving mutant costs one full tier-1 run, about a minute


def run_mutant(mutant: dict, scratch: Path) -> tuple[str, float, str]:
    """(outcome, seconds, first failing test) for one mutant, in its own copy."""
    tree = scratch / mutant["name"]
    for part in ("src", "tests", "pyproject.toml"):
        source = ROOT / part
        if source.is_dir():
            shutil.copytree(
                source, tree / part,
                ignore=shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache"),
            )
        else:
            shutil.copy2(source, tree / part)
    target = tree / PACKAGE / mutant["file"]
    text = target.read_text()
    count = text.count(mutant["old"])
    if count != 1:
        return f"error: old text occurs {count} times in {mutant['file']}", 0.0, ""
    target.write_text(text.replace(mutant["old"], mutant["new"]))
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "tests"],
            cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:  # a suite that hangs does not pass either
        return "killed", time.perf_counter() - start, f"suite still running after {TIMEOUT_S} s"
    elapsed = time.perf_counter() - start
    failed = next((line[len("FAILED "):].split(" - ")[0] for line in proc.stdout.splitlines()
                   if line.startswith("FAILED ")), "")
    if proc.returncode == 0:
        return "survived", elapsed, ""
    if proc.returncode == 1:
        return "killed", elapsed, failed
    return f"error: pytest exit {proc.returncode}", elapsed, proc.stdout[-400:]


def main(names: list[str]) -> int:
    unknown = set(names) - {m["name"] for m in MUTANTS}
    if unknown:
        print(f"unknown mutant(s): {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m["name"] in names]
    status = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        for mutant in chosen:
            outcome, elapsed, detail = run_mutant(mutant, Path(scratch))
            note = mutant.get("equivalent")
            print(f"{outcome:9s} {mutant['name']:28s} {elapsed:6.1f}s  {detail or note or ''}",
                  flush=True)
            if outcome.startswith("error"):
                status = 2
            elif outcome == "survived" and not note:
                status = max(status, 1)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
