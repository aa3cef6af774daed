"""Command-line surface: evaluate, generate, verify, fuzz, and cross-check.

Exit codes are a stable scripting contract: 0 success, 1 verification or
term mismatch, 2 usage or generator-hypothesis error, 3 external resource
unavailable.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from _thread import allocate_lock  # threading.Lock, without importing threading
from fractions import Fraction
from pathlib import Path

from .catalog import all_entries, catalog_ids, entry
from .engine import (
    DegenerateRatioError,
    OffsetInvalidError,
    rewrite_scale,
    theorem1_descriptor,
    theorem2_descriptor,
)
from .numeric import (
    MAX_DIGITS,
    DigitLimitError,
    format_rational,
    parse_int,
    parse_rational,
    quote,
)
from .sequences import NAMED_FAMILIES, SequenceDef, family_key, named_def, term
from .serialize import ParseError, from_json, to_json, to_latex
from .verifier import (
    FuzzConfig,
    fuzz_theorem1,
    fuzz_theorem2,
    report_line,
    verify,
    verify_catalog,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

MAX_FUZZ_COUNT = 10_000  # instances per generator; each fuzz process keeps one stream's reports in memory


def _int_flag(text: str) -> int:
    """The type of every int flag: its refusal never echoes a long literal."""
    try:
        return parse_int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_sequence_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--family", help=f"named family ({', '.join(NAMED_FAMILIES)})")
    parser.add_argument("--c1", help="recurrence coefficient c1 as p/q")
    parser.add_argument("--c2", help="recurrence coefficient c2 as p/q (nonzero)")
    parser.add_argument("--x0", help="initial value X_0 as p/q")
    parser.add_argument("--x1", help="initial value X_1 as p/q")
    parser.add_argument("--label", default="custom", help="label for a custom sequence")


def _sequence_from_args(args) -> SequenceDef:
    if args.family:
        return named_def(args.family)
    custom = (args.c1, args.c2, args.x0, args.x1)
    if any(flag is None for flag in custom):
        raise ValueError("provide either --family or all of --c1 --c2 --x0 --x1")
    c1, c2, x0, x1 = (parse_rational(flag) for flag in custom)
    if c2 == 0:
        raise ValueError("c2 must be nonzero")
    return SequenceDef(c1, c2, x0, x1, label=args.label)


def _cmd_seq_eval(args) -> int:
    seq = _sequence_from_args(args)
    print(format_rational(term(seq, args.n)))
    return EXIT_OK


def _cmd_generate(args) -> int:
    seq = _sequence_from_args(args)
    if args.theorem1:
        descriptor = theorem1_descriptor(seq)
    else:
        if args.k is None:
            raise ValueError("provide --k for the offset generator, or --theorem1")
        descriptor = theorem2_descriptor(seq, args.k)
    t = descriptor.rhs.outer_ratio
    if args.reduced:
        front = seq.x0 * term(seq, 2) - seq.x1 * seq.x1
        if front == 0:
            raise ValueError("--reduced is unavailable: X_0*X_2 - X_1^2 = 0")
        descriptor = rewrite_scale(descriptor, Fraction(1) / front, 1)
    print(f"id: {descriptor.id}")
    print(f"t = {format_rational(t)}")
    print(f"coefficient = {format_rational(descriptor.rhs.outer_coef)}")
    print(f"identity: {to_latex(descriptor)}")
    if args.json:
        print(to_json(descriptor))
    return EXIT_OK


def _parse_param(text: str):
    """key=value; the value is an int, else a rational, else the raw string.
    A number past MAX_DIGITS digits is refused, not kept as a string."""
    if "=" not in text:
        raise ValueError(f"bad --param {quote(text)}: expected key=value")
    key, raw = text.split("=", 1)
    try:
        value: object = int(raw)
    except ValueError:
        try:
            value = parse_rational(raw)
        except DigitLimitError:
            raise
        except ValueError:
            value = raw
    return key.strip(), value


def _cmd_verify(args) -> int:
    if args.json:
        try:
            descriptor = from_json(Path(args.json).read_text())
        except OSError as exc:
            print(f"error: cannot read {args.json}: {exc}", file=sys.stderr)
            return EXIT_RESOURCE
    elif args.id:
        params = dict(_parse_param(p) for p in args.param or [])
        descriptor = entry(args.id, **params).descriptor
    else:
        raise ValueError("provide --id or --json")
    n_lo = args.n_min if args.n_min is not None else descriptor.n_min
    report = verify(descriptor, n_lo, args.n_max)
    print(report_line(report))
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def _cmd_catalog_list(args) -> int:
    del args
    for e in all_entries():
        print(f"{e.label:24s} {e.citation}")
    return EXIT_OK


def _cmd_catalog_verify_all(args) -> int:
    reports = verify_catalog(args.n_max)
    failures = 0
    for report in reports:
        print(report_line(report))
        if not report.passed:
            failures += 1
    print(f"{len(reports) - failures}/{len(reports)} entries verified on [0, {args.n_max}]")
    return EXIT_OK if failures == 0 else EXIT_VERIFY_FAILED


def _summarize(name: str, reports) -> tuple[str, int]:
    """The text fuzz prints for one generator (its counts, then a line per
    failing report) and the number of failures."""
    passed = sum(1 for r in reports if r.status == "pass")
    skipped = sum(1 for r in reports if r.status == "skipped")
    failed = sum(1 for r in reports if r.status == "fail")
    lines = [f"{name}: {passed} pass, {skipped} skipped, {failed} fail ({len(reports)} instances)"]
    lines += [f"  {report_line(r)}" for r in reports if r.status == "fail"]
    return "\n".join(lines), failed


def _in_child(job):
    """Start job() in a forked child and return result(kill=False), which
    reads the child's pipe to EOF, reaps the child and returns what job()
    returned; with kill=True it kills the child first and returns None.

    The child sends back only job()'s result (or a ValueError's message,
    which result() raises again as ValueError) as marshal bytes, and always
    leaves through os._exit: it never flushes the stdout buffer it inherited
    nor runs the parent's exit hooks. Any other exception in the child prints
    its traceback to stderr, and result() raises RuntimeError. Where os.fork
    is missing or fails, result() runs job() itself.
    """
    def in_process(kill=False):
        return None if kill else job()

    if not hasattr(os, "fork"):
        return in_process
    import marshal

    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return in_process
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            try:
                answer = (True, job())
            except ValueError as exc:
                answer = (False, str(exc))
            with open(write_fd, "wb") as pipe:
                marshal.dump(answer, pipe)
            status = 0
        except Exception:
            import traceback

            traceback.print_exc()
            sys.stderr.flush()
        finally:
            os._exit(status)
    os.close(write_fd)

    def result(kill=False):
        if kill:
            import signal

            os.kill(pid, signal.SIGKILL)
        with open(read_fd, "rb") as pipe:
            answer = pipe.read()
        status = os.waitpid(pid, 0)[1]
        if kill:
            return None
        if not answer:
            raise RuntimeError(
                f"forked fuzz stream failed with exit code {os.waitstatus_to_exitcode(status)}"
            )
        ok, value = marshal.loads(answer)
        if not ok:
            raise ValueError(value)
        return value

    return result


def _summaries(theorem: str, cfg: FuzzConfig):
    """Yield (text, failures) per fuzzed generator, theorem2's first.

    The two streams share nothing, so for "both" theorem1's runs in a forked
    child (_in_child) while theorem2's runs here. If theorem2's raises, or
    the caller stops early (which closes this generator at the yield), the
    child is killed and reaped before the exception goes on.
    """
    theorem2 = lambda: _summarize("theorem2", fuzz_theorem2(cfg))
    theorem1 = lambda: _summarize("theorem1", fuzz_theorem1(cfg))
    if theorem != "both":
        yield (theorem1 if theorem == "1" else theorem2)()
        return
    theorem1 = _in_child(theorem1)
    try:
        yield theorem2()
    except BaseException:
        theorem1(kill=True)
        raise
    yield theorem1()


def _cmd_fuzz(args) -> int:
    if args.count < 0:
        raise ValueError(f"--count must be >= 0, got {quote(args.count)}")
    if args.count > MAX_FUZZ_COUNT:
        raise ValueError(f"--count must be <= {MAX_FUZZ_COUNT}, got {quote(args.count)}")
    seed = args.seed
    if seed is None:
        seed = random.SystemRandom().randrange(2 ** 63)
    print(f"seed = {seed}")
    cfg = FuzzConfig(seed=seed, instance_count=args.count)
    failures = 0
    for text, failed in _summaries(args.theorem, cfg):
        print(text)
        failures += failed
    return EXIT_OK if failures == 0 else EXIT_VERIFY_FAILED


def _fixtures_dir(args) -> tuple[Path, Path]:
    """(read_dir, cache_dir): explicit flag wins; else ./fixtures, else bundled."""
    if args.fixtures:
        chosen = Path(args.fixtures)
        return chosen, chosen
    local = Path("fixtures")
    if local.is_dir():
        return local, local
    from .oeis import bundled_fixtures_dir

    return bundled_fixtures_dir(), local


def _cmd_oeis_check(args) -> int:
    # imported here, not at module level: no other command uses the OEIS module
    from .oeis import FAMILY_TO_OEIS, OeisUnavailableError, compare_terms, get_terms

    if args.count < 0:
        raise ValueError(f"--count must be >= 0, got {quote(args.count)}")
    family = family_key(args.family)
    oeis_id = FAMILY_TO_OEIS.get(family)
    if oeis_id is None:
        raise ValueError(f"no OEIS mapping for family {quote(args.family)}")
    offline = args.offline or os.environ.get("IDENTITY_FORGE_OFFLINE") == "1"
    read_dir, cache_dir = _fixtures_dir(args)
    try:
        fixture = get_terms(oeis_id, offline, read_dir, None if offline else cache_dir)
    except OeisUnavailableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    available = len(fixture.terms)
    count = min(args.count, available)
    if args.count > available:
        print(f"note: only {available} fixture terms available", file=sys.stderr)
    mismatch = compare_terms(family, fixture, count)
    if mismatch is not None:
        index, expected, computed = mismatch
        print(
            f"{oeis_id} ({family}): MISMATCH at n={index}: "
            f"b-file has {expected}, recurrence gives {format_rational(computed)}"
        )
        return EXIT_VERIFY_FAILED
    print(f"{oeis_id} ({family}): {count}/{count} terms match [{fixture.source}]")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="identity-forge",
        description="Generate and verify weighted-sum identities for "
                    "second-order linear recurrences, exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("seq-eval", help="evaluate a sequence at any integer index")
    _add_sequence_flags(p)
    p.add_argument("--n", type=_int_flag, required=True)
    p.set_defaults(func=_cmd_seq_eval)

    p = sub.add_parser("generate", help="generate an identity for a sequence")
    _add_sequence_flags(p)
    p.add_argument("--k", type=_int_flag, help="summand offset for the general generator")
    p.add_argument("--theorem1", action="store_true",
                   help="use the normalized-sequence generator (requires X_0 = 1)")
    p.add_argument("--reduced", action="store_true",
                   help="scale by 1/(X_0*X_2 - X_1^2) so the coefficient is 1/X_k")
    p.add_argument("--json", action="store_true", help="also print the JSON document")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("verify", help="verify one identity over an n-range")
    p.add_argument("--id", help="catalog id (see 'catalog list')")
    p.add_argument("--param", action="append", help="catalog parameter key=value")
    p.add_argument("--json", help="path to a descriptor JSON document")
    p.add_argument("--n-min", type=_int_flag, default=None)
    p.add_argument("--n-max", type=_int_flag, default=32)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("catalog", help="catalog operations")
    catalog_sub = p.add_subparsers(dest="catalog_command", required=True)
    pl = catalog_sub.add_parser("list", help="list every catalog entry")
    pl.set_defaults(func=_cmd_catalog_list)
    pv = catalog_sub.add_parser("verify-all", help="verify every catalog entry")
    pv.add_argument("--n-max", type=_int_flag, default=64)
    pv.set_defaults(func=_cmd_catalog_verify_all)

    p = sub.add_parser("fuzz", help="run the seeded generator fuzzers")
    p.add_argument("--seed", type=_int_flag, default=None,
                   help="instance-stream seed (random and printed when omitted)")
    p.add_argument("--count", type=_int_flag, default=500)
    p.add_argument("--theorem", choices=("1", "2", "both"), default="both")
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser("oeis-check", help="compare a family against its OEIS b-file")
    p.add_argument("--family", required=True)
    p.add_argument("--count", type=_int_flag, default=30)
    p.add_argument("--offline", action="store_true",
                   help="use bundled/local fixtures only (also IDENTITY_FORGE_OFFLINE=1)")
    p.add_argument("--fixtures", help="fixtures directory (default ./fixtures, "
                                      "falling back to the bundled copies)")
    p.set_defaults(func=_cmd_oeis_check)

    return parser


class _RaisedDigitLimit:
    """CPython's int<->str digit bound, raised to MAX_DIGITS while any main()
    runs, so that every value within sequences.MAX_INDEX prints. The bound is
    process-wide: the first call in saves and raises it, the last call out
    restores it, so overlapping calls in threads neither lower it under each
    other nor leave it raised."""

    def __init__(self):
        self._lock = allocate_lock()
        self._depth = 0
        self._saved = 0

    def __enter__(self):
        with self._lock:
            if self._depth == 0:
                self._saved = sys.get_int_max_str_digits()
                sys.set_int_max_str_digits(MAX_DIGITS)
            self._depth += 1

    def __exit__(self, *exc_info):
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                sys.set_int_max_str_digits(self._saved)


_DIGIT_LIMIT = _RaisedDigitLimit()


def main(argv=None) -> int:
    """Run one command and return its exit code.

    While main runs, the process-wide int<->str digit limit is MAX_DIGITS, and
    other threads see that raised limit too; it is restored when the last
    overlapping call returns.
    """
    with _DIGIT_LIMIT:
        try:
            args = build_parser().parse_args(argv)
            return args.func(args)
        except (OffsetInvalidError, DegenerateRatioError, ParseError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE


def main_entry():
    sys.exit(main())


# keep the catalog id list importable for shell completion scripts
CATALOG_IDS = tuple(catalog_ids())
