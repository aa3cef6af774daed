"""Run one identity-forge CLI op with every layer's public functions timed.

Usage: python tracer.py OUT.json ARG...

Behaves like ``python -m identity_forge ARG...`` (same stdout, stderr and
exit code) and writes one JSON object to OUT.json: for each span name its
call count, busy time (first entry to last exit, outermost calls only),
self time (busy minus the traced spans nested inside it), errors raised and
the per-layer extras described in ``_EXTRAS``.

The wrappers are installed after import at every name an identity_forge
module binds to the original function (``identity_forge.cli.verify`` as
well as ``identity_forge.verifier.verify``), so calls made at import time
are not traced. Spans are folded into per-name totals as they close instead
of being kept one by one: catalog_sweep makes about 2e5 traced calls. The
interpreter's int->str limit is left as it is, so refusals still happen.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# Defining module, function -> span name.
TARGETS = {
    ("identity_forge.cli", "main"): "cli.main",
    ("identity_forge.catalog", "all_entries"): "catalog.all_entries",
    ("identity_forge.engine", "theorem1_descriptor"): "engine.generate",
    ("identity_forge.engine", "theorem2_descriptor"): "engine.generate",
    ("identity_forge.verifier", "verify"): "verifier.verify",
    ("identity_forge.sequences", "term"): "sequences.term",
    ("identity_forge.numeric", "rat_pow"): "numeric.rat_pow",
    ("identity_forge.numeric", "format_rational"): "numeric.format_rational",
    ("identity_forge.serialize", "to_json"): "serialize.to_json",
    ("identity_forge.serialize", "from_json"): "serialize.from_json",
    ("identity_forge.serialize", "to_latex"): "serialize.to_latex",
}


def decimal_digits(n: int) -> int:
    """Digits of |n| in base 10, found without int->str (which may be refused)."""
    n = abs(n)
    if n < 10:
        return 1
    digits = int((n.bit_length() - 1) * 0.30102999566398120) + 1
    return digits + 1 if n >= 10 ** digits else digits


def _term_extra(stats, args, result):
    stats["max_index"] = max(stats.get("max_index", 0), abs(args[1]))
    bits = max(result.numerator.bit_length(), result.denominator.bit_length())
    stats["max_bits"] = max(stats.get("max_bits", 0), bits)


def _format_extra(stats, args, result):
    q = args[0]
    digits = max(decimal_digits(q.numerator), decimal_digits(q.denominator))
    stats["max_digits"] = max(stats.get("max_digits", 0), digits)


def _verify_extra(stats, args, result):
    if result.status == "pass":
        checked = result.n_hi - result.n_lo + 1
    elif result.status == "fail":
        checked = result.first_failure[0] - result.n_lo + 1
    else:
        checked = 0
    stats["checks"] = stats.get("checks", 0) + checked


def _bytes_out(stats, args, result):
    stats["bytes"] = stats.get("bytes", 0) + len(result.encode())


def _bytes_in(stats, args, result):
    stats["bytes"] = stats.get("bytes", 0) + len(args[0].encode())


# Span name -> f(stats, args, result), run after each call that returned.
_EXTRAS = {
    "sequences.term": _term_extra,
    "numeric.format_rational": _format_extra,
    "verifier.verify": _verify_extra,
    "serialize.to_json": _bytes_out,
    "serialize.to_latex": _bytes_out,
    "serialize.from_json": _bytes_in,
}
# Extras that read only the arguments, so they also run after a call that raised.
_EXTRAS_ON_ERROR = {"numeric.format_rational", "serialize.from_json"}


class Tracer:
    """Per-name span totals, kept with a stack of open spans."""

    def __init__(self):
        self.stats: dict[str, dict] = {}
        self._stack: list[list] = []  # per open span: [time covered by its child spans]
        self._open: dict[str, int] = {}

    def wrap(self, name: str, fn):
        stats = self.stats.setdefault(
            name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "errors": 0}
        )
        extra = _EXTRAS.get(name)
        on_error = name in _EXTRAS_ON_ERROR
        stack, open_ = self._stack, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            open_[name] = open_.get(name, 0) + 1
            start = time.perf_counter()
            result = None
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                open_[name] -= 1
                if stack:
                    stack[-1][0] += elapsed
                stats["calls"] += 1
                stats["self_s"] += elapsed - frame[0]
                if not open_[name]:
                    stats["busy_s"] += elapsed
                if not ok:
                    stats["errors"] += 1
                if extra is not None and (ok or on_error):
                    extra(stats, args, result)

        return traced

    def install(self):
        """Replace every binding of each target in the loaded identity_forge modules."""
        modules = [
            m for key, m in list(sys.modules.items())
            if key == "identity_forge" or key.startswith("identity_forge.")
        ]
        for (module_name, attr), name in TARGETS.items():
            original = getattr(sys.modules[module_name], attr)
            wrapped = self.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    import identity_forge.cli

    tracer = Tracer()
    tracer.install()
    try:
        code = identity_forge.cli.main(cli_args)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        with open(out_path, "w") as out:
            json.dump(tracer.stats, out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
