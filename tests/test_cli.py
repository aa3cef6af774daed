import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import pytest

from identity_forge import cli
from identity_forge import oeis
from identity_forge import verifier
from identity_forge.catalog import entry
from identity_forge.engine import GeometricTerm, IdentityDescriptor, Summand, SumSide
from identity_forge.numeric import format_rational
from identity_forge.sequences import FIBONACCI, named_def
from identity_forge.serialize import from_json, to_json
from identity_forge.verifier import verify

from oracles import brute_term


class ThreadStreams(io.TextIOBase):
    """A text stream that keeps each thread's writes apart."""

    def __init__(self):
        self._local = threading.local()

    def write(self, text):
        self._local.__dict__.setdefault("chunks", []).append(text)
        return len(text)

    def take(self):
        """What the calling thread wrote since its last take()."""
        return "".join(self._local.__dict__.pop("chunks", []))


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSeqEval:
    def test_bronze_five(self, capsys):
        code, out, _ = run(capsys, "seq-eval", "--family", "bronze", "--n", "5")
        assert code == 0
        assert out.strip() == "109"

    def test_pell_backward(self, capsys):
        code, out, _ = run(capsys, "seq-eval", "--family", "pell", "--n", "-1")
        assert code == 0
        assert out.strip() == "1"

    def test_custom_rational_sequence(self, capsys):
        code, out, _ = run(
            capsys, "seq-eval",
            "--c1", "1/2", "--c2=-1/3", "--x0", "1", "--x1", "2", "--n", "3",
        )
        assert code == 0
        assert out.strip() == "-1/3"

    def test_zero_c2_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "seq-eval", "--c1", "1", "--c2", "0", "--x0", "0", "--x1", "1",
            "--n", "2",
        )
        assert code == 2
        assert "c2 must be nonzero" in err

    def test_missing_flags_is_usage_error(self, capsys):
        code, _, err = run(capsys, "seq-eval", "--c1", "1", "--n", "2")
        assert code == 2
        assert "--family" in err


class TestGenerate:
    def test_lucas_offset_two_reduced(self, capsys):
        code, out, _ = run(
            capsys, "generate", "--family", "lucas", "--k", "2", "--reduced"
        )
        assert code == 0
        assert "t = -1/3" in out
        assert "coefficient = 1/3" in out

    def test_fibonacci_offset_one_fails_hypothesis(self, capsys):
        code, _, err = run(capsys, "generate", "--family", "fibonacci", "--k", "1")
        assert code == 2
        assert "nonzero hypothesis" in err

    def test_random_example_sequence(self, capsys):
        code, out, _ = run(
            capsys, "generate",
            "--c1", "4", "--c2", "3", "--x0", "0", "--x1", "1", "--k", "3",
            "--reduced",
        )
        assert code == 0
        assert "t = -12/19" in out
        assert "coefficient = 1/19" in out

    def test_theorem1_path(self, capsys):
        code, out, _ = run(
            capsys, "generate",
            "--c1", "2", "--c2", "1", "--x0", "1", "--x1", "1", "--theorem1",
        )
        assert code == 0
        assert "t = 1" in out

    def test_json_output_verifies(self, capsys):
        code, out, _ = run(
            capsys, "generate", "--family", "lucas", "--k", "2", "--json"
        )
        assert code == 0
        payload = out[out.index("\n{") + 1:]
        descriptor = from_json(payload)
        assert verify(descriptor, 0, 24).passed

    def test_missing_k_is_usage_error(self, capsys):
        code, _, err = run(capsys, "generate", "--family", "lucas")
        assert code == 2
        assert "--k" in err


class TestVerifyCommand:
    def test_catalog_id_with_param(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--id", "eq8", "--param", "m=9", "--n-max", "16"
        )
        assert code == 0
        assert out.startswith("PASS")

    def test_rational_param(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--id", "eq5", "--param", "t=-1/2", "--n-max", "12"
        )
        assert code == 0
        assert "eq5[t=-1/2]" in out

    def test_string_param(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--id", "eq9",
            "--param", "j=3", "--param", "summand=lucas", "--n-max", "12",
        )
        assert code == 0
        assert "eq9[j=3,summand=lucas]" in out

    def test_broken_json_descriptor_fails(self, capsys, tmp_path):
        doc = json.loads(to_json(entry("eq1").descriptor))
        doc["lhs"][0]["coef"] = "3"
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "verify", "--json", str(broken), "--n-max", "8")
        assert code == 1
        assert "counterexample at n=0" in out

    def test_json_descriptor_passes(self, capsys, tmp_path):
        path = tmp_path / "eq12.json"
        path.write_text(to_json(entry("eq12", j=2).descriptor))
        code, out, _ = run(capsys, "verify", "--json", str(path), "--n-max", "20")
        assert code == 0

    def test_unknown_id_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "--id", "eq99", "--n-max", "4")
        assert code == 2
        assert "unknown catalog id" in err

    def test_out_of_grid_param_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "verify", "--id", "eq44", "--param", "j=9", "--param", "k=1",
            "--n-max", "4",
        )
        assert code == 2
        assert "outside the grid" in err

    def test_missing_source_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "--n-max", "4")
        assert code == 2
        assert "provide --id or --json" in err


class TestIndexCap:
    """Indices past sequences.MAX_INDEX exit 2 at once instead of walking for ever."""

    def assert_rejected_quickly(self, capsys, *argv):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 5
        assert code == 2
        assert out == ""
        assert "beyond the limit of 100000" in err

    @pytest.mark.parametrize("argv", [
        ("seq-eval", "--family", "lucas", "--n=1000000000"),
        ("seq-eval", "--family", "lucas", "--n=-1000000000"),
        ("generate", "--family", "lucas", "--k", "1000000000"),
    ])
    def test_far_index_flag(self, capsys, argv):
        self.assert_rejected_quickly(capsys, *argv)

    @pytest.mark.parametrize("part, field", [
        ("lhs", "stride"), ("lhs", "offset"), ("summand", "stride"), ("summand", "offset"),
    ])
    def test_far_descriptor_field(self, capsys, tmp_path, part, field):
        doc = json.loads(to_json(entry("eq12", j=2).descriptor))
        target = doc["lhs"][0] if part == "lhs" else doc["rhs"]["summands"][0]
        target[field] = 1000000000
        path = tmp_path / "far.json"
        path.write_text(json.dumps(doc))
        self.assert_rejected_quickly(capsys, "verify", "--json", str(path))

    @pytest.mark.parametrize("descriptor", [
        entry("eq12", j=2).descriptor,
        # geometric and stride-0 terms only: n_hi alone bounds the sweep
        IdentityDescriptor(
            "geometric", (GeometricTerm(1, 2),), SumSide(1, 1, 2, (Summand(1, FIBONACCI, 0, 1),))
        ),
    ], ids=["eq12", "geometric"])
    def test_far_n_min(self, capsys, tmp_path, descriptor):
        path = tmp_path / "far.json"
        path.write_text(to_json(descriptor))
        self.assert_rejected_quickly(
            capsys, "verify", "--json", str(path),
            "--n-min", "1000000000", "--n-max", "1000000032",
        )

    def test_terms_reach_too_far_together(self, capsys, tmp_path):
        # each stride-0 term's walk is within MAX_INDEX, but with no bound on
        # their sum four of them took 11 to 16 s to set up on a 2-vCPU VM
        far = GeometricTerm(1, 1, named_def("a015530"), 0, 100_000)
        d = IdentityDescriptor("far-sum", (far,) * 4, SumSide(1, 1, 1, (Summand(1, FIBONACCI, 0, 0),)))
        path = tmp_path / "far.json"
        path.write_text(to_json(d))
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", "--json", str(path), "--n-max", "0")
        assert time.perf_counter() - start < 5
        assert code == 2
        assert out == ""
        assert "reach 400000 indices in all, beyond the limit of 300000" in err


class TestDigitBound:
    """main lifts CPython's 4300-digit int<->str bound to cli.MAX_DIGITS, no further."""

    @pytest.mark.parametrize("family, n", [("bronze", -11981), ("a015530", 14003)])
    def test_answer_past_default_bound_prints(self, capsys, family, n):
        code, out, _ = run(capsys, "seq-eval", "--family", family, f"--n={n}")
        assert code == 0
        assert len(out.strip().lstrip("-")) > 4300
        seq = named_def(family)
        expected = brute_term(seq.c1, seq.c2, seq.x0, seq.x1, n)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(cli.MAX_DIGITS)
        try:
            assert out.strip() == str(expected)
        finally:
            sys.set_int_max_str_digits(limit)

    def test_overlapping_calls_in_threads(self, monkeypatch):
        # each call prints about 6,700 digits; one thread's restore must not
        # refuse another's output, and the last call out restores the limit
        argv = ["seq-eval", "--family", "a015530", "--n", "14003"]
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            expected = f"{brute_term(4, 3, 0, 1, 14003)}\n"
        finally:
            sys.set_int_max_str_digits(limit)
        out, err = ThreadStreams(), ThreadStreams()
        monkeypatch.setattr(sys, "stdout", out)
        monkeypatch.setattr(sys, "stderr", err)

        def calls():
            return [(cli.main(argv), out.take(), err.take()) for _ in range(5)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(calls) for _ in range(4)]
                results = [r for f in futures for r in f.result(timeout=120)]
        finally:
            sys.setswitchinterval(interval)
        assert results == [(0, expected, "")] * 20
        assert sys.get_int_max_str_digits() == limit

    @pytest.mark.parametrize("field", ["coef", "stride"])
    def test_literal_past_bound_rejected(self, capsys, tmp_path, field):
        text = to_json(entry("eq12", j=2).descriptor)
        long = "1" * (cli.MAX_DIGITS + 1)
        old = '"stride": 2' if field == "stride" else '"coef": "1"'
        new = f'"stride": {long}' if field == "stride" else f'"coef": "{long}"'
        assert old in text
        path = tmp_path / "long.json"
        path.write_text(text.replace(old, new, 1))
        code, out, err = run(capsys, "verify", "--json", str(path))
        assert code == 2
        assert out == ""
        assert "Exceeds the limit (100000 digits)" in err

    @pytest.mark.parametrize("argv", [
        ("seq-eval", "--c1", "1/100000", "--c2", "1", "--x0", "1", "--x1", "1", "--n", "21000"),
        ("generate", "--c1", "1/100000", "--c2", "1", "--x0", "1", "--x1", "1", "--k", "21000"),
    ])
    def test_result_past_bound_refused(self, capsys, argv):
        # X_n's denominator 10**(5*(n-1)) has 104,996 digits: no conversion
        # is tried, and the refusal is the package's own
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert "Exceeds the limit (100000 digits) for a decimal number" in err
        assert "set_int_max_str_digits" not in err
        assert len(err) < 400

    @pytest.mark.parametrize("argv", [
        ("seq-eval", "--family", "lucas", "--n={}"),
        ("seq-eval", "--family", "lucas", "--n=-{}"),
        ("generate", "--family", "lucas", "--k={}"),
        ("generate", "--family", "lucas", "--k=-{}"),
        ("verify", "--id", "eq1", "--n-min={}"),
        ("verify", "--id", "eq1", "--n-max={}"),
        ("catalog", "verify-all", "--n-max={}"),
        ("fuzz", "--count={}"),
        ("fuzz", "--count=-{}"),
        ("oeis-check", "--family", "pell", "--offline", "--count=-{}"),
    ], ids=["seq-eval-n", "seq-eval-minus-n", "generate-k", "generate-minus-k", "verify-n-min",
            "verify-n-max", "verify-all-n-max", "fuzz-count", "fuzz-minus-count", "oeis-minus-count"])
    def test_widest_integer_flag_refusal_is_short(self, capsys, argv):
        # a flag of exactly MAX_DIGITS digits parses, and its later refusal
        # neither echoes it whole nor converts a reach one digit longer
        widest = "9" * cli.MAX_DIGITS
        code, out, err = run(capsys, *argv[:-1], argv[-1].format(widest))
        assert code == 2
        assert out == ""
        assert "set_int_max_str_digits" not in err
        assert len(err) < 400

    def test_format_rational_bound_is_exact(self):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            widest = 10 ** cli.MAX_DIGITS - 1
            for q in (widest, -widest, Fraction(1, widest), Fraction(-widest, widest - 2)):
                assert format_rational(q) == str(Fraction(q))
            for q in (widest + 1, -(widest + 1), Fraction(1, widest + 1), 10 ** (2 * cli.MAX_DIGITS)):
                with pytest.raises(ValueError, match="for a decimal number"):
                    format_rational(q)
        finally:
            sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize("path", [
        "json-stride", "json-coef", "json-n_min", "json-schema_version", "c1", "seq-eval-n",
        "generate-k", "verify-n-max", "fuzz-count", "param", "c1-not-literal", "param-string",
        "catalog-id", "family", "oeis-family",
    ])
    def test_long_literal_refusal_is_short(self, capsys, tmp_path, path):
        # one short message of the package's own, exit 2, and the literal not echoed
        long = "1" * (cli.MAX_DIGITS + 1)
        text = to_json(entry("eq12", j=2).descriptor)
        doc = tmp_path / "long.json"
        # a widest n_min or schema_version parses, and is then refused by value
        old, new = {
            "json-stride": ('"stride": 2', f'"stride": {long}'),
            "json-n_min": ('"n_min": 0', f'"n_min": {long[1:]}'),
            "json-schema_version": ('"schema_version": 1', f'"schema_version": {long[1:]}'),
        }.get(path, ('"coef": "1"', f'"coef": "{long}"'))
        doc.write_text(text.replace(old, new, 1))
        argv = {
            "json-stride": ("verify", "--json", str(doc)),
            "json-coef": ("verify", "--json", str(doc)),
            "json-n_min": ("verify", "--json", str(doc)),
            "json-schema_version": ("verify", "--json", str(doc)),
            "c1": ("seq-eval", "--c1", long, "--c2", "1", "--x0", "0", "--x1", "1", "--n", "3"),
            "seq-eval-n": ("seq-eval", "--family", "lucas", f"--n={long}"),
            "generate-k": ("generate", "--family", "lucas", "--k", long),
            "verify-n-max": ("verify", "--id", "eq1", "--n-max", long),
            "fuzz-count": ("fuzz", "--count", long),
            "param": ("verify", "--id", "eq1", "--param", f"j={long}"),
            "c1-not-literal": ("seq-eval", "--c1", f"{long}x", "--c2", "1", "--x0", "0", "--x1", "1", "--n", "3"),
            "param-string": ("verify", "--id", "eq1", "--param", f"j=a{long}"),
            "catalog-id": ("verify", "--id", f"eq{long}"),
            "family": ("seq-eval", "--family", f"f{long}", "--n", "3"),
            "oeis-family": ("oeis-check", "--family", f"f{long}", "--offline"),
        }[path]
        message = {
            "json-n_min": "bad range: need n_min=111",
            "json-schema_version": "unsupported schema_version 111",
            "c1-not-literal": "not a rational literal: '111",
            "param-string": "parameters {'j': 'a111",
            "catalog-id": "unknown catalog id: 'eq111",
            "family": "unknown sequence family: 'f111",
            "oeis-family": "no OEIS mapping for family 'f111",
        }.get(path, "Exceeds the limit (100000 digits) for a decimal number")
        try:
            code, out, err = run(capsys, *argv)
        except SystemExit as exc:  # argparse refuses a flag's value itself
            captured = capsys.readouterr()
            code, out, err = exc.code, captured.out, captured.err
        assert code == 2
        assert out == ""
        assert message in err
        assert "set_int_max_str_digits" not in err
        assert len(err) < 400

    def test_short_literal_still_echoed_in_full(self, capsys):
        text = "1" * 90 + "x"
        code, _, err = run(capsys, "seq-eval", "--c1", text, "--c2", "1", "--x0", "0", "--x1", "1", "--n", "3")
        assert code == 2
        assert err == f"error: not a rational literal: {text!r}\n"

    def test_bad_int_flag_still_names_the_value(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "seq-eval", "--family", "lucas", "--n", "abc")
        assert exc.value.code == 2
        assert "argument --n" in capsys.readouterr().err

    def test_deeply_nested_document_rejected(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000)
        code, out, err = run(capsys, "verify", "--json", str(path))
        assert code == 2
        assert out == ""
        assert "(at $)" in err


class TestCatalogCommands:
    def test_verify_all_passes(self, capsys):
        code, out, _ = run(capsys, "catalog", "verify-all", "--n-max", "16")
        assert code == 0
        lines = [line for line in out.splitlines() if line.startswith("PASS")]
        assert len(lines) >= 60
        assert "entries verified" in out

    def test_list_shows_labels_and_citations(self, capsys):
        code, out, _ = run(capsys, "catalog", "list")
        assert code == 0
        assert "eq8[m=6]" in out
        assert "Sury" in out


class TestFuzzCommand:
    def test_seeded_run_is_deterministic(self, capsys):
        code1, out1, _ = run(capsys, "fuzz", "--seed", "11", "--count", "40")
        code2, out2, _ = run(capsys, "fuzz", "--seed", "11", "--count", "40")
        assert code1 == code2 == 0
        assert out1 == out2
        assert "theorem2:" in out1 and "theorem1:" in out1

    def test_unseeded_run_prints_replay_seed(self, capsys):
        code, out, _ = run(capsys, "fuzz", "--count", "10", "--theorem", "2")
        assert code == 0
        assert re.search(r"^seed = \d+$", out, re.MULTILINE)

    def test_widest_seed_prints_whole(self, capsys):
        seed = "9" * cli.MAX_DIGITS
        code, out, _ = run(capsys, "fuzz", f"--seed={seed}", "--count=5", "--theorem=2")
        assert code == 0
        assert out.startswith(f"seed = {seed}\ntheorem2: ")

    def test_zero_fail_counts_reported(self, capsys):
        code, out, _ = run(capsys, "fuzz", "--seed", "3", "--count", "60")
        assert code == 0
        assert "0 fail" in out

    def test_negative_count_rejected(self, capsys):
        code, out, err = run(capsys, "fuzz", "--seed", "3", "--count=-5")
        assert code == 2
        assert out == ""
        assert "--count must be >= 0" in err

    def test_count_past_cap_rejected_quickly(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "fuzz", "--count", "1000000000")
        assert time.perf_counter() - start < 5
        assert code == 2
        assert out == ""
        assert f"--count must be <= {cli.MAX_FUZZ_COUNT}" in err


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def coef_plus_one(generator):
    """generator with its descriptors' outer_coef raised by one: every
    identity it builds is false at n = 0."""
    def wrong(*args):
        d = generator(*args)
        return dataclasses.replace(d, rhs=dataclasses.replace(d.rhs, outer_coef=d.rhs.outer_coef + 1))
    return wrong


def raising(generator, exc):
    """generator that raises exc on its third call, after two instances."""
    calls = []

    def broken(*args):
        calls.append(args)
        if len(calls) == 3:
            raise exc
        return generator(*args)
    return broken


class TestFuzzStreamsInTwoProcesses:
    """fuzz --theorem both runs theorem1's stream in a forked child: its
    transcript must be the one process's, byte for byte."""

    @pytest.fixture
    def forks(self, monkeypatch):
        calls = []
        real_fork = os.fork

        def counted():
            calls.append(1)
            return real_fork()
        monkeypatch.setattr(os, "fork", counted)
        return calls

    @pytest.mark.parametrize("seed", ["1", "2", "3"])
    @pytest.mark.parametrize("wrong", [None, "theorem1_descriptor", "theorem2_descriptor"])
    def test_both_is_theorem2_then_theorem1(self, capsys, monkeypatch, forks, seed, wrong):
        if wrong:
            monkeypatch.setattr(verifier, wrong, coef_plus_one(getattr(verifier, wrong)))
        argv = ("fuzz", "--seed", seed, "--count", "200", "--theorem")
        code, out, err = run(capsys, *argv, "both")
        assert forks == [1]
        assert_no_child_left()
        code2, out2, _ = run(capsys, *argv, "2")
        code1, out1, _ = run(capsys, *argv, "1")
        assert forks == [1]
        head = f"seed = {seed}\n"
        assert out2.startswith(head) and out1.startswith(head)
        assert out == head + out2[len(head):] + out1[len(head):]
        assert err == ""
        assert code == max(code1, code2)
        if wrong:
            name = wrong[:len("theoremN")]
            prefix = f"  FAIL    t{name[-1]}#"
            ids = [int(line[len(prefix):].split("(")[0]) for line in out.splitlines() if line.startswith(prefix)]
            assert code == 1 and f"{name}: 0 pass, " in out
            assert len(ids) > 150 and ids == sorted(ids)
        else:
            assert code == 0
        monkeypatch.delattr(os, "fork")
        assert run(capsys, *argv, "both") == (code, out, err)

    @pytest.mark.parametrize("stream", ["theorem1_descriptor", "theorem2_descriptor"])
    def test_value_error_in_either_stream(self, capsys, monkeypatch, stream):
        generator = getattr(verifier, stream)
        monkeypatch.setattr(verifier, stream, raising(generator, ValueError("stream broke")))
        argv = ("fuzz", "--seed", "5", "--count", "50")
        forked = run(capsys, *argv)
        assert_no_child_left()
        monkeypatch.setattr(verifier, stream, raising(generator, ValueError("stream broke")))
        monkeypatch.delattr(os, "fork")
        assert forked == run(capsys, *argv)
        code, out, err = forked
        assert code == 2
        assert err == "error: stream broke\n"
        assert ("theorem2:" in out) == (stream == "theorem1_descriptor")
        assert "theorem1:" not in out

    @pytest.mark.parametrize("stream, raised", [
        ("theorem1_descriptor", RuntimeError),  # the child's traceback goes to stderr
        ("theorem2_descriptor", ZeroDivisionError),  # the parent's own error
    ])
    def test_other_error_in_either_stream_raises(self, capfd, monkeypatch, stream, raised):
        monkeypatch.setattr(verifier, stream, raising(getattr(verifier, stream), ZeroDivisionError("boom")))
        with pytest.raises(raised):
            cli.main(["fuzz", "--seed", "5", "--count", "50"])
        assert_no_child_left()
        err = capfd.readouterr().err
        assert ("ZeroDivisionError: boom" in err) == (stream == "theorem1_descriptor")

    def test_stdout_failing_after_theorem2_kills_child(self, monkeypatch):
        # print raises in the loop that consumes the summaries, which closes
        # the generator while the child may still be running
        class ClosedAfterSeed(io.StringIO):
            def write(self, text):
                if text.startswith("theorem2"):
                    raise BrokenPipeError
                return super().write(text)
        monkeypatch.setattr(sys, "stdout", ClosedAfterSeed())
        with pytest.raises(BrokenPipeError):
            cli.main(["fuzz", "--seed", "1", "--count", "200"])
        assert_no_child_left()

    def test_single_theorem_does_not_fork(self, capsys, forks):
        for theorem in ("1", "2"):
            code, _, _ = run(capsys, "fuzz", "--seed", "1", "--count", "20", "--theorem", theorem)
            assert code == 0
        assert forks == []

    def test_real_process_stdout_matches_golden(self):
        # a child that flushed the inherited "seed = 1" buffer would print it
        # twice; capsys cannot show that, a pipe can. Without
        # PYTHONUNBUFFERED, stdout to a pipe is block-buffered as users get it.
        src = Path(__file__).resolve().parent.parent / "src"
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        proc = subprocess.run(
            [sys.executable, "-m", "identity_forge", "fuzz", "--seed", "1", "--count", "200", "--theorem", "both"],
            env={**env, "PYTHONPATH": str(src)}, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=120,
        )
        golden = (GOLDEN / "fuzz_both.txt").read_text()
        stdout = golden[golden.index("--- stdout\n") + 11:golden.index("--- stderr\n")]
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, stdout, "")


class TestOeisCheck:
    @pytest.mark.parametrize(
        "family", ["pell", "fibonacci", "lucas", "pelllucas", "bronze", "a015530"]
    )
    def test_families_match_bundled_fixtures(self, capsys, family):
        code, out, _ = run(
            capsys, "oeis-check", "--family", family, "--count", "30", "--offline"
        )
        assert code == 0
        assert "30/30 terms match" in out

    def test_pell_first_ten(self, capsys):
        code, out, _ = run(
            capsys, "oeis-check", "--family", "pell", "--count", "10", "--offline"
        )
        assert code == 0
        assert "10/10 terms match" in out

    def test_family_name_normalised_as_in_seq_eval(self, capsys):
        # one key rule for both commands: case, '-', '_' and spaces are ignored
        code, out, _ = run(capsys, "seq-eval", "--family", "Pell lucas", "--n", "4")
        assert (code, out.strip()) == (0, "17")
        code, out, _ = run(
            capsys, "oeis-check", "--family", "Pell lucas", "--count", "10", "--offline"
        )
        assert code == 0
        assert "A001333 (pelllucas): 10/10 terms match" in out

    def test_count_zero_is_vacuous_pass(self, capsys):
        code, out, _ = run(
            capsys, "oeis-check", "--family", "fibonacci", "--count", "0", "--offline"
        )
        assert code == 0
        assert "0/0 terms match" in out

    def test_negative_count_rejected(self, capsys):
        code, out, err = run(
            capsys, "oeis-check", "--family", "fibonacci", "--count=-3", "--offline"
        )
        assert code == 2
        assert out == ""
        assert "--count must be >= 0" in err

    def test_offline_never_touches_network(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("network touched in offline mode")

        monkeypatch.setattr(oeis, "fetch_bfile", boom)
        code, _, _ = run(
            capsys, "oeis-check", "--family", "lucas", "--count", "20", "--offline"
        )
        assert code == 0

    def test_env_var_forces_offline(self, capsys, monkeypatch):
        monkeypatch.setattr(oeis, "fetch_bfile", lambda *a, **k: 1 / 0)
        monkeypatch.setenv("IDENTITY_FORGE_OFFLINE", "1")
        code, _, _ = run(capsys, "oeis-check", "--family", "pell", "--count", "5")
        assert code == 0

    def test_mismatching_fixture_fails(self, capsys, tmp_path):
        bad = tmp_path / "A000129.txt"
        bad.write_text("# corrupted\n0 0\n1 1\n2 2\n3 5\n4 12\n5 29\n6 71\n")
        code, out, _ = run(
            capsys, "oeis-check", "--family", "pell", "--count", "7",
            "--offline", "--fixtures", str(tmp_path),
        )
        assert code == 1
        assert "MISMATCH at n=6" in out

    def test_missing_fixture_is_resource_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "oeis-check", "--family", "pell", "--count", "5",
            "--offline", "--fixtures", str(tmp_path),
        )
        assert code == 3
        assert "no fixture" in err

    def test_network_failure_without_fixture(self, capsys, tmp_path, monkeypatch):
        def down(*args, **kwargs):
            raise OSError("network unreachable")

        monkeypatch.setattr(oeis, "fetch_bfile", down)
        code, _, err = run(
            capsys, "oeis-check", "--family", "pell", "--count", "5",
            "--fixtures", str(tmp_path),
        )
        assert code == 3
        assert "fetch failed" in err

    def test_live_fetch_caches_into_fixtures_dir(self, capsys, tmp_path, monkeypatch):
        source = oeis.bundled_fixtures_dir() / "A000129.txt"
        monkeypatch.setattr(oeis, "fetch_bfile", lambda *a, **k: source.read_text())
        code, out, _ = run(
            capsys, "oeis-check", "--family", "pell", "--count", "12",
            "--fixtures", str(tmp_path),
        )
        assert code == 0
        assert "[live]" in out
        cached = tmp_path / "A000129.txt"
        assert cached.is_file()
        assert "cached from oeis.org" in cached.read_text()

    def test_unknown_family_is_usage_error(self, capsys):
        code, _, err = run(capsys, "oeis-check", "--family", "tribonacci", "--count", "5")
        assert code == 2
        assert "no OEIS mapping" in err

    def test_live_fetch_asks_oeis_for_the_bfile(self, monkeypatch):
        import urllib.request

        calls = []

        class Response:
            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def read(self):
                return "0 0\n1 1\n2 2\n".encode("utf-8")

        def fake_urlopen(url, timeout):
            calls.append((url, timeout))
            return Response()

        monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
        assert oeis.fetch_bfile("A000129", timeout=7.5) == "0 0\n1 1\n2 2\n"
        assert calls == [("https://oeis.org/A000129/b000129.txt", 7.5)]


class TestBfileParsing:
    def test_comments_and_blanks_ignored(self):
        fixture = oeis.parse_bfile("# header\n\n0 0\n1 1\n2 2\n", "A000129", "cached")
        assert fixture.terms == [(0, 0), (1, 1), (2, 2)]

    def test_non_consecutive_indices_rejected(self):
        with pytest.raises(ValueError, match="non-consecutive"):
            oeis.parse_bfile("0 0\n2 2\n", "A000129", "cached")

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError, match="expected 'index value'"):
            oeis.parse_bfile("0 0 0\n", "A000129", "cached")

    def test_empty_bfile_rejected(self):
        with pytest.raises(ValueError, match="no terms"):
            oeis.parse_bfile("# nothing\n", "A000129", "cached")

    def test_bundled_fixtures_have_enough_terms(self):
        for oeis_id in oeis.FAMILY_TO_OEIS.values():
            fixture = oeis.load_fixture(oeis_id, oeis.bundled_fixtures_dir())
            assert len(fixture.terms) >= 40


# A fresh interpreter under -S (no site, so no .pth file preloads anything):
# the modules that importing the CLI and running one command add.
_IMPORTS_SCRIPT = """
import json, sys
before = set(sys.modules)
import identity_forge.cli
identity_forge.cli.main(sys.argv[2:])
added = sorted(set(sys.modules) - before)
with open(sys.argv[1], "w") as out:
    json.dump(added, out)
"""
# what only a live oeis-check fetch or a bundled-fixture lookup uses
_NETWORK_MODULES = ("urllib.request", "http.client", "ssl", "email", "importlib.resources")
# fuzz --theorem both forks and sends its child's text back with marshal alone
_CONCURRENCY_MODULES = ("pickle", "multiprocessing", "concurrent.futures", "subprocess", "threading")
# perfbench/tracer.py wraps functions in these right after importing the CLI
_TRACED_MODULES = tuple(
    f"identity_forge.{name}"
    for name in ("catalog", "engine", "verifier", "sequences", "numeric", "serialize")
)


@pytest.mark.parametrize("argv", [
    ("seq-eval", "--family", "lucas", "--n", "500"),
    ("generate", "--family", "pell", "--k", "2", "--json"),
    ("verify", "--json", str(Path(__file__).parent / "golden" / "eq4_ones.json")),
    ("fuzz", "--seed", "1", "--count", "20", "--theorem", "both"),
], ids=["seq-eval", "generate-json", "verify-json", "fuzz-both"])
def test_startup_loads_no_network_stack(tmp_path, argv):
    out = tmp_path / "modules.json"
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _IMPORTS_SCRIPT, str(out), *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    added = set(json.loads(out.read_text()))
    network = {m for m in added for n in _NETWORK_MODULES if m == n or m.startswith(n + ".")}
    assert network == set()
    assert set(_TRACED_MODULES) <= added
    assert not added & set(_CONCURRENCY_MODULES)


# _IMPORTS_SCRIPT imports json itself; this one writes the module names as lines
_MODULES_SCRIPT = """
import sys
import identity_forge.cli
identity_forge.cli.main(sys.argv[2:])
with open(sys.argv[1], "w") as out:
    out.write("\\n".join(sorted(sys.modules)))
"""


@pytest.mark.parametrize("argv, loads_json", [
    (("seq-eval", "--family", "lucas", "--n", "500"), False),
    (("catalog", "verify-all", "--n-max", "8"), False),
    (("fuzz", "--seed", "1", "--count", "20", "--theorem", "both"), False),
    (("generate", "--family", "pell", "--k", "2", "--json"), True),
], ids=["seq-eval", "catalog-verify-all", "fuzz-both", "generate-json"])
def test_only_the_json_paths_load_json(tmp_path, argv, loads_json):
    out = tmp_path / "modules.txt"
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _MODULES_SCRIPT, str(out), *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    modules = out.read_text().split("\n")
    assert ("json" in modules) == loads_json
    # oeis-check is the only command that loads the OEIS module
    assert "identity_forge.oeis" not in modules


def test_custom_sequence_verification_pipeline(capsys, tmp_path):
    # generate --json, save, verify: the full scripting loop
    code = cli.main(["generate", "--family", "pell", "--k", "2", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    payload = out[out.index("\n{") + 1:]
    path = tmp_path / "generated.json"
    path.write_text(payload)
    code = cli.main(["verify", "--json", str(path), "--n-max", "24"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("PASS")


GOLDEN = Path(__file__).parent / "golden"
_CUSTOM = ("--c1", "1/2", "--c2=-1/3", "--x0", "1", "--x1", "2")
GOLDEN_CASES = {
    "catalog_verify_all": ("catalog", "verify-all", "--n-max", "64"),
    "fuzz_both": ("fuzz", "--seed", "1", "--count", "200", "--theorem", "both"),
    "fuzz_both_seed2": ("fuzz", "--seed", "2", "--count", "1000", "--theorem", "both"),
    "fuzz_both_seed3": ("fuzz", "--seed", "3", "--count", "1000", "--theorem", "both"),
    "generate_json": ("generate", *_CUSTOM, "--k", "-40", "--json"),
    "generate_theorem1_json": ("generate", *_CUSTOM, "--theorem1", "--json"),
    # generate_json's descriptor scaled by 1/(X_0*X_2 - X_1^2)
    "generate_reduced": ("generate", *_CUSTOM, "--k", "-40", "--reduced", "--json"),
    # generate_json's document with outer_coef's numerator raised by one
    "verify_corrupt": ("verify", "--json", str(GOLDEN / "theorem2_k-40_corrupt.json")),
    "seq_eval_backward": ("seq-eval", *_CUSTOM, "--n=-700"),
    # eq4 with its F_{i+1} summand swapped for the constant 1, which equals
    # F_{i+1} only at i = 0, 1: the first witness lies past n_lo
    "verify_ones": ("verify", "--json", str(GOLDEN / "eq4_ones.json"), "--n-max", "40"),
    "verify_ones_n_min3": (
        "verify", "--json", str(GOLDEN / "eq4_ones.json"), "--n-min", "3", "--n-max", "40",
    ),
    # the witness at n = 2 lies past an n_lo > 0
    "verify_ones_n_min1": (
        "verify", "--json", str(GOLDEN / "eq4_ones.json"), "--n-min", "1", "--n-max", "40",
    ),
    "verify_eq12_n_min5": ("verify", "--id", "eq12", "--param", "j=2", "--n-min", "5", "--n-max", "40"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_transcript(capsys, name):
    # exit code, stdout and stderr byte for byte; only elapsed times are masked
    code, out, err = run(capsys, *GOLDEN_CASES[name])
    text = f"exit {code}\n--- stdout\n{out}--- stderr\n{err}"
    masked = re.sub(r"\(\d+\.\d+s\)", "(<elapsed>)", text)
    assert masked == (GOLDEN / f"{name}.txt").read_text()
