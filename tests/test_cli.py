import argparse
import contextlib
import importlib
import inspect
import io
import itertools
import math
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from fareyloops import cli, contfrac, heights, loops
from fareyloops.cli import COMMAND_HANDLERS, VERIFY_CHECKS, build_parser, main, parse_value
from fareyloops.contfrac import CFExpansion, cf_of_surd
from fareyloops.cutting import crossed_edges, eta_inverse
from fareyloops.loops import is_infinite_loop, sb_walk
from fareyloops.rationals import Rational
from fareyloops.surds import PERIOD, QuadSurd

SMALL_VERIFY = {
    "noloop": ["--n-range", "4..5", "--count", "10"],
    "infl": ["--count", "5"],
    "pro2": ["--n-range", "2..3", "--count", "10"],
    "count-height": ["--count", "5", "-L", "4"],
    "defs-equivalence": ["--q-max", "12", "--n-range", "2..4"],
    "thma": ["--count", "10"],
    "dual-pushforward": ["--count", "10"],
}


def run_cli(*argv):
    buf = io.StringIO()
    code = main(list(argv), out=buf)
    return code, buf.getvalue()


def modules_after(calls) -> set:
    """The names in ``sys.modules`` after a fresh interpreter imports the CLI and runs each call."""
    script = (
        "import io, sys\n"
        "import fareyloops.cli\n"
        f"for argv in {list(calls)!r}:\n"
        "    assert fareyloops.cli.main(argv, out=io.StringIO()) == 0, argv\n"
        "print(*sorted(sys.modules))\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
    )
    assert (run.returncode, run.stderr) == (0, "")
    return set(run.stdout.split())


def normalized(text):
    return re.sub(r"\s+", "", text)


class TestValueParsing:
    def test_rational_forms(self):
        assert parse_value("3/7") == Rational(3, 7)
        assert parse_value("2") == Rational(2)

    def test_surd_forms(self):
        assert parse_value("(1+sqrt(5))/2") == QuadSurd(1, 2, 5)
        assert parse_value("(-1+sqrt(5))/2") == QuadSurd(-1, 2, 5)
        assert parse_value("sqrt(2)") == QuadSurd(0, 1, 2)
        assert parse_value("sqrt(8)/2") == QuadSurd(0, 2, 8)

    def test_expansion_form(self):
        assert parse_value("[1; (2)]") == CFExpansion(1, (), (2,))

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_value("sqrt(two)")

    def test_surd_without_denominator(self):
        assert parse_value("(-1+sqrt(3))") == parse_value("(-1+sqrt(3))/1") == QuadSurd(-1, 1, 3)

    @pytest.mark.parametrize("text", ["sqrt(two)", "1/x", "3/", "half"])
    def test_unreadable_value_names_the_forms(self, text, capsys):
        code, _ = run_cli("loopcheck", text, "--mod", "7")
        assert code == 2
        assert "expected p/q, an integer, (P+sqrt(D))[/Q], sqrt(D)[/Q] or [a0; ...]" in capsys.readouterr().err


class TestCommands:
    def test_cf(self):
        code, out = run_cli("cf", "3/7")
        assert code == 0
        assert out.splitlines() == ["[0; 2, 3, oo]", "[0; 2, 2, 1, oo]"]

    def test_cf_surd_with_times(self):
        code, out = run_cli("cf", "sqrt(2)", "--times", "2")
        assert code == 0 and out.strip() == "[2; (1, 4)]"

    def test_cf_shift(self):
        code, out = run_cli("cf", "(-1+sqrt(5))/2", "--shift", "2")
        assert code == 0 and out.strip() == "[2; (1)]"

    def test_cf_times_on_a_rational_prints_both_twins_of_the_product(self):
        assert run_cli("cf", "3/5", "--times", "3") == (0, "[1; 1, 4, oo]\n[1; 1, 3, 1, oo]\n")
        assert run_cli("cf", "1/2", "--times", "2") == run_cli("cf", "1") == (0, "[1; oo]\n[0; 1, oo]\n")

    @pytest.mark.parametrize(
        "value, shift, times, product",
        [
            ("3/5", 0, 3, "9/5"),
            ("3/7", 1, 2, "20/7"),
            ("2/3", 2, 4, "32/3"),
            ("5/2", -2, 3, "3/2"),
            ("1", -1, 5, "0"),
            ("sqrt(2)", 1, 2, "(2+sqrt(8))"),
            ("(1+sqrt(5))/2", 0, 3, "(3+sqrt(45))/2"),
            ("(-1+sqrt(3))", 1, 7, "sqrt(147)"),
        ],
    )
    def test_cf_shift_then_times_prints_the_expansions_of_the_product(self, value, shift, times, product):
        # --shift s --times n prints exactly what cf of n * (x + s) prints
        code, out = run_cli("cf", value, "--shift", str(shift), "--times", str(times))
        assert (code, out) == run_cli("cf", product) and code == 0

    def test_cf_shift_and_times_keep_an_expansion_input_in_its_form(self):
        # a bracket input is one expansion, oo-tail or not, so one comes back
        assert run_cli("cf", "[0; 2]", "--shift", "1", "--times", "3") == (0, "[4; 2]\n")
        assert run_cli("cf", "[0; 2, oo]", "--shift", "1", "--times", "3") == (0, "[4; 2, oo]\n")
        assert run_cli("cf", "[0; (1)]", "--shift", "1", "--times", "2") == run_cli("cf", "(1+sqrt(5))")

    def test_loopcheck_half_mod_four(self):
        code, out = run_cli("loopcheck", "1/2", "--mod", "4")
        assert code == 0 and out.strip() == "LOOP"
        # an integer's only fan is its oo-tail m/1, whose first hit is m = n
        assert run_cli("loopcheck", "7", "--mod", "6") == (0, "NOTLOOP k=0 m=6 q=6\n")

    def test_loopcheck_half_mod_five(self):
        code, out = run_cli("loopcheck", "1/2", "--mod", "5", "--geometric")
        lines = out.splitlines()
        assert lines[0] == "NOTLOOP k=1 m=2 q=5"
        assert lines[1].startswith("geometric: NOTLOOP")

    @pytest.mark.parametrize("value", ["5/3", "[2; 1, 3, oo]", "(1+sqrt(3))/2", "sqrt(2)"])
    def test_loopcheck_geometric_outside_the_unit_interval(self, value):
        for n in range(2, 13):
            code, out = run_cli("loopcheck", value, "--mod", str(n), "--geometric")
            verdict, geometric = out.splitlines()
            assert code == 0 and geometric == f"geometric: {verdict}"

    @pytest.mark.parametrize(
        "value, mod",
        [pytest.param("3", 7, id="3"), pytest.param("[2; 1, oo]", 7, id="[2; 1, oo]"), ("7", 6)],
    )
    def test_loopcheck_geometric_on_an_integer(self, value, mod):
        # past the exempt edges (m/1, oo) the only fan is the oo-tail
        # (m*a_0 + 1)/m, whose first hit is m = n
        code, out = run_cli("loopcheck", value, "--mod", str(mod), "--geometric")
        verdict, geometric = out.splitlines()
        assert code == 0 and verdict == f"NOTLOOP k=0 m={mod} q={mod}"
        assert geometric == f"geometric: {verdict}"

    def test_loopcheck_witness_past_the_int_str_limit(self, int_str_limit):
        # q has 5629 digits, more than Python prints by default
        code, out = run_cli("loopcheck", "sqrt(3)", "--mod", "19683")
        assert (code, out) == (0, "NOTLOOP k=19681 m=2 q_digits=5629\n")

    def test_loop_exists_table(self):
        code, out = run_cli("loop-exists", "--n-range", "2..6")
        assert out.splitlines() == [
            "n=2 loop_exists=0",
            "n=3 loop_exists=0",
            "n=4 loop_exists=1",
            "n=5 loop_exists=1",
            "n=6 loop_exists=1",
        ]

    def test_loop_example(self):
        code, out = run_cli("loop-example", "--mod", "4", "--scale-check", "3")
        lines = out.splitlines()
        assert lines[0] == "[0; 2, oo]"
        assert lines[1] == "verdict=LOOP"
        assert lines[2] == "scale_check k=3 pass=1"

    def test_loop_example_decides_its_loop_once(self, monkeypatch):
        calls = []
        decide = loops.is_infinite_loop

        def counted(e, n, *rest):
            calls.append((e, n))
            return decide(e, n, *rest)

        monkeypatch.setattr(loops, "is_infinite_loop", counted)
        code, out = run_cli("loop-example", "--mod", "1000003")
        assert (code, out) == (0, "[0; 1, 1000000, (1, 999999)]\nverdict=LOOP\n")
        assert calls == [(CFExpansion(0, (1, 1000000), (1, 999999)), 1000003)]

    def test_loop_exists_for_huge_moduli_in_a_fresh_process(self):
        # a fresh process, so that a graph build of about 7e11 states is
        # killed at the timeout instead of running on in the test process
        start = time.perf_counter()
        run = subprocess.run(
            [sys.executable, "-m", "fareyloops.cli", "loop-exists", "--n-range", "1000000..1000002"],
            capture_output=True, text=True, timeout=10,
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
        )
        assert time.perf_counter() - start < 1
        assert run.returncode == 0
        assert run.stdout.splitlines() == [f"n={n} loop_exists=1" for n in range(1000000, 1000003)]

    @pytest.mark.parametrize("mod", ["1000000000", "12157665459056928801"])
    def test_gamma_path_at_huge_moduli_in_a_fresh_process(self, mod):
        # a fresh process, so that a regeneration test linear in n is killed
        # at the timeout instead of running on in the test process; no
        # --denoms, whose residue table is itself linear in n
        start = time.perf_counter()
        run = subprocess.run(
            [sys.executable, "-m", "fareyloops.cli", "gamma-path", "--mod", mod, "--max-iter", "3"],
            capture_output=True, text=True, timeout=10,
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
        )
        assert time.perf_counter() - start < 1
        assert run.returncode == 0
        assert run.stdout.splitlines()[-1] == "exceeded max_iter=3 (nonterminating=1)"

    def test_semiconv_reads_each_fan_once_in_a_fresh_process(self):
        # a fresh process, so that a table rebuilt from scratch at every
        # vertex (O(k^2) convergent steps) is killed at the timeout
        value = "[0; " + ", ".join(["1"] * 3000 + ["2"]) + "]"
        start = time.perf_counter()
        run = subprocess.run(
            [sys.executable, "-m", "fareyloops.cli", "semiconv", value],
            capture_output=True, text=True, timeout=30,
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
        )
        assert time.perf_counter() - start < 2
        assert run.returncode == 0
        lines = run.stdout.splitlines()
        assert len(lines) == 2 * 3000 + 3
        assert lines[0] == "k=0 m=0 value=1/0 pivot=0/1"
        assert lines[-1].startswith("k=3000 m=2 value=")

    def test_semiconv_depth_caps_a_finite_table(self, tmp_path):
        full = run_cli("semiconv", "3/7")[1].splitlines()
        assert [line.split()[0] for line in full] == ["k=0"] * 3 + ["k=1"] * 4
        for depth, count in ((1, 3), (2, 7), (3, 7)):
            assert run_cli("semiconv", "3/7", "--depth", str(depth))[1].splitlines() == full[:count]
        cfg = tmp_path / "depth.cfg"
        cfg.write_text("depth = 1\n")
        assert run_cli("--config", str(cfg), "semiconv", "3/7")[1].splitlines() == full[:3]

    def test_semiconv_reads_a_huge_period_surd_only_as_far_as_it_prints(self):
        # a fresh process, so that a full expansion of the period is killed
        # at the timeout instead of running on in the test process
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        value = "sqrt(100000000000000000000000000003)"
        start = time.perf_counter()
        run = subprocess.run(
            [sys.executable, "-m", "fareyloops.cli", "semiconv", value, "--k", "2", "--m", "1"],
            capture_output=True, text=True, timeout=10, env=env,
        )
        assert time.perf_counter() - start < 1
        assert (run.returncode, run.stdout) == (0, "k=2 m=1 value=4743416490252569/15\n")
        run = subprocess.run(
            [sys.executable, "-m", "fareyloops.cli", "semiconv", value],
            capture_output=True, text=True, timeout=10, env=env,
        )
        assert run.returncode == 0
        fans = [line.split()[0] for line in run.stdout.splitlines()]
        assert list(dict.fromkeys(fans)) == [f"k={k}" for k in range(8)]

    @pytest.mark.parametrize("N", [2, 94, 10007, 100000000000000000000000000003])
    def test_semiconv_of_a_surd_is_that_of_its_first_digits(self, N, monkeypatch):
        # the textbook (m, d, a) recurrence for sqrt(N), sharing no code with QuadSurd
        a0 = math.isqrt(N)
        digits, m, d, a = [a0], 0, 1, a0
        while len(digits) < 12:
            m = d * a - m
            d = (N - m * m) // d
            a = (a0 + m) // d
            digits.append(a)
        read, steps = [], QuadSurd.steps

        def counted(s):  # the digits read, PERIOD markers excluded
            for x in steps(s):
                if x is not PERIOD:
                    read.append(x)
                yield x

        monkeypatch.setattr(QuadSurd, "steps", counted)

        def prefix(depth):
            return "[" + str(a0) + "; " + ", ".join(map(str, digits[1:depth + 1])) + "]"

        for depth in (None, 1, 3, 11):
            flags = ("--depth", str(depth)) if depth else ()
            read.clear()
            assert run_cli("semiconv", f"sqrt({N})", *flags) == run_cli("semiconv", prefix(depth or 8), *flags)
            assert len(read) == (depth or 8) + 1
        for k, m in ((0, 1), (2, 1), (5, digits[6]), (9, 0)):
            read.clear()
            got = run_cli("semiconv", f"sqrt({N})", "--k", str(k), "--m", str(m))
            assert got == run_cli("semiconv", prefix(k + 1), "--k", str(k), "--m", str(m))
            assert len(read) == k + 2

    def test_gamma_path_vertices_mod_two(self):
        code, out = run_cli("gamma-path", "--mod", "2", "--max-iter", "10")
        assert out.splitlines() == [
            "V_0 = {0/1,1/1}",
            "V_1 = {0/1,1/2,1/1}",
            "terminated after 1 rounds",
        ]

    def test_gamma_path_denominators_mod_five(self):
        code, out = run_cli("gamma-path", "--mod", "5", "--denoms", "--max-iter", "5")
        assert "D_5 = {1,0,4,1,2,0,3,0,2,0,3,0,2,1,4,0,1}" in out.splitlines()

    def test_cutseq(self):
        code, out = run_cli("cutseq", "3/7", "--mod", "5")
        lines = out.splitlines()
        assert lines[0] == "word: R^2 L^3"
        assert lines[1] == "0/1 -- 1/0"
        assert any(line.startswith("walk:") for line in lines)

    @pytest.mark.parametrize("value, depth", [
        ("7/3", None), ("17/5", "9"), ("sqrt(7)", "4"), ("sqrt(7)", "15"), ("[3; 1, (2, 5)]", "10"),
    ])
    def test_cutseq_walks_from_the_leading_term(self, value, depth):
        argv = ["cutseq", value, "--mod", "5"] + (["--depth", depth] if depth else [])
        code, out = run_cli(*argv)
        assert code == 0
        lines = out.splitlines()
        word = [l for l, c in re.findall(r"([LR])(?:\^(\d+))?", lines[0][len("word: "):])
                for _ in range(int(c or 1))]
        walk = [step.split(":") for step in lines[-1][len("walk: "):].split()]
        assert len(walk) == int(depth or 12)
        # the word of a rational ends on the value, while its walk runs on
        # down the oo-tail
        assert [l for l, _ in walk][: len(word)] == word[: len(walk)]
        parsed = parse_value(value)
        e = cf_of_surd(parsed) if isinstance(parsed, QuadSurd) else cli.expansions_of(parsed)[0]
        dens = [1] * e.a0  # the leading-term fan: m*q_{-1} + q_{-2} = 1
        for k in itertools.count():
            if len(dens) >= len(walk):
                break
            tail = e.is_finite and k == e.last_index
            run = range(1, len(walk) + 1) if tail else range(1, e.entry(k + 1) + 1)
            dens.extend(contfrac.semiconvergent(e, k, m).den for m in run)
        assert [int(r) for _, r in walk] == [q % 5 for q in dens[: len(walk)]]

    def test_spectrum_with_persistence(self):
        code, out = run_cli("spectrum", "(-1+sqrt(5))/2", "-p", "2", "-L", "1",
                            "--persistence", "3")
        assert out.splitlines() == ["l=0 B=1", "l=1 B=4", "m=1 l=0", "m=2 l=0", "m=3 l=0"]

    def test_spectrum_of_an_oo_tail_builds_no_scaled_expansion(self, monkeypatch):
        calls = []

        def counted(*args, _fn=contfrac.multiply_cf):
            calls.append(args)
            return _fn(*args)

        monkeypatch.setattr(heights, "multiply_cf", counted)
        for L in (0, 5):
            code, out = run_cli("spectrum", "3/7", "-p", "2", "-L", str(L))
            assert (code, out.splitlines()) == (0, [f"l={ell} B=oo" for ell in range(L + 1)])
        assert calls == []
        # a finite expansion without the tail is still scaled at every level after 0
        code, out = run_cli("spectrum", "[0; 3]", "-p", "2", "-L", "2")
        assert (code, out.splitlines()) == (0, ["l=0 B=3", "l=1 B=2", "l=2 B=3"])
        assert len(calls) == 2

    def test_mp_bound(self):
        code, out = run_cli("mp-bound", "sqrt(2)", "-p", "2", "-L", "1")
        assert out.splitlines()[0] == "upper=1/4"
        assert "(not a bound)" in out.splitlines()[1]

    def test_mp_bound_reads_one_spectrum(self, monkeypatch):
        calls = []

        def counted(*args, _fn=heights.height_spectrum):
            calls.append(args)
            return _fn(*args)

        monkeypatch.setattr(heights, "height_spectrum", counted)
        code, out = run_cli("mp-bound", "(-1+sqrt(5))/2", "-p", "2", "-L", "2")
        assert out.splitlines() == ["upper=1/8", "partial_lower_min=1/10 (not a bound)"]
        assert len(calls) == 1

    def test_loopcheck_decides_a_surd_without_expanding_it(self, monkeypatch):
        def no_expansion(value):
            raise AssertionError("loopcheck expanded the surd")

        monkeypatch.setattr(cli, "cf_of_surd", no_expansion)
        d = 10**49 + 3
        code, out = run_cli("loopcheck", f"sqrt({d})", "--mod", "7919")
        assert code == 0
        assert out.strip() == is_infinite_loop(QuadSurd(0, 1, d), 7919).record()

    @pytest.mark.parametrize("argv, first_line", [
        (("spectrum", "sqrt(2)", "-p", "2", "-L", "0"), "l=0 B=2"),
        (("mp-bound", "sqrt(2)", "-p", "2", "-L", "0"), "upper=1/2"),
        (("verify", "count-height", "--count", "3", "-L", "0"), "check=count-height L=0 "),
    ])
    def test_zero_scale_range_is_accepted(self, argv, first_line):
        code, out = run_cli(*argv)
        assert code == 0 and out.startswith(first_line)

    def test_parse_error_exit_code(self):
        code, _ = run_cli("cf", "1/0")
        assert code == 2


def cutseq_of_full_expansion(s, depth, mod):
    """(exit code, output) of cutseq on s, built from its whole expansion."""
    e = cf_of_surd(s)
    try:
        walk = sb_walk(e, mod, depth) if mod else None
    except ValueError:
        return 2, ""
    lines = [f"word: {eta_inverse(e, depth)}", *map(str, crossed_edges(e, depth))]
    if walk is not None:
        lines.append("walk: " + " ".join(f"{l}:{r}" for l, r in walk))
    return 0, "".join(line + "\n" for line in lines)


HUGE_PERIOD = "sqrt(100000000000000000000000000003)/400000000000000"


class TestCutseqPrefix:
    def test_prefix_matches_the_full_expansion(self, capsys):
        rng = random.Random(17)
        seen = set()
        cases = 0
        while cases < 200:
            P, Q, t = rng.randint(-60, 60), rng.choice([-1, 1]) * rng.randint(1, 40), rng.randint(-200, 5000)
            D = P * P + Q * t
            if D <= 0 or math.isqrt(D) ** 2 == D or not QuadSurd(P, Q, D).is_positive():
                continue
            s = QuadSurd(P, Q, D)
            if rng.random() < 0.5:
                s = s.shifted(-s.floor())
            e = cf_of_surd(s)
            depth = rng.randint(1, 3 * (len(e.body) + len(e.period)) + 2)
            mod = rng.choice([None, rng.randint(2, 30)])
            argv = ["cutseq", f"({s.P}+sqrt({s.D}))/{s.Q}", "--depth", str(depth)]
            if mod:
                argv += ["--mod", str(mod)]
            assert run_cli(*argv) == cutseq_of_full_expansion(s, depth, mod), argv
            seen.add((e.a0 == 0, mod is None, depth > len(e.body) + len(e.period)))
            cases += 1
        capsys.readouterr()
        assert len(seen) == 8

    def test_cutseq_on_a_surd_never_expands_or_rebuilds_it(self, monkeypatch):
        calls = []
        for module, name in ((cli, "cf_of_surd"), (contfrac, "cf_of_surd"), (contfrac, "cf_value")):
            def counted(*args, _fn=getattr(module, name), _name=name):
                calls.append(_name)
                return _fn(*args)
            monkeypatch.setattr(module, name, counted)
        for argv in (("cutseq", "sqrt(2)"), ("cutseq", "(-1+sqrt(5))/2", "--mod", "5"),
                     ("cutseq", "(2+sqrt(4000432))/6", "--depth", "200")):
            assert run_cli(*argv)[0] == 0
        assert calls == []
        # an expansion on input is still turned into its value for the check
        assert run_cli("cutseq", "[0; (1, 2)]", "--mod", "5")[0] == 0
        assert calls == ["cf_value"]

    def test_huge_period_answers_at_once(self):
        # a fresh process, so that a full expansion of the period is killed
        # at the timeout instead of running on in the test process
        start = time.perf_counter()
        run = subprocess.run(
            [sys.executable, "-m", "fareyloops.cli", "cutseq", HUGE_PERIOD, "--depth", "5", "--mod", "7"],
            capture_output=True, text=True, timeout=10,
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
        )
        assert time.perf_counter() - start < 1
        assert run.returncode == 0
        assert run.stdout.splitlines()[-1].startswith("walk: ")

    def test_zero_has_no_ray(self, capsys):
        code, out = run_cli("cutseq", "0")
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == "error: the ray needs a positive endpoint\n"

    def test_nonpositive_surd_is_rejected(self, capsys):
        code, out = run_cli("cutseq", "(-5+sqrt(5))/2")
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == "error: expansion requires a positive value\n"


class TestInputErrors:
    @pytest.mark.parametrize("argv", [
        ("verify", "noloop", "--count", "0"),
        ("verify", "noloop", "--count", "-5"),
        ("verify", "noloop", "--count", "many"),
        ("verify", "defs-equivalence", "--q-max", "-3"),
        ("loop-example", "--mod", "4", "--scale-check", "0"),
        ("cutseq", "3/7", "--mod", "5", "--depth", "0"),
        ("cutseq", "3/7", "--mod", "0"),
        ("semiconv", "sqrt(2)", "--depth", "0"),
        ("cutseq", "sqrt(2)", "--depth", "-2"),
        ("cf", "sqrt(2)", "--times", "0"),
        ("cf", "sqrt(2)", "--times", "-3"),
        ("spectrum", "sqrt(2)", "-p", "2", "-L", "2", "--persistence", "0"),
        ("verify", "count-height", "--count", "1", "-L", "-2"),
        ("spectrum", "sqrt(2)", "-p", "2", "-L", "-1"),
        ("mp-bound", "sqrt(2)", "-p", "2", "-L", "-1"),
        ("cf", "sqrt(2)", "--times", "\u00b2"),
        ("mp-bound", "sqrt(2)", "-p", "2", "-L", "\u00b2"),
    ])
    def test_bad_scan_size_is_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2
        assert f"got {argv[-1]!r}" in capsys.readouterr().err

    def test_loopcheck_has_no_depth_option(self, capsys):
        # both routes are exact on every value loopcheck parses, so no depth is asked for
        with pytest.raises(SystemExit) as exc:
            run_cli("loopcheck", "sqrt(2)", "--mod", "5", "--depth", "0")
        assert exc.value.code == 2
        assert "unrecognized arguments: --depth 0" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["3/7", "sqrt(2)"])
    def test_mp_bound_rejects_a_p_that_is_not_prime(self, value, capsys):
        code, out = run_cli("mp-bound", value, "-p", "4", "-L", "1")
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == "error: 4 is not prime\n"

    def test_cutseq_modulus_one_is_rejected(self, capsys):
        code, out = run_cli("cutseq", "3/7", "--mod", "1")
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == "error: modulus must be >= 2, got 1\n"

    @pytest.mark.parametrize("flag", [("--k", "1"), ("--m", "1"), ("--k", "-1")])
    def test_semiconv_needs_both_k_and_m(self, flag, capsys):
        code, out = run_cli("semiconv", "3/7", *flag)
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == "error: --k and --m must be given together\n"

    @pytest.mark.parametrize("value", ["5", "0", "[3]"])
    def test_semiconv_of_an_integer_points_to_k_and_m(self, value, capsys):
        code, out = run_cli("semiconv", value)
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == (
            f"error: {value} has no interior fan to list; name a vertex with --k and --m\n"
        )

    def test_defs_equivalence_needs_a_denominator_of_two_or_more(self, tmp_path, capsys):
        # q_max = 1 leaves no rational in (0, 1) to check, by flag or by --config
        cfg = tmp_path / "scan.cfg"
        cfg.write_text("q_max = 1\n")
        for argv, prefix in ((("verify", "defs-equivalence", "--q-max", "1"), ""),
                             (("--config", str(cfg), "verify", "defs-equivalence"), f"--config {cfg}: ")):
            code, out = run_cli(*argv)
            assert (code, out) == (2, "")
            assert capsys.readouterr().err == f"error: {prefix}q_max must be >= 2\n"

    def test_failing_persistence_scan_prints_nothing(self, capsys):
        code, out = run_cli("spectrum", "0", "-p", "2", "-L", "1", "--persistence", "1")
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == "error: loop decisions require a positive value\n"

    @pytest.mark.parametrize("n_range", ["-3..-2", "0..2", "1..1"])
    def test_pro2_rejects_moduli_below_two(self, n_range):
        # a fresh process, so that planting against n < 0, which never ends,
        # is killed at the timeout instead of running on in the test process
        run = subprocess.run(
            [sys.executable, "-m", "fareyloops.cli", "verify", "pro2", f"--n-range={n_range}", "--count", "2"],
            capture_output=True, text=True, timeout=10,
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
        )
        assert (run.returncode, run.stdout, run.stderr) == (2, "", "error: modulus must be >= 2\n")

    @pytest.mark.parametrize("argv", [
        ("loop-exists", "--n-range", "5..3"),
        ("verify", "noloop", "--n-range", "5..3"),
    ])
    def test_empty_range_is_rejected(self, argv, capsys):
        code, out = run_cli(*argv)
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == "error: range '5..3' is empty\n"

    @pytest.mark.parametrize("text", ["2..3.5", "..5", "3.."])
    def test_range_bound_that_is_not_an_integer(self, text, capsys):
        code, out = run_cli("loop-exists", "--n-range", text)
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == f"error: range must look like a..b, got {text!r}\n"


    def test_large_prime_p_is_decided_in_a_fresh_process(self):
        # a fresh process, so that trial division up to sqrt(p), about 1e9
        # steps, is killed at the timeout instead of running on in the test process
        run = subprocess.run(
            [sys.executable, "-m", "fareyloops.cli", "spectrum", "sqrt(2)", "-p", "1000000000000000003", "-L", "0"],
            capture_output=True, text=True, timeout=10,
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
        )
        assert (run.returncode, run.stdout, run.stderr) == (0, "l=0 B=2\n", "")

    def test_p_past_the_miller_rabin_bound_is_rejected(self, capsys):
        # a strong pseudoprime to every base 2..41: no verdict on it is proved
        p = heights._MR_BOUND
        code, out = run_cli("spectrum", "sqrt(2)", "-p", str(p), "-L", "0")
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == (
            f"error: cannot decide whether {p} is prime: bases 2..41 prove it only below {p}\n"
        )

    def test_closed_pipe_exits_one_and_leaves_stderr_empty(self):
        # record output of this scan is far above a pipe's 64 KiB buffer, so
        # a write fails once the reader has closed its end
        proc = subprocess.Popen(
            [sys.executable, "-m", "fareyloops.cli", "--format", "record", "verify", "noloop",
             "--count", "1000", "--seed", "7"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
        )
        assert proc.stdout.readline() == b"check=noloop n=4 pass=1 witness=-\n"
        proc.stdout.close()
        code = proc.wait(timeout=60)  # stderr stays far below a pipe's buffer
        with proc.stderr:
            assert (code, proc.stderr.read()) == (1, b"")

    def test_pipe_closed_before_any_read_exits_one_and_leaves_stderr_empty(self):
        # the few bytes of cf wait in stdout's buffer (PYTHONUNBUFFERED is
        # dropped), so the write that fails is the flush after the handler returns
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        with open(write_end, "wb") as stdout:
            run = subprocess.run(
                [sys.executable, "-m", "fareyloops.cli", "cf", "3/7"],
                stdout=stdout, stderr=subprocess.PIPE, timeout=10,
                env={**env, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
            )
        assert (run.returncode, run.stderr) == (1, b"")

    def test_broken_pipe_on_another_stream_is_raised(self):
        class Closed(io.StringIO):
            def write(self, text):
                raise BrokenPipeError

        with pytest.raises(BrokenPipeError):
            main(["cf", "3/7"], out=Closed())


class TestVerify:
    def test_passing_check_exits_zero(self):
        code, out = run_cli("verify", "noloop", "--n-range", "4..5", "--count", "20",
                            "--seed", "7")
        assert code == 0
        assert "violations=0" in out

    def test_all_checks_run_small(self):
        assert set(SMALL_VERIFY) == set(VERIFY_CHECKS)
        for check, extra in SMALL_VERIFY.items():
            code, out = run_cli("verify", check, "--seed", "3", *extra)
            assert code == 0, (check, out)
            assert "pass=1" in out.splitlines()[-1]

    def test_record_mode_is_reproducible(self):
        args = ("--format", "record", "verify", "noloop", "--n-range", "4..4",
                "--count", "15", "--seed", "11")
        _, first = run_cli(*args)
        _, second = run_cli(*args)
        assert first.splitlines()[:-1] == second.splitlines()[:-1]  # records identical
        assert normalized(first.rsplit("elapsed", 1)[0]) == normalized(
            second.rsplit("elapsed", 1)[0]
        )


class TestConfigAndEnv:
    def test_config_file(self, tmp_path):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text("seed = 11\ncount = 5  # small\nmode = record\n")
        code, out = run_cli("--config", str(cfg), "verify", "noloop", "--n-range", "4..4")
        assert code == 0
        assert any(line.startswith("check=noloop n=4") for line in out.splitlines())

    def test_bad_config_value_is_an_error(self, tmp_path, capsys):
        cfg = tmp_path / "scan.cfg"
        for text, bad in (("count = 0\n", "count=0"), ("q_max = -3\n", "q_max=-3"),
                          ("seed = x\n", "'x'"), ("mode = loud\n", "human or record"),
                          ("depth = 0\n", "depth must be positive, got 0"),
                          ("garbage\n", "garbage")):
            cfg.write_text(text)
            code, out = run_cli("--config", str(cfg), "loop-exists", "--n-range", "2..3")
            assert (code, out) == (2, "")
            err = capsys.readouterr().err
            assert err.startswith(f"error: --config {cfg}: ") and bad in err, err

    def test_missing_config_file_is_an_error(self, tmp_path, capsys):
        code, _ = run_cli("--config", str(tmp_path / "absent.cfg"), "loop-exists",
                          "--n-range", "2..3")
        assert code == 2
        assert capsys.readouterr().err.startswith("error: --config ")

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "scan.cfg"
        for key in ("wibble", "threads"):
            cfg.write_text(f"{key} = 3\n")
            code, out = run_cli("--config", str(cfg), "loop-exists", "--n-range", "2..3")
            assert (code, out) == (2, "")
            assert capsys.readouterr().err == f"error: --config {cfg}: unknown config key {key!r}\n"


def outcome(argv):
    """(exit code, output, error output) of one main() call; argparse errors
    included, with the scan's elapsed wall time blanked out."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code, out = run_cli(*argv)
        except SystemExit as exc:
            code, out = exc.code, ""
    return code, re.sub(r"elapsed=\S+", "elapsed=", out), err.getvalue()


class TestNegativeValues:
    """A value such as -3/7 is read as the positional value, not as an option."""

    def test_cf_of_a_negative_rational_shifted_into_range(self):
        assert run_cli("cf", "-3/7", "--shift", "1") == (0, "[0; 1, 1, 3, oo]\n[0; 1, 1, 2, 1, oo]\n")
        assert run_cli("cf", "--shift", "1", "-3/7") == run_cli("cf", "--shift", "1", "--", "-3/7")
        assert run_cli("cf", "-3", "--shift", "5") == (0, "[2; oo]\n[1; 1, oo]\n")
        assert run_cli("cf", "-3/-7") == run_cli("cf", "3/7")

    @pytest.mark.parametrize("argv", [
        ("loopcheck", "-3/7", "--mod", "5"),
        ("loopcheck", "-3/7", "--mod", "5", "--geometric"),
        ("semiconv", "-3/7"),
        ("cutseq", "-3/7", "--mod", "5"),
        ("spectrum", "-3/7", "-p", "3", "-L", "1"),
        ("mp-bound", "-3/7", "-p", "3", "-L", "1"),
        ("cf", "-3/7"),
    ])
    def test_negative_value_reaches_the_domain_check(self, argv, capsys):
        assert run_cli(*argv) == (2, "")
        assert capsys.readouterr().err == "error: expansion requires x >= 0\n"

    def test_negative_option_values_read_as_before(self, capsys):
        assert run_cli("cf", "--shift", "-2", "7/3") == (0, "[0; 3, oo]\n[0; 2, 1, oo]\n")
        assert run_cli("semiconv", "3/7", "--k", "-1", "--m", "1") == (2, "")
        assert capsys.readouterr().err == "error: semi-convergent index must be >= 0\n"
        with pytest.raises(SystemExit) as exc:
            run_cli("cf", "7/3", "--shift", "-1.5")
        assert exc.value.code == 2
        assert "argument --shift: invalid int value: '-1.5'" in capsys.readouterr().err

    def test_every_subcommand_uses_the_widened_pattern(self):
        # argparse's private pattern, present on every parser in 3.10 and 3.11;
        # if a later argparse drops it, this test names the attribute to replace
        assert hasattr(argparse.ArgumentParser(), "_negative_number_matcher")
        (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        assert set(sub.choices) == set(COMMAND_HANDLERS)
        for name, parser in sub.choices.items():
            matcher = parser._negative_number_matcher
            for text in ("-3/7", "-3", "-3/-7", "-1.5", "-.5"):
                assert matcher.match(text), (name, text)
            for text in ("-3..-2", "-p", "-L", "--mod", "-3/", "-3/7/2"):
                assert not matcher.match(text), (name, text)
            assert not parser._has_negative_number_optionals, name


class TestSharedParser:
    def test_calls_do_not_depend_on_earlier_calls(self, tmp_path, monkeypatch):
        cfg = tmp_path / "shared.cfg"
        cfg.write_text("count = 5\ndepth = 3\n")
        # each call with options set, then the same call without them
        pairs = [
            (("--format", "record", "--config", str(cfg), "verify", "noloop", "--n-range", "4..4",
              "--seed", "7"),
             ("verify", "noloop", "--n-range", "4..4")),
            (("verify", "count-height", "--count", "3", "-L", "2", "--seed", "1"),
             ("verify", "count-height", "--count", "3")),
            (("cf", "sqrt(2)", "--times", "2", "--shift", "1"), ("cf", "sqrt(2)")),
            (("semiconv", "3/7", "--k", "1", "--m", "1"), ("semiconv", "3/7")),
            (("loopcheck", "1/2", "--mod", "5", "--geometric"), ("loopcheck", "1/2", "--mod", "5")),
            (("loop-example", "--mod", "4", "--scale-check", "3"), ("loop-example", "--mod", "4")),
            (("gamma-path", "--mod", "5", "--denoms", "--max-iter", "3"),
             ("gamma-path", "--mod", "5")),
            (("--config", str(cfg), "cutseq", "(1+sqrt(5))/2", "--mod", "5"),
             ("cutseq", "(1+sqrt(5))/2")),
            (("spectrum", "sqrt(2)", "-p", "2", "-L", "2", "--persistence", "2"),
             ("spectrum", "sqrt(2)", "-p", "2", "-L", "2")),
        ]
        calls = [argv for pair in pairs for argv in pair]
        calls[4:4] = [("cf",)]  # an argparse error between two calls
        calls += [("loop-exists", "--n-range", "2..4"), ("mp-bound", "sqrt(2)", "-p", "2", "-L", "1")]
        fresh = {}
        for argv in calls:
            monkeypatch.setattr(cli, "_parser", None)
            fresh[argv] = outcome(argv)
        forward = {argv: outcome(argv) for argv in calls}
        backward = {argv: outcome(argv) for argv in reversed(calls)}
        assert forward == fresh and backward == fresh
        assert forward[("cf",)][0] == 2
        for with_options, without in pairs:
            assert forward[with_options] != forward[without], with_options
        assert build_parser() is build_parser()

    def test_main_builds_no_parser_after_the_first_call(self, monkeypatch):
        argvs = [("cf", "sqrt(2)"), ("loopcheck", "sqrt(3)", "--mod", "7"),
                 ("spectrum", "sqrt(2)", "-p", "2", "-L", "1"), ("loop-exists", "--n-range", "2..3")]
        run_cli(*argvs[0])
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        for i in range(20):
            assert run_cli(*argvs[i % len(argvs)])[0] == 0
        assert built == []


# modules of the package and the public functions no subcommand calls
LAYERS = ("rationals", "surds", "contfrac", "loops", "cutting", "gamma_paths", "heights",
          "sampling", "cli")
NOT_ON_CLI = {"rationals.is_dual_neighbor"}


def executed_code(argvs):
    """Code objects of every Python function called while the argvs run."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(profile)
    try:
        for argv in argvs:
            run_cli(*argv)
    finally:
        sys.setprofile(None)
    return seen


class TestCoverage:
    def test_required_operations_execute(self, tmp_path):
        cfg = tmp_path / "smoke.cfg"
        cfg.write_text("seed = 1\n")
        smoke = [
            ("cf", "3/7", "--shift", "1"),
            ("cf", "sqrt(2)", "--times", "2"),
            ("cf", "[1; 2, (3)]"),
            ("semiconv", "3/7"),
            ("loopcheck", "1/2", "--mod", "5", "--geometric"),
            ("loopcheck", "sqrt(2)", "--mod", "5"),
            ("loop-exists", "--n-range", "2..5"),
            ("loop-example", "--mod", "9", "--scale-check", "3"),
            ("gamma-path", "--mod", "5", "--max-iter", "4"),
            ("gamma-path", "--mod", "3", "--max-iter", "4"),
            ("gamma-path", "--mod", "5", "--denoms", "--max-iter", "5"),
            ("cutseq", "3/7", "--mod", "5"),
            ("spectrum", "sqrt(2)", "-p", "2", "-L", "2", "--persistence", "2"),
            ("mp-bound", "sqrt(2)", "-p", "2", "-L", "1"),
        ]
        smoke += [("--config", str(cfg), "verify", check, *extra)
                  for check, extra in SMALL_VERIFY.items()]
        parser = build_parser()
        assert {parser.parse_args(argv).command for argv in smoke} == set(COMMAND_HANDLERS)
        executed = executed_code(smoke)
        required = {}
        for layer in LAYERS:
            module = importlib.import_module(f"fareyloops.{layer}")
            for name, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not name.startswith("_")):
                    required[f"{layer}.{name}"] = fn.__code__
        assert NOT_ON_CLI <= set(required)
        missing = {name for name, code in required.items() if code not in executed}
        assert missing == NOT_ON_CLI, f"operations no subcommand runs: {missing - NOT_ON_CLI}"

    def test_commands_leave_dataclasses_and_inspect_unimported(self):
        # a fresh interpreter, so that the test process's own imports do not count
        calls = [
            ["cf", "3/5", "--times", "3"],
            ["semiconv", "3/7"],
            ["loopcheck", "sqrt(2)", "--mod", "5", "--geometric"],
            ["loop-exists", "--n-range", "2..5"],
            ["loop-example", "--mod", "9"],
            ["gamma-path", "--mod", "5", "--max-iter", "4"],
            ["cutseq", "3/7", "--mod", "5"],
            ["spectrum", "sqrt(2)", "-p", "2", "-L", "2", "--persistence", "2"],
            ["mp-bound", "sqrt(2)", "-p", "2", "-L", "1"],
            ["--format", "record", "verify", "noloop", "--n-range", "4..5", "--count", "5"],
        ]
        assert {build_parser().parse_args(argv).command for argv in calls} == set(COMMAND_HANDLERS)
        loaded = modules_after(calls)
        assert not {"dataclasses", "inspect", "fractions", "decimal", "numbers"} & loaded

    def test_each_command_loads_only_the_layers_it_calls(self):
        def layers_after(*calls):
            return {m for m in modules_after(calls) if m.startswith("fareyloops.")}

        graph = layers_after(
            ["loop-exists", "--n-range", "2..5"],
            ["loop-example", "--mod", "9", "--scale-check", "2"],
            ["gamma-path", "--mod", "5", "--max-iter", "4"],
            ["gamma-path", "--mod", "5", "--denoms", "--max-iter", "4"],
        )
        assert "fareyloops.loops" in graph and "fareyloops.gamma_paths" in graph
        assert not {"fareyloops.heights", "fareyloops.cutting", "fareyloops.sampling"} & graph
        assert "fareyloops.cutting" not in layers_after(["loopcheck", "sqrt(2)", "--mod", "5"])
        assert "fareyloops.cutting" in layers_after(["loopcheck", "sqrt(2)", "--mod", "5", "--geometric"])

    def test_parser_knows_every_command(self):
        parser = build_parser()
        text = parser.format_help()
        for command in COMMAND_HANDLERS:
            assert command in text
