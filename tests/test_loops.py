import itertools
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
import types
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fareyloops import contfrac, cutting, heights, loops, surds
from fareyloops.contfrac import CFExpansion, cf_from_rational, cf_of_surd, cf_value, semiconvergent, twin_of
from fareyloops.loops import (
    LOOP,
    NOTLOOP,
    LoopVerdict,
    ModState,
    _decimal_digits,
    _steps,
    is_infinite_loop,
    loop_example,
    loop_exists,
    loop_graph,
    loop_scaling_check,
    sb_walk,
    successors,
)
from fareyloops.rationals import Rational
from fareyloops.sampling import random_finite_cf, random_periodic_cf
from fareyloops.surds import QuadSurd
from reference_decider import _fan_hit, _find_cycle, _scan_cycle

GOLDEN_CONJ = CFExpansion(0, (), (1,))
HALF = cf_from_rational(Rational(1, 2))[0]


def brute_rational_verdict(x: Rational, n: int) -> bool:
    """Independent enumeration straight from the definition: all interior
    semi-convergent denominators of both expansions, plus both oo-tail
    progressions over a full residue cycle.  True means loop."""
    for e in cf_from_rational(x):
        entries = [e.a0, *e.body]
        q_prev, q = 0, 1
        dens = []
        for idx in range(1, len(entries)):
            a = entries[idx]
            dens.extend(m * q + q_prev for m in range(a + 1))
            q_prev, q = q, a * q + q_prev
        dens.extend(m * q + q_prev for m in range(1, n + 1))  # tail cycle
        if any(d % n == 0 for d in dens if d != 0):
            return False
    return True


class TestVerdictRecord:
    def test_records(self):
        assert LoopVerdict.loop().record() == "LOOP"
        v = LoopVerdict.not_loop(1, 2, Rational(2, 5))
        assert v.record() == "NOTLOOP k=1 m=2 q=5"

    def test_decimal_digits(self):
        for d in range(1, 400):
            for q in (10 ** (d - 1), 10 ** (d - 1) + 1, 2 * 10 ** (d - 1), 10**d - 1):
                assert _decimal_digits(q) == d, q
        rng = random.Random(16)
        for _ in range(200):
            q = rng.randrange(1, 10**300)
            assert _decimal_digits(q) == len(str(q))

    def test_den_printed_in_full_up_to_the_limit(self, int_str_limit):
        widest = 10**int_str_limit - 1
        v = LoopVerdict.not_loop(0, 1, Rational(1, widest))
        assert v.record() == f"NOTLOOP k=0 m=1 q={widest}"

    def test_den_past_the_limit_gives_its_digit_count(self, int_str_limit):
        for q, digits in ((10**int_str_limit, 4301), (7 * 10**9000 + 3, 9001)):
            v = LoopVerdict.not_loop(2, 3, Rational(1, q))
            assert v.record() == f"NOTLOOP k=2 m=3 q_digits={digits}"

    def test_no_limit_prints_in_full(self, int_str_limit, monkeypatch):
        q = 10**5000 + 1
        sys.set_int_max_str_digits(0)
        assert LoopVerdict.not_loop(0, 1, Rational(1, q)).record() == f"NOTLOOP k=0 m=1 q={q}"
        monkeypatch.delattr(sys, "get_int_max_str_digits")
        assert LoopVerdict.not_loop(0, 1, Rational(1, q)).record() == f"NOTLOOP k=0 m=1 q={q}"

    def test_sqrt3_mod_3_to_the_9th(self):
        v = is_infinite_loop(QuadSurd(0, 1, 3), 19683)
        q = v.witness.den
        assert q % 19683 == 0 and _decimal_digits(q) == 5629


def _rational_expansions() -> list[tuple[CFExpansion, CFExpansion]]:
    """(Euclid's form, twin) with the oo-tail for every reduced p/q < 3, q < 40."""
    return [cf_from_rational(Rational(p, q)) for q in range(2, 40) for p in range(1, 3 * q) if math.gcd(p, q) == 1]


def finite_prefix(e: CFExpansion, last: int) -> CFExpansion:
    """[a_0; a_1, ..., a_last] of e, without the oo-tail."""
    return CFExpansion(e.a0, tuple(itertools.islice(e.digits(), 1, last + 1)))


def _seeded_population(seed: int, count: int) -> list[CFExpansion]:
    rng = random.Random(seed)
    return [random_periodic_cf(rng) for _ in range(count)]


class TestLazyWitness:
    def test_kind_readers_build_no_witness(self, monkeypatch):
        calls = {"semiconvergent": 0, "convergent_pair": 0}
        for name in calls:
            original = getattr(contfrac, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            for module in (contfrac, loops, cutting, heights):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        kinds = set()
        for e in _seeded_population(21, 60):
            for n in range(2, 13):
                heights.check_noloop_bound(e, n)
                kinds.add(is_infinite_loop(e, n).kind)
            for p, m in ((2, 2), (3, 1), (5, 1)):
                heights.check_infl(e, p, m)
            heights.check_count_height(e, 2, 2, 3)
            heights.persistence_scan(e, 3, 3, 2)
        assert kinds == {LOOP, NOTLOOP}
        assert calls == {"semiconvergent": 0, "convergent_pair": 0}

    def test_witness_equals_eager_semiconvergent(self):
        notloops = 0
        for e in _seeded_population(22, 150):
            for n in (2, 3, 4, 5, 7, 9, 12):
                exact = is_infinite_loop(e, n)
                if exact.kind != NOTLOOP:
                    continue
                notloops += 1
                eager = semiconvergent(e, exact.witness_k, exact.witness_m)
                assert eager.den % n == 0
                surd = is_infinite_loop(cf_value(e), n)
                # the finite prefix [a_0; ..., a_{k+1}] ends with the witness fan
                prefix = is_infinite_loop(finite_prefix(e, exact.witness_k + 1), n)
                for v in (exact, surd, prefix):
                    assert (v.witness_k, v.witness_m) == (exact.witness_k, exact.witness_m)
                    assert v.witness == eager
                assert surd == exact == prefix
        assert notloops > 300

    def test_rational_kind_builds_no_rational(self, monkeypatch):
        cases = [e for pair in _rational_expansions() for e in pair]
        built = []
        init = Rational.__init__

        def counted(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(Rational, "__init__", counted)
        notloops = 0
        for e in cases:
            for n in (2, 3, 5, 6, 12):
                notloops += is_infinite_loop(e, n).kind == NOTLOOP
        assert notloops > 1000
        assert built == []

    def test_rational_witness_is_euclids_semiconvergent(self):
        notloops = 0
        for euclid, twin in _rational_expansions():
            for n in (2, 3, 4, 5, 7, 12, 30):
                v = is_infinite_loop(twin, n)
                assert v == is_infinite_loop(euclid, n)
                if v.kind != NOTLOOP:
                    continue
                notloops += 1
                assert v.witness == semiconvergent(euclid, v.witness_k, v.witness_m)
                assert v.witness.den % n == 0
        assert notloops > 1000

    def test_equal_verdicts_name_the_same_witness(self):
        # the golden ratio and its conjugate share denominators, so their
        # verdicts hit the same fan (k, m) with witnesses one apart
        conj = is_infinite_loop(GOLDEN_CONJ, 7)
        golden = is_infinite_loop(CFExpansion(1, (), (1,)), 7)
        assert (conj.kind, conj.witness_k, conj.witness_m) == (golden.kind, golden.witness_k, golden.witness_m)
        assert conj != golden
        ready = LoopVerdict.not_loop(conj.witness_k, conj.witness_m, conj.witness)
        assert is_infinite_loop(GOLDEN_CONJ, 7) == ready
        assert hash(is_infinite_loop(GOLDEN_CONJ, 7)) == hash(ready)
        assert LoopVerdict.loop() == LoopVerdict.loop() != LoopVerdict.not_loop(0, 3, Rational(1, 3))

    def test_verdicts_are_immutable(self):
        v = is_infinite_loop(GOLDEN_CONJ, 5)
        with pytest.raises(AttributeError):
            v.kind = LOOP

    def test_sqrt3_first_hit_law(self):
        # for sqrt(3) mod 3^m the first fan hit is always {3^m - 2, 2}
        for m in range(1, 11):
            v = is_infinite_loop(QuadSurd(0, 1, 3), 3**m)
            assert (v.kind, v.witness_k, v.witness_m) == (NOTLOOP, 3**m - 2, 2), m

    def test_sqrt2_first_hit_law(self):
        # for sqrt(2) mod 2^m the first fan hit is always {2^m - 2, 2}, on
        # both routes, whether the value comes as a surd or as [1; (2)]
        sqrt2 = QuadSurd(0, 1, 2)
        for value in (sqrt2, cf_of_surd(sqrt2)):
            for decide in (is_infinite_loop, cutting.loop_verdict_geometric):
                for m in range(1, 17):
                    v = decide(value, 2**m)
                    assert (v.kind, v.witness_k, v.witness_m) == (NOTLOOP, 2**m - 2, 2), (value, decide, m)


class TestRationalDecisions:
    def test_half_examples(self):
        assert is_infinite_loop(HALF, 4).kind == LOOP
        v = is_infinite_loop(HALF, 5)
        assert v.kind == NOTLOOP
        assert v.witness.den == 5
        assert v.witness_m == 2  # tail progression 2m + 1 hits 5 at m = 2

    def test_twin_gives_same_verdict(self):
        canonical, twin = cf_from_rational(Rational(1, 2))
        for n in range(2, 13):
            assert is_infinite_loop(canonical, n).kind == is_infinite_loop(twin, n).kind

    def test_integer_never_loops(self):
        two = cf_from_rational(Rational(2))[0]
        for n in range(2, 9):
            assert is_infinite_loop(two, n).kind == NOTLOOP

    def test_rejects_zero_and_small_modulus(self):
        zero = cf_from_rational(Rational(0))[0]
        with pytest.raises(ValueError):
            is_infinite_loop(zero, 4)
        with pytest.raises(ValueError):
            is_infinite_loop(HALF, 1)

    def test_against_brute_enumeration(self):
        rng = random.Random(11)
        for _ in range(250):
            q = rng.randint(2, 80)
            p = rng.randint(1, q - 1)
            x = Rational(p, q)
            e = cf_from_rational(x)[0]
            for n in (2, 3, 4, 5, 6, 7, 9, 12):
                assert is_infinite_loop(e, n).is_loop == brute_rational_verdict(x, n)

    def test_flag_off_checks_only_own_fans(self):
        # without the tail, [0; 2] has interior denominators {0, 1, 2} only
        bare = CFExpansion(0, (2,))
        assert is_infinite_loop(bare, 5).kind == LOOP
        assert is_infinite_loop(CFExpansion(0, (2,), None, True), 5).kind == NOTLOOP


class TestPeriodicDecisions:
    def test_golden_conjugate_never_loops(self):
        # denominators are the Fibonacci numbers; Fibonacci mod n always hits 0
        for n in range(2, 40):
            v = is_infinite_loop(GOLDEN_CONJ, n)
            assert v.kind == NOTLOOP
            fibs = [0, 1]
            while fibs[-1] % n or len(fibs) < 3:
                fibs.append(fibs[-1] + fibs[-2])
            assert v.witness.den == fibs[-1]

    def test_surd_input_agrees_with_expansion_input(self):
        rng = random.Random(12)
        for _ in range(80):
            e = random_periodic_cf(rng)
            s = cf_value(e)
            for n in (2, 3, 4, 5, 9):
                assert is_infinite_loop(s, n).record() == is_infinite_loop(e, n).record()
        roots = list(range(2, 200)) + [rng.randint(200, 10**7) for _ in range(40)]
        for d in roots:
            if math.isqrt(d) ** 2 == d:
                continue
            s = QuadSurd(0, 1, d)
            e = cf_of_surd(s)
            for n in (2, 3, 4, 5, 7, 9, 12):
                assert is_infinite_loop(s, n).record() == is_infinite_loop(e, n).record(), (d, n)

    def test_periodic_agrees_with_deep_stream(self):
        # a finite prefix [a_0; ..., a_{k+1}] scans fans 0..k of e and no more:
        # through the witness fan of a NOTLOOP it gives that verdict, and
        # 10,000 terms deep it is LOOP wherever e is
        rng = random.Random(13)
        loops = 0
        for _ in range(1000):
            e = random_periodic_cf(rng)
            n = rng.randint(2, 12)
            exact = is_infinite_loop(e, n)
            last = exact.witness_k + 1 if exact.kind == NOTLOOP else 10_000
            prefix = is_infinite_loop(finite_prefix(e, last), n)
            assert prefix == exact, (e, n)  # equal verdicts name the same witness
            loops += exact.is_loop
        assert loops > 0


FROZEN_SCAN_MODULI = (2, 3, 5, 7, 97, 101, 997, 4, 8, 9, 25, 27, 49, 128, 243, 625, 6, 12, 30, 36, 210)


def assert_matches_frozen_scan(x, n: int) -> LoopVerdict:
    """`is_infinite_loop(x, n)` equals the frozen scan of `reference_decider`
    run on fresh steps of x, field by field, in its record and in its
    witness."""
    got = is_infinite_loop(x, n)
    steps, source = _steps(x)
    want = _scan_cycle(steps, n, source)
    assert got._fields() == want._fields(), (x, n, got, want)
    assert got.record() == want.record(), (x, n)
    assert got.witness == want.witness, (x, n)
    return got


class TestInlineFanSolve:
    """The scan solves fan 0 in closed form and each later fan inline; the
    frozen scan it replaced, one `_fan_hit` per fan, is the oracle."""

    @staticmethod
    def moduli(rng: random.Random) -> list[int]:
        return [*FROZEN_SCAN_MODULI, rng.randint(2, 1000)]

    def test_periodic_with_quotients_past_the_modulus(self):
        rng = random.Random(31)
        fan0_hits = shared_factor_fans = 0
        for _ in range(300):
            e = random_periodic_cf(rng, max_pre=3, max_period=4, max_entry=300, a0_max=3)
            for n in self.moduli(rng):
                v = assert_matches_frozen_scan(e, n)
                if v.kind == NOTLOOP and v.witness_k == 0:
                    fan0_hits += 1
                    assert v.witness_m == n and e.entry(1) >= n
                elif math.gcd(e.entry(1), n) > 1:
                    # fan 1 solves over (q_0, q_1) = (1, a_1): coprime, so a
                    # shared factor of q_1 and n leaves it without a root
                    assert v.kind == LOOP or v.witness_k >= 2
                    shared_factor_fans += 1
        assert fan0_hits > 100 and shared_factor_fans > 100

    def test_finite_with_and_without_the_tail(self):
        rng = random.Random(32)
        kinds = set()
        for i in range(1200):
            e = random_finite_cf(rng, min_len=0, max_len=6, max_entry=300, inf_tail=i % 2 == 0)
            if i % 3 == 0 and e.body:  # a twin: Euclid's form with its last entry split off as 1
                e = CFExpansion(e.a0, (*e.body[:-1], e.body[-1] - 1, 1), None, e.inf_tail)
            if not (e.a0 or e.body):
                continue
            for n in (*FROZEN_SCAN_MODULI[::3], rng.randint(2, 1000)):
                kinds.add((assert_matches_frozen_scan(e, n).kind, e.inf_tail))
        assert kinds == {(LOOP, False), (NOTLOOP, False), (LOOP, True), (NOTLOOP, True)}

    @pytest.mark.parametrize("text, n, record", [
        ("[3; oo]", 4, "NOTLOOP k=0 m=4 q=4"),
        ("[3; oo]", 2, "NOTLOOP k=0 m=2 q=2"),
        ("[3]", 4, "LOOP"),
        ("[0; 1, oo]", 2, "NOTLOOP k=0 m=2 q=2"),
        ("[0; 5]", 5, "NOTLOOP k=0 m=5 q=5"),
        ("[0; 4]", 5, "LOOP"),
        ("[0; 4, oo]", 5, "NOTLOOP k=1 m=1 q=5"),
    ])
    def test_integers_and_short_expansions(self, text, n, record):
        assert assert_matches_frozen_scan(contfrac.parse_cf(text), n).record() == record

    def test_surds(self):
        rng = random.Random(33)
        checked = 0
        while checked < 150:
            D = rng.randint(2, 10**6)
            if math.isqrt(D) ** 2 == D:
                continue
            s = QuadSurd(rng.randint(-1000, 1000), rng.choice((-1, 1)) * rng.randint(1, 50), D)
            s = s.shifted(rng.randint(0, 3) - s.floor())
            for n in self.moduli(rng):
                assert_matches_frozen_scan(s, n)
            checked += 1

    @pytest.mark.parametrize("x, n, record", [
        (CFExpansion(0, (1, 999_997), (1, 999_996)), 10**6, "LOOP"),
        (CFExpansion(0, (1, 999_997), (1, 999_996)), 999_999, "NOTLOOP k=2 m=1 q=999999"),
        (CFExpansion(0, (2, 10**12)), 4, "LOOP"),
        (CFExpansion(0, (2, 10**12), None, True), 4, "NOTLOOP k=2 m=2 q=4000000000004"),
        (CFExpansion(10**7, (), None, True), 7, "NOTLOOP k=0 m=7 q=7"),
        (CFExpansion(0, (10**9 + 6, 3), (10**9 + 8,)), 10**9 + 7, "NOTLOOP k=1 m=1 q=1000000007"),
        (CFExpansion(0, (10**9 + 7, 3), (10**9 + 8,)), 10**9 + 7, "NOTLOOP k=0 m=1000000007 q=1000000007"),
        (QuadSurd(0, 1, 10**29 + 3), 7, "NOTLOOP k=1 m=6 q=7"),
        (CFExpansion(1, (10**12, 10**12, 10**12)), 10**6, "NOTLOOP k=0 m=1000000 q=1000000"),
        (CFExpansion(1, (999_999, 10**12)), 10**6, "NOTLOOP k=1 m=1 q=1000000"),
        (CFExpansion(1, (999_999,)), 10**6, "LOOP"),
    ])
    def test_quotients_far_above_the_modulus(self, x, n, record):
        assert assert_matches_frozen_scan(x, n).record() == record


UNPATCHED_STEPS = QuadSurd.steps
DIFFERENTIAL_MODULI = [*range(2, 61), 360, 1001, 2310, 4096, 3**8, 5**5, 10007]
# [0; 6, (9, 5, 1)] mod 3^9: the point [u : v] at the period start comes
# back after 486 periods, the pair (u, v) itself only after 27 times as many
LOOP_CASE = CFExpansion(0, (6,), (9, 5, 1))


def expansion_states(s):
    """(P, Q, a) for every complete quotient (P + sqrt(D))/Q of s, by an
    integral recurrence of its own, so that the reference scan below shares
    no code with ``QuadSurd.steps``."""
    P, Q, D = s.P, s.Q, s.D
    r = math.isqrt(D)
    while True:
        a = (P + r + (Q < 0)) // Q  # sqrt(D) is irrational, so floor = ceil - 1
        yield P, Q, a
        P = a * Q - P
        Q = (D - P * P) // Q


def seen_set_verdict(x, n):
    """(kind, k, m, steps read) of the earlier state-cycle scan, kept as the
    reference: it stores every (key, u, v) it visits and closes on the first
    exact repeat.  Keys are the period offset of a periodic expansion and
    the (P, Q) state of a surd; the preperiod and the surd's start state
    are unkeyed."""
    if isinstance(x, CFExpansion):
        steps = itertools.chain(
            zip(x.body, itertools.repeat(None)), itertools.cycle(zip(x.period, itertools.count()))
        )
    else:
        states = expansion_states(x)
        next(states)
        steps = ((a, (P, Q)) for P, Q, a in states)
    u, v = 0, 1
    seen = set()
    for k, (a, key) in enumerate(steps):
        if key is not None:
            if (key, u, v) in seen:
                return LOOP, None, None, k
            seen.add((key, u, v))
        m = _fan_hit(u, v, n, a, 1 if k == 0 else 0)
        if m is not None:
            return NOTLOOP, k, m, k
        u, v = v, (a * v + u) % n


@pytest.fixture
def state_budget(monkeypatch):
    """Caps the steps a surd hands out, one per complete quotient, at `.limit`
    and counts them in `.read`; a scan that asks for a step past the limit
    has failed to close, and fails loudly instead of hanging."""
    budget = types.SimpleNamespace(limit=0, read=0)

    def steps(s):
        for step in itertools.islice(UNPATCHED_STEPS(s), budget.limit):
            budget.read += 1
            yield step
        raise AssertionError(f"the scan of {s} asked for a step past its budget of {budget.limit}")

    monkeypatch.setattr(QuadSurd, "steps", steps)
    return budget


def assert_agrees_with_seen_set(x, n, budget):
    *expected, steps = seen_set_verdict(x, n)
    # the step of a_0, then one step per fan up to and including the last
    budget.limit = steps + 2
    v = is_infinite_loop(x, n)
    assert [v.kind, v.witness_k, v.witness_m] == expected, (x, n)
    return v.kind


class TestProjectiveClosure:
    def test_agrees_with_the_seen_set_scan(self, state_budget):
        rng = random.Random(16)
        kinds = set()
        for i in range(12):
            e = random_periodic_cf(rng, a0_max=0 if i % 3 == 0 else 2)
            s = cf_value(e)
            for x in (e, CFExpansion(e.a0, (), e.period), s, s.scaled(2), s.scaled(3)):
                start = "expansion"
                if isinstance(x, QuadSurd):
                    start = surds.is_reduced(x.P, x.Q, math.isqrt(x.D))
                for n in DIFFERENTIAL_MODULI:
                    kinds.add((start, assert_agrees_with_seen_set(x, n, state_budget)))
        # LOOP and NOTLOOP for expansions and for surds whose start is not reduced
        assert {(start, kind) for start in ("expansion", False) for kind in (LOOP, NOTLOOP)} <= kinds

    @given(
        st.integers(0, 6),
        st.lists(st.integers(1, 12), min_size=1, max_size=5),
        st.integers(2, 3000),
    )
    def test_purely_periodic_value_never_loops(self, a0, period, n):
        # the orbit of [0 : 1] returns to it, and there u = 0 is a hit
        assert is_infinite_loop(CFExpansion(a0, (), tuple(period)), n).kind == NOTLOOP

    def test_loop_closes_at_the_first_projective_return(self, state_budget):
        n = 3**9
        u0, v0 = u, v = 1, 6  # (q_0, q_1) at the period start, fan 1
        returns = 0
        while True:
            for a in LOOP_CASE.period:
                u, v = v, (a * v + u) % n
            returns += 1
            if (u * v0 - v * u0) % n == 0:
                break
        assert returns == 486
        # the step of a_0, the steps of fans 0 and 1, then 486 periods of 3
        state_budget.limit = 1 + 2 + 3 * returns
        assert is_infinite_loop(cf_value(LOOP_CASE), n).kind == LOOP
        assert state_budget.read == state_budget.limit

    def test_loop_verdict_needs_constant_memory(self):
        tracemalloc.start()
        try:
            verdict = is_infinite_loop(LOOP_CASE, 3**9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert verdict.kind == LOOP
        assert peak < 50_000

    def test_surd_notloop_keeps_no_digits(self):
        # the NOTLOOP at fan 3^9 - 2 keeps the surd, not the 19,683 digits
        # walked to reach it; the witness reads them again only when asked for
        tracemalloc.start()
        try:
            kind = is_infinite_loop(QuadSurd(0, 1, 3), 3**9).kind
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kind == NOTLOOP
        assert peak < 16 * 1024


class TestInputContract:
    """Both routes take a CFExpansion or a QuadSurd, and its value must be positive."""

    @pytest.mark.parametrize(
        "value", [[0, 2, 3, 1], iter([0, 2, 3, 1]), Rational(2, 7), 3], ids=["list", "iterator", "Rational", "int"]
    )
    def test_other_types_are_rejected(self, value):
        for decide in (is_infinite_loop, cutting.loop_verdict_geometric):
            with pytest.raises(TypeError, match=f"a CFExpansion or a QuadSurd, not {type(value).__name__}$"):
                decide(value, 97)

    @pytest.mark.parametrize(
        "value", [QuadSurd(-3, 1, 2), CFExpansion(0, (), None, True)], ids=["negative surd", "[0; oo]"]
    )
    def test_nonpositive_value_is_rejected(self, value):
        for decide in (is_infinite_loop, cutting.loop_verdict_geometric):
            with pytest.raises(ValueError, match="loop decisions require a positive value"):
                decide(value, 97)


class TestStepStream:
    """Both routes read `_steps`, which skips a_0 of the value's own
    `steps()`; both closure proofs need a value's period starts to be the
    same whichever form the value comes in."""

    @staticmethod
    def assert_same_steps(surd, e):
        # a_0, the preperiod and three periods of e, flags included
        count = 1 + len(e.body) + 3 * len(e.period)
        expected = list(itertools.islice(e.steps(), count))
        assert list(itertools.islice(surd.steps(), count)) == expected, (surd, e)
        assert sum(starts for _, starts in expected) == 3
        assert [a for a, _ in expected] == list(itertools.islice(e.digits(), count))
        for x in (surd, e):
            steps, value = _steps(x)
            assert value is x
            assert list(itertools.islice(steps, count - 1)) == expected[1:], x

    def test_surd_and_its_expansion(self):
        rng = random.Random(21)
        checked = 0
        while checked < 3000:
            D = rng.randint(2, 399)
            if math.isqrt(D) ** 2 == D:
                continue
            s = QuadSurd(rng.randint(-30, 30), rng.choice((-1, 1)) * rng.randint(1, 12), D)
            s = s.shifted(rng.randint(0, 3) - s.floor())
            self.assert_same_steps(s, cf_of_surd(s))
            checked += 1

    def test_periodic_expansion_and_its_value(self):
        rng = random.Random(22)
        for _ in range(300):
            e = random_periodic_cf(rng, max_pre=3, max_period=4, max_entry=9, a0_max=3)
            self.assert_same_steps(cf_value(e), e)

    def test_finite_expansion_reads_in_euclids_form(self):
        rng = random.Random(24)
        for _ in range(300):
            e = random_finite_cf(rng, min_len=0, max_len=6, inf_tail=True)
            if not (e.a0 or e.body):
                with pytest.raises(ValueError, match="positive value"):
                    _steps(e)
                continue
            for x in (e, CFExpansion(e.a0, e.body), twin_of(e)):
                entries = [x.a0, *x.body, *([None] if x.inf_tail else [])]
                assert list(x.steps()) == [(a, False) for a in entries], x
                steps, value = _steps(x)
                if x.inf_tail and x.body[-1:] == (1,):
                    assert value == twin_of(x) and value.body[-1:] != (1,), x
                else:
                    assert value is x
                assert list(steps) == list(value.steps())[1:], x


class TestScaling:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_half_mod_four_scales(self, k):
        assert loop_scaling_check(HALF, 4, k)

    def test_precondition_enforced(self):
        with pytest.raises(ValueError):
            loop_scaling_check(HALF, 5, 2)

    def test_scaling_across_discovered_loops(self):
        for n in range(4, 20):
            e = loop_example(n)
            for k in range(1, 6):
                assert loop_scaling_check(e, n, k)


class TestGraph:
    def test_successors_prune_vanishing_mediant(self):
        assert successors(ModState(1, 3), 4) == ()
        moves = dict(successors(ModState(1, 1), 4))
        assert moves == {"L": ModState(2, 1), "R": ModState(1, 2)}

    def test_graph_reachable_set(self):
        g = loop_graph(4)
        assert ModState(1, 1) in g
        assert all(isinstance(s, ModState) for s in g)

    def test_graph_matches_plain_traversal(self):
        for n in range(2, 61):
            start = ModState(1 % n, 1 % n)
            reference = {}
            todo = [start]
            while todo:
                state = todo.pop()
                if state not in reference:
                    reference[state] = successors(state, n)
                    todo.extend(t for _, t in reference[state])
            g = loop_graph(n)
            assert g == reference, n
            for state, moves in g.items():
                assert type(state) is ModState
                assert all(type(t) is ModState for _, t in moves)

    def test_graph_sizes(self):
        assert len(loop_graph(110)) == 8521
        assert sum(len(loop_graph(n)) for n in range(2, 111)) == 362_739

    def test_existence_small(self):
        assert not loop_exists(2)
        assert not loop_exists(3)
        assert loop_exists(4)
        assert loop_exists(5)
        for n in (1, 0, -4):
            with pytest.raises(ValueError, match="modulus must be >= 2"):
                loop_exists(n)

    def test_existence_range(self):
        assert [n for n in range(2, 1001) if not loop_exists(n)] == [2, 3]

    def test_existence_matches_the_cycle_search(self):
        for n in range(2, 401):
            found = _find_cycle(ModState(1 % n, 1 % n), lambda s: successors(s, n))
            assert loop_exists(n) == (found is not None), n

    # hand-made graphs for n = 2 with whether an infinite walk leaves the start ModState(1, 1)
    HAND_MADE = {
        "diamond without a cycle": (False, {
            ModState(1, 1): (("L", "a"), ("R", "b")), "a": (("R", "c"),), "b": (("L", "c"),), "c": (),
        }),
        "five-state chain into a dead end": (False, {
            ModState(1, 1): (("L", "a"),), "a": (("R", "b"),), "b": (("L", "c"),), "c": (("R", "d"),), "d": (),
        }),
        "cycle past a dead sibling": (True, {
            ModState(1, 1): (("R", "a"),), "a": (("L", "dead"), ("R", "b")), "dead": (),
            "b": (("L", "c"),), "c": (("R", "b"),),
        }),
        "self-loop at a leaf": (True, {ModState(1, 1): (("L", "a"),), "a": (("R", "b"),), "b": (("R", "b"),)}),
        "self-loop at the start": (True, {ModState(1, 1): (("L", "dead"), ("R", ModState(1, 1))), "dead": ()}),
    }

    @pytest.mark.parametrize("name", HAND_MADE)
    def test_existence_closes_hand_made_graphs(self, name, monkeypatch):
        exists, graph = self.HAND_MADE[name]
        monkeypatch.setattr(loops, "loop_graph", lambda n: graph)
        assert (_find_cycle(ModState(1, 1), graph.__getitem__) is not None) is exists
        assert loop_exists(2) is exists

    def test_existence_builds_the_graph_below_four(self, monkeypatch):
        built = []

        def counted(n):
            built.append(n)
            return loop_graph(n)

        monkeypatch.setattr(loops, "loop_graph", counted)
        assert [loop_exists(n) for n in (2, 3)] == [False, False]
        assert built == [2, 3]

    def test_existence_builds_no_graph_from_four_on(self, monkeypatch):
        def no_graph(n):
            raise AssertionError(f"loop_graph({n}) built")

        monkeypatch.setattr(loops, "loop_graph", no_graph)
        assert all(loop_exists(n) for n in (4, 5, 6, 110, 10**6))

    def test_failed_validation_is_never_an_answer(self, monkeypatch):
        monkeypatch.setattr(loops, "is_infinite_loop", lambda e, n: LoopVerdict.not_loop(0, 1, Rational(1, n)))
        with pytest.raises(RuntimeError, match="failed validation"):
            loop_exists(7)

    def test_cycle_search_expands_a_state_reached_twice_once(self):
        # a diamond s -> a, b -> c: the edge b -> c meets c visited but off the
        # path, which is no cycle, so the search is exhausted and asks c once
        graph = {"s": (("L", "a"), ("R", "b")), "a": (("R", "c"),), "b": (("L", "c"),), "c": ()}
        asked = []

        def moves(state):
            asked.append(state)
            return graph[state]

        assert _find_cycle("s", moves) is None
        assert sorted(asked) == ["a", "b", "c", "s"]

    def test_cycle_search_certificate(self):
        for n in range(2, 81):
            start = ModState(1 % n, 1 % n)
            found = _find_cycle(start, lambda s: successors(s, n))
            assert found == _find_cycle(start, loop_graph(n).__getitem__)
            if n in (2, 3):
                assert found is None
                continue
            prefix, cycle = found
            assert cycle
            state = start
            for i, letter in enumerate(prefix + cycle):
                if i == len(prefix):
                    entry = state
                moves = dict(successors(state, n))
                assert letter in moves, (n, i)  # no step of the word is pruned
                state = moves[letter]
            assert state == entry, n


class TestLoopExample:
    def test_mod_four_is_one_half(self):
        e = loop_example(4)
        assert (e.a0, e.body, e.inf_tail) == (0, (2,), True)

    def test_mod_five_validated(self):
        e = loop_example(5)
        assert is_infinite_loop(e, 5).kind == LOOP

    def test_error_when_none_exist(self):
        with pytest.raises(ValueError):
            loop_example(2)

    @pytest.mark.parametrize("n", [0, 1])
    def test_modulus_below_two(self, n):
        with pytest.raises(ValueError, match="modulus must be >= 2"):
            loop_example(n)

    def test_examples_validated_range(self):
        for n in range(4, 20001):
            assert is_infinite_loop(loop_example(n), n).kind == LOOP

    def test_family_matches_the_cycle_search_route(self):
        for n in range(4, 400):
            assert loop_example(n) == cycle_search_loop_example(n), n

    def test_large_modulus_in_a_fresh_process(self):
        # a fresh process, so that a slow route is killed at the timeout
        # instead of running on in the test process
        start = time.perf_counter()
        run = subprocess.run(
            [sys.executable, "-m", "fareyloops.cli", "loop-example", "--mod", "1000003"],
            capture_output=True, text=True, timeout=10,
            env={**os.environ, "PYTHONPATH": str(Path(loops.__file__).parents[1])},
        )
        assert time.perf_counter() - start < 1
        assert run.returncode == 0
        assert run.stdout == "[0; 1, 1000000, (1, 999999)]\nverdict=LOOP\n"


# the route loop_example took before it returned its closed-form family: a DFS
# for a reachable cycle of the pruned graph, then the expansion of the letter
# word R . prefix . cycle^oo; a single-letter cycle ends on a rational limit


def _letters_to_expansion(prefix, cycle):
    def letter_stream():
        yield "R", None
        for ltr in prefix:
            yield ltr, None
        while True:
            for i, ltr in enumerate(cycle):
                yield ltr, i

    runs = []
    stream = letter_stream()
    cur_letter, cur_anchor = next(stream)
    cur_count = 1
    anchors_seen = {}
    while True:
        letter, anchor = next(stream)
        if letter == cur_letter:
            cur_count += 1
            continue
        runs.append((cur_letter, cur_count, cur_anchor))
        if cur_anchor is not None:
            key = (cur_anchor, cur_letter)
            if key in anchors_seen:
                s = anchors_seen[key]
                t = len(runs) - 1
                counts = [c for _, c, _ in runs]
                return CFExpansion(0, tuple(counts[:s]), tuple(counts[s:t]))
            anchors_seen[key] = len(runs) - 1
        cur_letter, cur_anchor, cur_count = letter, anchor, 1


def cycle_search_loop_example(n):
    """The cycle search route's loop mod n, for n >= 4."""
    prefix, cycle = _find_cycle(ModState(1 % n, 1 % n), lambda s: successors(s, n))
    if len(set(cycle)) > 1:
        return _letters_to_expansion(prefix, cycle)
    lo, hi = Rational(0, 1), Rational(1, 1)
    for letter in prefix:
        m = Rational(lo.num + hi.num, lo.den + hi.den)
        if letter == "L":
            lo = m
        else:
            hi = m
    return cf_from_rational(hi if cycle[0] == "L" else lo)[0]


class TestWalk:
    def test_three_sevenths_mod_five(self):
        walk = sb_walk(CFExpansion(0, (2, 3), None, True), 5, 4)
        assert [r for _, r in walk] == [1, 2, 3, 0]  # denominator 5 at step 4

    def test_half_mod_four_zero_free(self):
        walk = sb_walk(CFExpansion(0, (2,), None, True), 4, 60)
        assert all(r != 0 for _, r in walk)

    def test_first_run_length_is_first_quotient(self):
        rng = random.Random(14)
        for _ in range(50):
            e = random_periodic_cf(rng, a0_max=0)
            walk = sb_walk(e, 7, e.entry(1) + 1)
            first = [letter for letter, _ in walk]
            assert first[: e.entry(1)] == ["R"] * e.entry(1)
            assert first[e.entry(1)] == "L"

    def test_zero_residue_iff_not_loop(self):
        rng = random.Random(15)
        for _ in range(120):
            q = rng.randint(3, 70)
            p = rng.randint(1, q - 1)
            if math.gcd(p, q) != 1 or (p, q) == (1, 2):
                continue
            e = cf_from_rational(Rational(p, q))[0]
            for n in (2, 3, 4, 5, 8):
                walk = sb_walk(e, n, 4 * (p + q))
                hit = any(r == 0 for _, r in walk)
                assert hit == (not is_infinite_loop(e, n).is_loop)

    @pytest.mark.parametrize("n", [-3, 0, 1])
    def test_modulus_below_two(self, n):
        with pytest.raises(ValueError, match=f"modulus must be >= 2, got {n}"):
            sb_walk(CFExpansion(0, (2, 3), None, True), n, 4)

    def test_domain_checks(self):
        # a leading term is walked as its own fan; only a value of 0 has no walk
        assert sb_walk(CFExpansion(1, (2,)), 4, 5) == [("L", 1), ("R", 1), ("R", 2)]
        with pytest.raises(ValueError, match="the ray needs a positive endpoint"):
            sb_walk(cf_from_rational(Rational(0))[0], 4, 5)

    def test_leading_term_walk_spells_the_word(self):
        rng = random.Random(18)
        for i in range(60):
            e = random_periodic_cf(rng) if i % 2 else random_finite_cf(rng)
            e = CFExpansion(rng.randint(1, 4), e.body, e.period)
            # a finite walk ends on the value, one step after its last edge
            depth = rng.randint(1, 30 if e.period else e.a0 + sum(e.body))
            n = rng.randint(2, 40)
            walk = sb_walk(e, n, depth)
            assert len(walk) == depth
            word = cutting.eta_inverse(e, None if e.is_finite else depth)
            assert [letter for letter, _ in walk] == [l for l, c in word.runs for _ in range(c)][:depth]
            # semi-convergent denominators m*q_k + q_{k-1}, the leading-term fan
            # k = -1 being m*q_{-1} + q_{-2} = m*0 + 1
            dens = [1] * e.a0
            for k in itertools.count():
                if len(dens) >= depth:
                    break
                dens.extend(semiconvergent(e, k, m).den for m in range(1, e.entry(k + 1) + 1))
            assert [r for _, r in walk] == [q % n for q in dens[:depth]]
