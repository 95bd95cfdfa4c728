import io
import itertools
import math
import random
import timeit
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fareyloops import heights
from fareyloops.cli import _PM_DEFAULT, main
from fareyloops.contfrac import (
    CFExpansion,
    cf_eval,
    cf_from_rational,
    cf_of_surd,
    cf_value,
    convergent_pair,
    convergents,
    euclid_entries,
    height,
    multiply_cf,
    shift_cf,
    twin_of,
)
from fareyloops.heights import (
    CheckRecord,
    check_count_height,
    check_infl,
    check_noloop_bound,
    check_pro2,
    floor_2sqrt,
    height_spectrum,
    is_prime,
    mp_bounds,
    persistence_scan,
    plant_pro2_case,
    run_count_scan,
    run_defs_equivalence_scan,
    run_dual_pushforward_scan,
    run_infl_scan,
    run_noloop_scan,
    run_pro2_scan,
    run_thma_scan,
    surd_height,
)
from fareyloops.loops import NOTLOOP, LoopVerdict, is_infinite_loop, loop_example
from fareyloops.rationals import Rational
from fareyloops.sampling import random_finite_cf, random_periodic_cf
from fareyloops.surds import QuadSurd
from reference_decider import flagged, surd_steps

GOLDEN_CONJ = CFExpansion(0, (), (1,))
SQRT2 = CFExpansion(1, (), (2,))


def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_is_prime_equals_trial_division():
    primes = []
    for n in range(2, 200_000):
        if all(n % f for f in itertools.takewhile(lambda f: f * f <= n, primes)):
            primes.append(n)
    assert [n for n in range(-3, 200_000) if is_prime(n)] == primes


@pytest.mark.parametrize("n", [
    561,  # a Carmichael number
    3825123056546413051,  # a strong pseudoprime to every prime base up to 31
    318665857834031151167461,  # a strong pseudoprime to every prime base up to 37
])
def test_is_prime_rejects_pseudoprimes(n):
    assert not is_prime(n)


def test_is_prime_decides_a_large_prime_fast():
    assert is_prime(10**18 + 3)
    # the best of five, so that one pause of the machine fails nothing;
    # trial division up to sqrt(10**18 + 3) takes minutes
    assert min(timeit.repeat(lambda: is_prime(10**18 + 3), number=1, repeat=5)) < 0.01


def test_is_prime_raises_where_the_bases_prove_nothing():
    # 3317044064679887385961981 is a strong pseudoprime to every base 2..41
    with pytest.raises(ValueError, match="cannot decide whether 3317044064679887385961981 is prime"):
        is_prime(3317044064679887385961981)


def test_floor_2sqrt_thresholds():
    assert floor_2sqrt(4) - 1 == 3
    assert floor_2sqrt(5) - 1 == 3
    assert floor_2sqrt(16) - 1 == 7
    assert floor_2sqrt(25) - 1 == 9
    for n in range(1, 2000):
        assert floor_2sqrt(n) == math.floor(2 * math.sqrt(n))


class TestSpectrum:
    def test_sqrt2(self):
        assert height_spectrum(SQRT2, 2, 1) == ((0, 2), (1, 4))

    def test_golden_conjugate(self):
        assert height_spectrum(GOLDEN_CONJ, 2, 1) == ((0, 1), (1, 4))

    def test_rational_is_all_infinite(self):
        e = cf_from_rational(Rational(3, 7))[0]
        assert all(b == math.inf for _, b in height_spectrum(e, 5, 3))

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            height_spectrum(SQRT2, 6, 1)

    def test_rational_without_the_tail_has_its_own_heights(self):
        # 1/3 = [0; 3], 2/3 = [0; 1, 2], 4/3 = [1; 3]
        assert height_spectrum(CFExpansion(0, (3,)), 2, 2) == ((0, 3), (1, 2), (2, 3))
        rng = random.Random(36)
        for _ in range(40):
            e = random_finite_cf(rng)
            assert height_spectrum(e, 3, 3) == tuple((ell, height(multiply_cf(e, 3**ell))) for ell in range(4))

    def test_surd_height_matches_expansion_height(self):
        rng = random.Random(31)
        for _ in range(100):
            e = random_periodic_cf(rng)
            assert surd_height(cf_value(e)) == height(e)

    @given(
        st.integers(min_value=-60, max_value=60),
        st.integers(min_value=-40, max_value=40).filter(bool),
        st.integers(min_value=-200, max_value=5000),
    )
    def test_surd_height_matches_height_of_expansion(self, P, Q, t):
        # D = P^2 + Q*t makes (P + sqrt(D))/Q normalised: Q divides D - P^2
        D = P * P + Q * t
        assume(D > 0 and math.isqrt(D) ** 2 != D)
        s = QuadSurd(P, Q, D)
        assume(s.is_positive())
        assert surd_height(s) == height(cf_of_surd(s))

    @given(st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=5))
    def test_purely_periodic_height_counts_the_returning_a0(self, cycle):
        # [(c1, ..., cj)] is purely periodic: a0 = c1 recurs as a_j
        e = CFExpansion(cycle[0], (), tuple(cycle[1:]) + (cycle[0],))
        assert surd_height(cf_value(e)) == height(e) == max(cycle)

    def test_height_is_the_returning_a0(self):
        # [3; (1, 3)]: the only 3 after a0 is the digit of the closing state
        assert surd_height(cf_value(CFExpansion(3, (), (1, 3)))) == 3
        with pytest.raises(ValueError, match="positive"):
            surd_height(QuadSurd(-5, 2, 5))


@pytest.mark.parametrize(
    "scan",
    [lambda e, p, L: check_count_height(e, p, 2, L), lambda e, p, L: persistence_scan(e, p, 2, L)],
    ids=["check_count_height", "persistence_scan"],
)
def test_level_scans_take_a_prime_and_levels_from_zero(scan):
    # as height_spectrum and mp_bounds do
    with pytest.raises(ValueError, match=r"^4 is not prime$"):
        scan(SQRT2, 4, 1)
    with pytest.raises(ValueError, match=r"^L must be >= 0$"):
        scan(SQRT2, 2, -1)


class TestUpperBound:
    def test_examples(self):
        assert mp_bounds(SQRT2, 2, 1)[0] == Rational(1, 4)
        assert mp_bounds(GOLDEN_CONJ, 2, 1)[0] == Rational(1, 4)
        assert mp_bounds(cf_from_rational(Rational(3, 7))[0], 2, 2)[0] == Rational(0)

    def test_monotone_in_levels(self):
        rng = random.Random(32)
        for _ in range(40):
            e = random_periodic_cf(rng)
            bounds = [mp_bounds(e, 3, L)[0] for L in range(4)]
            assert all(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:]))

    def test_shift_invariant(self):
        rng = random.Random(33)
        for _ in range(40):
            e = random_periodic_cf(rng)
            for k in (1, 2, 5):
                assert mp_bounds(shift_cf(e, k), 2, 2)[0] == mp_bounds(e, 2, 2)[0]

    @pytest.mark.parametrize("e", [cf_from_rational(Rational(3, 7))[0], CFExpansion(1, (), (2,))])
    def test_negative_level_is_rejected(self, e):
        with pytest.raises(ValueError, match=r"^L must be >= 0$"):
            mp_bounds(e, 2, -1)

    def test_partial_lower_min_labelled_value(self):
        assert mp_bounds(GOLDEN_CONJ, 2, 1) == (Rational(1, 4), Rational(1, 6))
        assert mp_bounds(cf_from_rational(Rational(3, 7))[0], 2, 2) == (Rational(0), Rational(0))


class TestNoloopBound:
    def test_golden_conjugate_mod_four(self):
        rec = check_noloop_bound(GOLDEN_CONJ, 4)
        assert rec.applicable and rec.passed
        # B = 1, B(4a) = 8 >= floor(2*sqrt(4)) - 1 = 3
        assert surd_height(cf_value(GOLDEN_CONJ).scaled(4)) == 8

    def test_loop_input_skipped(self):
        e = loop_example(5)
        rec = check_noloop_bound(e, 5)
        assert not rec.applicable and rec.passed

    def test_scan_is_clean(self):
        rep = run_noloop_scan([4, 9, 25], 300, seed=1)
        assert rep.passed and rep.total == 900


class TestInfl:
    def test_golden_conjugate(self):
        rec = check_infl(GOLDEN_CONJ, 2, 2)
        assert rec.applicable and rec.passed
        # min{1/B(a), 1/B(4a)} = 1/8 <= 1/3

    def test_scan_is_clean(self):
        rep = run_infl_scan([(2, 2), (3, 1), (5, 1)], 300, seed=2)
        assert rep.passed

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            check_infl(GOLDEN_CONJ, 4, 1)


@st.composite
def normalised_surds(draw):
    """A positive normalised (P + sqrt(D))/Q, Q of either sign, or a purely
    periodic value with partial quotients up to 40."""
    if draw(st.booleans()):
        cycle = draw(st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=5))
        return cf_value(CFExpansion(cycle[0], (), tuple(cycle[1:]) + (cycle[0],)))
    P = draw(st.integers(min_value=-60, max_value=60))
    Q = draw(st.integers(min_value=-40, max_value=40).filter(bool))
    t = draw(st.integers(min_value=-200, max_value=5000))
    D = P * P + Q * t  # Q divides D - P^2
    assume(D > 0 and math.isqrt(D) ** 2 != D)
    s = QuadSurd(P, Q, D)
    assume(s.is_positive())
    return s


def random_surds(seed, count):
    """Seeded positive normalised surds, Q of either sign."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        P, Q, t = rng.randint(-60, 60), rng.choice([-1, 1]) * rng.randint(1, 40), rng.randint(-200, 5000)
        D = P * P + Q * t
        if D > 0 and math.isqrt(D) ** 2 != D and QuadSurd(P, Q, D).is_positive():
            out.append(QuadSurd(P, Q, D))
    return out


def expansion_states(s):
    """(P, Q, a) for every complete quotient (P + sqrt(D))/Q of s, by an
    integral recurrence of its own, so that the oracles below share no code
    with ``QuadSurd.steps``."""
    P, Q, D = s.P, s.Q, s.D
    r = math.isqrt(D)
    while True:
        a = (P + r + (Q < 0)) // Q  # sqrt(D) is irrational, so floor = ceil - 1
        yield P, Q, a
        P = a * Q - P
        Q = (D - P * P) // Q


@st.composite
def wide_surds(draw):
    """A positive normalised surd with D up to 10^9, scaled by 2 to 5 a third
    of the time: a reduced start; x_0 = a_0 + 1/x_1 with x_1 of negative Q
    dividing P + isqrt(D), whose floor is one less than (P + isqrt(D)) // Q;
    or P and Q of either sign."""
    kind = draw(st.integers(min_value=0, max_value=2))
    if kind == 0:
        # reduced: max(P, Q - P) < sqrt(D) < P + Q, with D = P^2 (mod Q)
        P = draw(st.integers(min_value=1, max_value=10_000))
        Q = draw(st.integers(min_value=1, max_value=20_000))
        lo, hi = max(P, Q - P) ** 2 - P * P, (P + Q) ** 2 - P * P
        D = P * P + Q * draw(st.integers(min_value=lo // Q + 1, max_value=(hi - 1) // Q))
    elif kind == 1:
        # x_1 = (-r - j*q + sqrt(D))/-q with D = r^2 + m*q: normalised, and
        # above 1 for j >= 2, as sqrt(D) - r < 1 <= q
        r = draw(st.integers(min_value=1, max_value=31_000))
        q = draw(st.integers(min_value=1, max_value=2 * r))
        D = r * r + q * draw(st.integers(min_value=1, max_value=2 * r // q))
        P1, Q1 = -r - draw(st.integers(min_value=2, max_value=1000)) * q, -q
        Q = (D - P1 * P1) // Q1  # x_0 = a_0 + 1/x_1
        P = draw(st.integers(min_value=0, max_value=50)) * Q - P1
    else:
        P = draw(st.integers(min_value=-40_000, max_value=40_000))
        Q = draw(st.integers(min_value=-30_000, max_value=30_000).filter(bool))
        D = draw(st.integers(min_value=1, max_value=10**9))
        D -= (D - P * P) % abs(Q)  # Q divides D - P^2
    assume(D > 0 and math.isqrt(D) ** 2 != D)
    s = QuadSurd(P, Q, D)
    assume(s.is_positive())
    n = draw(st.integers(min_value=1, max_value=5))
    return s.scaled(n) if n > 1 and draw(st.integers(0, 2)) == 0 else s


def split_population():
    """2,000 seeded surds and the values of 300 seeded periodic expansions."""
    rng = random.Random(42)
    periodic = [cf_value(random_periodic_cf(rng, max_entry=40)) for _ in range(300)]
    return random_surds(43, 2000) + periodic


def seen_set_height(s):
    """The uncapped height with a set of every (P, Q) seen, as it was
    computed before the reduced-state closure."""
    states = expansion_states(s)
    P, Q, _ = next(states)
    seen = {(P, Q)}
    best = 0
    for P, Q, a in states:
        if a > best:
            best = a
        if (P, Q) in seen:
            return best
        seen.add((P, Q))


def seen_dict_split(s):
    """(a0, body, period) as handed to the constructor by the seen-dict
    ``cf_of_surd``."""
    entries = []
    seen = {}
    for P, Q, a in expansion_states(s):
        if (P, Q) in seen:
            break
        seen[(P, Q)] = len(entries)
        entries.append(a)
    start = seen[(P, Q)]
    if start == 0:
        return entries[0], (), tuple(entries[1:]) + (entries[0],)
    return entries[0], tuple(entries[1:start]), tuple(entries[start:])


def uncapped_noloop(e, n):
    """check_noloop_bound as it was: B(n*a) always read in full."""
    params = (("n", n),)
    verdict = is_infinite_loop(e, n)
    if verdict.kind != NOTLOOP or e.is_finite:
        return CheckRecord("noloop", params, False, True, f"verdict={verdict.kind}")
    b_alpha = height(e)
    b_scaled = seen_set_height(cf_value(e).scaled(n))
    threshold = heights.floor_2sqrt(n) - 1
    ok = max(b_alpha, b_scaled) >= threshold
    witness = "-" if ok else f"B={b_alpha} Bn={b_scaled} thr={threshold} e={e}"
    return CheckRecord("noloop", params, True, ok, witness)


def uncapped_infl(e, p, m):
    """check_infl as it was: B(p^m*a) always read in full, compared as 1/B."""
    n = p**m
    params = (("p", p), ("m", m))
    verdict = is_infinite_loop(e, n)
    if verdict.kind != NOTLOOP or e.is_finite:
        return CheckRecord("infl", params, False, True, f"verdict={verdict.kind}")
    b_alpha = height(e)
    b_scaled = seen_set_height(cf_value(e).scaled(n))
    threshold = heights.floor_2sqrt(n) - 1
    if threshold <= 0:
        return CheckRecord("infl", params, True, True, "threshold<=0")
    ok = min(Fraction(1, b_alpha), Fraction(1, b_scaled)) <= Fraction(1, threshold)
    witness = "-" if ok else f"B={b_alpha} Bn={b_scaled} thr={threshold} e={e}"
    return CheckRecord("infl", params, True, ok, witness)


def check_pairs():
    """(capped, uncapped) records over a seeded population: noloop for
    n = 2..40 and infl for every default (p, m) of the CLI."""
    rng = random.Random(41)
    population = [random_periodic_cf(rng) for _ in range(40)]
    for e in population:
        for n in range(2, 41):
            yield check_noloop_bound(e, n), uncapped_noloop(e, n)
        for p, m in _PM_DEFAULT:
            yield check_infl(e, p, m), uncapped_infl(e, p, m)


class TestCappedHeight:
    @given(normalised_surds(), st.integers(min_value=1, max_value=30))
    def test_cap_gives_min_of_height_and_cap(self, s, cap):
        assert surd_height(s, cap) == min(surd_height(s), cap)

    @given(normalised_surds())
    def test_reduced_closure_matches_seen_set(self, s):
        assert surd_height(s) == seen_set_height(s)

    @staticmethod
    def assert_split_as_seen_dict(s):
        # cf_of_surd builds its result unchecked: its fields must be the
        # seen-dict split, and that split must already be the canonical
        # form the validating constructor makes of it
        got = cf_of_surd(s)
        split = seen_dict_split(s)
        assert type(got) is CFExpansion, s
        assert type(got.body) is tuple and type(got.period) is tuple and got.inf_tail is False, s
        assert (got.a0, got.body, got.period) == split, s
        assert got == CFExpansion(*split), s

    def test_cf_of_surd_splits_as_seen_dict(self):
        for s in split_population():
            self.assert_split_as_seen_dict(s)

    @settings(deadline=None)
    @given(wide_surds())
    def test_cf_of_surd_splits_as_seen_dict_wide(self, s):
        self.assert_split_as_seen_dict(s)

    @settings(deadline=None)
    @given(wide_surds())
    def test_steps_match_the_one_loop_recurrence(self, s):
        # three periods of the frozen recurrence: up to and including its fourth flag
        want, flags = [], 0
        for step in surd_steps(s):
            want.append(step)
            flags += step[1]
            if flags == 4:
                break
        assert list(itertools.islice(flagged(s.steps()), len(want))) == want, s

    def test_steps_flag_each_period_start(self):
        # the period opens at k0 = max(start, 1) = 1 + len(body), since a
        # reduced start state gives an empty body
        for s in split_population():
            _, body, period = seen_dict_split(s)
            k0, L = 1 + len(body), len(period)
            flags = [flag for _, flag in itertools.islice(flagged(s.steps()), k0 + 3 * L + 1)]
            assert [k for k, flag in enumerate(flags) if flag] == [k0 + j * L for j in range(4)], s

    def test_long_period_in_constant_memory(self):
        import tracemalloc

        s = QuadSurd(0, 1, 2).scaled(2**14)
        tracemalloc.start()
        try:
            b = surd_height(s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert b == seen_set_height(s)
        assert peak < 20_000  # a set of the states seen peaks near 1.9 MB here


class TestCappedChecks:
    def test_records_match_uncapped_checks(self):
        pairs = list(check_pairs())
        assert any(new.applicable for new, _ in pairs)
        for new, old in pairs:
            assert new.line() == old.line()

    def test_violations_carry_the_exact_height(self, monkeypatch):
        # an unreachable threshold sends every applicable case down the
        # violation path, where Bn= must be the exact height
        monkeypatch.setattr(heights, "floor_2sqrt", lambda n: 10**6)
        applicable = 0
        for new, old in check_pairs():
            assert new.line() == old.line()
            if new.applicable:
                applicable += 1
                assert not new.passed and "Bn=" in new.witness
        assert applicable > 0

    def test_scaled_value_is_read_only_below_threshold(self, monkeypatch):
        real_height, real_check = heights.surd_height, heights.check_noloop_bound
        caps = []
        cases = []

        def counting_height(s, cap=None):
            caps.append(cap)
            return real_height(s, cap)

        def recording_check(e, n):
            before = len(caps)
            rec = real_check(e, n)
            cases.append((e, n, rec, caps[before:]))
            return rec

        monkeypatch.setattr(heights, "surd_height", counting_height)
        monkeypatch.setattr(heights, "check_noloop_bound", recording_check)
        run_noloop_scan(range(2, 41), 30, seed=5)
        skipped = read = 0
        for e, n, rec, seen_caps in cases:
            threshold = floor_2sqrt(n) - 1
            if not rec.applicable or height(e) >= threshold:
                assert seen_caps == []
                skipped += rec.applicable
            else:
                assert seen_caps == [threshold]
                read += 1
        assert skipped > 0 and read > 0


class TestPro2:
    def test_spec_instance(self):
        # [0; 1, 3, 2] has q_2 = 4 = 2*2; B(2a) >= 2*a_3 = 4 and 3/2 among
        # the convergents of 14/9
        e = CFExpansion(0, (1, 3, 2))
        rec = check_pro2(e, 2, 2)
        assert rec.applicable and rec.passed

    def test_unplanted_reported_not_asserted(self):
        e = CFExpansion(0, (2, 3))
        rec = check_pro2(e, 5, 1)
        assert not rec.applicable and rec.passed

    def test_planting(self):
        rng = random.Random(34)
        for n in range(2, 8):
            for _ in range(30):
                e, k = plant_pro2_case(rng, n)
                _, q_k = convergent_pair(e, k)
                assert q_k % n == 0 and q_k // n > 1
                assert k < e.last_index

    def test_scan_is_clean(self):
        rep = run_pro2_scan(range(2, 8), 120, seed=3)
        assert rep.passed and rep.skipped == 0

    def test_convergent_pool_is_that_of_both_expansions(self):
        # the twin [..., a_L - 1, 1] shares every convergent of [..., a_L] but one
        rng = random.Random("convergent-pool")
        checked = 0
        for _ in range(500):
            e = random_finite_cf(rng, min_len=0, inf_tail=rng.random() < 0.5)
            if not (e.a0 or e.body):
                continue  # 0 has a single expansion
            for x in (e, twin_of(e)):
                assert heights._convergent_pool(x) == set(convergents(x)) | set(convergents(twin_of(x))), x
                checked += 1
        assert checked > 900

    @pytest.mark.parametrize("n", [0, 1])
    def test_planting_needs_a_modulus_of_two_or_more(self, n):
        # n < 0 is left to the CLI test, which runs it under a timeout
        with pytest.raises(ValueError, match="modulus must be >= 2"):
            plant_pro2_case(random.Random(0), n)


class TestCountHeight:
    def test_bound_arithmetic(self):
        assert 2**3 - 4 == 4
        assert 5**1 - 4 == 1

    def test_refuted_bucket(self):
        rec = check_count_height(GOLDEN_CONJ, 2, 2, 5)
        assert not rec.applicable and "refuted_at=0" in rec.witness

    def test_height_within_bound_bucket(self):
        e = CFExpansion(0, (3,), (1,))  # loop mod 25 with height 3
        rec = check_count_height(e, 5, 2, 0)
        assert rec.applicable and rec.passed and "loop_through" in rec.witness

    def test_witness_beyond_bucket(self):
        e = loop_example(25)  # height 22 > 21, refuted one level up
        rec = check_count_height(e, 5, 2, 0)
        assert rec.applicable and rec.passed and "witness_at=1" in rec.witness

    def test_scan_is_complete(self):
        rep = run_count_scan([(2, 2), (3, 2)], 50, seed=4, L=10)
        assert rep.passed
        assert rep.total == 100  # nothing unreported


class TestPersistence:
    def test_golden_conjugate_all_levels_zero(self):
        scan = persistence_scan(GOLDEN_CONJ, 2, 6, 5)
        assert scan == [(m, 0) for m in range(1, 7)]
        # oracle: the Fibonacci sequence mod 2^m hits zero
        for m in range(1, 7):
            a, b = 0, 1
            seen = False
            for _ in range(10_000):
                a, b = b, a + b
                if a and a % 2**m == 0:
                    seen = True
                    break
            assert seen

    def test_sqrt2(self):
        scan = persistence_scan(SQRT2, 2, 3, 6)
        assert all(ell is not None for _, ell in scan)

    def test_rational_witnessed_at_zero(self):
        e = cf_from_rational(Rational(3, 7))[0]
        assert persistence_scan(e, 3, 5, 4) == [(m, 0) for m in range(1, 6)]

    @staticmethod
    def _oracle(e: CFExpansion, p: int, m_max: int, L: int) -> list:
        """Each level p^l * value(e) re-expanded by Euclid, keeping e's tail convention."""
        levels = []
        for ell in range(L + 1):
            x = cf_eval(e).scaled(p**ell)
            entries = euclid_entries(x.num, x.den)
            levels.append(CFExpansion(entries[0], tuple(entries[1:]), None, e.inf_tail))
        return [
            (m, next((ell for ell, f in enumerate(levels) if not is_infinite_loop(f, p**m).is_loop), None))
            for m in range(1, m_max + 1)
        ]

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("inf_tail", [False, True])
    def test_finite_levels_match_the_reexpanding_oracle(self, p, inf_tail):
        rng = random.Random(37 + p)
        tail_changes_an_answer = False
        for _ in range(60):
            drawn = random_finite_cf(rng, max_entry=12, inf_tail=inf_tail)
            for e in (drawn, twin_of(drawn)):
                expected = self._oracle(e, p, 4, 3)
                assert persistence_scan(e, p, 4, 3) == expected, e
                other = CFExpansion(e.a0, e.body, None, not inf_tail)
                tail_changes_an_answer |= expected != self._oracle(other, p, 4, 3)
        assert tail_changes_an_answer

    def test_no_tail_is_read_as_loopcheck_reads_it(self):
        # [0; 3] draws 1, 2, 3: a loop mod 4; [0; 3, oo] also draws 4
        assert persistence_scan(CFExpansion(0, (3,)), 2, 2, 0) == [(1, 0), (2, None)]
        assert persistence_scan(CFExpansion(0, (3,), None, True), 2, 2, 0) == [(1, 0), (2, 0)]

    def test_levels_past_zero_are_built_only_when_read(self, monkeypatch):
        def no_surd(e):
            raise AssertionError("built the surd of a level never read")

        monkeypatch.setattr(heights, "cf_value", no_surd)
        # the Fibonacci denominators hit every 2^m at level 0
        assert persistence_scan(GOLDEN_CONJ, 2, 6, 5) == [(m, 0) for m in range(1, 7)]
        assert "refuted_at=0" in check_count_height(GOLDEN_CONJ, 2, 2, 5).witness


class TestSandwichConsistency:
    def test_restricted_constant_between_height_bounds(self):
        # min over proper convergent denominators q of q*||q*a|| lies strictly
        # between 1/(B+2) and 1/B, once every fan is represented
        rng = random.Random(35)
        for _ in range(150):
            e = random_finite_cf(rng, min_len=3, max_len=8, a0_max=2)
            x = Fraction(*convergent_pair(e, e.last_index))
            b = height(e)
            best = None
            for k in range(e.last_index):  # proper convergents only
                _, q = convergent_pair(e, k)
                dist = abs(q * x - round(q * x))
                if dist == Fraction(1, 2):
                    dist = Fraction(1, 2)
                value = q * dist
                best = value if best is None else min(best, value)
            assert Fraction(1, b + 2) < best < Fraction(1, b)


class TestScansMisc:
    def test_defs_equivalence_reports_a_disagreement(self, monkeypatch):
        geometric = heights.loop_verdict_geometric

        def flip_two_fifths_mod_3(e, n):
            verdict = geometric(e, n)
            if (e.a0, e.body, n) == (0, (2, 2), 3):  # 2/5
                assert verdict.kind == NOTLOOP
                return LoopVerdict.loop()
            return verdict

        monkeypatch.setattr(heights, "loop_verdict_geometric", flip_two_fifths_mod_3)
        report = run_defs_equivalence_scan(12, 2, 4)
        assert (report.total, report.violations, report.skipped, report.passed) == (135, 1, 0, False)
        assert report.first_violation.line() == "check=defs-equivalence x=2/5 n=3 pass=0 witness=NOTLOOP!=LOOP"
        assert report.records == []
        assert run_defs_equivalence_scan(12, 2, 4, keep_records=True).records == [report.first_violation]
        out = io.StringIO()
        argv = ["--format", "record", "verify", "defs-equivalence", "--q-max", "12", "--n-range", "2..4"]
        code = main(argv, out)
        lines = out.getvalue().splitlines()
        assert code == 1 and len(lines) == 2
        assert lines[0] == "check=defs-equivalence x=2/5 n=3 pass=0 witness=NOTLOOP!=LOOP"
        summary = "check=defs-equivalence n=2..4 q_max=12 cases=135 skipped=0 violations=1 pass=0 elapsed="
        assert lines[1].startswith(summary)

    def test_thma_scan(self):
        rep = run_thma_scan(150, 40, seed=5)
        assert rep.passed

    def test_dual_pushforward_scan(self):
        rep = run_dual_pushforward_scan(150, seed=6)
        assert rep.passed and rep.total == 150

    @pytest.mark.parametrize("helper, wrong, scan", [
        ("fan_chain", [], lambda keep: run_thma_scan(30, 10, seed=5, keep_records=keep)),
        ("_semiconvergent_pool", set(), lambda keep: run_dual_pushforward_scan(30, seed=6, keep_records=keep)),
    ])
    def test_failures_only_scans_keep_exactly_the_failed_record(self, monkeypatch, helper, wrong, scan):
        # the helper's first call answers wrong, so exactly the scan's first case fails
        real = getattr(heights, helper)
        for keep in (False, True):
            calls = []

            def first_call_fails(*args):
                calls.append(args)
                return wrong if len(calls) == 1 else real(*args)

            monkeypatch.setattr(heights, helper, first_call_fails)
            report = scan(keep)
            assert (report.violations, report.passed) == (1, False)
            assert report.records == ([report.first_violation] if keep else [])

    def test_record_mode_keeps_every_record_of_the_full_scans(self):
        scans = (
            lambda keep: run_noloop_scan([4, 5], 20, seed=1, keep_records=keep),
            lambda keep: run_infl_scan([(2, 2), (3, 1)], 20, seed=1, keep_records=keep),
            lambda keep: run_pro2_scan([2, 3], 20, seed=1, keep_records=keep),
            lambda keep: run_count_scan([(2, 2), (3, 2)], 20, seed=1, L=3, keep_records=keep),
        )
        skipped = 0
        for scan in scans:
            kept, counted = scan(True), scan(False)
            assert kept.total == counted.total == 40 and counted.records == []
            assert len(kept.records) == kept.total
            skipped += sum(not r.applicable for r in kept.records)
        assert skipped > 0  # skipped records are kept too

    def test_report_lines_are_stable(self):
        r1 = run_noloop_scan([5], 40, seed=9, keep_records=True)
        r2 = run_noloop_scan([5], 40, seed=9, keep_records=True)
        assert [x.line() for x in r1.records] == [x.line() for x in r2.records]
        assert r1.summary().rsplit("elapsed", 1)[0] == r2.summary().rsplit("elapsed", 1)[0]
