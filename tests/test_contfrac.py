import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from fareyloops.contfrac import (
    CFExpansion,
    _finite,
    cf_eval,
    cf_from_rational,
    cf_of_surd,
    cf_value,
    convergent,
    convergent_pair,
    convergents,
    euclid_entries,
    fans,
    format_cf,
    height,
    multiply_cf,
    parse_cf,
    semiconvergent,
    shift_cf,
    surd_prefix,
    twin_entries,
    twin_of,
)
from fareyloops.rationals import INFINITY, Rational
from fareyloops.sampling import random_finite_cf, random_periodic_cf
from fareyloops.surds import QuadSurd

GOLDEN_CONJ = CFExpansion(0, (), (1,))  # (sqrt(5)-1)/2
SQRT2 = CFExpansion(1, (), (2,))


class TestExpansionType:
    def test_validation(self):
        with pytest.raises(ValueError):
            CFExpansion(-1, (2,))
        with pytest.raises(ValueError):
            CFExpansion(0, (0, 2))
        with pytest.raises(ValueError):
            CFExpansion(0, (2,), ())
        with pytest.raises(ValueError):
            CFExpansion(0, (2,), (1,), True)

    def test_period_minimised(self):
        assert CFExpansion(1, (), (2, 3, 2, 3)) == CFExpansion(1, (), (2, 3))
        assert CFExpansion(1, (), (3, 4) * 3).period == (3, 4)
        assert CFExpansion(1, (), (1, 2, 1)).period == (1, 2, 1)

    def test_preperiod_minimised(self):
        # [1; 2, (1, 2)] = [1; (2, 1)]
        e = CFExpansion(1, (2,), (1, 2))
        assert e.body == ()
        assert e.period == (2, 1)
        # a long absorbed preperiod, and one absorbed across a rotated period
        assert CFExpansion(0, (7,) * 50, (7, 7)) == CFExpansion(0, (), (7,))
        e = CFExpansion(0, (5, 3, 4), (3, 4, 3, 4))
        assert (e.body, e.period) == ((5,), (3, 4))

    def test_leading_term_never_absorbed(self):
        e = CFExpansion(1, (), (1,))
        assert e.a0 == 1 and e.period == (1,)

    def test_entry_unrolls_period(self):
        e = CFExpansion(1, (2,), (3, 4))
        assert [e.entry(i) for i in range(7)] == [1, 2, 3, 4, 3, 4, 3]
        with pytest.raises(IndexError):
            CFExpansion(0, (2, 3)).entry(3)


def _fraction(r: Rational) -> Fraction:
    """The oracle's copy of a finite Rational."""
    return Fraction(r.num, r.den)


class TestEuclid:
    def test_both_expansions_of_three_sevenths(self):
        canonical, twin = cf_from_rational(Rational(3, 7))
        assert (canonical.a0, canonical.body) == (0, (2, 3))
        assert (twin.a0, twin.body) == (0, (2, 2, 1))
        assert canonical.inf_tail and twin.inf_tail

    def test_integer(self):
        canonical, twin = cf_from_rational(Rational(2))
        assert (canonical.a0, canonical.body) == (2, ())
        assert (twin.a0, twin.body) == (1, (1,))

    def test_one_half(self):
        canonical, twin = cf_from_rational(Rational(1, 2))
        assert (canonical.a0, canonical.body) == (0, (2,))
        assert (twin.a0, twin.body) == (0, (1, 1))

    def test_zero_is_its_own_twin(self):
        canonical, twin = cf_from_rational(Rational(0))
        assert canonical == twin == CFExpansion(0, (), None, True)

    @pytest.mark.parametrize("x", (Fraction(1, 2), Fraction(3), 0, 3, 0.5, 2.0), ids=repr)
    def test_takes_only_a_rational(self, x):
        with pytest.raises(TypeError, match="takes a Rational"):
            cf_from_rational(x)

    def test_rejects_negative_and_infinite(self):
        with pytest.raises(ValueError):
            cf_from_rational(Rational(-1, 2))
        with pytest.raises(ValueError):
            cf_from_rational(INFINITY)

    def test_both_evaluate_back(self):
        rng = random.Random(1)
        for _ in range(200):
            num, den = rng.randint(0, 400), rng.randint(1, 60)
            for e in cf_from_rational(Rational(num, den)):
                assert _fraction(cf_eval(e)) == Fraction(num, den)

    def test_twin_of_round_trip(self):
        canonical, twin = cf_from_rational(Rational(3, 7))
        assert twin_of(canonical) == twin
        assert twin_of(twin) == canonical


class TestConvergents:
    def test_eval_examples(self):
        assert cf_eval(CFExpansion(0, (2, 3))) == Rational(3, 7)
        assert cf_eval(CFExpansion(1, (1, 1, 1, 1))) == Rational(8, 5)
        assert cf_eval(CFExpansion(0, (2, 3)), -1) == INFINITY

    def test_eval_depth_errors(self):
        with pytest.raises(IndexError):
            cf_eval(CFExpansion(0, (2, 3)), -2)
        with pytest.raises(IndexError):
            cf_eval(CFExpansion(0, (2, 3)), 5)

    def test_golden_chain(self):
        expected = ["1/0", "0/1", "1/1", "1/2", "2/3", "3/5", "5/8", "8/13"]
        got = [str(convergent(GOLDEN_CONJ, k)) for k in range(-1, 7)]
        assert got == expected

    def test_sqrt5_convergent(self):
        sqrt5 = CFExpansion(2, (), (4,))
        assert convergent(sqrt5, 1) == Rational(9, 4)

    def test_convergents_list(self):
        assert convergents(CFExpansion(0, (2, 3))) == [
            INFINITY,
            Rational(0),
            Rational(1, 2),
            Rational(3, 7),
        ]


class TestSemiconvergents:
    def test_example(self):
        assert semiconvergent(CFExpansion(0, (2, 3)), 1, 2) == Rational(2, 5)

    def test_m_zero_gives_previous_convergent(self):
        e = CFExpansion(0, (2, 3, 4))
        for k in range(3):
            assert semiconvergent(e, k, 0) == convergent(e, k - 1)

    def test_full_fan_closes_recurrence(self):
        e = CFExpansion(0, (2, 3, 4))
        for k in range(2):
            assert semiconvergent(e, k, e.entry(k + 1)) == convergent(e, k + 1)

    def test_fan_bound_enforced(self):
        e = CFExpansion(0, (2, 3))
        with pytest.raises(ValueError):
            semiconvergent(e, 0, 3)
        with pytest.raises(IndexError):
            semiconvergent(e, 2, 1)  # final fan needs the oo-tail
        tailed = CFExpansion(0, (2, 3), None, True)
        assert semiconvergent(tailed, 2, 5) == Rational(5 * 3 + 1, 5 * 7 + 2)

    def test_signed_determinant_with_pivot(self):
        rng = random.Random(2)
        for _ in range(100):
            e = random_finite_cf(rng)
            for k in range(e.last_index):
                p, q = convergent_pair(e, k)
                for m in range(e.entry(k + 1) + 1):
                    s = semiconvergent(e, k, m)
                    assert s.num * q - p * s.den == (-1) ** k


def _assert_validated(got: Rational, p: int, q: int) -> None:
    """got is the Rational that the validating constructor builds from p/q."""
    want = Rational(p, q)
    assert type(got) is Rational and (got.num, got.den) == (want.num, want.den), (got, p, q)
    assert got == want and hash(got) == hash(want)


class TestUncheckedBuilds:
    """Convergents and semi-convergents are built unchecked, as the determinant
    identity puts them in lowest terms, and Euclid's and twin entries through
    ``_finite``: each build is the validating constructor's, in its fields,
    equality and hash."""

    @staticmethod
    def seeded_expansions() -> list[CFExpansion]:
        rng = random.Random("unchecked-builds")
        finite = [random_finite_cf(rng, min_len=0, inf_tail=i % 2 == 1) for i in range(150)]
        twins = [twin_of(e) for e in finite if e.a0 or e.body]
        return finite + twins + [random_periodic_cf(rng) for _ in range(150)]

    def test_convergents_are_the_validated_fractions(self):
        for e in self.seeded_expansions():
            upto = e.last_index if e.is_finite else 12
            pairs = [fan[4:] for fan in itertools.islice(fans(e.digits()), upto + 2)]
            got = convergents(e, upto)
            assert len(got) == len(pairs) == upto + 2
            for k, (conv, (p, q)) in enumerate(zip(got, pairs), start=-1):
                _assert_validated(conv, p, q)
                _assert_validated(convergent(e, k), p, q)

    def test_semiconvergents_are_the_validated_fractions(self):
        # every expansion's {0, 0} is the seed vertex 1/0
        tail_fans = 0
        for e in self.seeded_expansions():
            last = e.last_index if e.is_finite else 12
            for k, a, p_prev, q_prev, p, q in itertools.islice(fans(e.digits()), 1, last + 2):
                if a is None and not e.inf_tail:
                    break  # the final fan needs the oo-tail
                tail_fans += a is None
                for m in range(a + 1 if a is not None else 7):
                    _assert_validated(semiconvergent(e, k, m), m * p + p_prev, m * q + q_prev)
        assert tail_fans > 100

    def test_finite_builds_what_the_constructor_builds(self):
        rng = random.Random("finite-builds")
        values = [Rational(n) for n in range(4)]
        values += [Rational(rng.randint(0, 400), rng.randint(1, 60)) for _ in range(300)]
        for x in values:
            euclid = euclid_entries(x.num, x.den)
            for entries in [euclid] + ([twin_entries(euclid)] if x.num else []):
                for tail in (False, True):
                    built = _finite(entries, tail)
                    want = CFExpansion(entries[0], entries[1:], None, tail)
                    assert type(built) is CFExpansion and built._astuple(built) == want._astuple(want)
                    assert built == want and hash(built) == hash(want), (entries, tail)


class TestHeight:
    def test_examples(self):
        assert height(CFExpansion(0, (1, 2, 3))) == 3
        assert height(CFExpansion(0, (2,), None, True)) == math.inf
        assert height(CFExpansion(2, (), (4,))) == 4

    def test_a0_excluded(self):
        assert height(CFExpansion(9, (1, 2))) == 2
        assert height(CFExpansion(7, ())) == 0

    def test_shift_invariant(self):
        rng = random.Random(3)
        for _ in range(50):
            e = random_periodic_cf(rng)
            assert height(shift_cf(e, 2)) == height(e)


class TestSurdExpansion:
    def test_classical_values(self):
        assert cf_of_surd(QuadSurd(0, 1, 2)) == SQRT2
        assert cf_of_surd(QuadSurd(0, 1, 8)) == CFExpansion(2, (), (1, 4))
        assert cf_of_surd(QuadSurd(1, 2, 5)) == CFExpansion(1, (), (1,))
        assert cf_of_surd(QuadSurd(-1, 2, 5)) == GOLDEN_CONJ
        # 2*sqrt(5) - 2
        assert cf_of_surd(QuadSurd(-2, 1, 20)) == CFExpansion(2, (), (2, 8))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            cf_of_surd(QuadSurd(-5, 2, 5))

    def test_value_round_trip(self):
        rng = random.Random(4)
        for _ in range(300):
            e = random_periodic_cf(rng)
            assert cf_of_surd(cf_value(e)) == e

    @given(
        st.integers(min_value=0, max_value=9),
        st.lists(st.integers(min_value=1, max_value=9), max_size=6),
        st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=5),
    )
    def test_value_round_trip_any_periodic(self, a0, body, period):
        e = CFExpansion(a0, tuple(body), tuple(period))
        assert cf_of_surd(cf_value(e)) == e

    def test_prefix_is_the_first_digits_of_the_expansion(self):
        rng = random.Random(42)
        for _ in range(200):
            s = cf_value(random_periodic_cf(rng))
            e = cf_of_surd(s)
            for depth in (0, 1, rng.randint(2, 30)):
                digits = list(itertools.islice(e.digits(), depth + 1))
                assert surd_prefix(s, depth) == CFExpansion(digits[0], digits[1:])

    def test_prefix_rejects_nonpositive(self):
        for s in (QuadSurd(-5, 2, 5), QuadSurd(0, -1, 2)):
            with pytest.raises(ValueError, match="expansion requires a positive value"):
                surd_prefix(s, 3)

    def test_surd_round_trip(self):
        for surd in [QuadSurd(0, 1, 2), QuadSurd(3, 2, 5), QuadSurd(-1, 3, 7),
                     QuadSurd(5, 4, 19), QuadSurd(1, 7, 13)]:
            if surd.is_positive():
                assert cf_value(cf_of_surd(surd)) == surd

    def test_matches_sympy(self):
        # an oracle that shares no code with QuadSurd.steps; CI installs sympy, so it runs there
        sympy_cf = pytest.importorskip("sympy.ntheory.continued_fraction").continued_fraction_periodic
        rng = random.Random(41)
        checked = 0
        while checked < 40:
            # Q | D - P^2, so that neither side scales D up by Q^2
            P, Q = rng.randint(-99, 99), rng.choice((-1, 1)) * rng.randint(1, 99)
            D = P * P + Q * rng.randint(-101, 101)
            if not 2 <= D <= 10**4 or math.isqrt(D) ** 2 == D:
                continue
            s = QuadSurd(P, Q, D)
            s = s.shifted(rng.randint(0, 3) - s.floor())  # positive, a_0 in 0..3
            e = cf_of_surd(s)
            *head, period = sympy_cf(s.P, s.Q, s.D)
            if not head:  # sympy folds the a_0 of a purely periodic value into its period
                head, period = period[:1], period[1:] + period[:1]
            assert len(period) == len(e.period), (s, e)
            count = 1 + len(e.body) + 3 * len(e.period)
            want = list(itertools.islice(itertools.chain(head, itertools.cycle(period)), count))
            assert list(itertools.islice(e.digits(), count)) == want, (s, e)
            checked += 1


@st.composite
def normalised_surds(draw):
    """A positive normalised (P + sqrt(D))/Q with P and Q of either sign,
    shifted into (0, 1) half of the time."""
    P = draw(st.integers(min_value=-60, max_value=60))
    Q = draw(st.integers(min_value=-40, max_value=40).filter(bool))
    t = draw(st.integers(min_value=-200, max_value=5000))
    D = P * P + Q * t  # Q divides D - P^2
    assume(D > 0 and math.isqrt(D) ** 2 != D)
    s = QuadSurd(P, Q, D)
    if draw(st.booleans()):
        s = s.shifted(-s.floor())
    assume(s.is_positive())
    return s


def unreduced_surd_of_periodic(e):
    """The periodic value rebuilt from the period's matrix product without
    taking out the common factor of its entries."""
    a, b, c, d = 1, 0, 0, 1
    for entry in e.period:
        a, b, c, d = a * entry + b, a, c * entry + d, c
    P, Q, D = a - d, 2 * c, (a - d) ** 2 + 4 * b * c
    for entry in reversed((e.a0, *e.body)):
        P, Q = -P, (D - P * P) // Q
        P += entry * Q
    return QuadSurd(P, Q, D)


class TestLowestTerms:
    @given(normalised_surds())
    def test_rebuilt_value_is_in_lowest_terms(self, s):
        rebuilt = cf_value(cf_of_surd(s))
        assert rebuilt == s
        assert (4 * s.D) % rebuilt.D == 0

    def test_long_period_keeps_a_small_discriminant(self):
        s = QuadSurd(1, 3, 1000108)
        e = cf_of_surd(s)
        assert len(e.period) == 1080
        rebuilt = cf_value(e)
        assert rebuilt == s
        assert rebuilt.D < 10**19
        # the unreduced rebuild carries the period's growth in D
        assert unreduced_surd_of_periodic(e).D > 10**1000

    def test_multiply_matches_the_unreduced_rebuild(self):
        rng = random.Random(11)
        for _ in range(150):
            e = random_periodic_cf(rng)
            n = rng.randint(2, 30)
            assert multiply_cf(e, n) == cf_of_surd(unreduced_surd_of_periodic(e).scaled(n))


class TestMultiplyShift:
    def test_examples(self):
        assert multiply_cf(CFExpansion(0, (2,), None, True), 2) == CFExpansion(1, (), None, True)
        assert multiply_cf(CFExpansion(0, (2, 3), None, True), 5) == CFExpansion(2, (7,), None, True)
        assert multiply_cf(GOLDEN_CONJ, 2) == CFExpansion(1, (), (4,))

    def test_rational_value_semantics(self):
        rng = random.Random(5)
        for _ in range(150):
            e = random_finite_cf(rng)
            n = rng.randint(1, 9)
            assert _fraction(cf_eval(multiply_cf(e, n))) == n * _fraction(cf_eval(e))

    @staticmethod
    def _scaled_through_values(e, n):
        # the route through the value domain: evaluate, scale, expand
        canonical, _ = cf_from_rational(cf_eval(e).scaled(n))
        return CFExpansion(canonical.a0, canonical.body, None, e.inf_tail)

    def test_finite_matches_the_value_route(self):
        rng = random.Random(26)
        cases = [CFExpansion(0), CFExpansion(0, (), None, True), CFExpansion(7), CFExpansion(3, (), None, True)]
        for _ in range(150):
            e = random_finite_cf(rng, min_len=0, max_len=6, inf_tail=rng.random() < 0.5)
            cases.append(e)
            if e.body:
                cases.append(twin_of(e))  # a form ending in 1 comes back canonical
        for e in cases:
            for n in range(2, 51):  # n = 1 returns e itself, twin form included
                got = multiply_cf(e, n)
                assert got == self._scaled_through_values(e, n), (e, n)
                assert got.inf_tail == e.inf_tail

    def test_finite_keeps_the_tail_flag_on_zero_and_integers(self):
        assert multiply_cf(CFExpansion(0), 5) == CFExpansion(0)
        assert multiply_cf(CFExpansion(0, (), None, True), 5) == CFExpansion(0, (), None, True)
        assert multiply_cf(CFExpansion(4), 50) == CFExpansion(200)
        assert multiply_cf(CFExpansion(0, (1, 1), None, True), 2) == CFExpansion(1, (), None, True)

    def test_periodic_value_semantics(self):
        rng = random.Random(6)
        for _ in range(100):
            e = random_periodic_cf(rng)
            n = rng.randint(2, 8)
            assert cf_value(multiply_cf(e, n)) == cf_value(e).scaled(n)

    def test_shift(self):
        assert shift_cf(CFExpansion(0, (2, 3)), 1) == CFExpansion(1, (2, 3))
        assert shift_cf(CFExpansion(2, (), (4,)), -2) == CFExpansion(0, (), (4,))
        assert shift_cf(GOLDEN_CONJ, 0) == GOLDEN_CONJ
        with pytest.raises(ValueError):
            shift_cf(CFExpansion(1, (2,)), -2)


class TestDeterminantAndSandwich:
    def test_convergent_determinant(self):
        rng = random.Random(7)
        for _ in range(300):
            e = random_finite_cf(rng)
            p_prev, q_prev = convergent_pair(e, -1)
            for k in range(e.last_index + 1):
                p, q = convergent_pair(e, k)
                assert abs(p * q_prev - p_prev * q) == 1
                p_prev, q_prev = p, q

    def test_two_sided_approximation(self):
        # 1/((a_{k+1}+2) q_k^2) < |x - p_k/q_k| < 1/(a_{k+1} q_k^2)
        rng = random.Random(8)
        for _ in range(200):
            e = random_finite_cf(rng, min_len=3, max_len=9)
            x = _fraction(cf_eval(e))
            for k in range(e.last_index):
                p, q = convergent_pair(e, k)
                gap = abs(x - Fraction(p, q))
                a_next = e.entry(k + 1)
                assert Fraction(1, (a_next + 2) * q * q) < gap
                assert gap < Fraction(1, a_next * q * q)


class TestTextFormat:
    def test_examples(self):
        assert format_cf(CFExpansion(0, (2, 3), None, True)) == "[0; 2, 3, oo]"
        assert format_cf(CFExpansion(1, (), (2,))) == "[1; (2)]"
        assert format_cf(CFExpansion(2, ())) == "[2]"
        assert format_cf(CFExpansion(1, (2,), (3, 4))) == "[1; 2, (3, 4)]"

    def test_parse_examples(self):
        assert parse_cf("[0; 2, 3, oo]") == CFExpansion(0, (2, 3), None, True)
        assert parse_cf("[1; (2)]") == CFExpansion(1, (), (2,))
        assert parse_cf("[2]") == CFExpansion(2, ())

    def test_parse_rejects_garbage(self):
        for bad in [
            "0; 2",
            "[1; 2, (3]",
            "[1; oo, 2]",
            "[1; 2,, 3]",
            "[0; (1), (2)]",
            "[0; 2, oo, oo]",
            "[0; (1), oo]",
            "[0; ()]",
            "[; 1]",
            "[0; (1,,2)]",
            "[1; 2]]",
            "[0; 0]",
            "[-1; 2]",
            "[0; (0)]",
            "[0; 2, (0, 1)]",
        ]:
            with pytest.raises(ValueError) as info:
                parse_cf(bad)
            assert repr(bad) in str(info.value)

    @given(
        st.integers(min_value=0, max_value=9),
        st.lists(st.integers(min_value=1, max_value=9), max_size=5),
        st.one_of(
            st.none(),
            st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=4),
        ),
        st.booleans(),
    )
    def test_round_trip(self, a0, body, period, tail):
        if period is not None and tail:
            tail = False
        e = CFExpansion(a0, tuple(body), tuple(period) if period else None, tail)
        assert parse_cf(format_cf(e)) == e
