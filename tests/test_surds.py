import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from fareyloops.rationals import INFINITY, Rational
from fareyloops.surds import QuadSurd, is_reduced, is_square


def test_is_square():
    squares = {k * k for k in range(50)}
    for n in range(2000):
        assert is_square(n) == (n in squares)
    assert not is_square(-4)


class TestConstruction:
    def test_rejects_square_discriminant(self):
        with pytest.raises(ValueError):
            QuadSurd(0, 1, 9)
        with pytest.raises(ValueError):
            QuadSurd(1, 2, 0)

    def test_rejects_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            QuadSurd(1, 0, 5)

    def test_normalisation_invariant(self):
        s = QuadSurd(1, 3, 5)  # 3 does not divide 5 - 1
        assert (s.D - s.P * s.P) % s.Q == 0

    def test_equality_without_factoring(self):
        assert QuadSurd(0, 1, 2) == QuadSurd(0, 2, 8)
        assert QuadSurd(1, 2, 5) == QuadSurd(2, 4, 20)
        assert QuadSurd(0, 1, 2) != QuadSurd(0, 1, 3)
        assert QuadSurd(0, 1, 8) != QuadSurd(0, -1, 8)

    def test_hash_consistent(self):
        assert hash(QuadSurd(0, 1, 2)) == hash(QuadSurd(0, 2, 8))


def _fraction_key(s: QuadSurd) -> tuple:
    """The key surds were hashed on when it was built from Fractions."""
    return (Fraction(s.P, s.Q), 1 if s.Q > 0 else -1, Fraction(s.D, s.Q * s.Q))


class TestKeyOnRationals:
    """The equality key is built from Rationals; hash and equality must stay
    those of the Fraction key, so every set and dict of surds is unchanged."""

    @staticmethod
    def seeded_surds(count=2000):
        # small triples scaled by k, so that many name the same value; the
        # constructor rescales the ones whose Q does not divide D - P^2
        rng = random.Random("surd-keys")
        nonsquares = [d for d in range(2, 13) if not is_square(d)]
        surds, rescaled = [], 0
        while len(surds) < count:
            k = rng.randint(1, 3)
            P, Q, D = k * rng.randint(-3, 3), k * rng.choice((-1, 1)) * rng.randint(1, 3), k * k * rng.choice(nonsquares)
            s = QuadSurd(P, Q, D)
            rescaled += (s.P, s.Q, s.D) != (P, Q, D)
            surds.append(s)
        assert rescaled > count // 4 and sum(s.Q < 0 for s in surds) > count // 4
        return surds

    def test_hash_is_that_of_the_fraction_key(self):
        for s in self.seeded_surds():
            assert hash(s) == hash(_fraction_key(s)), s
            twin = QuadSurd(3 * s.P, 3 * s.Q, 9 * s.D)
            assert twin == s and hash(twin) == hash(s)

    def test_equal_exactly_when_the_fraction_keys_are(self):
        surds = self.seeded_surds()
        keys = [_fraction_key(s) for s in surds]
        equal = 0
        for i, (s, key) in enumerate(zip(surds, keys)):
            for t, other in zip(surds[i + 1:i + 41], keys[i + 1:i + 41]):
                assert (s == t) == (key == other), (s, t)
                equal += key == other
        assert equal > 100

    def test_equality_is_that_of_the_key(self):
        # __eq__ cross-multiplies rather than building the key's Rationals
        surds = self.seeded_surds()
        equal = 0
        for i, s in enumerate(surds):
            for t in surds[i + 1:i + 41]:
                for u in (t, QuadSurd(3 * t.P, 3 * t.Q, 9 * t.D)):
                    assert (s == u) == (s._key() == u._key()) == (u == s), (s, u)
                    equal += s == u
        assert equal > 200


class TestArithmetic:
    def test_floor(self):
        assert QuadSurd(0, 1, 2).floor() == 1
        assert QuadSurd(1, 2, 5).floor() == 1  # golden ratio
        assert QuadSurd(-1, 2, 5).floor() == 0  # golden conjugate
        assert QuadSurd(0, -1, 2).floor() == -2  # -sqrt(2)

    def test_shift_scale(self):
        golden = QuadSurd(1, 2, 5)
        assert golden.shifted(3).floor() == 4
        assert golden.scaled(2) == QuadSurd(2, 2, 20)

    def test_reciprocal(self):
        s = QuadSurd(0, 1, 2)
        r = s.reciprocal()  # 1/sqrt(2) = sqrt(2)/2
        assert r == QuadSurd(0, 2, 2)
        assert r.reciprocal() == s

    def test_comparisons_with_rationals(self):
        sqrt2 = QuadSurd(0, 1, 2)
        assert sqrt2 > Rational(1)
        assert sqrt2 < Rational(3, 2)
        assert sqrt2 > Rational(7, 5)
        assert sqrt2 < Rational(17, 12)
        assert sqrt2 < INFINITY
        assert not sqrt2 > INFINITY

    def test_is_positive(self):
        assert QuadSurd(-1, 2, 5).is_positive()
        assert not QuadSurd(-3, 1, 5).is_positive()
        assert not QuadSurd(1, -2, 5).is_positive()


@given(
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=2, max_value=400).filter(lambda d: not is_square(d)),
)
def test_floor_matches_float(P, Q, D):
    s = QuadSurd(P, Q, D)
    assert s.floor() == math.floor((P + math.sqrt(D)) / Q)


@given(
    st.integers(min_value=-20, max_value=20),
    st.integers(min_value=1, max_value=15),
    st.integers(min_value=2, max_value=300).filter(lambda d: not is_square(d)),
    st.integers(min_value=-8, max_value=8),
    st.integers(min_value=1, max_value=8),
)
def test_comparison_matches_float(P, Q, D, p, q):
    s = QuadSurd(P, Q, D)
    x = (P + math.sqrt(D)) / Q
    r = p / q
    if abs(x - r) > 1e-9:
        assert (s < Rational(p, q)) == (x < r)


@given(
    st.integers(min_value=-60, max_value=60),
    st.integers(min_value=-40, max_value=40).filter(bool),
    st.integers(min_value=-200, max_value=5000),
)
def test_reduced_means_above_one_with_conjugate_in_minus_one_zero(P, Q, t):
    D = P * P + Q * t  # Q divides D - P^2, so QuadSurd keeps (P, Q, D)
    if D <= 0 or is_square(D):
        return
    s = QuadSurd(P, Q, D)
    conjugate = QuadSurd(-P, -Q, D)  # (P - sqrt(D))/Q
    expected = s > 1 and -1 < conjugate < 0
    assert is_reduced(P, Q, math.isqrt(D)) == expected


@st.composite
def normalised_surds(draw):
    """A valid (P, Q, D): Q of either sign, D = P^2 + Q*t a positive
    non-square, so that Q divides D - P^2 and QuadSurd keeps the triple."""
    P = draw(st.integers(min_value=-10**4, max_value=10**4))
    Q = draw(st.integers(min_value=-500, max_value=500).filter(bool))
    D = P * P + Q * draw(st.integers(min_value=-(10**6), max_value=10**6))
    assume(D > 0 and not is_square(D))
    return QuadSurd(P, Q, D)


class TestDerivedSurds:
    """`shifted`, `scaled` and `reciprocal` build their result without the
    constructor's checks; the validating constructor, given the same triple,
    must produce a value that no reader can tell apart."""

    @staticmethod
    def assert_as_validated(derived, P, Q, D):
        validated = QuadSurd(P, Q, D)
        assert type(derived) is QuadSurd
        assert (derived.P, derived.Q, derived.D) == (validated.P, validated.Q, validated.D) == (P, Q, D)
        assert derived == validated and hash(derived) == hash(validated)
        assert repr(derived) == repr(validated) and str(derived) == str(validated)
        assert pickle.dumps(derived) == pickle.dumps(validated)
        assert pickle.loads(pickle.dumps(derived)) == validated

    @given(normalised_surds(), st.integers(min_value=-(10**6), max_value=10**6))
    def test_shifted(self, s, k):
        self.assert_as_validated(s.shifted(k), s.P + k * s.Q, s.Q, s.D)

    @given(normalised_surds(), st.integers(min_value=1, max_value=10**6))
    def test_scaled(self, s, n):
        self.assert_as_validated(s.scaled(n), n * s.P, s.Q, n * n * s.D)

    @given(normalised_surds())
    def test_reciprocal(self, s):
        self.assert_as_validated(s.reciprocal(), -s.P, (s.D - s.P * s.P) // s.Q, s.D)

    @given(normalised_surds(), st.integers(min_value=-(10**6), max_value=0))
    def test_scale_factor_below_one_is_rejected(self, s, n):
        with pytest.raises(ValueError, match="scale factor must be >= 1"):
            s.scaled(n)

    @pytest.mark.parametrize("P, Q, D, error", [
        (1, 0, 5, ZeroDivisionError),
        (0, 0, 9, ZeroDivisionError),
        (0, 1, 9, ValueError),
        (3, -2, 10**12, ValueError),
        (1, 2, 0, ValueError),
        (1, 1, -7, ValueError),
        (0, -3, -2, ValueError),
    ])
    def test_constructor_still_validates(self, P, Q, D, error):
        with pytest.raises(error):
            QuadSurd(P, Q, D)
