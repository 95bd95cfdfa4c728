import itertools
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fareyloops.rationals import (
    INFINITY,
    FareyEdge,
    Rational,
    farey_difference,
    farey_mediant,
    is_dual_neighbor,
    is_farey_neighbor,
    is_gamma0_neighbor,
)


def R(num, den=1):
    return Rational(num, den)


class TestRational:
    def test_reduction_and_sign(self):
        assert R(6, 4) == R(3, 2)
        assert R(-6, 4) == R(-3, 2)
        assert R(3, -2) == R(-3, 2)
        assert R(0, -7) == R(0, 1)

    def test_infinity_canonical(self):
        assert R(5, 0) == INFINITY
        assert R(-5, 0) == INFINITY
        assert INFINITY.num == 1 and INFINITY.den == 0

    def test_zero_over_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            R(0, 0)

    def test_total_order(self):
        assert R(1, 3) < R(2, 5) < R(1, 2) < R(1) < INFINITY
        assert not INFINITY < INFINITY
        assert R(-1, 2) < R(0)

    def test_scaled(self):
        assert R(1, 2).scaled(6) == R(3)
        assert R(2, 3).scaled(6) == R(4)
        assert INFINITY.scaled(7) == INFINITY

    def test_shifted(self):
        assert R(1, 2).shifted(3) == R(7, 2)
        assert R(3, 5).shifted(-1) == R(-2, 5)
        assert R(4).shifted(0) == R(4)
        assert INFINITY.shifted(-5) == INFINITY

    def test_str(self):
        assert str(R(3, 7)) == "3/7"
        assert str(INFINITY) == "1/0"

    def test_immutable(self):
        with pytest.raises(AttributeError):
            R(1, 2).num = 7


class TestEdge:
    def test_unordered(self):
        assert FareyEdge(R(1, 2), R(1, 3)) == FareyEdge(R(1, 3), R(1, 2))
        assert FareyEdge(R(0), INFINITY).is_base

    def test_degenerate(self):
        with pytest.raises(ValueError):
            FareyEdge(R(1, 2), R(2, 4))


class TestMediantDifference:
    def test_mediant_examples(self):
        assert farey_mediant(R(0), R(1)) == R(1, 2)
        assert farey_mediant(R(0), INFINITY) == R(1)
        assert farey_mediant(R(1, 3), R(2, 5)) == R(3, 8)

    def test_mediant_is_the_reduced_sum_of_any_two_points(self):
        # neighbours or not, signed or infinite: the canonical Rational of (p+r)/(q+s)
        points = [INFINITY] + [R(p, q) for q in range(1, 7) for p in range(-7, 8)]
        for a, b in itertools.permutations(points, 2):
            if a != b:
                m, want = farey_mediant(a, b), R(a.num + b.num, a.den + b.den)
                assert type(m) is Rational and (m.num, m.den) == (want.num, want.den)

    def test_mediant_rejects_equal(self):
        with pytest.raises(ValueError):
            farey_mediant(R(1, 2), R(1, 2))
        with pytest.raises(ValueError):
            farey_mediant(INFINITY, INFINITY)
        # equal values in unreduced spelling are still the same point
        with pytest.raises(ValueError):
            farey_mediant(R(2, 4), R(1, 2))

    def test_difference_examples(self):
        assert farey_difference(R(1, 2), R(1)) == R(0)
        assert farey_difference(INFINITY, R(0)) == R(-1)
        assert farey_difference(R(3, 8), R(1, 3)) == R(2, 5)

    def test_difference_rejects_equal(self):
        with pytest.raises(ValueError):
            farey_difference(R(2, 3), R(2, 3))

    def test_difference_undoes_mediant(self):
        for a, b in [(R(0), R(1)), (R(1, 3), R(2, 5)), (R(2, 7), R(1, 3))]:
            assert farey_difference(farey_mediant(a, b), a) == b


class TestNeighborPredicates:
    def test_farey_examples(self):
        assert is_farey_neighbor(R(1, 2), R(2, 3))
        assert is_farey_neighbor(R(0), INFINITY)
        assert is_farey_neighbor(R(1, 3), R(2, 5))
        assert not is_farey_neighbor(R(1, 3), R(3, 5))

    def test_gamma0_examples(self):
        assert is_gamma0_neighbor(R(0), R(1, 2), 2)
        assert not is_gamma0_neighbor(R(1, 3), R(1, 2), 5)
        assert is_gamma0_neighbor(R(0), R(1, 5), 5)

    def test_gamma0_level_one(self):
        assert is_gamma0_neighbor(R(1, 2), R(2, 3), 1)
        assert not is_gamma0_neighbor(R(1, 3), R(3, 5), 1)

    def test_dual_examples(self):
        assert is_dual_neighbor(R(1, 2), R(1, 3), 6)
        assert not is_dual_neighbor(R(1, 2), R(1, 3), 5)

    def test_dual_but_not_gamma0_at_six(self):
        assert is_dual_neighbor(R(1, 2), R(1, 3), 6)
        assert not is_gamma0_neighbor(R(1, 2), R(1, 3), 6)

    def test_integer_vertex_edges(self):
        for n in (2, 3, 5, 12):
            for k in range(4):
                assert is_gamma0_neighbor(R(k), INFINITY, n)


def unit_interval_neighbor_pairs(max_den):
    """All Farey-neighbour pairs inside [0, 1] with both denominators <= max_den,
    generated by mediant subdivision of the base interval."""
    stack = [(Rational(0), Rational(1))]
    while stack:
        a, b = stack.pop()
        yield a, b
        m = farey_mediant(a, b)
        if m.den <= max_den:
            stack.append((a, m))
            stack.append((m, b))


class TestExhaustiveNeighborStructure:
    def test_mediant_closure_dens_up_to_100(self):
        for a, b in unit_interval_neighbor_pairs(100):
            m = farey_mediant(a, b)
            assert is_farey_neighbor(a, m)
            assert is_farey_neighbor(m, b)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 9, 10, 12])
    def test_gamma0_implies_dual(self, n):
        for a, b in unit_interval_neighbor_pairs(60):
            if is_gamma0_neighbor(a, b, n):
                assert is_dual_neighbor(a, b, n)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27])
    def test_prime_power_equivalence_dens_up_to_100(self, n):
        for a, b in unit_interval_neighbor_pairs(100):
            assert is_gamma0_neighbor(a, b, n) == is_dual_neighbor(a, b, n)

    @pytest.mark.parametrize("n", [6, 10, 12, 15])
    def test_composite_levels_have_strict_gap(self, n):
        strict = [
            (a, b)
            for a, b in unit_interval_neighbor_pairs(40)
            if is_dual_neighbor(a, b, n) and not is_gamma0_neighbor(a, b, n)
        ]
        assert strict


@given(
    st.integers(min_value=-40, max_value=40),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=-40, max_value=40),
    st.integers(min_value=1, max_value=40),
)
def test_mediant_commutes_and_sits_between(p, q, r, s):
    a, b = Rational(p, q), Rational(r, s)
    if a == b:
        return
    m = farey_mediant(a, b)
    assert m == farey_mediant(b, a)
    lo, hi = (a, b) if a < b else (b, a)
    assert lo < m < hi


@given(
    st.integers(min_value=-40, max_value=40),
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=-40, max_value=40),
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=1, max_value=12),
)
def test_gamma0_is_a_farey_edge_with_one_denominator_divisible(p, q, r, s, n):
    if (p, q) == (0, 0) or (r, s) == (0, 0):
        return
    a, b = Rational(p, q), Rational(r, s)
    one_divisible = (a.den % n == 0) != (b.den % n == 0)
    assert is_gamma0_neighbor(a, b, n) == (is_farey_neighbor(a, b) and (n == 1 or one_divisible))


@given(
    st.integers(min_value=-(10**30), max_value=10**30),
    st.integers(min_value=0, max_value=10**30)
    | st.just(1)
    | st.integers(min_value=1, max_value=5).map(lambda k: k * sys.hash_info.modulus),
    st.integers(min_value=-(10**20), max_value=10**20).filter(bool),
)
def test_equal_values_hash_equal(p, q, k):
    # sets and dicts rely only on a == b implying hash(a) == hash(b): the
    # same value built from a scaled pair, and an integer against its int.
    # Covers negatives, 0, huge values, denominators that the hash modulus
    # divides, and infinity (q = 0, any sign of numerator)
    if (p, q) == (0, 0):
        return
    a, b = Rational(p, q), Rational(k * p, k * q)
    assert a == b and hash(a) == hash(b)
    if q and p % q == 0:
        assert a == p // q and hash(a) == hash(p // q)


def test_hash_of_infinity_minus_one_and_int_keys():
    assert INFINITY == Rational(-7, 0) and hash(INFINITY) == hash(Rational(-7, 0))
    # hash() maps a -1 from __hash__ to -2 by itself, as it does for the int
    assert hash(Rational(-1)) == hash(-1) == -2 and hash(Rational(3, -3)) == hash(-1)
    assert hash(Rational(0, -5)) == hash(0)
    m = sys.hash_info.modulus
    assert Rational(-2 * m, 2 * m * m) == Rational(-1, m) and hash(Rational(-2 * m, 2 * m * m)) == hash(Rational(-1, m))
    # Rational(2) and 2 are one key, either way round
    assert {Rational(2): "r"}[2] == "r" and {2: "i"}[Rational(4, 2)] == "i"
    assert len({Rational(2), 2, Rational(-6, -3)}) == 1
