"""Exact quadratic irrationals (P + sqrt(D))/Q.

The value domain for eventually periodic continued fractions.  D is a
positive non-square; the representation is normalised so that Q divides
D - P*P, which keeps the expansion recurrence integral.  Comparisons against
rationals, integer shifts/scalings and reciprocals are all exact.
"""

from __future__ import annotations

import math
from typing import Iterator, Union

from .rationals import Immutable, Rational


class _Period:
    """The type of ``PERIOD``, which a digit stream yields just before each pass over its period."""

    def __repr__(self):
        return "PERIOD"


PERIOD = _Period()


def is_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def _floor(P: int, Q: int, s: int) -> int:
    """floor((P + sqrt(D))/Q) for s = isqrt(D), D non-square, so that
    s < sqrt(D) < s + 1 strictly."""
    if Q > 0:
        return (P + s) // Q
    return -((P + s) // (-Q)) - 1


def is_reduced(P: int, Q: int, r: int) -> bool:
    """Whether (P + sqrt(D))/Q, with r = isqrt(D), is reduced: greater than 1
    with conjugate in (-1, 0).

    By Galois's theorem these are exactly the purely periodic values, so in
    an expansion the first reduced state is the first state of the period.
    """
    return P <= r and r - P < Q <= r + P


class QuadSurd(Immutable):
    """Value (P + sqrt(D))/Q with D > 0 non-square and Q | D - P^2.

    `QuadSurd(P, Q, D)` validates: it rejects Q = 0 and a square or nonpositive
    D, and scales up a triple whose Q does not divide D - P^2.  `shifted`,
    `scaled` and `reciprocal` need not, as both invariants carry over: n^2*D is
    square only if D is; Q | n^2*(D - P^2); D - (P + k*Q)^2 = D - P^2 (mod Q);
    and Q' = (D - P^2)/Q is nonzero as D is no square, with Q*Q' = D - P^2.
    """

    __slots__ = ("P", "Q", "D")

    def __init__(self, P: int, Q: int, D: int):
        if Q == 0:
            raise ZeroDivisionError("surd denominator must be nonzero")
        if D <= 0 or is_square(D):
            raise ValueError("D must be a positive non-square (use Rational otherwise)")
        if (D - P * P) % Q != 0:
            s = abs(Q)
            P, Q, D = P * s, Q * s, D * s * s
        _set_P(self, P)
        _set_Q(self, Q)
        _set_D(self, D)

    # The pair (rational part, signed radical part) determines the value, so equality and
    # hashing avoid any integer factorisation; the key's Rationals hash their reduced pairs.
    def _key(self):
        sign = 1 if self.Q > 0 else -1
        return (Rational(self.P, self.Q), sign, Rational(self.D, self.Q * self.Q))

    def __eq__(self, other):
        if not isinstance(other, QuadSurd):
            return NotImplemented
        P, Q, D = other.P, other.Q, other.D  # the keys' equality, cross-multiplied
        return self.P * Q == P * self.Q and (self.Q > 0) == (Q > 0) and self.D * Q * Q == D * self.Q * self.Q

    def __hash__(self):
        return hash(self._key())

    def shifted(self, k: int) -> "QuadSurd":
        """self + k."""
        return _derived(self.P + k * self.Q, self.Q, self.D)

    def scaled(self, n: int) -> "QuadSurd":
        """n * self for n >= 1."""
        if n < 1:
            raise ValueError("scale factor must be >= 1")
        return _derived(n * self.P, self.Q, n * n * self.D)

    def reciprocal(self) -> "QuadSurd":
        """1 / self; stays normalised because Q | D - P^2."""
        return _derived(-self.P, (self.D - self.P * self.P) // self.Q, self.D)

    def floor(self) -> int:
        return _floor(self.P, self.Q, math.isqrt(self.D))

    def steps(self) -> Iterator[Union[int, _Period]]:
        """The integral expansion recurrence: a_0, a_1, ..., with ``PERIOD`` before each period pass.

        The complete quotient x_k = (P + sqrt(D))/Q has partial quotient
        a_k = floor(x_k); the next one is P' = a_k*Q - P, Q' = (D - P'^2)/Q.
        The stream never ends: a caller stops it.  The period opens at the
        first x_k with k >= 1 that ``is_reduced``; the marker comes just
        before its a_k and before a_k at every return of that x_k, nowhere
        else, so the digits between two markers are one period.  x_0 never
        opens it: a reduced x_0 makes x_1 reduced too, so its period opens at
        k = 1 with a_0 as its last entry.
        """
        P, Q, D = self.P, self.Q, self.D
        s = math.isqrt(D)
        a = self.floor()
        yield a
        while True:
            P = a * Q - P
            Q = (D - P * P) // Q
            a = _floor(P, Q, s)
            if is_reduced(P, Q, s):
                break
            yield a
        P0, Q0 = P, Q
        while True:
            if P == P0 and Q == Q0:
                yield PERIOD
            yield a
            P = a * Q - P
            Q = (D - P * P) // Q
            a = (P + s) // Q  # a reduced state's successor is reduced, so Q > 0

    def _cmp_rational(self, num: int, den: int) -> int:
        """Sign of self - num/den for den > 0."""
        a = self.P * den - num * self.Q
        c = self.Q * den
        # self - num/den = (a + den*sqrt(D)) / c with den > 0
        if a >= 0:
            radical_sign = 1
        else:
            radical_sign = 1 if den * den * self.D > a * a else -1
        return radical_sign if c > 0 else -radical_sign

    def __lt__(self, other):
        if isinstance(other, int):
            other = Rational(other)
        if isinstance(other, Rational):
            if other.is_infinite:
                return True
            return self._cmp_rational(other.num, other.den) < 0
        return NotImplemented

    def __gt__(self, other):
        if isinstance(other, int):
            other = Rational(other)
        if isinstance(other, Rational):
            if other.is_infinite:
                return False
            return self._cmp_rational(other.num, other.den) > 0
        return NotImplemented

    def __le__(self, other):
        return self < other  # never equal to a rational

    def __ge__(self, other):
        return self > other

    def is_positive(self) -> bool:
        return self._cmp_rational(0, 1) > 0

    def __repr__(self):
        return f"QuadSurd({self.P}, {self.Q}, {self.D})"

    def __str__(self):
        return f"({self.P}+sqrt({self.D}))/{self.Q}"


_set_P, _set_Q, _set_D = QuadSurd._setters()


# the surd of a triple derived from a valid one
_derived = QuadSurd._builder()
