"""Continued fractions over exact values.

A CFExpansion is one of
  - finite               [a0; a1, ..., am]
  - finite with oo-tail  [a0; a1, ..., am, oo]   (rational convention)
  - eventually periodic  [a0; b1, ..., bk, (p1, ..., pj)]

Periodic expansions are stored with minimal period and minimal preperiod so
that equality of expansions is plain structural equality.  The oo-tail flag
records whether the rational convention (a final partial quotient of size
infinity) is active; height and loop decisions honour it.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator, Optional, Sequence, Union

from .rationals import INFINITY, Immutable, Rational, _reduced
from .surds import PERIOD, QuadSurd, _Period

Value = Union[Rational, QuadSurd]


def _canonical_tail(body: tuple[int, ...], period: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(body, period) with the period minimal and the body's trailing entries that repeat it rotated into it."""
    k = len(period)
    for d in range(1, k // 2 + 1):
        if k % d == 0 and period[d:] == period[:-d]:  # a shift by d fixes it
            period = period[:d]
            break
    end = len(body)
    while end and body[end - 1] == period[-1]:
        end -= 1
        period = period[-1:] + period[:-1]
    return body[:end], period


class CFExpansion(Immutable):
    __slots__ = ("a0", "body", "period", "inf_tail")

    def __init__(
        self,
        a0: int,
        body: Iterable[int] = (),
        period: Optional[Iterable[int]] = None,
        inf_tail: bool = False,
    ):
        body = tuple(body)
        if a0 < 0:
            raise ValueError("leading term must be nonnegative")
        if body and min(body) < 1:
            raise ValueError("partial quotients after a0 must be >= 1")
        if period is not None:
            if inf_tail:
                raise ValueError("a periodic expansion cannot carry an oo-tail")
            period = tuple(period)
            if not period:
                raise ValueError("period must be nonempty")
            if min(period) < 1:
                raise ValueError("period entries must be >= 1")
            body, period = _canonical_tail(body, period)
        _set_a0(self, a0)
        _set_body(self, body)
        _set_period(self, period)
        _set_inf_tail(self, inf_tail)

    @property
    def is_periodic(self) -> bool:
        return self.period is not None

    @property
    def is_finite(self) -> bool:
        return self.period is None

    @property
    def last_index(self) -> int:
        """Index of the final partial quotient of a finite expansion."""
        if not self.is_finite:
            raise ValueError("periodic expansions have no final index")
        return len(self.body)

    def entry(self, i: int) -> int:
        """Partial quotient a_i (period unrolled as needed)."""
        if i < 0:
            raise IndexError("entry index must be >= 0")
        if i == 0:
            return self.a0
        j = i - 1
        if j < len(self.body):
            return self.body[j]
        if self.period is not None:
            return self.period[(j - len(self.body)) % len(self.period)]
        raise IndexError(f"finite expansion has no entry a_{i}")

    def digits(self) -> Iterator[int]:
        """Partial quotients a_0, a_1, ...; endless for a periodic expansion."""
        if self.period is None:
            return iter((self.a0, *self.body))
        return itertools.chain((self.a0,), self.body, itertools.cycle(self.period))

    def steps(self) -> Iterator[Union[int, None, _Period]]:
        """a_0, a_1, ... with ``PERIOD`` before each period pass, as ``QuadSurd.steps`` streams a surd's.

        The preperiod is minimal, so the value's period opens at offset 0 of
        each pass over the period: the marker comes there and nowhere else.  A
        finite expansion ends after a_L, or in None, its final fan, under the oo-tail."""
        if self.period is None:
            return iter((self.a0, *self.body, None) if self.inf_tail else (self.a0, *self.body))
        return itertools.chain((self.a0, *self.body), itertools.cycle((PERIOD, *self.period)))

    def __str__(self):
        return format_cf(self)


_set_a0, _set_body, _set_period, _set_inf_tail = CFExpansion._setters()


# Fields already canonical.  ``cf_of_surd``'s are: the digit period is the state period
# (the digit tail fixes x_k, D fixes (P, Q)), the first reduced x_k with k >= 1 opens it,
# and x_{start-1} is not reduced, so body[-1] != period[-1].
_canonical = CFExpansion._builder()


def _finite(entries: Sequence[int], inf_tail: bool) -> CFExpansion:
    """The finite expansion of entries a0 >= 0, a1, ... >= 1, as Euclid and ``twin_entries`` give."""
    return _canonical(entries[0], tuple(entries[1:]), None, inf_tail)


def format_cf(e: CFExpansion) -> str:
    """Render as ``[a0; a1, a2, ...]`` with ``(...)`` period and ``oo`` tail."""
    parts = list(map(str, e.body))
    if e.period is not None:
        parts.append("(" + ", ".join(map(str, e.period)) + ")")
    if e.inf_tail:
        parts.append("oo")
    if not parts:
        return f"[{e.a0}]"
    return f"[{e.a0}; " + ", ".join(parts) + "]"


def parse_cf(text: str) -> CFExpansion:
    """Inverse of format_cf; round-trips exactly."""

    def entry(tok: str) -> int:
        try:
            return int(tok)
        except ValueError:
            raise ValueError(f"bad entry {tok.strip()!r} in {text!r}") from None

    s = text.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise ValueError(f"not an expansion: {text!r}")
    s = s[1:-1].strip()
    head, _, rest = s.partition(";")
    a0 = entry(head)
    body: list[int] = []
    period: Optional[tuple[int, ...]] = None
    inf_tail = False
    rest = rest.strip()
    if rest:
        depth = 0
        tokens, cur = [], ""
        for ch in rest:
            if ch == "," and depth == 0:
                tokens.append(cur.strip())
                cur = ""
            else:
                if ch == "(":
                    depth += 1
                elif ch == ")":
                    depth -= 1
                cur += ch
        tokens.append(cur.strip())
        for tok in tokens:
            if not tok:
                raise ValueError(f"empty token in {text!r}")
            if period is not None or inf_tail:
                raise ValueError(f"entries after tail in {text!r}")
            if tok == "oo":
                inf_tail = True
            elif tok.startswith("("):
                if not tok.endswith(")"):
                    raise ValueError(f"unbalanced period in {text!r}")
                period = tuple(map(entry, tok[1:-1].split(",")))
            else:
                body.append(entry(tok))
    try:
        return CFExpansion(a0, tuple(body), period, inf_tail)
    except ValueError as exc:
        raise ValueError(f"{exc} in {text!r}") from None


# ---------------------------------------------------------------------------
# construction from values


def cf_from_rational(x: Rational) -> tuple[CFExpansion, CFExpansion]:
    """Both expansions of a finite x >= 0, each carrying the oo-tail; x is a ``Rational``
    (an int or a ``Fraction`` raises ``TypeError``).

    Returns (canonical, twin): the canonical form does not end in 1, the twin
    ends in 1.  The value 0 admits only [0] under a nonnegative leading term;
    it is returned for both slots.
    """
    if not isinstance(x, Rational):
        raise TypeError(f"cannot expand {x!r}: cf_from_rational takes a Rational")
    if x.is_infinite:
        raise ValueError("cannot expand the point at infinity")
    if x.num < 0:
        raise ValueError("expansion requires x >= 0")
    entries = euclid_entries(x.num, x.den)
    canonical = _finite(entries, True)
    if entries == [0]:
        return canonical, canonical
    # Euclid's last quotient is at least 2 unless it is the only one
    return canonical, _finite(twin_entries(entries), True)


def euclid_entries(num: int, den: int) -> list[int]:
    """Partial quotients a0, a1, ... of num/den (den >= 1) by Euclid's algorithm.

    The last one is at least 2 unless it is the only one.
    """
    entries = []
    while den:
        a, rem = divmod(num, den)
        entries.append(a)
        num, den = den, rem
    return entries


def twin_entries(entries: list[int]) -> list[int]:
    """Entries a0, a1, ... of the other finite expansion of the same rational."""
    if entries[-1] == 1 and len(entries) >= 2:
        return entries[:-2] + [entries[-2] + 1]
    if entries[-1] == 0:
        raise ValueError("0 has a single expansion")
    return entries[:-1] + [entries[-1] - 1, 1]


def twin_of(e: CFExpansion) -> CFExpansion:
    """The other finite expansion of the same rational value."""
    if not e.is_finite:
        raise ValueError("only rationals have twin expansions")
    return _finite(twin_entries([e.a0, *e.body]), e.inf_tail)


# ---------------------------------------------------------------------------
# convergents and semi-convergents


def fans(digits: Iterable[int]) -> Iterator[tuple[int, Optional[int], int, int, int, int]]:
    """The convergent recurrence: (k, a_{k+1}, p_{k-1}, q_{k-1}, p_k, q_k) for k = -1, 0, 1, ...

    Seeded with (p_{-2}, q_{-2}) = (0, 1) and (p_{-1}, q_{-1}) = (1, 0).  Fan k
    holds the semi-convergents (m*p_k + p_{k-1}) / (m*q_k + q_{k-1}) for
    0 <= m <= a_{k+1}; fan -1 is the leading-term fan m/1.  After the last
    digit of a finite expansion one more fan comes with a_{k+1} = None: the
    final fan, unbounded under the oo-tail convention.  As p_k*q_{k-1} - p_{k-1}*q_k
    = +-1, each convergent and semi-convergent is in lowest terms: built by ``_reduced``.
    """
    p_prev, q_prev, p, q = 0, 1, 1, 0
    k = -1
    for a in digits:
        yield k, a, p_prev, q_prev, p, q
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
        k += 1
    yield k, None, p_prev, q_prev, p, q


def _fan(e: CFExpansion, k: int) -> tuple[int, Optional[int], int, int, int, int]:
    """Fan k >= -1 of e; IndexError past the final fan of a finite expansion."""
    for fan in itertools.islice(fans(e.digits()), k + 1, None):
        return fan
    raise IndexError(f"finite expansion has no entry a_{e.last_index + 1}")


def convergent_pair(e: CFExpansion, k: int) -> tuple[int, int]:
    """(p_k, q_k) by the seeded recurrence; k >= -1."""
    if k < -1:
        raise IndexError("convergent index must be >= -1")
    return _fan(e, k)[4:]


def convergent(e: CFExpansion, k: int) -> Rational:
    """The k-th convergent p_k/q_k."""
    return _reduced(*convergent_pair(e, k))


def convergents(e: CFExpansion, upto: Optional[int] = None) -> list[Rational]:
    """Convergents p_k/q_k for k = -1 .. upto (full expansion if finite)."""
    if upto is None:
        if not e.is_finite:
            raise ValueError("an infinite expansion needs an explicit bound")
        upto = e.last_index
    upto = max(upto, -1)
    if e.is_finite and upto > e.last_index:
        raise IndexError(f"finite expansion has no entry a_{e.last_index + 1}")
    tail = itertools.islice(fans(e.digits()), 1, upto + 2)
    return [INFINITY] + [_reduced(p, q) for _, _, _, _, p, q in tail]


def cf_eval(e: CFExpansion, depth: Optional[int] = None) -> Rational:
    """Exact value of the expansion truncated after a_depth (depth = -1 gives 1/0)."""
    if depth is None:
        if not e.is_finite:
            raise ValueError("an infinite expansion needs a truncation depth")
        depth = e.last_index
    if depth < -1:
        raise IndexError("depth must be >= -1")
    if e.is_finite and depth > e.last_index:
        raise IndexError(f"expansion has no entry a_{depth}")
    return convergent(e, depth)


def semiconvergent(e: CFExpansion, k: int, m: int) -> Rational:
    """The {k, m}-th semi-convergent (m*p_k + p_{k-1}) / (m*q_k + q_{k-1}).

    Interior fans require 0 <= m <= a_{k+1}; on the oo-tail fan of a finite
    expansion (k equal to the final index) any m >= 0 is allowed.  With the
    seeds p_{-1} = 1, q_{-1} = 0 the signed determinant against the pivot is
    p_{k,m} * q_k - p_k * q_{k,m} = (-1)^k, independent of m.
    """
    if k < 0:
        raise IndexError("semi-convergent index must be >= 0")
    if m < 0:
        raise ValueError("m must be >= 0")
    if e.is_finite and k > e.last_index:
        raise IndexError(f"expansion has no fan at k={k}")
    _, bound, p_prev, q_prev, p, q = _fan(e, k)
    if bound is None:
        if not e.inf_tail:
            raise IndexError("final fan requires the oo-tail convention")
    elif m > bound:
        raise ValueError(f"m={m} outside fan bound a_{k + 1}={bound}")
    return _reduced(m * p + p_prev, m * q + q_prev)


def height(e: CFExpansion) -> Union[int, float]:
    """Largest partial quotient a_k for k >= 1 (a0 excluded).

    Infinite for oo-tail expansions; for an integer expansion without the
    tail the supremum over the empty set is reported as 0.
    """
    if e.inf_tail:
        return math.inf
    if e.period is not None:
        return max(e.body + e.period)
    return max(e.body, default=0)


# ---------------------------------------------------------------------------
# exact values of expansions


def cf_value(e: CFExpansion) -> Value:
    """Exact value: a Rational for finite input, a QuadSurd for periodic.

    A periodic value comes back in lowest terms: D is the discriminant of
    the value's primitive quadratic, so it divides 4*D of any equal surd and
    stays small however long the period is.
    """
    if e.is_finite:
        return cf_eval(e)
    return _surd_of_periodic(e)


def _surd_of_periodic(e: CFExpansion) -> QuadSurd:
    # y = [p1; p2, ..., pk, y] = (a*y + b)/(c*y + d) with a/c and b/d the
    # last two convergents of [p1; p2, ..., pk], read off its final fan
    for _, _, b, d, a, c in fans(e.period):
        pass
    # y is the positive root of c*y^2 + (d - a)*y - b = 0.  The entries grow
    # like a power of the fundamental unit, so the common factor g is taken
    # out first; the root is then (P + sqrt(D))/Q with P = (a - d)/g,
    # Q = 2c/g and D = ((a - d)^2 + 4bc)/g^2, normalised since
    # D - P^2 = 4bc/g^2 = Q * 2b/g
    g = math.gcd(c, a - d, b)
    P, Q = (a - d) // g, 2 * c // g
    D = P * P + 4 * (b // g) * (c // g)
    # x = entry + 1/y for each preperiod entry, last first: the reciprocal
    # (-P + sqrt(D))/((D - P^2)/Q), then a shift of P by entry*Q, both of
    # which keep Q | D - P^2
    for entry in reversed((e.a0, *e.body)):
        P, Q = -P, (D - P * P) // Q
        P += entry * Q
    return QuadSurd(P, Q, D)


def _expansion_steps(s: QuadSurd) -> Iterator[Union[int, _Period]]:
    """``s.steps()`` for the readers of a surd's expansion, which only a positive value has."""
    if not s.is_positive():
        raise ValueError("expansion requires a positive value")
    return s.steps()


def cf_of_surd(s: QuadSurd) -> CFExpansion:
    """Eventually periodic expansion of a positive quadratic irrational.

    Reads ``QuadSurd.steps`` up to its second ``PERIOD``: the digits before
    the first marker are a_0 and the preperiod, those between the two are the
    period, and both are already the canonical minimal form (see ``_canonical``).
    """
    entries: list[int] = []
    start = 0  # a_0 never opens the period
    for a in _expansion_steps(s):
        if a is PERIOD:
            if start:
                break
            start = len(entries)
        else:
            entries.append(a)
    return _canonical(entries[0], tuple(entries[1:start]), tuple(entries[start:]), False)


def surd_prefix(s: QuadSurd, depth: int) -> CFExpansion:
    """[a_0; a_1, ..., a_depth] of a positive surd, depth >= 0: ``QuadSurd.steps`` read
    that far and no further, however long the period that ``cf_of_surd`` reads."""
    digits = list(itertools.islice((a for a in _expansion_steps(s) if a is not PERIOD), depth + 1))
    return CFExpansion(digits[0], digits[1:])


# ---------------------------------------------------------------------------
# arithmetic on expansions


def multiply_cf(e: CFExpansion, n: int) -> CFExpansion:
    """Expansion of n * value(e), computed exactly through the value domain.

    A finite e gives Euclid's quotients of n*p_L/q_L, which need no reduction.
    """
    if n < 1:
        raise ValueError("multiplier must be >= 1")
    if n == 1:
        return e
    if e.is_finite:
        for _, _, _, _, p, q in fans(e.digits()):
            pass
        return _finite(euclid_entries(n * p, q), e.inf_tail)
    return cf_of_surd(_surd_of_periodic(e).scaled(n))


def shift_cf(e: CFExpansion, k: int) -> CFExpansion:
    """Expansion of value(e) + k; only the leading term changes."""
    if e.a0 + k < 0:
        raise ValueError("shift would make the leading term negative")
    return CFExpansion(e.a0 + k, e.body, e.period, e.inf_tail)
