"""Seeded generators for the randomized scans: expansions, and ``Rational`` values in (0, 1).

All scans draw from ``random.Random(seed)`` instances so that reports are
reproducible bit for bit.  Every draw goes through ``_draw(bits, lo, hi)``
with ``bits = rng.getrandbits``: it returns what ``randint(lo, hi)`` on ``rng``
returns, leaves ``rng`` in the same state and raises ``ValueError`` when
hi < lo.  It replays CPython's rejection loop (draw k = (hi - lo + 1).bit_length()
bits until the result is below hi - lo + 1) without the frames above
``getrandbits``, which cost more than the draw, and so ties the stream to that loop.
"""

from __future__ import annotations

import random
from typing import Callable

from .contfrac import CFExpansion
from .rationals import Rational


def _draw(bits: Callable[[int], int], lo: int, hi: int) -> int:
    """``randint(lo, hi)`` drawn from ``bits = rng.getrandbits``: same value, same state after."""
    n = hi - lo + 1
    if n < 1:
        raise ValueError(f"empty range for a draw from {lo} to {hi}")
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return lo + r


def random_finite_cf(
    rng: random.Random,
    min_len: int = 2,
    max_len: int = 8,
    max_entry: int = 9,
    a0_max: int = 3,
    inf_tail: bool = False,
) -> CFExpansion:
    """Finite expansion with min_len..max_len entries after a_0; length 0 is the integer [a_0]."""
    if min_len < 0:
        raise ValueError(f"min_len must be >= 0, got {min_len}")
    bits = rng.getrandbits
    body = [_draw(bits, 1, max_entry) for _ in range(_draw(bits, min_len, max_len))]
    if body and body[-1] == 1:
        body[-1] += 1  # canonical form does not end in 1
    return CFExpansion(_draw(bits, 0, a0_max), tuple(body), None, inf_tail)


def random_periodic_cf(
    rng: random.Random,
    max_pre: int = 2,
    max_period: int = 3,
    max_entry: int = 6,
    a0_max: int = 2,
) -> CFExpansion:
    bits = rng.getrandbits
    pre = [_draw(bits, 1, max_entry) for _ in range(_draw(bits, 0, max_pre))]
    period = [_draw(bits, 1, max_entry) for _ in range(_draw(bits, 1, max_period))]
    return CFExpansion(_draw(bits, 0, a0_max), tuple(pre), tuple(period))


def random_unit_rational(rng: random.Random, q_max: int = 500) -> Rational:
    """The ``Rational`` p/q strictly inside (0, 1), drawn as q in 3..q_max, then p in 1..q - 1."""
    bits = rng.getrandbits
    q = _draw(bits, 3, q_max)
    return Rational(_draw(bits, 1, q - 1), q)
