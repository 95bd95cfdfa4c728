"""Frozen copies of library code from before it was made faster, kept as oracles.

`_fan_hit` solves one fan's congruence u + m*v = 0 (mod n) from scratch:
it reduces (u, v), takes a gcd and an inverse, and lifts the root above
`min_m`.  `_scan_cycle` is the state-cycle scan that called it once per fan,
fan 0 included.  The library now solves fan 0 in closed form and later fans
inline; the tests keep this copy as the oracle it is compared against.

`surd_steps` is `QuadSurd.steps` as one loop that takes the floor with its
sign test and tests `is_reduced` until the period opens; the library now
runs the period in a second loop with the floor inlined.  `crosses_edge` is
the crossing predicate that compared a surd through the reflected rational
comparisons and tested a rational against both endpoints first.

`flagged` maps the library's marked digit streams back to the
(a, starts_period) pairs that the frozen scans here read: the step streams
yielded those pairs before `PERIOD` came just before each period pass.

`_find_cycle` is the depth-first search for a reachable cycle of the pruned
residue-pair graph that decided `loop_exists` mod 2 and 3 before the library
closed `loop_graph(n)` instead.  It returns the prefix and cycle letters of
the walk it finds, so the tests keep it as an independent oracle for
existence and the route `loop_example`'s closed-form family is checked
against.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Iterator, Optional, Union

from fareyloops.contfrac import CFExpansion
from fareyloops.loops import LoopVerdict, ModState
from fareyloops.rationals import FareyEdge, Rational
from fareyloops.surds import PERIOD, QuadSurd


def flagged(stream: Iterable) -> Iterator[tuple[Optional[int], bool]]:
    """(a, starts_period) for each digit of a marked stream: whether `PERIOD` came just before it."""
    starts = False
    for a in stream:
        if a is PERIOD:
            starts = True
        else:
            yield a, starts
            starts = False


def _fan_hit(u: int, v: int, n: int, bound: Optional[int], min_m: int) -> Optional[int]:
    """Smallest m with min_m <= m (<= bound) and u + m*v divisible by n, else None."""
    u %= n
    v %= n
    g = math.gcd(v, n)
    if u % g:
        return None
    nn = n // g
    m0 = (-(u // g) * pow(v // g, -1, nn)) % nn if nn > 1 else 0
    if m0 < min_m:
        m0 += ((min_m - m0 + nn - 1) // nn) * nn
    if bound is not None and m0 > bound:
        return None
    return m0


def _scan_cycle(steps, n: int, value: Union[CFExpansion, QuadSurd]) -> LoopVerdict:
    """The state-cycle scan over `loops._steps` output, one `_fan_hit` per fan."""
    u, v = 0, 1
    u0 = None
    k = 0
    for a, boundary in steps:
        if boundary:
            if u0 is None:
                u0, v0 = u, v
            elif (u * v0 - v * u0) % n == 0:
                return LoopVerdict.loop()
        m = _fan_hit(u, v, n, a, 1 if k == 0 else 0)
        if m is not None:
            return LoopVerdict.not_loop(k, m, value)
        if a is None:
            break
        u, v = v, (a * v + u) % n
        k += 1
    return LoopVerdict.loop()


def _find_cycle(
    start: ModState, moves: Callable[[ModState], Iterable[tuple[str, ModState]]]
) -> Optional[tuple[list[str], list[str]]]:
    """DFS from start for a reachable cycle; (prefix letters, cycle letters) or None.

    `moves(state)` gives the unpruned (letter, target) moves.  The search
    returns at the first edge back onto its own path; an exhausted search
    proves that no cycle is reachable.
    """
    path_states = [start]
    path_letters: list[str] = []
    onstack = {start: 0}
    iters = [iter(moves(start))]
    visited = {start}
    while iters:
        try:
            letter, target = next(iters[-1])
        except StopIteration:
            iters.pop()
            dead = path_states.pop()
            onstack.pop(dead)
            if path_letters:
                path_letters.pop()
            continue
        if target in onstack:
            j = onstack[target]
            return path_letters[:j], path_letters[j:] + [letter]
        if target in visited:
            continue
        visited.add(target)
        onstack[target] = len(path_states)
        path_states.append(target)
        path_letters.append(letter)
        iters.append(iter(moves(target)))
    return None


def _floor(P: int, Q: int, s: int) -> int:
    """floor((P + sqrt(D))/Q) for s = isqrt(D), D non-square."""
    if Q > 0:
        return (P + s) // Q
    return -((P + s) // (-Q)) - 1


def _is_reduced(P: int, Q: int, r: int) -> bool:
    """Whether (P + sqrt(D))/Q, with r = isqrt(D), is greater than 1 with conjugate in (-1, 0)."""
    return P <= r and r - P < Q <= r + P


def surd_steps(x: QuadSurd) -> Iterator[tuple[int, bool]]:
    """(a_k, starts_period) for k = 0, 1, ..., as `QuadSurd.steps` yielded them."""
    P, Q, D = x.P, x.Q, x.D
    s = math.isqrt(D)
    a = _floor(P, Q, s)
    P0 = None
    yield a, False
    while True:
        P = a * Q - P
        Q = (D - P * P) // Q
        a = _floor(P, Q, s)
        if P0 is None and _is_reduced(P, Q, s):
            P0, Q0 = P, Q
        yield a, P == P0 and Q == Q0


def crosses_edge(alpha: Union[Rational, QuadSurd], edge: FareyEdge) -> bool:
    """Whether the ray from the base edge to alpha must cross this edge."""
    u, v = edge.a, edge.b
    if u.num < 0:
        raise ValueError("tessellation edges here have nonnegative endpoints")
    if edge.is_base:
        return False
    if isinstance(alpha, Rational):
        if alpha.is_infinite:
            raise ValueError("alpha must be finite and positive")
        if alpha.num <= 0:
            raise ValueError("alpha must be positive")
        if alpha == u or alpha == v:
            return False
    if v.is_infinite:
        return alpha > u
    return u < alpha and alpha < v
