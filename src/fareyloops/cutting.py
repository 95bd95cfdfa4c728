"""Combinatorial cutting sequences.

The letter word of a boundary-directed ray corresponds to a continued
fraction through run lengths; crossing an edge of the tessellation is a pure
interval-separation predicate, so every verdict here is exact.  No hyperbolic
geometry is computed.
"""

from __future__ import annotations

import itertools
import math
from typing import Optional, Union

from .contfrac import CFExpansion
from .loops import LoopVerdict, _raw_walk, _steps
from .rationals import INFINITY, FareyEdge, Immutable, Rational, _edge, _reduced
from .surds import PERIOD, QuadSurd

Value = Union[Rational, QuadSurd]


class CuttingWord(Immutable):
    """Alternating run-length word over {L, R}; a leading L-run of size 0 is absent."""

    __slots__ = ("runs",)

    def __init__(self, runs: tuple[tuple[str, int], ...]):
        runs = tuple((str(l), int(c)) for l, c in runs)
        if not runs:
            raise ValueError("empty cutting word")
        for letter, count in runs:
            if letter not in ("L", "R"):
                raise ValueError(f"bad letter {letter!r}")
            if count < 1:
                raise ValueError("run counts must be >= 1")
        for (l1, _), (l2, _) in zip(runs, runs[1:]):
            if l1 == l2:
                raise ValueError("runs must alternate strictly")
        _set_runs(self, runs)

    def __str__(self):
        return " ".join(f"{l}^{c}" if c > 1 else l for l, c in self.runs)


(_set_runs,) = CuttingWord._setters()


def eta(w: CuttingWord) -> CFExpansion:
    """Run lengths to partial quotients: L^n0 R^n1 L^n2 ... -> [n0; n1, n2, ...].

    The runs alternate strictly, so after an optional leading L-run they start with R.
    """
    runs = w.runs
    if runs[0][0] == "L":
        a0, runs = runs[0][1], runs[1:]
    else:
        a0 = 0
    return CFExpansion(a0, tuple(c for _, c in runs))


def eta_inverse(e: CFExpansion, depth: Optional[int] = None) -> CuttingWord:
    """Word of the first `depth`+1 partial quotients (full finite expansion by default)."""
    if depth is None:
        if not e.is_finite:
            raise ValueError("an infinite expansion needs a truncation depth")
        depth = e.last_index
    runs = []
    if e.a0 > 0:
        runs.append(("L", e.a0))
    for i in range(1, depth + 1):
        letter = "R" if i % 2 == 1 else "L"
        runs.append((letter, e.entry(i)))
    return CuttingWord(tuple(runs))


# ---------------------------------------------------------------------------
# edges crossed by the ray toward a value


def crosses_edge(alpha: Value, edge: FareyEdge) -> bool:
    """Whether the ray from the base edge to alpha must cross this edge.

    Pure separation: for finite endpoints u < v the edge is crossed iff
    u < alpha < v; with an infinite endpoint iff alpha > u.  The base edge is
    the anchor, not a crossing, and meeting an endpoint is termination.
    """
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
    if isinstance(alpha, QuadSurd):  # u < v, so u is finite
        return alpha._cmp_rational(u.num, u.den) > 0 and (v.den == 0 or alpha._cmp_rational(v.num, v.den) < 0)
    return u < alpha and alpha < v


def crossed_edges(e: CFExpansion, depth: Optional[int] = None) -> list[FareyEdge]:
    """Ordered edges met by the ray, starting with the base edge anchor.

    For a finite expansion the list is complete: the ray terminates at the
    value, so the edges incident to it are never crossed.  Infinite
    expansions are truncated to `depth` edges.
    """
    if e.is_finite and e.a0 == 0 and not e.body:
        raise ValueError("the ray needs a positive endpoint")
    edges = [FareyEdge(Rational(0, 1), INFINITY)]
    if e.is_finite:
        take = e.a0 + sum(e.body) - 1  # final step lands on the value itself
        if depth is not None:
            take = min(take, depth - 1)
    else:
        if depth is None:
            raise ValueError("an infinite expansion needs a depth")
        take = depth - 1
    # endpoints have determinant +-1 against the pivot, so lowest terms, and lo < hi
    fan = None
    for k, _, lo, hi in itertools.islice(_raw_walk(e), max(take, 0)):
        odd = k % 2  # fan k keeps its pivot p_k/q_k, the upper endpoint for odd k
        if k != fan:
            fan, pivot = k, _reduced(*(hi if odd else lo))
        edges.append(_edge(_reduced(*lo), pivot) if odd else _edge(pivot, _reduced(*hi)))
    return edges


def fan_chain(edges: list[FareyEdge]) -> list[tuple[Rational, int]]:
    """Fan pivots with sizes, read off shared endpoints of consecutive edges.

    The pivot sequence is the convergent chain of the expansion that produced
    the edges; run sizes match the partial quotients (the final fan of a
    terminating ray is one short, its last edge being the termination).
    Reduced fractions are equal exactly when their (num, den) pairs are.
    """
    chain: list[tuple[Rational, int]] = []
    for e1, e2 in zip(edges, edges[1:]):
        ends = ((e1.a.num, e1.a.den), (e1.b.num, e1.b.den))
        a, b = e2.a, e2.b
        on_a, on_b = (a.num, a.den) in ends, (b.num, b.den) in ends
        if on_a == on_b:
            raise ValueError("consecutive crossed edges must share one endpoint")
        pivot = a if on_a else b
        if chain and (chain[-1][0].num, chain[-1][0].den) == (pivot.num, pivot.den):
            chain[-1] = (pivot, chain[-1][1] + 1)
        else:
            chain.append((pivot, 1))
    return chain


# ---------------------------------------------------------------------------
# geometric loop verdict


def _first_zero(x: int, h: int, n: int) -> Optional[int]:
    """Least m >= 1 with x + m*h = 0 (mod n), or None.  A zero needs g = gcd(h, n)
    to divide x, and then m = -(x/g) * (h/g)^-1 mod n/g, taken in 1..n/g."""
    g = math.gcd(h, n)
    if x % g:
        return None
    n //= g
    return -(x // g) * pow(h // g, -1, n) % n or n


def loop_verdict_geometric(e: Union[CFExpansion, QuadSurd], n: int) -> LoopVerdict:
    """Loop decision by jumping each fan of crossed edges to its first level-n edge.

    Takes a positive finite or periodic expansion or a surd, and reads only
    the endpoint denominators (lo, hi) mod n.  Fan k keeps one endpoint, of
    denominator h (lo in even fans, hi in odd ones), and its edges create
    x + m*h for m = 1..a_{k+1}, x the other endpoint's.  The first level-n edge is the least m >= 1 with
    x + m*h = 0 (mod n), found in closed form by `_first_zero`: a kept
    endpoint was checked when it was created, and only oo, which is exempt,
    has denominator 0.  Without a zero the fan ends at x + a*h.  This is the
    congruence `loops._scan_cycle` solves on (q_{k-1}, q_k), solved by
    separate code.  The a_0 leading-term edges (m/1, oo) keep the base edge's (1, 0).

    The walk reads the steps of `loops._steps`, the input the denominator
    route reads too, and keeps its own state.  It saves (k mod 2, lo, hi) at
    the first `PERIOD` and is LOOP at a later one of that parity with
    lo*hi0 = hi*lo0 (mod n): the steps are invertible linear maps, the zero
    test is unchanged by a unit multiple, and primitive pairs (Farey
    neighbours have coprime denominators) with that equality are unit
    multiples mod each prime power, which the CRT joins; so the walk from
    there repeats a zero-free one.  Two periods map the saved state
    invertibly on a finite set, so periodic input ends.  A rational's last
    step creates the value, which with the kept endpoint seeds the oo-tail,
    an unbounded fan.  Only a finite expansion's steps run out, every fan
    walked: LOOP.
    """
    if n < 2:
        raise ValueError("modulus must be >= 2")
    steps, value = _steps(e)
    lo, hi, saved, k = 1 % n, 0, None, 0
    for a in steps:
        odd = k % 2
        if a is PERIOD:
            if saved is None:
                saved = odd, lo, hi
            elif saved[0] == odd and (lo * saved[2] - hi * saved[1]) % n == 0:
                return LoopVerdict.loop()
            continue
        x, h = (lo, hi) if odd else (hi, lo)  # odd fans move the lower endpoint
        m = _first_zero(x, h, n)
        if a is None or (m is not None and m <= a):  # a is None: the oo-tail
            return LoopVerdict.loop() if m is None else LoopVerdict.not_loop(k, m, value)
        end = (x + a * h) % n
        lo, hi = (end, hi) if odd else (lo, end)
        k += 1
    return LoopVerdict.loop()
