"""Combinatorial cutting sequences.

The letter word of a boundary-directed ray corresponds to a continued
fraction through run lengths; crossing an edge of the tessellation is a pure
interval-separation predicate, so every verdict here is exact.  No hyperbolic
geometry is computed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Union

from .contfrac import CFExpansion, twin_of
from .loops import LoopVerdict, _fan_hit, _raw_walk, is_infinite_loop
from .rationals import INFINITY, FareyEdge, Rational
from .surds import QuadSurd

Value = Union[Rational, QuadSurd]


@dataclass(frozen=True)
class CuttingWord:
    """Alternating run-length word over {L, R}; a leading L-run of size 0 is absent."""

    runs: tuple[tuple[str, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "runs", tuple((str(l), int(c)) for l, c in self.runs))
        if not self.runs:
            raise ValueError("empty cutting word")
        for letter, count in self.runs:
            if letter not in ("L", "R"):
                raise ValueError(f"bad letter {letter!r}")
            if count < 1:
                raise ValueError("run counts must be >= 1")
        for (l1, _), (l2, _) in zip(self.runs, self.runs[1:]):
            if l1 == l2:
                raise ValueError("runs must alternate strictly")

    def __str__(self):
        return " ".join(f"{l}^{c}" if c > 1 else l for l, c in self.runs)


def eta(w: CuttingWord) -> CFExpansion:
    """Run lengths to partial quotients: L^n0 R^n1 L^n2 ... -> [n0; n1, n2, ...]."""
    runs = list(w.runs)
    if runs[0][0] == "L":
        a0 = runs[0][1]
        rest = runs[1:]
    else:
        a0 = 0
        rest = runs
    for i, (letter, _) in enumerate(rest):
        expected = "R" if i % 2 == 0 else "L"
        if letter != expected:
            raise ValueError("word does not start a valid L/R fan alternation")
    return CFExpansion(a0, tuple(c for _, c in rest))


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
        if alpha == u or alpha == v:
            return False
    if v.is_infinite:
        return alpha > u
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
    for _, _, lo, hi in itertools.islice(_raw_walk(e), max(take, 0)):
        edges.append(FareyEdge(Rational(*lo), Rational(*hi)))
    return edges


def fan_chain(edges: list[FareyEdge]) -> list[tuple[Rational, int]]:
    """Fan pivots with sizes, read off shared endpoints of consecutive edges.

    The pivot sequence is the convergent chain of the expansion that produced
    the edges; run sizes match the partial quotients (the final fan of a
    terminating ray is one short, its last edge being the termination).
    """
    chain: list[tuple[Rational, int]] = []
    for e1, e2 in zip(edges, edges[1:]):
        shared = [x for x in e2.endpoints() if x == e1.a or x == e1.b]
        if len(shared) != 1:
            raise ValueError("consecutive crossed edges must share one endpoint")
        pivot = shared[0]
        if chain and chain[-1][0] == pivot:
            chain[-1] = (pivot, chain[-1][1] + 1)
        else:
            chain.append((pivot, 1))
    return chain


# ---------------------------------------------------------------------------
# geometric loop verdict


def loop_verdict_geometric(e: CFExpansion, n: int, depth: Optional[int] = None) -> LoopVerdict:
    """Loop decision by scanning the crossed edges for level-n edges.

    Takes any positive value.  The base edge and the a_0 leading-term edges
    (m/1, oo) pass through oo and are exempt.  Exact for finite input and for
    periodic input, whose scan the state-cycle decision closes when `depth`
    steps show no witness.  A rational's terminal fans come from the walk's
    last step, which lands on the value: the endpoint it kept seeds the oo-tail
    (for an integer a_0 it is 1/0, and the tail is (m*a_0 + 1)/m).  Only
    Euclid's tail can hold a witness (see `loops._check_finite`), so a twin
    carrying the oo-tail is walked in Euclid's form, as `is_infinite_loop` does.
    """
    if n < 2:
        raise ValueError("modulus must be >= 2")
    if e.is_finite and e.a0 == 0 and not e.body:
        raise ValueError("loop decisions require a positive value")
    if e.inf_tail and e.body and e.body[-1] == 1:
        e = twin_of(e)
    # a rational's last step lands on the value; its edges are not crossed
    scan = e.a0 + sum(e.body) - 1 if e.is_finite else (1000 if depth is None else depth)
    walk = _raw_walk(e)
    for k, m, lo, hi in itertools.islice(walk, scan):
        div_lo = lo[1] % n == 0
        div_hi = hi[1] % n == 0
        if div_lo != div_hi and k >= 0:
            return LoopVerdict.not_loop(k, m, Rational(*(lo if div_lo else hi)))
    if not e.is_finite:
        # no witness among the scanned edges: close the scan exactly through
        # the state-cycle decision on the same expansion
        return is_infinite_loop(e, n)
    # termination vertex: the ray ends on the edges incident to the value;
    # odd fans move the lower endpoint
    k, m, lo, hi = next(walk)
    (p, q), kept = (lo, hi) if k % 2 else (hi, lo)
    if q % n == 0:
        return LoopVerdict.not_loop(k, m, Rational(p, q))
    if e.inf_tail:
        m = _fan_hit(kept[1], q, n, None, 1)
        if m is not None:
            return LoopVerdict.not_loop(k + 1, m, Rational(m * p + kept[0], m * q + kept[1]))
    return LoopVerdict.loop()
