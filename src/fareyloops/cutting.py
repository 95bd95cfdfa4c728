"""Combinatorial cutting sequences.

The letter word of a boundary-directed ray corresponds to a continued
fraction through run lengths; crossing an edge of the tessellation is a pure
interval-separation predicate, so every verdict here is exact.  No hyperbolic
geometry is computed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Union

from .contfrac import CFExpansion
from .loops import LoopVerdict, _children, _fan_hit, _raw_walk, _steps
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


def loop_verdict_geometric(e: Union[CFExpansion, QuadSurd, Iterable[int]], n: int) -> LoopVerdict:
    """Loop decision by walking the crossed edges to the first level-n edge.

    Takes any positive value and reads only the endpoint denominators (lo, hi)
    mod n.  Each step is the transition `_children`: child 0 (lo kept) in even
    fans, child 1 in odd ones.  Its empty result, a created denominator 0 mod
    n, marks the first level-n edge: a kept endpoint was checked when it was
    created, and only oo, which is exempt, has denominator 0.  The a_0
    leading-term edges (m/1, oo) keep the base edge's (1, 0).  A fan's created
    denominators repeat with a period dividing n, so a run a > n walks
    n + (a - n) % n steps to the same first zero and the same end state.

    The walk reads the steps of `loops._steps`, the input the denominator
    route reads too, and keeps its own state.  It saves (k mod 2, lo, hi) at
    the first period start and is LOOP at a later start of that parity with
    lo*hi0 = hi*lo0 (mod n): the steps are invertible linear maps, the zero
    test is unchanged by a unit multiple, and primitive pairs (Farey
    neighbours have coprime denominators) with that equality are unit
    multiples mod each prime power, which the CRT joins; so the walk from
    there repeats a zero-free one.  Two periods map the saved state
    invertibly on a finite set, so periodic input ends.  A rational's last
    step creates the value, which with the kept endpoint seeds the oo-tail.
    A walk that runs out is LOOP on a finite expansion and, on a digit
    stream, UNKNOWN at the depth walked.
    """
    if n < 2:
        raise ValueError("modulus must be >= 2")
    steps, source = _steps(e)
    edge, saved, k = (1 % n, 0), None, -1
    for k, (a, starts_period) in enumerate(steps):
        if a is None:  # the oo-tail, seeded by the value fan k - 1 created
            value, kept = edge[::-1] if k % 2 else edge  # odd fans move the lower endpoint
            m = _fan_hit(kept, value, n, None, 1)
            return LoopVerdict.loop() if m is None else LoopVerdict._not_loop_at(k, m, source)
        if starts_period:
            if saved is None:
                saved = k % 2, *edge
            elif saved[0] == k % 2 and (edge[0] * saved[2] - edge[1] * saved[1]) % n == 0:
                return LoopVerdict.loop()
        for m in range(1, (a if a <= n else n + (a - n) % n) + 1):
            if not (children := _children(*edge, n)):
                return LoopVerdict._not_loop_at(k, m, source)
            edge = children[k % 2]
    return LoopVerdict.loop() if isinstance(source, CFExpansion) else LoopVerdict.unknown(k + 1)
