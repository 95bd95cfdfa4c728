"""Infinite-loop decisions mod n.

A positive real is an infinite loop mod n when no semi-convergent denominator
(the seed q_{-1} = 0 excepted) is divisible by n; for rationals the oo-tail
convention adds the final progression of Euclid's expansion.  One step
stream, `_steps`, the value's own, feeds both routes, the fan scan
`_scan_cycle` and the edge walk `cutting.loop_verdict_geometric`; both take
an exact value, a finite or periodic expansion or a surd, exact on each.

Loops exist mod every n >= 4, as the validated family of `loop_example`
shows; mod 2 and 3 their absence is proved on a finite state graph: a walk
down the mediant tree only sees the pair of interval-endpoint denominators
mod n, and a step is pruned exactly when it would create a denominator
divisible by n.
"""

from __future__ import annotations

import itertools
import math
import sys
from typing import Iterator, NamedTuple, Optional, Union

from .contfrac import CFExpansion, fans, semiconvergent, surd_prefix, twin_of
from .rationals import Immutable, Rational
from .surds import QuadSurd

LOOP = "LOOP"
NOTLOOP = "NOTLOOP"


def _decimal_digits(q: int) -> int:
    """Number of decimal digits of q >= 1, found without converting q to a string."""
    d = (q.bit_length() - 1) * 30103 // 100000 + 1
    while d > 1 and q < 10 ** (d - 1):
        d -= 1
    while q >= 10**d:
        d += 1
    return d


def _den_field(q: int) -> str:
    """`q=<q>`, or `q_digits=N` when q has more digits than Python may print.

    The limit is `sys.get_int_max_str_digits()`; a missing getter (Python
    before 3.10.7) or a limit of 0 means there is none.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and (digits := _decimal_digits(q)) > limit:
        return f"q_digits={digits}"
    return f"q={q}"


class LoopVerdict(Immutable):
    """Outcome of one loop decision: LOOP, or NOTLOOP at fan (k, m).

    A NOTLOOP's witness is the semi-convergent {k, m}, whose denominator the
    modulus divides.  It is built on the first read of `.witness`: p and q
    have O(k) digits, so building them costs O(k^2) bit work that a caller
    reading only `.kind` never needs.  Until then `_witness` holds the value
    `_steps` read, not its digits; a surd's witness reads a_0, ..., a_{k+1}
    again from `steps()`.  Equality also compares the witnesses, so equal
    verdicts always name the same p/q.
    """

    __slots__ = ("kind", "witness_k", "witness_m", "_witness")

    def __init__(
        self,
        kind: str,
        witness_k: Optional[int] = None,
        witness_m: Optional[int] = None,
        witness: Union[Rational, CFExpansion, QuadSurd, None] = None,
    ):
        _set_kind(self, kind)
        _set_witness_k(self, witness_k)
        _set_witness_m(self, witness_m)
        _set_witness(self, witness)

    @classmethod
    def loop(cls) -> "LoopVerdict":
        """The LOOP verdict: it has no fields, so every decision shares one instance."""
        return _LOOP

    @classmethod
    def not_loop(cls, k: int, m: int, value: Union[Rational, CFExpansion, QuadSurd]) -> "LoopVerdict":
        """NOTLOOP at fan (k, m): value is the witness, or the expansion or surd it is read off."""
        return cls(NOTLOOP, k, m, value)

    @property
    def witness(self) -> Optional[Rational]:
        witness = self._witness
        if witness is not None and witness.__class__ is not Rational:
            if witness.__class__ is QuadSurd:
                witness = surd_prefix(witness, self.witness_k + 1)
            witness = semiconvergent(witness, self.witness_k, self.witness_m)
            _set_witness(self, witness)
        return witness

    @property
    def is_loop(self) -> bool:
        return self.kind == LOOP

    def _fields(self) -> tuple:
        return self.kind, self.witness_k, self.witness_m

    def __eq__(self, other):
        if not isinstance(other, LoopVerdict):
            return NotImplemented
        return self._fields() == other._fields() and self.witness == other.witness

    def __hash__(self):
        return hash(self._fields())

    def __reduce__(self):
        return LoopVerdict, (self.kind, self.witness_k, self.witness_m, self.witness)

    def __repr__(self):
        return (
            f"LoopVerdict(kind={self.kind!r}, witness_k={self.witness_k!r}, "
            f"witness_m={self.witness_m!r}, witness={self.witness!r})"
        )

    def record(self) -> str:
        """Single-line serialisation."""
        if self.kind == LOOP:
            return "LOOP"
        return f"NOTLOOP k={self.witness_k} m={self.witness_m} {_den_field(self.witness.den)}"


_set_kind, _set_witness_k, _set_witness_m, _set_witness = LoopVerdict._setters()
_LOOP = LoopVerdict(LOOP)


class ModState(NamedTuple):
    """Pair of consecutive denominators reduced mod n."""

    u: int
    v: int


_Steps = Iterator[tuple[Optional[int], bool]]


def _steps(e: Union[CFExpansion, QuadSurd]) -> tuple[_Steps, Union[CFExpansion, QuadSurd]]:
    """The input of both loop routes: the steps after a_0, and the value read.

    Step k is (a_{k+1}, whether fan k starts a period), read off the value's
    own `steps()`, whose period starts are canonical.  A finite expansion
    carrying the oo-tail ends in the step (None, False), its unbounded final
    fan; only a finite expansion's steps end.  Under the tail convention
    Euclid's form [a_0; ..., a_L] (not ending in 1) decides the value alone,
    so a twin is read in Euclid's form: through its fan L the twin [a_0; ...,
    a_L - 1, 1] draws only Euclid's denominators, and its tail m*q_L + (q_L -
    q_{L-1}) is 0 mod n only if q_L (coprime to q_{L-1}) is a unit mod n, and
    then so is Euclid's tail m'*q_L + q_{L-1} for some m'.
    """
    if isinstance(e, CFExpansion):
        if e.inf_tail and e.body and e.body[-1] == 1:
            e = twin_of(e)
        positive = e.a0 or e.body or e.period
    elif isinstance(e, QuadSurd):
        positive = e.is_positive()
    else:
        raise TypeError(f"loop decisions take a CFExpansion or a QuadSurd, not {type(e).__name__}")
    if not positive:
        raise ValueError("loop decisions require a positive value")
    steps = e.steps()
    next(steps)
    return steps, e


def _scan_cycle(steps: _Steps, n: int, value: Union[CFExpansion, QuadSurd]) -> LoopVerdict:
    """The state-cycle scan behind every loop decision.

    Step k gives a_{k+1}, which closes fan k at (u, v) = (q_{k-1}, q_k) mod n,
    and whether fan k starts a period.  The pair at the first period start is
    saved; a later start where the point [u : v] of P^1(Z/n) is back is LOOP:
    1. The step (u, v) -> (v, a*v + u) is invertible mod n, so from period start
       to period start the orbit is purely periodic.
    2. The fan test u + m*v = 0 (mod n) is unchanged by a unit multiple of (u, v).
    3. Consecutive denominators are coprime, so (u, v) is primitive; for
       primitive vectors u*v0 = v*u0 makes them unit multiples mod each prime
       power, which the CRT joins.  So each later fan repeats a scanned one.
    4. Only fan 0 excludes m = 0, but a return to u = 0 at k > 0 has already
       stopped the scan: q_{k-1} is the last denominator of fan k - 2.
    Fan 0 is closed form: (u, v) = (0, 1) draws m = 1..a_1, so it hits at m = n
    exactly when a_1 >= n.  Later fans solve v*m = -u (mod n) by a gcd and an
    inverse for the least m >= 0, a hit when m <= a_{k+1}.  A step with a = None
    is the unbounded tail fan, where any root hits, and ends the steps.
    Only a finite expansion's steps run out, every fan scanned: LOOP.  NOTLOOP
    keeps `value` for its witness, so the scan holds O(1) memory.
    """
    u, v = 0, 1
    u0 = None
    k = 0
    for a, boundary in steps:
        if boundary:
            if u0 is None:
                u0, v0 = u, v
            elif (u * v0 - v * u0) % n == 0:
                return LoopVerdict.loop()
        if not k:
            if a is None or a >= n:
                return LoopVerdict.not_loop(0, n, value)
        elif not u % (g := math.gcd(v, n)):
            m = -(u // g) * pow(v // g, -1, n // g) % (n // g)
            if a is None or m <= a:
                return LoopVerdict.not_loop(k, m, value)
        if a is None:
            break
        u, v = v, (a * v + u) % n
        k += 1
    return LoopVerdict.loop()


def is_infinite_loop(e: Union[CFExpansion, QuadSurd], n: int) -> LoopVerdict:
    """Decide whether the value of e is an infinite loop mod n.

    Exact for finite expansions (under the tail convention through Euclid's
    expansion and its oo-tail, which cover the twin's), for periodic
    expansions and for QuadSurd values.  Any other input raises TypeError.
    """
    if n < 2:
        raise ValueError("modulus must be >= 2")
    steps, value = _steps(e)
    return _scan_cycle(steps, n, value)


def loop_scaling_check(e: CFExpansion, n: int, k: int) -> bool:
    """Check that a loop mod n stays a loop mod k*n (divisibility is monotone)."""
    if k < 1:
        raise ValueError("scale factor must be >= 1")
    if not is_infinite_loop(e, n).is_loop:
        raise ValueError(f"{e} is not an infinite loop mod {n}")
    return is_infinite_loop(e, k * n).is_loop


# ---------------------------------------------------------------------------
# the pruned denominator-pair graph


def _children(u: int, v: int, n: int) -> tuple[tuple[int, int], ...]:
    """The residue-pair transition: the inserted u + v splits (u, v) mod n into
    (u, u+v) and (u+v, v), and nothing when u + v vanishes (both are resolved)."""
    w = (u + v) % n
    return ((u, w), (w, v)) if w else ()


def successors(state: ModState, n: int) -> tuple[tuple[str, ModState], ...]:
    """Unpruned moves; the created denominator u+v must not vanish mod n."""
    return tuple(zip("LR", map(ModState._make, reversed(_children(*state, n)))))


def loop_graph(n: int) -> dict[ModState, tuple[tuple[str, ModState], ...]]:
    """Subgraph reachable from the start state (1, 1), i.e. the interval (0, 1).

    A depth-first build that pushes only targets not yet in the graph; a
    state pushed twice before its first pop is still expanded once.
    """
    if n < 2:
        raise ValueError("modulus must be >= 2")
    start = ModState(1 % n, 1 % n)
    graph: dict[ModState, tuple[tuple[str, ModState], ...]] = {}
    frontier = [start]
    while frontier:
        state = frontier.pop()
        if state in graph:
            continue
        moves = graph[state] = successors(state, n)
        for _, target in moves:
            if target not in graph:
                frontier.append(target)
    return graph


def loop_exists(n: int) -> bool:
    """True iff some infinite loop mod n exists.

    For n >= 4 the loop of `loop_example`, which the exact decision has
    validated, proves existence; a failed validation raises, never answers.
    For n < 4 the pruned graph is closed: every state with no move into the
    remaining set is dropped until none is.  The survivors are the greatest
    set in which every state has a move inside the set: no round drops a
    state of such a set, and what the rounds leave is one.  A state of that
    set starts an infinite unpruned walk that never leaves it, and the states
    of any infinite unpruned walk form such a set; so the survivors are
    exactly the states with an infinite unpruned walk.  Eventually constant
    letter words (rational limits, decided through their tail progressions)
    are walks round a self-loop and are covered by the same pruning rule.
    So a dropped start proves absence.
    """
    if n < 2:
        raise ValueError("modulus must be >= 2")
    if n >= 4:
        loop_example(n)  # raises RuntimeError if the validation fails
        return True
    graph = loop_graph(n)
    alive = set(graph)
    while dead := {s for s in alive if not any(t in alive for _, t in graph[s])}:
        alive -= dead
    return ModState(1 % n, 1 % n) in alive


def loop_example(n: int) -> CFExpansion:
    """A concrete infinite loop mod n, validated by the exact decision.

    None exists mod 2 or 3: there the closure of the pruned graph in
    `loop_exists` drops the start state.  Mod 4 the answer is 1/2
    with its oo-tail, [0; 2, oo]: fan 0 draws 1 and 2, and the tail
    denominators 2m + 1 are odd.  For n >= 5 it is [0; 1, n-3, (1, n-4)],
    whose denominators q_{-1}, q_0, ... run mod n through 0, 1, 1, -2, -1 and
    then repeat (2, 1, -2, -1).  So fan 0 draws 1, fan 1 draws 1 + m for
    m <= n-3, each later fan over a 1 draws 1 and -1, and each fan over n-4
    draws 2 + m or -(2 + m) for m <= n-4: no denominator past q_{-1} is 0.
    """
    if n < 2:
        raise ValueError("modulus must be >= 2")
    if n < 4:
        raise ValueError(f"no infinite loops exist mod {n}")
    if n == 4:
        result = CFExpansion(0, (2,), None, True)
    else:
        result = CFExpansion(0, (1, n - 3), (1, n - 4))
    verdict = is_infinite_loop(result, n)
    if not verdict.is_loop:
        raise RuntimeError(f"loop example mod {n} failed validation: {verdict.record()}")
    return result


# ---------------------------------------------------------------------------
# mediant-tree walk


def _raw_walk(e: CFExpansion) -> Iterator[tuple[int, int, tuple[int, int], tuple[int, int]]]:
    """Mediant walk from the base edge driven by the partial quotients.

    Yields (k, m, lo, hi) after every step, where the step created the
    semi-convergent {k, m} as the new interval endpoint; the leading-term fan
    is tagged k = -1.  Endpoints are (num, den) pairs: through fan k the walk
    keeps the pivot p_k/q_k and moves the other endpoint, the lower one for
    odd k.  The oo-tail of a finite expansion is one endless final run;
    without it the walk ends on the value.
    """
    for k, a, p_prev, q_prev, p, q in fans(e.digits()):
        if a is None:
            if not e.inf_tail:
                return
            run = itertools.count(1)
        else:
            run = range(1, a + 1)
        pivot = p, q
        for m in run:
            mid = m * p + p_prev, m * q + q_prev
            yield (k, m, mid, pivot) if k % 2 else (k, m, pivot, mid)


def sb_walk(e: CFExpansion, n: int, depth: int) -> list[tuple[str, int]]:
    """Letter word of the mediant walk toward value(e) with created denominators mod n.

    The walk starts at the base edge, so the word groups into runs matching
    the partial quotients (a leading run of a_0 L's with denominator 1) and the
    created denominators are the nonzero semi-convergent denominators in order
    of appearance.  Requires a positive value and n >= 2.
    """
    if n < 2:
        raise ValueError(f"modulus must be >= 2, got {n}")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if e.is_finite and e.a0 == 0 and not e.body:
        raise ValueError("the ray needs a positive endpoint")
    return [
        ("L", lo[1] % n) if k % 2 else ("R", hi[1] % n)
        for k, _, lo, hi in itertools.islice(_raw_walk(e), depth)
    ]
