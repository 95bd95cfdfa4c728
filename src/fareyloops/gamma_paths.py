"""Mediant-insertion search for neighbour paths from 0 to 1 at level n.

Two mirror algorithms: the vertex form inserts Farey mediants between
consecutive vertices that are not level-n neighbours; the denominator form
runs the same recursion on denominators reduced mod n.  Both split a pair
exactly when both its denominators are nonzero mod n: consecutive vertices
are Farey neighbours (0/1, 1/1 are, and a mediant neighbours both parents),
so their denominators are coprime, never both 0, and the pair is a level-n
edge iff one is 0.  The vertex form splits on its vertices' denominators mod
n; the Farey determinant is tested only on the last round of a terminated run.
Whether the process terminates within a given number of rounds is read off
``nonterminating(n)`` where that holds; otherwise it is decided on the finite
set of unresolved residue pairs.  Sequence lengths grow geometrically, so the
actual rounds are materialised only up to a size guard.
"""

from __future__ import annotations

from typing import Optional

from .loops import _children
from .rationals import Immutable, Rational, farey_mediant, is_gamma0_neighbor

DEFAULT_MATERIALIZE_LIMIT = 1 << 17  # vertices per round


class MediantRun(Immutable):
    """Result of iterating the insertion process.

    ``rounds`` holds the materialised iterations starting from round 0; when
    the projected sequence length passes the size guard later rounds are
    dropped but ``terminated``/``rounds_run`` stay exact.  ``nonterminating``
    is the verdict's ``nonterminating(n)``, left out of equality and hash.
    """

    __slots__ = ("terminated", "rounds_run", "rounds", "nonterminating")

    def __init__(self, terminated: bool, rounds_run: int, rounds: tuple, nonterminating: bool = False):
        _set_terminated(self, terminated)
        _set_rounds_run(self, rounds_run)
        _set_rounds(self, rounds)
        _set_nonterminating(self, nonterminating)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple(self)[:3] == other._astuple(other)[:3]

    def __hash__(self):
        return hash(self._astuple(self)[:3])


_set_terminated, _set_rounds_run, _set_rounds, _set_nonterminating = MediantRun._setters()


def _unresolved_rounds(n: int, max_iter: int) -> Optional[int]:
    """Round at which no unresolved residue pair remains, or None within max_iter."""
    pairs = {(1, 1)}
    for i in range(1, max_iter + 1):
        pairs = {child for u, v in pairs for child in _children(u, v, n)}
        if not pairs:
            return i
    return None


def _verdict(n: int, max_iter: int) -> tuple[bool, int, bool]:
    """(terminated, rounds_run, nonterminating(n)) of the insertion process at level n.

    Round 1 holds the pair (1, 2), so when ``nonterminating(n)`` shows that
    pair regenerating, every round keeps an unresolved pair and the run
    cannot end; only otherwise are the unresolved pairs tracked.
    """
    if n < 2:
        raise ValueError("modulus must be >= 2")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    blocked = nonterminating(n)
    stop = None if blocked else _unresolved_rounds(n, max_iter)
    return stop is not None, stop or max_iter, blocked


def _rounds(seq: list, step, rounds_run: int, materialize_limit: int) -> tuple:
    """Rounds seq, step(seq), ... up to rounds_run, stopping at the size guard."""
    rounds = [tuple(seq)]
    for _ in range(rounds_run):
        if 2 * len(seq) > materialize_limit:
            break
        seq = step(seq)
        rounds.append(tuple(seq))
    return tuple(rounds)


def v_algorithm(
    n: int, max_iter: int, materialize_limit: int = DEFAULT_MATERIALIZE_LIMIT
) -> MediantRun:
    """Vertex sequences V_0, V_1, ... between 0/1 and 1/1.

    Each round inserts the mediant between every consecutive pair that is not
    a level-n neighbour; the run terminates when all pairs are neighbours.
    """
    terminated, rounds_run, blocked = _verdict(n, max_iter)

    def step(verts):
        nxt = [verts[0]]
        for a, b in zip(verts, verts[1:]):
            if a.den % n and b.den % n:
                nxt.append(farey_mediant(a, b))
            nxt.append(b)  # the same object, whose text the CLI reuses
        return nxt

    rounds = _rounds([Rational(0, 1), Rational(1, 1)], step, rounds_run, materialize_limit)
    if terminated and len(rounds) == rounds_run + 1:
        final = rounds[-1]
        assert all(is_gamma0_neighbor(a, b, n) for a, b in zip(final, final[1:]))
    return MediantRun(terminated, rounds_run, rounds, blocked)


def d_algorithm(
    n: int, max_iter: int, materialize_limit: int = DEFAULT_MATERIALIZE_LIMIT
) -> MediantRun:
    """Denominator sequences D_0, D_1, ... mod n, mirroring v_algorithm.

    A consecutive pair is resolved iff exactly one member is 0; unresolved
    pairs receive their sum mod n.  Two adjacent zeros cannot occur because
    consecutive denominators are coprime; asserted each round.  So a pair is
    unresolved iff both members are nonzero.
    """
    terminated, rounds_run, blocked = _verdict(n, max_iter)
    residue = list(range(n)) * 2  # residue[u + v] is (u + v) mod n

    def step(seq):
        nxt = [seq[0]]
        for u, v in zip(seq, seq[1:]):
            assert u or v, "adjacent zero denominators"
            if u and v:
                nxt.append(residue[u + v])
            nxt.append(v)
        return nxt

    rounds = _rounds([1, 1], step, rounds_run, materialize_limit)
    return MediantRun(terminated, rounds_run, rounds, blocked)


def nonterminating(n: int) -> bool:
    """True iff the insertion process can never terminate.

    Structural criterion: the residue pair (1, 2) regenerates itself, i.e.
    (1, 2) is reachable from itself in at least one step of the unresolved
    pair expansion.  Once a sequence contains an adjacent (1, 2) it then
    contains one at every later round.
    """
    if n < 2:
        raise ValueError("modulus must be >= 2")
    target = (1 % n, 2 % n)
    if target[0] == 0 or target[1] == 0:
        return False
    frontier = list(_children(*target, n))
    seen = set(frontier)
    while frontier:
        pair = frontier.pop()
        if pair == target:
            return True
        for child in _children(*pair, n):
            if child not in seen:
                seen.add(child)
                frontier.append(child)
    return False
