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

from .loops import _children, _first_zero
from .rationals import Immutable, Rational, farey_mediant, is_gamma0_neighbor

DEFAULT_MATERIALIZE_LIMIT = 1 << 17  # vertices per round


class MediantRun(Immutable):
    """Result of iterating the insertion process.

    ``rounds`` holds the materialised iterations starting from round 0; when
    the projected sequence length passes the size guard later rounds are
    dropped but ``terminated``/``rounds_run`` stay exact.
    """

    __slots__ = ("terminated", "rounds_run", "rounds")

    def __init__(self, terminated: bool, rounds_run: int, rounds: tuple):
        _set_terminated(self, terminated)
        _set_rounds_run(self, rounds_run)
        _set_rounds(self, rounds)


_set_terminated, _set_rounds_run, _set_rounds = MediantRun._setters()


def _unresolved_rounds(n: int, max_iter: int) -> Optional[int]:
    """Round at which no unresolved residue pair remains, or None within max_iter."""
    pairs = {(1, 1)}
    for i in range(1, max_iter + 1):
        pairs = {child for u, v in pairs for child in _children(u, v, n)}
        if not pairs:
            return i
    return None


def _verdict(n: int, max_iter: int) -> tuple[bool, int]:
    """(terminated, rounds_run) of the insertion process at level n; the
    unresolved pairs are tracked only where ``nonterminating(n)`` fails."""
    if n < 2:
        raise ValueError("modulus must be >= 2")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    stop = None if nonterminating(n) else _unresolved_rounds(n, max_iter)
    return stop is not None, stop or max_iter


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
    terminated, rounds_run = _verdict(n, max_iter)

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
    return MediantRun(terminated, rounds_run, rounds)


def d_algorithm(
    n: int, max_iter: int, materialize_limit: int = DEFAULT_MATERIALIZE_LIMIT
) -> MediantRun:
    """Denominator sequences D_0, D_1, ... mod n, mirroring v_algorithm.

    A consecutive pair is resolved iff exactly one member is 0; unresolved
    pairs receive their sum mod n.  Two adjacent zeros cannot occur because
    consecutive denominators are coprime; asserted each round.  So a pair is
    unresolved iff both members are nonzero.
    """
    terminated, rounds_run = _verdict(n, max_iter)
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
    return MediantRun(terminated, rounds_run, rounds)


def nonterminating(n: int) -> bool:
    """True iff the insertion process can never terminate.

    Criterion: the pair (1, 2) of round 1 regenerates under `_children`, so
    every later round keeps an unresolved pair.  One word per class of n is
    replayed: L takes (u, v) to (u, v + j*u), R to (u + j*v, v), each run one
    `_first_zero` jump, pruned at its least j creating an entry 0 mod n.
    - n even, R^(n/2): creates 1 + 2j, odd, and ends at 1 + n = 1.
    - n = 3 (mod 4), n >= 7, L^2 R^((n-1)/2) L^2 R: L^2 creates 3, 4; the R
      run creates 1 + 4j < 2n, never n in this class, and ends at -1; then
      L^2 creates 3, 2 and R creates 1.
    - n = 1 (mod 4), L^((n-3)/2) R L R^((n-1)/4): the L run creates 3..(n+1)/2,
      R (n+3)/2 and L n + 2 = 2; the R run creates even entries up to n + 1 = 1.
    Mod 2 the pair (1, 2) has a zero entry and mod 3 a zero sum: no children.
    """
    if n < 2:
        raise ValueError("modulus must be >= 2")
    u, v = start = 1 % n, 2 % n
    if not (u and v):
        return False
    if n % 2 == 0:
        word = (("R", n // 2),)
    elif n % 4 == 3:
        word = (("L", 2), ("R", (n - 1) // 2), ("L", 2), ("R", 1))
    else:
        word = (("L", (n - 3) // 2), ("R", 1), ("L", 1), ("R", (n - 1) // 4))
    for letter, j in word:
        x, h = (v, u) if letter == "L" else (u, v)
        m = _first_zero(x, h, n)
        if m is not None and m <= j:
            return False
        x = (x + j * h) % n
        u, v = (u, x) if letter == "L" else (x, v)
    return (u, v) == start
