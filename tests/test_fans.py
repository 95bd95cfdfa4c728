"""The convergent recurrence `contfrac.fans` against the loops it replaced.

Each route that now reads its convergents, semi-convergents or mediant steps
off `fans` is compared with an in-test copy of the hand-written recurrence it
used before, on seeded finite expansions (leading term 0..3, both twins, with
and without the oo-tail) and on seeded periodic ones.  Errors are compared by
type and message.  The finite loop decision, which now runs the state-cycle
scan and no longer reads `fans`, is compared with an in-test copy of the
fan-based route it replaced, twin rescan included.
"""

import itertools
import math
import random

from fareyloops.contfrac import (
    CFExpansion,
    _surd_of_periodic,
    convergent_pair,
    convergents,
    fans,
    semiconvergent,
    twin_entries,
    twin_of,
)
from fareyloops.heights import _semiconvergent_pool
from fareyloops.loops import LoopVerdict, _raw_walk, is_infinite_loop
from fareyloops.rationals import INFINITY, Rational
from fareyloops.sampling import random_periodic_cf
from fareyloops.surds import QuadSurd
from reference_decider import _fan_hit

# ---------------------------------------------------------------------------
# copies of the replaced loops


def old_convergent_pair(e, k):
    if k < -1:
        raise IndexError("convergent index must be >= -1")
    p_prev, q_prev = 1, 0
    if k == -1:
        return p_prev, q_prev
    p, q = e.a0, 1
    for i in range(1, k + 1):
        a = e.entry(i)
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
    return p, q


def old_convergents(e, upto=None):
    if upto is None:
        if not e.is_finite:
            raise ValueError("an infinite expansion needs an explicit bound")
        upto = e.last_index
    out = [INFINITY]
    if upto < 0:
        return out
    p_prev, q_prev = 1, 0
    p, q = e.a0, 1
    out.append(Rational(p, q))
    for i in range(1, upto + 1):
        a = e.entry(i)
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
        out.append(Rational(p, q))
    return out


def old_semiconvergent(e, k, m):
    if k < 0:
        raise IndexError("semi-convergent index must be >= 0")
    if m < 0:
        raise ValueError("m must be >= 0")
    if e.is_finite and k > e.last_index:
        raise IndexError(f"expansion has no fan at k={k}")
    if e.is_finite and k == e.last_index:
        if not e.inf_tail:
            raise IndexError("final fan requires the oo-tail convention")
    else:
        bound = e.entry(k + 1)
        if m > bound:
            raise ValueError(f"m={m} outside fan bound a_{k + 1}={bound}")
    p_prev, q_prev = old_convergent_pair(e, k - 1)
    p, q = old_convergent_pair(e, k)
    return Rational(m * p + p_prev, m * q + q_prev)


def old_finite_witness(entries, inf_tail, n):
    steps = fans(entries)
    next(steps)
    for k, a, p_prev, q_prev, p, q in steps:
        if a is None and not inf_tail:
            return None
        m = _fan_hit(q_prev, q, n, a, 1 if k == 0 or a is None else 0)
        if m is not None:
            return k, m, m * p + p_prev, m * q + q_prev
    return None


def old_check_finite(e, n):
    """The finite loop decision on `fans`: Euclid's form, then the twin rescan."""
    entries = [e.a0, *e.body]
    if entries == [0]:
        raise ValueError("loop decisions require a positive value")
    if e.inf_tail and len(entries) >= 2 and entries[-1] == 1:
        entries = twin_entries(entries)
    hit = old_finite_witness(entries, e.inf_tail, n)
    if hit is None and e.inf_tail:
        twin_hit = old_finite_witness(twin_entries(entries), True, n)
        assert twin_hit is None, ("the twin hit where Euclid's form missed", e, n)
    if hit is None:
        return LoopVerdict.loop()
    k, m, p, q = hit
    return LoopVerdict.not_loop(k, m, Rational(p, q))


def old_raw_walk(e):
    lo, hi = (0, 1), (1, 0)
    i = 0
    while True:
        try:
            run = range(1, e.entry(i) + 1)
        except IndexError:
            if not e.inf_tail:
                return
            run = itertools.count(1)
        left = i % 2 == 0
        for m in run:
            mid = (lo[0] + hi[0], lo[1] + hi[1])
            if left:
                lo = mid
            else:
                hi = mid
            yield i - 1, m, lo, hi
        i += 1


def old_semiconvergent_pool(e, den_cap):
    pool = set()
    for cand in (e, twin_of(e)):
        last = cand.last_index
        for k in range(last):
            for m in range(cand.entry(k + 1) + 1):
                pool.add(old_semiconvergent(cand, k, m))
        p_prev, q_prev = old_convergent_pair(cand, last - 1)
        p, q = old_convergent_pair(cand, last)
        m = 1
        while m * q + q_prev <= den_cap:
            pool.add(Rational(m * p + p_prev, m * q + q_prev))
            m += 1
    return pool


def old_surd_of_periodic(e):
    a, b = 1, 0
    c, d = 0, 1
    for entry in e.period:
        a, b, c, d = a * entry + b, a, c * entry + d, c
    g = math.gcd(c, a - d, b)
    P, Q = (a - d) // g, 2 * c // g
    D = P * P + 4 * (b // g) * (c // g)
    for entry in reversed((e.a0, *e.body)):
        P, Q = -P, (D - P * P) // Q
        P += entry * Q
    return QuadSurd(P, Q, D)


# ---------------------------------------------------------------------------
# seeded inputs


def outcome(f, *args):
    """The value of f(*args), or the type and message of its error."""
    try:
        return f(*args)
    except (IndexError, ValueError) as exc:
        return type(exc), str(exc)


def finite_cases(seed=7, count=60):
    """Finite expansions with a0 = 0..3, each with its twin, with and without the oo-tail."""
    rng = random.Random(seed)
    out = []
    for a0 in range(4):
        for _ in range(count):
            body = tuple(rng.randint(1, 7) for _ in range(rng.randint(0, 6)))
            e = CFExpansion(a0, body)
            forms = [e] if (a0, body) == (0, ()) else [e, twin_of(e)]
            for f in forms:
                out.append(f)
                out.append(CFExpansion(f.a0, f.body, None, True))
    return out


def periodic_cases(seed=7, count=120):
    rng = random.Random(seed)
    return [random_periodic_cf(rng, max_pre=3, max_period=4, max_entry=7, a0_max=3) for _ in range(count)]


FINITE = finite_cases()
PERIODIC = periodic_cases()


# ---------------------------------------------------------------------------
# the generator itself


class TestFans:
    def test_finite_fans(self):
        assert list(fans([0, 2, 3])) == [
            (-1, 0, 0, 1, 1, 0),
            (0, 2, 1, 0, 0, 1),
            (1, 3, 0, 1, 1, 2),
            (2, None, 1, 2, 3, 7),
        ]

    def test_periodic_digits_never_end(self):
        e = CFExpansion(1, (2,), (3, 4))
        assert list(itertools.islice(e.digits(), 7)) == [1, 2, 3, 4, 3, 4, 3]
        assert [fan[1] for fan in itertools.islice(fans(e.digits()), 7)] == [1, 2, 3, 4, 3, 4, 3]

    def test_determinant(self):
        for e in FINITE[:100] + PERIODIC[:20]:
            for k, _, p_prev, q_prev, p, q in itertools.islice(fans(e.digits()), 30):
                assert p * q_prev - p_prev * q == (-1) ** (k + 1)


# ---------------------------------------------------------------------------
# the fan-based routes against the replaced loops


class TestAgainstReplacedLoops:
    def test_convergent_pair_and_convergents(self):
        for e in FINITE:
            for k in range(-2, e.last_index + 3):
                assert outcome(convergent_pair, e, k) == outcome(old_convergent_pair, e, k), (e, k)
            for upto in (None, *range(-3, e.last_index + 3)):
                assert outcome(convergents, e, upto) == outcome(old_convergents, e, upto), (e, upto)
        for e in PERIODIC:
            for k in range(-2, 16):
                assert outcome(convergent_pair, e, k) == outcome(old_convergent_pair, e, k), (e, k)
            assert outcome(convergents, e) == outcome(old_convergents, e)
            assert convergents(e, 15) == old_convergents(e, 15)

    def test_semiconvergent_at_every_fan(self):
        for e in FINITE:
            for k in range(-1, e.last_index + 2):
                top = e.entry(k + 1) if 0 <= k < e.last_index else 4
                for m in range(-1, top + 2):
                    assert outcome(semiconvergent, e, k, m) == outcome(old_semiconvergent, e, k, m), (e, k, m)
        for e in PERIODIC:
            for k in range(-1, 12):
                for m in range(-1, e.entry(k + 1) + 2):
                    assert outcome(semiconvergent, e, k, m) == outcome(old_semiconvergent, e, k, m), (e, k, m)

    def test_finite_decision(self):
        # FINITE holds both twins with and without the oo-tail; [0] raises on both routes
        notloops = loops = 0
        for e in FINITE:
            for n in (*range(2, 13), 30, 210, 1001):
                ours, old = outcome(is_infinite_loop, e, n), outcome(old_check_finite, e, n)
                if isinstance(old, tuple):
                    assert ours == old, (e, n)
                    continue
                key = (ours.kind, ours.witness_k, ours.witness_m, ours.witness, ours.record())
                assert key == (old.kind, old.witness_k, old.witness_m, old.witness, old.record()), (e, n)
                notloops += not ours.is_loop
                loops += ours.is_loop
        assert notloops > 1000 and loops > 1000

    def test_raw_walk_first_200_steps(self):
        for e in FINITE + PERIODIC:
            ours = list(itertools.islice(_raw_walk(e), 200))
            assert ours == list(itertools.islice(old_raw_walk(e), 200)), e

    def test_semiconvergent_pool(self):
        for e in FINITE:
            if e.inf_tail or (e.a0, e.body) == (0, ()):
                continue
            for cap in (1, 10, 60):
                assert _semiconvergent_pool(e, cap) == old_semiconvergent_pool(e, cap), (e, cap)

    def test_surd_of_periodic(self):
        for e in PERIODIC:
            assert _surd_of_periodic(e) == old_surd_of_periodic(e), e

