"""Seeded CLI invocations for the four benchmark workloads.

A workload is drawn one *pass* at a time: ``make_pass(workload, seed, index)``
returns the list of CLI calls of that pass, every value, modulus and scan
seed drawn from ``random.Random`` keyed on (workload, seed, index).  Each
timed pass therefore sees fresh inputs, so a cache inside the program can
only gain where inputs really share work.

Every generator emits inputs inside its command's domain only: surds are
``(P+sqrt(D))/Q`` with D a positive non-square and Q | D - P^2, so the
program never rescales D by Q^2 and the discriminant bound below is the one
the program sees; ``cutseq`` values lie strictly inside (0, 1).  A draw that
misses the domain is redrawn, and ``make_pass`` checks every call's domain
again, raising ``InputError`` (a benchmark defect, never a program failure).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional

WORKLOADS = ("scan-periodic", "scan-rational", "graph", "surd-query")

# why each workload exists; BENCHMARK.json repeats these lines
WHY = {
    "scan-periodic": "many small verify noloop/infl/count-height scans: time goes to surds, "
    "surd_height, cf_value and the periodic decider",
    "scan-rational": "verify defs-equivalence/pro2/thma: time goes to Rational, convergents, the "
    "finite decider and the edge route; no surds",
    "graph": "loop-exists, loop-example and gamma-path on seeded moduli up to 110: the "
    "residue-pair graph searches and mediant insertion",
    "surd-query": "single queries (loopcheck, cf, spectrum, mp-bound, cutseq) on surds with D "
    "up to 1e9: few long periods with big integers, plus per-call CLI cost",
}

# the scan sizes (count, q-max, ...) are fixed; only values and seeds vary
NOLOOP_N = range(4, 26)  # the CLI default n range, one modulus per call
NOLOOP_COUNT = 100
INFL_COUNT = 40
INFL_PM = 10  # (p, m) pairs the CLI scans for infl
COUNT_HEIGHT_COUNT = 40
COUNT_HEIGHT_PM = 5  # (p, m) pairs the CLI scans for count-height
PRO2_COUNT = 80
THMA_COUNT = 40
# verify dual-pushforward is left out: at this commit about one call in a
# thousand reports a violation because heights._semiconvergent_pool never
# adds the convergent a0 - 1 of the twin of an integer n*x (x=3/5, n=10
# gives images 5/1 and 6/1); test_perfbench pins it as a strict xfail
# period-length ranges of the surd queries: the expansion work per query
# varies within a factor of two, not a thousand as for uniform D
SURD_PERIOD = (1500, 3000)
SPECTRUM_PERIOD = (400, 800)  # summed over the scaled values p^l * x, l <= L
CUTSEQ_PERIOD = (700, 1400)


class InputError(RuntimeError):
    """A generated input lies outside its command's domain (benchmark defect)."""


@dataclass(frozen=True)
class Call:
    """One CLI invocation and what its output must show.

    ``command`` is the subcommand (``verify <check>`` for scans), ``units`` the
    work units it counts toward ``cases_per_s`` (scan cases the summary must
    report, otherwise 1), ``mod`` the modulus a verdict witness must divide
    (the one a ``loop-exists`` table must list), ``depth`` the length a
    ``cutseq`` walk must have and ``levels`` the number of spectrum rows.
    """

    command: str
    argv: tuple
    units: int = 1
    mod: Optional[int] = None
    depth: Optional[int] = None
    levels: Optional[int] = None


def _is_square(n: int) -> bool:
    r = math.isqrt(n)
    return r * r == n


def _totient_sum(q_max: int) -> int:
    """Number of reduced fractions p/q in (0, 1) with 2 <= q <= q_max."""
    return sum(1 for q in range(2, q_max + 1) for p in range(1, q) if math.gcd(p, q) == 1)


def _period(p: int, q: int, d: int, cap: int) -> int:
    """Period length of the expansion of (p+sqrt(d))/q by the integral
    recurrence, or cap + 1 once the recurrence passes cap steps."""
    r = math.isqrt(d)
    seen: dict[tuple[int, int], int] = {}
    k = 0
    while (p, q) not in seen:
        if k > cap:
            return cap + 1
        seen[(p, q)] = k
        a = (p + r) // q if q > 0 else -((p + r) // -q) - 1
        p, q = a * q - p, (d - (a * q - p) ** 2) // q
        k += 1
    return k - seen[(p, q)]


def _surd(
    rng: random.Random, d_lo: int, d_hi: int, period: tuple[int, int], unit: bool = False, pure: bool = False,
    scales: tuple[int, ...] = (1,),
) -> tuple[int, int, int]:
    """(P, Q, D) with d_lo <= D <= d_hi non-square, Q | D - P^2 and a positive
    value, or a value strictly inside (0, 1) when ``unit``, or sqrt(D) when
    ``pure``.  The period lengths of the value times each of ``scales`` add
    up to a number in the ``period`` range, which bounds the work a query
    on it does."""
    lo, hi = period
    while True:
        d0 = rng.randint(d_lo, d_hi)
        s0 = math.isqrt(d0)
        if pure:
            p, q = 0, 1
        elif unit:
            q = rng.randint(s0 + 2, 3 * s0)
            p = rng.randint(-s0, min(q - s0 - 2, s0))
        else:
            q = rng.randint(1, 12)
            p = rng.randint(-(s0 // 2), s0)
        t = (d0 - p * p) // q
        d = p * p + q * t
        if t <= 0 or not d_lo <= d <= d_hi or _is_square(d):
            continue
        s = math.isqrt(d)  # s < sqrt(d) < s + 1
        if p + s < 0 or (unit and p + s + 1 > q):
            continue
        steps = 0
        for n in scales:
            steps += _period(n * p, q, n * n * d, hi - steps)
            if steps > hi:
                break
        if lo <= steps <= hi:
            return p, q, d


def _strata(rng: random.Random, lo: int, hi: int, k: int) -> list[int]:
    """k integers in [lo, hi], one from each of k equal slices of the range,
    in random order: every pass covers the range evenly, so its total work
    varies less."""
    width = (hi - lo + 1) / k
    values = [rng.randint(lo + int(i * width), lo + int((i + 1) * width) - 1) for i in range(k)]
    rng.shuffle(values)
    return values


def _surd_text(p: int, q: int, d: int) -> str:
    if p == 0 and q == 1:
        return f"sqrt({d})"
    return f"({p}+sqrt({d}))/{q}"


def check_domain(call: Call) -> None:
    """Raise InputError unless every surd argument is normalised, as the
    generators promise, and a cutseq value lies in (0, 1)."""
    value = call.argv[1] if call.command in ("loopcheck", "cf", "spectrum", "mp-bound", "cutseq") else None
    if value is None:
        return
    if value.startswith("sqrt("):
        p, q, d = 0, 1, int(value[5:-1])
    else:
        head, _, q_text = value.rpartition("/")
        p_text, _, d_text = head[1:-2].partition("+sqrt(")
        p, q, d = int(p_text), int(q_text), int(d_text)
    s = math.isqrt(d)
    if d <= 0 or _is_square(d) or q < 1 or (d - p * p) % q or p + s < 0:
        raise InputError(f"surd outside the domain: {call.argv}")
    if call.command == "cutseq" and p + s + 1 > q:
        raise InputError(f"cutseq value not inside (0, 1): {call.argv}")


# ---------------------------------------------------------------------------
# one pass per workload


def _scan_periodic(rng: random.Random) -> list[Call]:
    calls = []
    for _ in range(2):
        s = rng.randrange(10**6)
        for n in NOLOOP_N:
            argv = ("verify", "noloop", "--n-range", f"{n}..{n}", "--count", str(NOLOOP_COUNT), "--seed", str(s))
            calls.append(Call("verify noloop", argv, NOLOOP_COUNT))
    for _ in range(2):
        s = rng.randrange(10**6)
        argv = ("verify", "infl", "--count", str(INFL_COUNT), "--seed", str(s))
        calls.append(Call("verify infl", argv, INFL_COUNT * INFL_PM))
        s = rng.randrange(10**6)
        argv = ("verify", "count-height", "--count", str(COUNT_HEIGHT_COUNT), "--seed", str(s))
        calls.append(Call("verify count-height", argv, COUNT_HEIGHT_COUNT * COUNT_HEIGHT_PM))
    return calls


def _scan_rational(rng: random.Random) -> list[Call]:
    calls = []
    for n, q_max in zip(_strata(rng, 2, 12, 8), _strata(rng, 30, 70, 8)):
        argv = ("verify", "defs-equivalence", "--q-max", str(q_max), "--n-range", f"{n}..{n}")
        calls.append(Call("verify defs-equivalence", argv, _totient_sum(q_max)))
    for n in _strata(rng, 2, 7, 6) + _strata(rng, 2, 7, 2):
        s = rng.randrange(10**6)
        argv = ("verify", "pro2", "--n-range", f"{n}..{n}", "--count", str(PRO2_COUNT), "--seed", str(s))
        calls.append(Call("verify pro2", argv, PRO2_COUNT))
    for _ in range(6):
        s = rng.randrange(10**6)
        argv = ("verify", "thma", "--count", str(THMA_COUNT), "--seed", str(s))
        calls.append(Call("verify thma", argv, THMA_COUNT + max(THMA_COUNT // 5, 1)))
    return calls


def _graph(rng: random.Random) -> list[Call]:
    calls = []
    # loop-exists is most of the calls, so the median call is one of them
    for n in _strata(rng, 2, 110, 24):
        calls.append(Call("loop-exists", ("loop-exists", "--n-range", f"{n}..{n}"), mod=n))
    for n in _strata(rng, 4, 110, 4):  # loops exist exactly for n >= 4
        k = rng.randint(2, 5)
        argv = ("loop-example", "--mod", str(n), "--scale-check", str(k))
        calls.append(Call("loop-example", argv, mod=n))
    for n in _strata(rng, 4, 40, 2):
        argv = ("gamma-path", "--mod", str(n), "--max-iter", str(rng.randint(10, 12)))
        calls.append(Call("gamma-path", argv, mod=n))
        argv = ("gamma-path", "--mod", str(n), "--denoms", "--max-iter", str(rng.randint(12, 14)))
        calls.append(Call("gamma-path --denoms", argv, mod=n))
    return calls


def _surd_query(rng: random.Random) -> list[Call]:
    calls = []
    for pure in (True,) * 10 + (False,) * 5:
        n = rng.randint(2, 200)
        value = _surd_text(*_surd(rng, 10**7, 10**9, SURD_PERIOD, pure=pure))
        calls.append(Call("loopcheck", ("loopcheck", value, "--mod", str(n)), mod=n))
    for _ in range(5):
        calls.append(Call("cf", ("cf", _surd_text(*_surd(rng, 10**7, 10**9, SURD_PERIOD)))))
    for command in ("spectrum",) * 3 + ("mp-bound",) * 2:
        p, ell = rng.choice((2, 3, 5)), rng.randint(1, 3)
        value = _surd_text(*_surd(rng, 10**4, 10**5, SPECTRUM_PERIOD, scales=tuple(p**i for i in range(ell + 1))))
        argv = (command, value, "-p", str(p), "-L", str(ell))
        if command == "spectrum":
            argv += ("--persistence", str(rng.randint(1, 3)))
        calls.append(Call(command, argv, levels=ell + 1 if command == "spectrum" else None))
    for _ in range(4):
        n = rng.randint(2, 60)
        depth = rng.randint(100, 200)
        value = _surd_text(*_surd(rng, 10**6, 10**8, CUTSEQ_PERIOD, unit=True))
        calls.append(Call("cutseq", ("cutseq", value, "--mod", str(n), "--depth", str(depth)), mod=n, depth=depth))
    return calls


_PASSES = {
    "scan-periodic": _scan_periodic,
    "scan-rational": _scan_rational,
    "graph": _graph,
    "surd-query": _surd_query,
}


def make_pass(workload: str, seed: int, index: int) -> list[Call]:
    """The calls of pass ``index`` of ``workload`` under ``seed``, shuffled so
    that commands interleave."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    calls = _PASSES[workload](rng)
    rng.shuffle(calls)
    for call in calls:
        check_domain(call)
    return calls


# a fixed tiny call per command: the set-up probe times import plus the
# first call of every command a workload uses
FIRST_CALLS = {
    "scan-periodic": (
        ("verify", "noloop", "--n-range", "4..4", "--count", "1", "--seed", "0"),
        ("verify", "infl", "--count", "1", "--seed", "0"),
        ("verify", "count-height", "--count", "1", "--seed", "0"),
    ),
    "scan-rational": (
        ("verify", "defs-equivalence", "--q-max", "3", "--n-range", "2..2"),
        ("verify", "pro2", "--n-range", "2..2", "--count", "1", "--seed", "0"),
        ("verify", "thma", "--count", "1", "--seed", "0"),
    ),
    "graph": (
        ("loop-exists", "--n-range", "4..4"),
        ("loop-example", "--mod", "4", "--scale-check", "2"),
        ("gamma-path", "--mod", "4", "--max-iter", "2"),
        ("gamma-path", "--mod", "4", "--denoms", "--max-iter", "2"),
    ),
    "surd-query": (
        ("loopcheck", "sqrt(2)", "--mod", "5"),
        ("cf", "sqrt(2)"),
        ("spectrum", "sqrt(2)", "-p", "2", "-L", "1", "--persistence", "1"),
        ("mp-bound", "sqrt(2)", "-p", "2", "-L", "1"),
        ("cutseq", "(0+sqrt(2))/2", "--mod", "3", "--depth", "5"),
    ),
}
