"""Height spectra under repeated prime scaling, and the batch inequality scans.

The l-scans read alpha, p*alpha, p^2*alpha, ... off one stream, ``_scalings``.  All
arithmetic is exact: floor(2*sqrt(n)) is isqrt(4n), heights of quadratic irrationals
come from the integral expansion recurrence, and rationals carry infinite height
under the oo-tail convention.  Lower bounds on the multiplicative approximation
constant are deliberately not reported: a finite scan cannot certify an infimum.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
import time
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from .contfrac import (
    CFExpansion,
    _expansion_steps,
    _finite,
    cf_from_rational,
    cf_value,
    convergent_pair,
    convergents,
    euclid_entries,
    fans,
    height,
    multiply_cf,
    twin_of,
)
from .cutting import crossed_edges, fan_chain, loop_verdict_geometric
from .loops import NOTLOOP, is_infinite_loop, loop_example
from .rationals import Immutable, Rational, _reduced
from .sampling import _draw, random_finite_cf, random_periodic_cf, random_unit_rational
from .surds import PERIOD, QuadSurd


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Whether n is prime: the primes 2..41 as divisors, then Miller-Rabin to those 13 bases.

    A failed base proves n composite.  Passing all 13 proves n prime below
    `_MR_BOUND` (Sorenson and Webster, Math. Comp. 86, 2017); at or above it
    such an n raises ValueError rather than get a guessed verdict.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_BOUND:
        raise ValueError(f"cannot decide whether {n} is prime: bases 2..41 prove it only below {_MR_BOUND}")
    return True


def floor_2sqrt(n: int) -> int:
    """floor(2*sqrt(n)) without floating point."""
    return math.isqrt(4 * n)


def surd_height(s: QuadSurd, cap: Optional[int] = None) -> int:
    """Largest partial quotient (leading term excluded) of a quadratic irrational.

    Equal to ``height(cf_of_surd(s))``, read in one pass over
    ``QuadSurd.steps`` in O(1) memory: the max runs over a_1 up to the
    second ``PERIOD``, the preperiod and one pass over the period.

    With a ``cap`` the scan stops at the first partial quotient >= cap and
    returns cap, so the result is min(height, cap): a result below the cap
    is the exact height.
    """
    best = 0
    opened = False
    steps = _expansion_steps(s)
    next(steps)  # a_0
    for a in steps:
        if a is PERIOD:
            if opened:
                return best
            opened = True
        elif a > best:
            best = a
            if cap is not None and best >= cap:
                return cap


def _check_levels(p: int, L: int) -> None:
    """Every l-scan takes a prime p and levels 0..L."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if L < 0:
        raise ValueError("L must be >= 0")


def _scalings(e: CFExpansion, p: int) -> Iterator[Union[CFExpansion, QuadSurd]]:
    """p^l * value(e) for l = 0, 1, ..., as the loop routes and the height readers take
    it: e itself, then ``multiply_cf(e, p**l)`` for a finite e, which keeps its oo-tail,
    or the scaled surd for a periodic e, whose value is built when level 1 is read."""
    yield e
    scale = (lambda n: multiply_cf(e, n)) if e.is_finite else cf_value(e).scaled
    yield from map(scale, itertools.accumulate(itertools.repeat(p), operator.mul))  # p, p^2, ...


def height_spectrum(e: CFExpansion, p: int, L: int) -> tuple[tuple[int, Union[int, float]], ...]:
    """The exact pairs (l, B(p^l * alpha)) for l = 0..L; B = oo for a rational with the oo-tail."""
    _check_levels(p, L)
    if e.inf_tail:  # p^l * alpha keeps the oo-tail at every level
        return tuple((ell, math.inf) for ell in range(L + 1))
    b = (height(x) if isinstance(x, CFExpansion) else surd_height(x) for x in _scalings(e, p))
    return tuple(zip(range(L + 1), b))


def mp_bounds(e: CFExpansion, p: int, L: int) -> tuple[Rational, Rational]:
    """(upper, partial_lower_min), both read off one height spectrum.

    upper = min over l <= L of 1/B(p^l alpha): an upper bound for the p-adic
    approximation constant at any L, nonincreasing in L.  partial_lower_min =
    min over l <= L of 1/(B(p^l alpha)+2) is NOT a bound: the true lower bound is
    an infimum over all l, which no finite scan can certify.  Rational input
    returns exactly (0, 0), as its own denominators already realise the infimum;
    the value is then a statement, not a scan bound.
    """
    if e.is_finite:
        _check_levels(p, L)  # height_spectrum checks them otherwise
        return Rational(0, 1), Rational(0, 1)
    worst = max(b for _, b in height_spectrum(e, p, L))
    return Rational(1, worst), Rational(1, worst + 2)


# ---------------------------------------------------------------------------
# check records and reports


class CheckRecord(Immutable):
    __slots__ = ("check", "params", "applicable", "passed", "witness")

    def __init__(
        self,
        check: str,
        params: tuple[tuple[str, object], ...],
        applicable: bool,
        passed: bool,
        witness: str = "-",
    ):
        _set_check(self, check)
        _set_params(self, params)
        _set_applicable(self, applicable)
        _set_passed(self, passed)
        _set_witness(self, witness)

    def line(self) -> str:
        kv = " ".join(f"{k}={v}" for k, v in self.params)
        flag = 1 if self.passed else 0
        if not self.applicable:
            return f"check={self.check} {kv} pass={flag} skipped=1 witness={self.witness}"
        return f"check={self.check} {kv} pass={flag} witness={self.witness}"


_set_check, _set_params, _set_applicable, _set_passed, _set_witness = CheckRecord._setters()


class ScanReport:
    def __init__(self, check: str, params: dict):
        self.check = check
        self.params = params
        self.total = 0
        self.violations = 0
        self.skipped = 0
        self.first_violation: Optional[CheckRecord] = None
        self.elapsed = 0.0
        self.records: list[CheckRecord] = []

    def add(self, record: CheckRecord, keep: bool = False):
        self.total += 1
        if not record.applicable:
            self.skipped += 1
        elif not record.passed:
            self.violations += 1
            if self.first_violation is None:
                self.first_violation = record
        if keep:
            self.records.append(record)

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def summary(self) -> str:
        kv = " ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return (
            f"check={self.check} {kv} cases={self.total} skipped={self.skipped} "
            f"violations={self.violations} pass={1 if self.passed else 0} "
            f"elapsed={self.elapsed:.2f}s"
        )


# ---------------------------------------------------------------------------
# individual checks


def check_noloop_bound(e: CFExpansion, n: int) -> CheckRecord:
    """For exact non-loops mod n: max{B(a), B(n*a)} >= floor(2*sqrt(n)) - 1."""
    return _check_height("noloop", (("n", n),), e, n)


def check_infl(e: CFExpansion, p: int, m: int) -> CheckRecord:
    """For non-loops mod p^m: min{1/B(a), 1/B(p^m a)} <= 1/(floor(2*sqrt(p^m))-1),
    decided as the equivalent max{B(a), B(p^m a)} >= floor(2*sqrt(p^m)) - 1."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return _check_height("infl", (("p", p), ("m", m)), e, p**m)


def _check_height(check: str, params: tuple, e: CFExpansion, n: int) -> CheckRecord:
    """max{B(a), B(n*a)} >= floor(2*sqrt(n)) - 1, applicable to the exact
    non-loops mod n among periodic expansions.

    B(n*a) is read only when B(a) falls short, and only up to the threshold:
    below it the capped height is exact, so a violation's witness is too.
    """
    kind = is_infinite_loop(e, n).kind
    if kind != NOTLOOP or e.is_finite:
        return CheckRecord(check, params, False, True, f"verdict={kind}")
    threshold = floor_2sqrt(n) - 1
    b_alpha = height(e)
    if b_alpha < threshold:
        b_scaled = surd_height(cf_value(e).scaled(n), threshold)
        if b_scaled < threshold:
            return CheckRecord(check, params, True, False, f"B={b_alpha} Bn={b_scaled} thr={threshold} e={e}")
    return CheckRecord(check, params, True, True)


def check_pro2(e: CFExpansion, n: int, k: int) -> CheckRecord:
    """Convergent denominator q_k = n*q' (q' > 1) forces B(n*a) >= n*a_{k+1}
    and p_k/q' among the convergents of n*a."""
    params = (("n", n), ("k", k))
    if not e.is_finite:
        raise ValueError("this check runs on finite expansions")
    if k < 0 or k >= e.last_index:
        return CheckRecord("pro2", params, False, True, "k out of fan range")
    p_k, q_k = convergent_pair(e, k)
    if q_k % n != 0 or q_k // n <= 1:
        return CheckRecord("pro2", params, False, True, f"q_k={q_k} not planted")
    q_prime = q_k // n
    scaled = multiply_cf(_finite((e.a0, *e.body), False), n)
    b_scaled = height(scaled)
    bound = n * e.entry(k + 1)
    target = Rational(p_k, q_prime)
    ok = b_scaled >= bound and target in _convergent_pool(scaled)
    witness = "-" if ok else f"B={b_scaled} bound={bound} target={target} e={e}"
    return CheckRecord("pro2", params, True, ok, witness)


def _convergent_pool(e: CFExpansion) -> set[Rational]:
    """The convergents of a positive rational's two expansions: e's, and the twin's one
    other, (p_L - p_{L-1})/(q_L - q_{L-1}), in lowest terms by its determinant against p_L/q_L."""
    conv = convergents(e)
    prev, last = conv[-2:]
    return {*conv, _reduced(last.num - prev.num, last.den - prev.den)}


def check_count_height(e: CFExpansion, p: int, m: int, L: int) -> CheckRecord:
    """Exploratory: if p^l*a stays a loop mod p^m for all l <= L, record whether B(a) <=
    p^m - 4; otherwise search l <= 3L for the forced non-loop witness.  Every case is
    classified; 'unresolved' is the only failure.  The surd is built only if e loops."""
    _check_levels(p, L)
    if not e.is_periodic:
        raise ValueError("this check runs on periodic expansions")
    n = p**m
    params = (("p", p), ("m", m), ("L", L))
    levels = enumerate(_scalings(e, p))
    for ell, scaled in itertools.islice(levels, L + 1):
        if not is_infinite_loop(scaled, n).is_loop:
            return CheckRecord("count-height", params, False, True, f"refuted_at={ell}")
    b = height(e)
    if b <= n - 4:
        return CheckRecord("count-height", params, True, True, f"loop_through={L} B={b}")
    for ell, scaled in itertools.islice(levels, max(2 * L, 1)):  # on to level max(3L, L + 1)
        if not is_infinite_loop(scaled, n).is_loop:
            return CheckRecord("count-height", params, True, True, f"B={b} witness_at={ell}")
    return CheckRecord("count-height", params, True, False, f"unresolved B={b} e={e}")


def persistence_scan(e: CFExpansion, p: int, m_max: int, L: int) -> list[tuple[int, Optional[int]]]:
    """For each m <= m_max, the smallest l <= L with p^l*a not a loop mod p^m.

    A finite a keeps its own tail convention at every level, as ``is_infinite_loop``
    reads it; each level is built once, while some m has no witness.  A complete
    witness list certifies, at scan scale, the vanishing of the p-adic
    approximation constant for this value.
    """
    _check_levels(p, L)
    found: dict[int, int] = {}
    for ell, scaled in zip(range(L + 1), _scalings(e, p)):
        for m in range(1, m_max + 1):
            if m not in found and not is_infinite_loop(scaled, p**m).is_loop:
                found[m] = ell
        if len(found) == m_max:
            break
    return [(m, found.get(m)) for m in range(1, m_max + 1)]


# ---------------------------------------------------------------------------
# batch scans (shared by the CLI and the acceptance suite)


def _scan(
    check: str, params: dict, cases: Callable[..., Iterable[CheckRecord]], keep_records: bool,
    keys: Iterable[tuple] = ((),), failures_only: bool = False,
) -> ScanReport:
    """The one driver of every batch scan: it seeds, counts, keeps and times the cases.

    ``cases(rng, *key)`` yields one key's records, drawn from
    random.Random(f"{seed}:{p1}:{p2}...") for a key (p1, p2, ...), so that they
    do not depend on the other keys, or from random.Random(seed) for the empty
    key; seed is params.get("seed"), and a scan without one draws nothing.
    Record mode (``keep_records``) keeps every record, or the failed ones only
    when ``failures_only``.  ``elapsed`` times the whole scan, draws included.
    """
    start = time.perf_counter()
    report = ScanReport(check, params)
    seed = params.get("seed")
    for key in keys:
        rng = random.Random(":".join(map(str, (seed, *key))) if key else seed)
        for record in cases(rng, *key):
            report.add(record, keep_records and not (failures_only and record.passed))
    report.elapsed = time.perf_counter() - start
    return report


def run_noloop_scan(
    n_values: Sequence[int], count: int, seed: int, keep_records: bool = False
) -> ScanReport:
    def cases(rng: random.Random, n: int) -> Iterator[CheckRecord]:
        return (check_noloop_bound(random_periodic_cf(rng), n) for _ in range(count))

    params = {"n": f"{min(n_values)}..{max(n_values)}", "count": count, "seed": seed}
    return _scan("noloop", params, cases, keep_records, [(n,) for n in n_values])


def run_infl_scan(
    pm_values: Sequence[tuple[int, int]], count: int, seed: int, keep_records: bool = False
) -> ScanReport:
    def cases(rng: random.Random, p: int, m: int) -> Iterator[CheckRecord]:
        return (check_infl(random_periodic_cf(rng), p, m) for _ in range(count))

    params = {"pm": ",".join(f"{p}^{m}" for p, m in pm_values), "count": count, "seed": seed}
    return _scan("infl", params, cases, keep_records, pm_values)


def plant_pro2_case(rng: random.Random, n: int) -> tuple[CFExpansion, int]:
    """Random finite expansion with a convergent denominator q_k = n*q', q' > 1.

    The divisibility is planted by solving for a_k against the running
    denominators, then at least two more partial quotients keep the planted
    fan interior.
    """
    if n < 2:
        raise ValueError("modulus must be >= 2")
    bits = rng.getrandbits
    while True:
        k = _draw(bits, 1, 3)
        prefix = [_draw(bits, 0, 3)] + [_draw(bits, 1, 6) for _ in range(k)]
        # the final fan of the prefix has q = q_k and q_prev = q_{k-1}; solve
        # for the next entry so that the following denominator is divisible by n
        for _, _, _, q_prev, _, q in fans(prefix):
            pass
        if math.gcd(q, n) != 1:
            continue
        residue = (-q_prev * pow(q, -1, n)) % n
        a_next = residue if residue >= 1 else residue + n
        a_next += n * _draw(bits, 0, 2)
        while a_next * q + q_prev <= n:  # ensure q' = q_{k+1} / n > 1
            a_next += n
        entries = prefix + [a_next] + [_draw(bits, 1, 6) for _ in range(_draw(bits, 2, 4))]
        if entries[-1] == 1:
            entries[-1] += 1
        e = CFExpansion(entries[0], tuple(entries[1:]), None, False)
        return e, k + 1


def run_pro2_scan(
    n_values: Sequence[int], count: int, seed: int, keep_records: bool = False
) -> ScanReport:
    def cases(rng: random.Random, n: int) -> Iterator[CheckRecord]:
        for _ in range(count):
            e, k = plant_pro2_case(rng, n)
            yield check_pro2(e, n, k)

    params = {"n": f"{min(n_values)}..{max(n_values)}", "count": count, "seed": seed}
    return _scan("pro2", params, cases, keep_records, [(n,) for n in n_values])


def run_count_scan(
    pm_values: Sequence[tuple[int, int]], count: int, seed: int, L: int = 20, keep_records: bool = False
) -> ScanReport:
    def cases(rng: random.Random, p: int, m: int) -> Iterator[CheckRecord]:
        population = [random_periodic_cf(rng, max_entry=4) for _ in range(count)]
        example = loop_example(p**m)
        if example.is_periodic:
            population[0] = example  # guarantee at least one loop at level 0
        # completeness criterion: nothing may stay unexplained
        return (check_count_height(e, p, m, L) for e in population)

    params = {"pm": ",".join(f"{p}^{m}" for p, m in pm_values), "count": count, "seed": seed, "L": L}
    return _scan("count-height", params, cases, keep_records, pm_values)


def run_defs_equivalence_scan(
    q_max: int, n_lo: int, n_hi: int, keep_records: bool = False
) -> ScanReport:
    """Loop decisions by denominators versus by crossed edges, on all reduced
    rationals in (0, 1) with denominator <= q_max and all moduli in range."""
    if q_max < 2:
        raise ValueError("q_max must be >= 2")
    # an agreeing case is counted through one shared passing record, never kept
    agree = CheckRecord("defs-equivalence", (), True, True)

    def cases(_rng: random.Random) -> Iterator[CheckRecord]:
        for q in range(2, q_max + 1):
            for p in range(1, q):
                if math.gcd(p, q) != 1:
                    continue
                e = _finite(euclid_entries(p, q), True)
                for n in range(n_lo, n_hi + 1):
                    v1 = is_infinite_loop(e, n)
                    v2 = loop_verdict_geometric(e, n)
                    if v1.kind == v2.kind:
                        yield agree
                    else:
                        params = (("x", f"{p}/{q}"), ("n", n))
                        yield CheckRecord("defs-equivalence", params, True, False, f"{v1.kind}!={v2.kind}")

    params = {"q_max": q_max, "n": f"{n_lo}..{n_hi}"}
    return _scan("defs-equivalence", params, cases, keep_records, failures_only=True)


def run_thma_scan(num_rationals: int, num_periodic: int, seed: int, keep_records: bool = False) -> ScanReport:
    """Fan structure of the crossed edges reproduces the partial quotients."""

    def cases(rng: random.Random) -> Iterator[CheckRecord]:
        for _ in range(num_rationals):
            x = random_unit_rational(rng)
            e = cf_from_rational(x)[0]
            sizes = [size for _, size in fan_chain(crossed_edges(e))]
            expected = [e.entry(i) for i in range(1, e.last_index + 1)]
            got = sizes[:-1] + [sizes[-1] + 1] if sizes else []
            ok = got == expected
            yield CheckRecord("thma", (("x", str(x)),), True, ok, "-" if ok else f"{got}!={expected}")
        for _ in range(num_periodic):
            e = random_periodic_cf(rng, a0_max=0)
            sizes = [size for _, size in fan_chain(crossed_edges(e, 40))]
            complete = sizes[:-1]  # last fan may be cut at depth 40
            expected = [e.entry(i) for i in range(1, len(complete) + 1)]
            ok = complete == expected
            yield CheckRecord("thma", (("x", str(e)),), True, ok, "-" if ok else f"{complete}!={expected}")

    params = {"rationals": num_rationals, "periodic": num_periodic, "seed": seed}
    return _scan("thma", params, cases, keep_records, failures_only=True)


def _semiconvergent_pool(e: CFExpansion, den_cap: int) -> set[Rational]:
    """All semi-convergent values of a rational's expansions with denominator
    at most den_cap, tails included."""
    pool: set[Rational] = set()
    for cand in (e, twin_of(e)):
        for _, a, p_prev, q_prev, p, q in itertools.islice(fans(cand.digits()), 1, None):
            # the final fan runs from m = 1 while m*q + q_prev <= den_cap
            run = range(a + 1) if a is not None else range(1, (den_cap - q_prev) // q + 1)
            pool.update(Rational(m * p + p_prev, m * q + q_prev) for m in run)
    return pool


def run_dual_pushforward_scan(count: int, seed: int, keep_records: bool = False) -> ScanReport:
    """Convergent/semi-convergent pairs with denominators splitting n <= 10 push
    forward to semi-convergents of the scaled value, one of them a convergent."""

    def cases(rng: random.Random) -> Iterator[CheckRecord]:
        bits = rng.getrandbits
        found = 0
        while found < count:
            e = random_finite_cf(rng, min_len=3, max_len=7, max_entry=8, a0_max=1)
            n = _draw(bits, 2, 10)
            pairs = []
            for k, a, p_prev, q_prev, p, q in itertools.islice(fans(e.digits()), 1, e.last_index + 1):
                for m in range(a + 1):
                    sc = Rational(m * p + p_prev, m * q + q_prev)
                    if sc.den == 0:
                        continue  # the seed vertex q_{-1} = 0 is not a finite point
                    for n1 in range(1, n + 1):
                        if n % n1 == 0 and q % n1 == 0 and sc.den % (n // n1) == 0:
                            pairs.append((k, m, n1, Rational(p, q), sc))
            if not pairs:
                continue
            k, m, n1, conv, semi = pairs[_draw(bits, 0, len(pairs) - 1)]
            found += 1
            img_a = conv.scaled(n)
            img_b = semi.scaled(n)
            scaled = multiply_cf(e, n)  # e is drawn without the oo-tail
            cap = max(img_a.den, img_b.den) + scaled.entry(0) + 2
            pool = _semiconvergent_pool(scaled, max(cap, 10))
            conv_pool = _convergent_pool(scaled)
            ok = img_a in pool and img_b in pool and (img_a in conv_pool or img_b in conv_pool)
            params = (("x", str(e)), ("n", n), ("k", k), ("m", m))
            yield CheckRecord("dual-pushforward", params, True, ok, "-" if ok else f"images {img_a},{img_b}")

    params = {"count": count, "seed": seed, "n_max": 10}
    return _scan("dual-pushforward", params, cases, keep_records, failures_only=True)
