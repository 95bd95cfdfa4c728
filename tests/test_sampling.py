"""The scan samplers draw through `sampling._draw`, which must replay
`random.Random.randint` exactly: the same values and the same generator
state after every draw.  Frozen randint-based copies of the samplers are
the oracles, so every seeded scan keeps its stream."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from fareyloops import heights
from fareyloops.contfrac import CFExpansion, fans
from fareyloops.heights import plant_pro2_case, run_dual_pushforward_scan
from fareyloops.rationals import Rational
from fareyloops.sampling import _draw, random_finite_cf, random_periodic_cf, random_unit_rational

SEEDS = [f"sampling:{i}" for i in range(200)]

# 1, 2, 3, 6, and 2^k - 1, 2^k, 2^k + 1 for k = 1..64, then 2^64 + 3
WIDTHS = sorted({1, 2, 3, 6, 2**64 + 3} | {2**k + d for k in range(1, 65) for d in (-1, 0, 1)})


class _BoundedRandom(random.Random):
    """A generator whose 1001st draw fails the test."""

    calls = 0

    def getrandbits(self, k):
        self.calls += 1
        assert self.calls <= 1000, "the draw did not end"
        return super().getrandbits(k)


def _pair(seed):
    return random.Random(seed), random.Random(seed)


class TestDraw:
    def test_matches_randint_value_and_state(self):
        mismatches = 0
        for seed in SEEDS:
            ours, ref = _pair(seed)
            bits = ours.getrandbits
            for i, width in enumerate(WIDTHS):
                lo = -(width // 2) - 7 if i % 2 else i
                hi = lo + width - 1
                mismatches += _draw(bits, lo, hi) != ref.randint(lo, hi)
                mismatches += ours.getstate() != ref.getstate()
        assert mismatches == 0

    def test_matches_randrange(self):
        mismatches = 0
        for seed in SEEDS:
            ours, ref = _pair(seed)
            bits = ours.getrandbits
            for width in WIDTHS:
                mismatches += _draw(bits, 0, width - 1) != ref.randrange(width)
                mismatches += ours.getstate() != ref.getstate()
        assert mismatches == 0

    def test_empty_range_raises_like_randint(self):
        # an unchecked empty range would spin on bits(0) == 0; fail instead of hanging
        rng = _BoundedRandom(0)
        with pytest.raises(ValueError):
            rng.randint(3, 2)
        with pytest.raises(ValueError, match="empty range"):
            _draw(rng.getrandbits, 3, 2)
        with pytest.raises(ValueError, match="empty range"):
            random_periodic_cf(rng, max_period=0)


# Frozen copies of the samplers as they drew before `_draw`, through randint
# and randrange.  Do not edit: they pin the stream every seeded scan reads.


def _finite_oracle(rng, min_len=2, max_len=8, max_entry=9, a0_max=3, inf_tail=False):
    length = rng.randint(min_len, max_len)
    body = [rng.randint(1, max_entry) for _ in range(length)]
    if body[-1] == 1:
        body[-1] += 1
    return CFExpansion(rng.randint(0, a0_max), tuple(body), None, inf_tail)


def _periodic_oracle(rng, max_pre=2, max_period=3, max_entry=6, a0_max=2):
    pre = [rng.randint(1, max_entry) for _ in range(rng.randint(0, max_pre))]
    period = [rng.randint(1, max_entry) for _ in range(rng.randint(1, max_period))]
    return CFExpansion(rng.randint(0, a0_max), tuple(pre), tuple(period))


def _unit_fraction_oracle(rng, q_max=500):
    while True:
        q = rng.randint(3, q_max)
        p = rng.randint(1, q - 1)
        x = Fraction(p, q)
        if 0 < x < 1:
            return x


def _unit_rational_oracle(rng, q_max=500):
    x = _unit_fraction_oracle(rng, q_max)
    return Rational(x.numerator, x.denominator)


def _plant_oracle(rng, n):
    while True:
        k = rng.randint(1, 3)
        prefix = [rng.randint(0, 3)] + [rng.randint(1, 6) for _ in range(k)]
        for _, _, _, q_prev, _, q in fans(prefix):
            pass
        if math.gcd(q, n) != 1:
            continue
        residue = (-q_prev * pow(q, -1, n)) % n
        a_next = residue if residue >= 1 else residue + n
        a_next += n * rng.randint(0, 2)
        while a_next * q + q_prev <= n:
            a_next += n
        entries = prefix + [a_next] + [rng.randint(1, 6) for _ in range(rng.randint(2, 4))]
        if entries[-1] == 1:
            entries[-1] += 1
        return CFExpansion(entries[0], tuple(entries[1:]), None, False), k + 1


def _dual_pushforward_oracle(count, seed, n_max=10):
    """The (x, n, k, m) of each case `run_dual_pushforward_scan` checks."""
    rng = random.Random(seed)
    drawn = []
    while len(drawn) < count:
        e = _finite_oracle(rng, min_len=3, max_len=7, max_entry=8, a0_max=1)
        n = rng.randint(2, n_max)
        cases = []
        for k, a, p_prev, q_prev, p, q in itertools.islice(fans(e.digits()), 1, e.last_index + 1):
            for m in range(a + 1):
                sc = Rational(m * p + p_prev, m * q + q_prev)
                if sc.den == 0:
                    continue
                for n1 in range(1, n + 1):
                    if n % n1 == 0 and q % n1 == 0 and sc.den % (n // n1) == 0:
                        cases.append((k, m))
        if cases:
            k, m = cases[rng.randrange(len(cases))]
            drawn.append((("x", str(e)), ("n", n), ("k", k), ("m", m)))
    return drawn


# the defaults, then every parameter set the test suite and the scans pass
SAMPLERS = [
    (random_finite_cf, _finite_oracle, {}),
    (random_finite_cf, _finite_oracle, {"a0_max": 0}),
    (random_finite_cf, _finite_oracle, {"a0_max": 2}),
    (random_finite_cf, _finite_oracle, {"a0_max": 0, "min_len": 2, "max_len": 6}),
    (random_finite_cf, _finite_oracle, {"min_len": 3, "max_len": 9}),
    (random_finite_cf, _finite_oracle, {"min_len": 3, "max_len": 8, "a0_max": 2}),
    (random_finite_cf, _finite_oracle, {"min_len": 3, "max_len": 7, "max_entry": 8, "a0_max": 1}),
    (random_finite_cf, _finite_oracle, {"max_entry": 4, "inf_tail": True}),
    (random_periodic_cf, _periodic_oracle, {}),
    (random_periodic_cf, _periodic_oracle, {"a0_max": 0}),
    (random_periodic_cf, _periodic_oracle, {"a0_max": 3}),
    (random_periodic_cf, _periodic_oracle, {"max_entry": 40}),
    (random_periodic_cf, _periodic_oracle, {"max_period": 4, "max_entry": 12, "a0_max": 3}),
    (random_periodic_cf, _periodic_oracle, {"max_pre": 3, "max_period": 4, "max_entry": 7, "a0_max": 3}),
    (random_periodic_cf, _periodic_oracle, {"max_pre": 3, "max_period": 4, "max_entry": 9, "a0_max": 3}),
    (random_periodic_cf, _periodic_oracle, {"max_pre": 3, "max_period": 4, "max_entry": 3 * 2310, "a0_max": 3}),
    (random_unit_rational, _unit_rational_oracle, {}),
    (random_unit_rational, _unit_rational_oracle, {"q_max": 3}),
    (random_unit_rational, _unit_rational_oracle, {"q_max": 10**30}),
    *((plant_pro2_case, _plant_oracle, {"n": n}) for n in (2, 3, 4, 5, 6, 7, 10, 360)),
]


@pytest.mark.parametrize(
    "sampler, oracle, kwargs",
    SAMPLERS,
    ids=[s.__name__ + "".join(f"-{k}={v}" for k, v in kw.items()) for s, _, kw in SAMPLERS],
)
def test_sampler_matches_its_randint_oracle(sampler, oracle, kwargs):
    mismatches = 0
    for i in range(500):
        ours, ref = _pair(f"{sampler.__name__}:{i}")
        for _ in range(3):
            mismatches += sampler(ours, **kwargs) != oracle(ref, **kwargs)
        mismatches += ours.getstate() != ref.getstate()
    assert mismatches == 0


@pytest.mark.parametrize("max_pre, max_period, max_entry, a0_max", [(2, 3, 6, 2), (3, 4, 2, 3)])
def test_periodic_sampler_builds_the_constructors_fields(max_pre, max_period, max_entry, a0_max):
    # the draws are built unchecked and canonicalised alone: each result must
    # have the fields the validating constructor makes of the same draws
    rotated = shortened = 0
    for i in range(2000):
        ours, ref = _pair(f"periodic-fields:{i}")
        got = random_periodic_cf(ours, max_pre, max_period, max_entry, a0_max)
        pre = [ref.randint(1, max_entry) for _ in range(ref.randint(0, max_pre))]
        period = [ref.randint(1, max_entry) for _ in range(ref.randint(1, max_period))]
        want = CFExpansion(ref.randint(0, a0_max), tuple(pre), tuple(period))
        fields = [(type(x), x) for x in (got.a0, got.body, got.period, got.inf_tail)]
        assert type(got) is CFExpansion
        assert fields == [(type(x), x) for x in (want.a0, want.body, want.period, want.inf_tail)], i
        assert ours.getstate() == ref.getstate(), i
        rotated += len(got.body) < len(pre)
        shortened += len(got.period) < len(period)
    assert rotated > 100 and shortened > 100


@pytest.mark.parametrize("q_max", (500, 3, 10**30))
def test_unit_rational_prints_as_the_fraction_of_its_draws(q_max):
    for i in range(500):
        ours, ref = _pair(f"unit-fraction:{i}")
        for _ in range(3):
            x, y = random_unit_rational(ours, q_max), _unit_fraction_oracle(ref, q_max)
            assert type(x) is Rational
            assert (x.num, x.den, str(x)) == (y.numerator, y.denominator, str(y))
        assert ours.getstate() == ref.getstate()


@pytest.mark.parametrize("seed", [0, 6, 2248])
def test_dual_pushforward_scan_draws_the_oracle_cases(seed, monkeypatch):
    checked, build = [], heights.CheckRecord

    def record(check, params, *rest):
        checked.append(params)
        return build(check, params, *rest)

    monkeypatch.setattr(heights, "CheckRecord", record)
    run_dual_pushforward_scan(120, seed)
    assert checked == _dual_pushforward_oracle(120, seed)


class TestFiniteLength:
    def test_length_zero_is_the_integer_expansion(self):
        random_finite_cf(random.Random(1), min_len=0, max_len=1)  # once raised IndexError
        lengths = set()
        for seed in SEEDS:
            ours, ref = _pair(seed)
            e = random_finite_cf(ours, min_len=0, max_len=1)
            lengths.add(len(e.body))
            if not e.body:
                # the length draw, then a_0: the stream of a length-0 draw is unchanged
                assert ref.randint(0, 1) == 0
                assert e == CFExpansion(ref.randint(0, 3), ())
                assert ours.getstate() == ref.getstate()
        assert lengths == {0, 1}

    def test_negative_min_len_raises(self):
        with pytest.raises(ValueError, match="min_len"):
            random_finite_cf(random.Random(1), min_len=-1, max_len=2)
