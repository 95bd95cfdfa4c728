import itertools
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fareyloops.contfrac import (
    CFExpansion,
    cf_eval,
    cf_from_rational,
    cf_of_surd,
    cf_value,
    convergent_pair,
    convergents,
    fans,
    multiply_cf,
    semiconvergent,
    twin_of,
)
from fareyloops.cutting import (
    CuttingWord,
    _first_zero,
    crossed_edges,
    crosses_edge,
    eta,
    eta_inverse,
    fan_chain,
    loop_verdict_geometric,
)
from fareyloops.loops import (
    LOOP,
    NOTLOOP,
    LoopVerdict,
    _children,
    _raw_walk,
    _steps,
    is_infinite_loop,
    loop_example,
)
from fareyloops.rationals import INFINITY, FareyEdge, Rational, farey_mediant
from fareyloops.sampling import random_finite_cf, random_periodic_cf
from fareyloops.surds import QuadSurd
import reference_decider
from reference_decider import _fan_hit

GOLDEN_CONJ = CFExpansion(0, (), (1,))


def seeded_surds(seed, count):
    """Seeded positive normalised surds with D up to 10^9 and Q of either
    sign, a third of them scaled by 2 to 5."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        P, Q = rng.randint(-40_000, 40_000), rng.choice([-1, 1]) * rng.randint(1, 30_000)
        D = rng.randint(10**4, 10**9)
        D -= (D - P * P) % abs(Q)  # Q divides D - P^2
        if D <= 0 or math.isqrt(D) ** 2 == D:
            continue
        s = QuadSurd(P, Q, D)
        if s.is_positive():
            out.append(s.scaled(rng.randint(2, 5)) if rng.random() < 1 / 3 else s)
    return out


class TestWordType:
    def test_validation(self):
        with pytest.raises(ValueError):
            CuttingWord((("L", 2), ("L", 3)))
        with pytest.raises(ValueError):
            CuttingWord((("R", 0),))
        with pytest.raises(ValueError):
            CuttingWord((("X", 1),))
        with pytest.raises(ValueError):
            CuttingWord(())

    def test_str(self):
        w = CuttingWord((("R", 2), ("L", 3)))
        assert str(w) == "R^2 L^3"


class TestEta:
    def test_examples(self):
        w = CuttingWord((("R", 2), ("L", 3)))
        assert eta(w) == CFExpansion(0, (2, 3))
        lr = CuttingWord(tuple(("L" if i % 2 == 0 else "R", 1) for i in range(6)))
        assert eta(lr) == CFExpansion(1, (1, 1, 1, 1, 1))

    def test_inverse_examples(self):
        assert eta_inverse(CFExpansion(0, (2, 3))) == CuttingWord((("R", 2), ("L", 3)))
        w = eta_inverse(GOLDEN_CONJ, 6)
        assert str(w) == "R L R L R L"

    @given(
        st.integers(min_value=0, max_value=5),
        st.lists(st.integers(min_value=1, max_value=7), min_size=1, max_size=8),
    )
    def test_round_trip(self, a0, body):
        e = CFExpansion(a0, tuple(body))
        assert eta(eta_inverse(e)) == e

    @given(
        st.booleans(),
        st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=8),
    )
    def test_word_round_trip(self, start_left, counts):
        letters = ("L", "R") if start_left else ("R", "L")
        runs = tuple((letters[i % 2], c) for i, c in enumerate(counts))
        w = CuttingWord(runs)
        assert eta_inverse(eta(w)) == w


class TestCrossesEdge:
    def test_interval_membership(self):
        edge = FareyEdge(Rational(1, 3), Rational(2, 5))
        assert crosses_edge(Rational(3, 8), edge)
        assert not crosses_edge(Rational(1, 2), edge)

    def test_infinite_endpoint(self):
        assert crosses_edge(QuadSurd(0, 1, 2), FareyEdge(Rational(1), INFINITY))
        assert not crosses_edge(Rational(1, 2), FareyEdge(Rational(1), INFINITY))

    def test_base_edge_is_anchor(self):
        assert not crosses_edge(Rational(3, 8), FareyEdge(Rational(0), INFINITY))

    def test_endpoint_is_termination(self):
        edge = FareyEdge(Rational(1, 3), Rational(2, 5))
        assert not crosses_edge(Rational(1, 3), edge)
        assert not crosses_edge(Rational(2, 5), edge)

    def test_rejects_negative(self):
        for edge in (FareyEdge(Rational(-1), Rational(0)), FareyEdge(Rational(-1, 2), INFINITY)):
            with pytest.raises(ValueError, match="nonnegative endpoints"):
                crosses_edge(Rational(1, 2), edge)

    @staticmethod
    def near_edges(e, depth=None):
        """The crossed edges, each edge's two children (one crossed, one not
        where the ray passes the mediant) and the leading edges (m/1, oo)."""
        path = crossed_edges(e, depth)
        children = []
        for edge in path[1:]:
            mid = farey_mediant(edge.a, edge.b)
            children += [FareyEdge(edge.a, mid), FareyEdge(mid, edge.b)]
        leading = [FareyEdge(Rational(m), INFINITY) for m in range(e.a0 + 3)]
        return path + children + leading

    def test_surd_path_matches_generic_comparison(self):
        outcomes = set()
        for s in seeded_surds(31, 40):
            for edge in self.near_edges(cf_of_surd(s), 200):
                u, v = edge.a, edge.b
                want = not edge.is_base and u < s and s < v
                assert crosses_edge(s, edge) is want, (s, edge)
                assert reference_decider.crosses_edge(s, edge) is want
                outcomes.add((want, v.is_infinite))
        assert outcomes == {(True, True), (True, False), (False, True), (False, False)}

    def test_rationals_keep_results_and_errors(self):
        rng = random.Random(32)
        bad = [(Rational(-1), Rational(0)), (Rational(-1, 2), INFINITY)]
        outcomes = set()
        for _ in range(60):
            e = random_finite_cf(rng, a0_max=3, min_len=0)
            if not (e.a0 or e.body):
                continue
            value = cf_value(e)
            edges = self.near_edges(e) + [FareyEdge(*pair) for pair in bad]
            edges += [FareyEdge(value, x) for x in (Rational(0), value.shifted(1), INFINITY)]
            for alpha in (value, Rational(0), Rational(-3, 4), INFINITY):
                for edge in edges:
                    try:
                        want = reference_decider.crosses_edge(alpha, edge)
                    except ValueError as exc:
                        with pytest.raises(ValueError, match=f"^{exc}$"):
                            crosses_edge(alpha, edge)
                        outcomes.add(str(exc))
                        continue
                    assert crosses_edge(alpha, edge) is want, (alpha, edge)
                    outcomes.add(want)
        assert len(outcomes) == 5  # True, False and three messages


class TestCrossedEdges:
    def test_one_half(self):
        edges = crossed_edges(cf_from_rational(Rational(1, 2))[0])
        assert [str(e) for e in edges] == ["0/1 -- 1/0", "0/1 -- 1/1"]

    def test_golden_pivots(self):
        edges = crossed_edges(GOLDEN_CONJ, 8)
        pivots = [p for p, _ in fan_chain(edges)]
        assert [str(p) for p in pivots] == ["0/1", "1/1", "1/2", "2/3", "3/5", "5/8", "8/13"]

    def test_every_edge_crossed(self):
        rng = random.Random(21)
        for _ in range(60):
            e = random_finite_cf(rng, a0_max=2)
            value = cf_value(e)
            if value.num == 0:
                continue
            for edge in crossed_edges(e)[1:]:
                assert crosses_edge(value, edge)

    def test_endpoints_are_convergent_and_semiconvergent(self):
        rng = random.Random(22)
        for _ in range(40):
            e = random_finite_cf(rng, a0_max=0, min_len=2, max_len=6)
            convs = set(convergents(e))
            semis = set()
            for k in range(e.last_index):
                for m in range(e.entry(k + 1) + 1):
                    semis.add(semiconvergent(e, k, m))
            for edge in crossed_edges(e)[1:]:
                a, b = edge.endpoints()
                assert (a in convs and b in semis | convs) or (
                    b in convs and a in semis | convs
                )

    def test_depth_required_for_periodic(self):
        with pytest.raises(ValueError):
            crossed_edges(GOLDEN_CONJ)
        assert len(crossed_edges(GOLDEN_CONJ, 5)) == 5

    @staticmethod
    def _two_rationals_per_step(e, depth=None):
        # reference: the same truncation, with both endpoints built afresh at every step
        edges = [FareyEdge(Rational(0, 1), INFINITY)]
        take = depth - 1 if not e.is_finite else e.a0 + sum(e.body) - 1
        if e.is_finite and depth is not None:
            take = min(take, depth - 1)
        for _, _, lo, hi in itertools.islice(_raw_walk(e), max(take, 0)):
            edges.append(FareyEdge(Rational(*lo), Rational(*hi)))
        return edges

    def test_matches_two_rationals_per_step(self):
        # the edges are built without the checks: each endpoint must be a
        # Rational in lowest terms with den >= 0 and oo as 1/0, with a < b,
        # and each edge what the validating constructors build
        rng = random.Random(2026)
        cases = [(CFExpansion(3), None), (CFExpansion(0, (1,), None, True), None), (GOLDEN_CONJ, 1)]
        for _ in range(80):
            e = random_finite_cf(rng, min_len=0, inf_tail=rng.random() < 0.5)
            if e.a0 or e.body:
                cases += [(e, None), (e, rng.randint(1, 12))]
                if e.body:
                    cases.append((twin_of(e), None))
            p = random_periodic_cf(rng)
            cases += [(p, depth) for depth in (1, 2, 7, 40) if p.a0 or depth > 1]
        cases += [(cf_of_surd(s), 200) for s in seeded_surds(2026, 40)]
        for e, depth in cases:
            got = crossed_edges(e, depth)
            want = self._two_rationals_per_step(e, depth)
            assert got == want, (e, depth)
            assert [str(x) for x in got] == [str(x) for x in want]
            for edge in got:
                assert type(edge) is FareyEdge and edge.a < edge.b, (e, edge)
                for x in edge.endpoints():
                    assert type(x) is Rational and x.den >= 0 and math.gcd(x.num, x.den) == 1, (e, x)
                    assert x.den or x.num == 1, (e, x)

    def test_fan_edges_share_their_pivot_object(self):
        e = CFExpansion(2, (3, 4, 5), (2, 1))
        edges = crossed_edges(e, 40)
        steps = list(itertools.islice(_raw_walk(e), 39))
        shared = 0
        for (k1, _, lo, hi), (k2, _, _, _), e1, e2 in zip(steps, steps[1:], edges[1:], edges[2:]):
            if k1 != k2:
                continue
            pivot = Rational(*(hi if k1 % 2 else lo))
            (p1,) = [x for x in e1.endpoints() if x == pivot]
            (p2,) = [x for x in e2.endpoints() if x == pivot]
            assert p1 is p2
            shared += 1
        assert shared == 18  # 1 + 2 + 3 + 4 in the preperiod, then 1 per fan of 2

    def test_integer_leading_fan(self):
        e = cf_from_rational(Rational(7, 3))[0]  # [2; 3]
        edges = crossed_edges(e)
        assert str(edges[1]) == "1/1 -- 1/0"
        assert str(edges[2]) == "2/1 -- 1/0"
        assert str(edges[3]) == "2/1 -- 3/1"


class TestFanStructure:
    def test_quotients_recovered_for_rationals(self):
        rng = random.Random(23)
        for _ in range(80):
            e = random_finite_cf(rng, a0_max=0)
            sizes = [s for _, s in fan_chain(crossed_edges(e))]
            expected = list(e.body)
            assert sizes[:-1] == expected[:-1]
            assert sizes[-1] + 1 == expected[-1]

    def test_quotients_recovered_for_periodic(self):
        rng = random.Random(24)
        for _ in range(60):
            e = random_periodic_cf(rng, a0_max=0)
            sizes = [s for _, s in fan_chain(crossed_edges(e, 30))]
            complete = sizes[:-1]
            assert complete == [e.entry(i + 1) for i in range(len(complete))]

    def test_scaled_tessellation_word_is_scaled_expansion(self):
        # reading the crossed edges of the scaled value reproduces exactly the
        # scaled expansion: multiplication realised on the word level
        rng = random.Random(25)
        for _ in range(40):
            e = random_periodic_cf(rng, a0_max=0)
            n = rng.randint(2, 10)
            scaled = multiply_cf(e, n)
            sizes = [s for _, s in fan_chain(crossed_edges(scaled, 25))]
            complete = sizes[:-1]
            # for a value above 1 the first fan is the integer-vertex run a0
            first = 0 if scaled.a0 >= 1 else 1
            assert complete == [scaled.entry(first + i) for i in range(len(complete))]


class TestGeometricVerdict:
    def test_half_examples(self):
        half = cf_from_rational(Rational(1, 2))[0]
        assert loop_verdict_geometric(half, 4).kind == LOOP
        v = loop_verdict_geometric(half, 5)
        assert v.kind == NOTLOOP and v.witness.den == 5

    def test_golden_mod_three(self):
        v = loop_verdict_geometric(GOLDEN_CONJ, 3)
        assert v.kind == NOTLOOP and v.witness.den == 3

    def test_agreement_with_denominator_decision(self):
        rng = random.Random(26)
        for _ in range(300):
            q = rng.randint(3, 90)
            p = rng.randint(1, q - 1)
            e = cf_from_rational(Rational(p, q))[0]
            for n in (2, 3, 5, 7, 10):
                assert loop_verdict_geometric(e, n).kind == is_infinite_loop(e, n).kind

    def test_periodic_closure(self):
        rng = random.Random(27)
        for _ in range(100):
            e = random_periodic_cf(rng, a0_max=0)
            n = rng.randint(2, 10)
            assert loop_verdict_geometric(e, n).kind == is_infinite_loop(e, n).kind

    def test_huge_quotients_answer_at_once(self):
        # the a_0 leading-term edges cost O(1) and each later fan is one jump
        # to its first level-n edge, so no quotient is walked edge by edge
        big = 10**12
        v = loop_verdict_geometric(CFExpansion(big, (), None, True), 7)
        assert v == is_infinite_loop(CFExpansion(big, (), None, True), 7)
        assert v.record() == "NOTLOOP k=0 m=7 q=7"
        for e in (CFExpansion(big, (2, 3), (5, 7)), CFExpansion(big + 1, (1, big), None, True)):
            for n in (4, 7, 360):
                assert loop_verdict_geometric(e, n) == is_infinite_loop(e, n), (e, n)
        e = CFExpansion(0, (2, big))
        assert loop_verdict_geometric(e, 4) == is_infinite_loop(e, 4) == LoopVerdict.loop()
        e = CFExpansion(0, (1, big), (big + 1, 3))
        assert loop_verdict_geometric(e, 360) == is_infinite_loop(e, 360)
        e = loop_example(10**6)
        assert loop_verdict_geometric(e, 10**6) == is_infinite_loop(e, 10**6) == LoopVerdict.loop()
        # a surd is walked on its lazy steps: the long period of sqrt(10^29 + 3)
        # is never expanded, as a_1 already holds the witness
        s = QuadSurd(0, 1, 10**29 + 3)
        assert loop_verdict_geometric(s, 7) == is_infinite_loop(s, 7)
        assert loop_verdict_geometric(s, 7).record() == "NOTLOOP k=1 m=6 q=7"

    def test_witness_is_the_created_endpoint(self):
        # the witness p/q comes from `semiconvergent`, as the denominator
        # route's does; check it against the endpoint that the exact mediant
        # walk creates at (k, m).  A twin carrying the oo-tail is walked in
        # Euclid's form, so only forms that are walked as given are drawn.
        rng = random.Random(29)
        cases = [random_periodic_cf(rng, max_period=4, max_entry=12, a0_max=3) for _ in range(60)]
        for q in range(2, 41):
            for p in range(1, 2 * q):
                if math.gcd(p, q) == 1:
                    euclid, twin = cf_from_rational(Rational(p, q))
                    cases += [euclid, CFExpansion(euclid.a0, euclid.body), CFExpansion(twin.a0, twin.body)]
        checked = 0
        for e in cases:
            for n in (2, 3, 4, 6, 7, 10, 12, 30, 97):
                v = loop_verdict_geometric(e, n)
                if v.kind != NOTLOOP:
                    continue
                label = v.witness_k, v.witness_m
                *_, (k, m, lo, hi) = itertools.takewhile(lambda step: step[:2] <= label, _raw_walk(e))
                created = Rational(*(lo if k % 2 else hi))  # odd fans move the lower endpoint
                assert (k, m) == label and v.witness == created and created.den % n == 0, (e, n)
                checked += 1
        assert checked > 1000

    def test_equals_denominator_route_on_every_positive_value(self):
        # the leading-term edges (m/1, oo) pass through oo and are exempt,
        # so a_0 > 0 changes neither the fan nor the witness's denominator
        rng = random.Random(28)
        periodic = []
        for _ in range(40):
            e = random_periodic_cf(rng, a0_max=3)
            periodic += [e, CFExpansion(e.a0, (), e.period)]
        for e in periodic:
            for n in [*range(2, 31), 360, 1001, 2310]:
                assert loop_verdict_geometric(e, n) == is_infinite_loop(e, n), (e, n)
        for q in range(1, 31):
            for p in range(1, 4 * q):
                if math.gcd(p, q) != 1:
                    continue
                for form in cf_from_rational(Rational(p, q)):
                    for e in (form, CFExpansion(form.a0, form.body)):
                        for n in range(2, 13):
                            assert loop_verdict_geometric(e, n) == is_infinite_loop(e, n), (e, n)
        # seeded (P+sqrt(D))/Q, after the loop family's values, which are LOOP mod n
        surds = [cf_value(loop_example(n)) for n in range(5, 13)]
        while len(surds) < 48:
            D = rng.randint(2, 400)
            if math.isqrt(D) ** 2 != D:
                s = QuadSurd(rng.randint(-30, 30), rng.choice((-1, 1)) * rng.randint(1, 12), D)
                surds.append(s.shifted(rng.randint(0, 3) - s.floor()))
        # a surd is walked on its lazy steps, and agrees with its expansion too
        for s in surds:
            for n in [*range(2, 31), 360, 1001, 2310]:
                v = loop_verdict_geometric(s, n)
                assert v == is_infinite_loop(s, n) == loop_verdict_geometric(cf_of_surd(s), n), (s, n)
        with pytest.raises(ValueError, match="positive value"):
            loop_verdict_geometric(CFExpansion(0, (), None, True), 5)
        with pytest.raises(ValueError, match="positive value"):
            loop_verdict_geometric(QuadSurd(-2, 1, 2), 5)


# ---------------------------------------------------------------------------
# the rational routes against the Euclid reference: each expansion of the
# value rebuilt from cf_eval by cf_from_rational, with convergent_pair for
# the terminal fans


def _reference_geometric(e: CFExpansion, n: int) -> LoopVerdict:
    """The edge route on a finite expansion in (0, 1), its oo-tail fans taken
    from both expansions of cf_eval(e) and a value hit under the tail
    labelled on Euclid's fans."""
    value = cf_eval(e)
    walk = _raw_walk(e)
    for k, m, lo, hi in itertools.islice(walk, sum(e.body) - 1):
        div_lo, div_hi = lo[1] % n == 0, hi[1] % n == 0
        if div_lo != div_hi:
            return LoopVerdict.not_loop(k, m, Rational(*(lo if div_lo else hi)))
    if value.den % n == 0:
        if e.inf_tail:
            # under the tail the value closes the final fan of Euclid's form
            euclid = cf_from_rational(value)[0]
            return LoopVerdict.not_loop(euclid.last_index - 1, euclid.body[-1], value)
        k, m, _, _ = next(walk)
        return LoopVerdict.not_loop(k, m, value)
    if e.inf_tail:
        for cand in cf_from_rational(value):
            last = cand.last_index
            p_prev, q_prev = convergent_pair(cand, last - 1)
            p, q = convergent_pair(cand, last)
            m = _fan_hit(q_prev, q, n, None, 1)
            if m is not None:
                return LoopVerdict.not_loop(last, m, Rational(m * p + p_prev, m * q + q_prev))
    return LoopVerdict.loop()


def _reference_witness(entries: list[int], n: int):
    """First divisible semi-convergent denominator (k, m, p, q) of one finite
    expansion with the oo-tail, read off `fans`; None if there is none."""
    steps = fans(entries)
    next(steps)
    for k, a, p_prev, q_prev, p, q in steps:
        m = _fan_hit(q_prev, q, n, a, 1 if k == 0 or a is None else 0)
        if m is not None:
            return k, m, m * p + p_prev, m * q + q_prev
    return None


def _reference_finite(e: CFExpansion, n: int) -> LoopVerdict:
    """The denominator route on a finite expansion with the oo-tail."""
    for cand in cf_from_rational(cf_eval(e)):
        hit = _reference_witness([cand.a0, *cand.body], n)
        if hit is not None:
            k, m, p, q = hit
            return LoopVerdict.not_loop(k, m, Rational(p, q))
    return LoopVerdict.loop()


def _reference_fan_chain(edges: list[FareyEdge]) -> list[tuple[Rational, int]]:
    """fan_chain with the pivot found by intersecting the endpoint sets."""
    chain: list[tuple[Rational, int]] = []
    for e1, e2 in zip(edges, edges[1:]):
        shared = set(e1.endpoints()) & set(e2.endpoints())
        if len(shared) != 1:
            raise ValueError("consecutive crossed edges must share one endpoint")
        pivot = shared.pop()
        if chain and chain[-1][0] == pivot:
            chain[-1] = (pivot, chain[-1][1] + 1)
        else:
            chain.append((pivot, 1))
    return chain


def _unit_twins(q_max: int):
    """Both oo-tail expansions of every reduced p/q in (0, 1) with q <= q_max."""
    for q in range(2, q_max + 1):
        for p in range(1, q):
            if math.gcd(p, q) == 1:
                yield from cf_from_rational(Rational(p, q))


class TestEuclidReference:
    # LoopVerdict equality compares kind, k, m and the witness p/q
    def test_geometric_terminal_fans(self):
        for e in _unit_twins(40):
            for n in range(2, 13):
                assert loop_verdict_geometric(e, n) == _reference_geometric(e, n), (e, n)

    def test_geometric_equals_denominator_route(self):
        # Euclid's form and the twin, each with and without the oo-tail
        for e in _unit_twins(40):
            for x in (e, CFExpansion(e.a0, e.body)):
                for n in range(2, 13):
                    assert loop_verdict_geometric(x, n) == is_infinite_loop(x, n), (x, n)

    def test_finite_decider(self):
        integers = [CFExpansion(a0, (), None, True) for a0 in range(1, 30)]
        above_one = [CFExpansion(a0, e.body, None, True) for e in _unit_twins(15) for a0 in (1, 2)]
        cases = integers + [twin_of(e) for e in integers] + list(_unit_twins(40)) + above_one
        for e in cases:
            for n in range(2, 13):
                assert is_infinite_loop(e, n) == _reference_finite(e, n), (e, n)

    def test_fan_chain(self):
        # the rebuilt edges share no endpoint object, so pivots can only match by value
        for e in _unit_twins(40):
            edges = crossed_edges(e)
            rebuilt = [FareyEdge(Rational(x.a.num, x.a.den), Rational(x.b.num, x.b.den)) for x in edges]
            ends = [id(x) for edge in rebuilt for x in edge.endpoints()]
            assert len(set(ends)) == len(ends)
            for chain in (edges, rebuilt):
                assert fan_chain(chain) == _reference_fan_chain(chain), e

    def test_fan_chain_needs_one_shared_endpoint(self):
        a = FareyEdge(Rational(0, 1), Rational(1, 1))
        b = FareyEdge(Rational(1, 2), Rational(1, 3))
        for edges in ([a, a], [a, b]):
            for chain in (fan_chain, _reference_fan_chain):
                with pytest.raises(ValueError, match="share one endpoint"):
                    chain(edges)


# ---------------------------------------------------------------------------
# the fan jump against the stepwise edge walker it replaced


def _stepwise_geometric(e, n: int) -> LoopVerdict:
    """The edge route walked one `_children` step per crossed edge (a run
    a > n folded to n + (a - n) % n steps), the oo-tail solved by `_fan_hit`."""
    if n < 2:
        raise ValueError("modulus must be >= 2")
    steps, source = _steps(e)
    edge, saved, k = (1 % n, 0), None, -1
    for k, (a, starts_period) in enumerate(steps):
        if a is None:
            value, kept = edge[::-1] if k % 2 else edge
            m = _fan_hit(kept, value, n, None, 1)
            return LoopVerdict.loop() if m is None else LoopVerdict.not_loop(k, m, source)
        if starts_period:
            if saved is None:
                saved = k % 2, *edge
            elif saved[0] == k % 2 and (edge[0] * saved[2] - edge[1] * saved[1]) % n == 0:
                return LoopVerdict.loop()
        for m in range(1, (a if a <= n else n + (a - n) % n) + 1):
            if not (children := _children(*edge, n)):
                return LoopVerdict.not_loop(k, m, source)
            edge = children[k % 2]
    return LoopVerdict.loop()


class TestFanJump:
    # LoopVerdict equality compares kind, k, m and the witness p/q
    MODULI = [*range(2, 31), 360, 1001, 2310, 2187]

    @staticmethod
    def mismatches(cases) -> list:
        return [(value, n) for value, n in cases if loop_verdict_geometric(value, n) != _stepwise_geometric(value, n)]

    def test_solver_against_brute_force(self):
        wrong = []
        for n in range(1, 41):
            for x in range(n):
                for h in range(n):
                    first = next((m for m in range(1, n + 1) if (x + m * h) % n == 0), None)
                    if _first_zero(x, h, n) != first:
                        wrong.append((x, h, n))
        assert wrong == []
        # gcd(h, n) = 2 does not divide x; h = 0 hits only when x does
        assert _first_zero(1, 2, 4) is None and _first_zero(2, 2, 4) == 1
        assert _first_zero(3, 0, 5) is None and _first_zero(0, 0, 5) == 1

    def test_rationals(self):
        forms = []
        for q in range(1, 41):
            for p in range(1, 3 * q):
                if math.gcd(p, q) == 1:
                    for form in cf_from_rational(Rational(p, q)):
                        forms += [form, CFExpansion(form.a0, form.body)]
        assert len(forms) > 5000
        assert self.mismatches((e, n) for e in forms for n in self.MODULI) == []

    def test_periodic_runs_longer_than_n(self):
        # entries up to 3n walk runs past n, and composite n gives kept
        # denominators that are not units
        rng = random.Random(30)
        cases = []
        for _ in range(300):
            n = rng.choice(self.MODULI)
            cases.append((random_periodic_cf(rng, max_pre=3, max_period=4, max_entry=3 * n, a0_max=3), n))
        assert sum(max(e.body + e.period) > n for e, n in cases) > 100
        assert self.mismatches(cases) == []

    def test_surds_and_streams(self):
        rng = random.Random(31)
        surds = []
        while len(surds) < 40:
            D = rng.randint(2, 10**6)
            if math.isqrt(D) ** 2 != D:
                s = QuadSurd(rng.randint(-300, 300), rng.choice((-1, 1)) * rng.randint(1, 40), D)
                surds.append(s.shifted(rng.randint(0, 3) - s.floor()))
        assert self.mismatches((s, n) for s in surds for n in self.MODULI) == []
        # short finite expansions, one of them ending in its witness fan
        short = [(CFExpansion(0, (2, 1, 1)), 97), (CFExpansion(3), 5), (CFExpansion(0, (2, 3, 1)), 7)]
        assert self.mismatches(short) == []
        assert loop_verdict_geometric(*short[2]).record() == "NOTLOOP k=1 m=3 q=7"
        for bad in (QuadSurd(-3, 1, 2), CFExpansion(0, (), None, True), [0, 2, 3, 1], Rational(2, 7)):
            errors = []
            for decide in (loop_verdict_geometric, _stepwise_geometric):
                with pytest.raises((ValueError, TypeError)) as error:
                    decide(bad, 97)
                errors.append((type(error.value), str(error.value)))
            assert errors[0] == errors[1], bad

    def test_loop_family(self):
        cases = [(loop_example(n), n) for n in [*range(4, 51), 10**3, 10**4]]
        assert self.mismatches(cases) == []
        assert all(loop_verdict_geometric(e, n) is LoopVerdict.loop() for e, n in cases)
