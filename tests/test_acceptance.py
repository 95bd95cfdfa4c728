"""Acceptance suite.

One test per criterion, each printing a PASS line; run with

    pytest tests/test_acceptance.py -v -s

Every check is exact integer/rational arithmetic; randomized populations are
seeded and reproducible.
"""

import io
import random
import re
import time

from fareyloops.cli import main as cli_main
from fareyloops.contfrac import (
    CFExpansion,
    cf_from_rational,
    cf_value,
    convergent_pair,
)
from fareyloops.cutting import crossed_edges, fan_chain, loop_verdict_geometric
from fareyloops.gamma_paths import nonterminating, v_algorithm
from fareyloops.heights import (
    run_count_scan,
    run_defs_equivalence_scan,
    run_infl_scan,
    run_noloop_scan,
    run_pro2_scan,
    run_thma_scan,
)
from fareyloops.loops import LOOP, NOTLOOP, is_infinite_loop, loop_example, loop_exists
from fareyloops.rationals import INFINITY, Rational
from fareyloops.sampling import random_finite_cf, random_periodic_cf

SEED = 20240801

V_TABLES = {
    2: [
        "V_0 = {0/1,1/1}",
        "V_1 = {0/1,1/2,1/1}",
    ],
    3: [
        "V_0 = {0/1,1/1}",
        "V_1 = {0/1,1/2,1/1}",
        "V_2 = {0/1,1/3,1/2,2/3,1/1}",
    ],
    5: [
        "V_0 = {0/1,1/1}",
        "V_1 = {0/1,1/2,1/1}",
        "V_2 = {0/1,1/3,1/2,2/3,1/1}",
        "V_3 = {0/1,1/4,1/3,2/5,1/2,3/5,2/3,3/4,1/1}",
        "V_4 = {0/1,1/5,1/4,2/7,1/3,2/5,1/2,3/5,2/3,5/7,3/4,4/5,1/1}",
    ],
}

D_TABLE_5 = [
    "D_0 = {1,1}",
    "D_1 = {1,2,1}",
    "D_2 = {1,3,2,3,1}",
    "D_3 = {1,4,3,0,2,0,3,4,1}",
    "D_4 = {1,0,4,2,3,0,2,0,3,2,4,0,1}",
    "D_5 = {1,0,4,1,2,0,3,0,2,0,3,0,2,1,4,0,1}",
]


def _cli_lines(*argv):
    buf = io.StringIO()
    code = cli_main(list(argv), out=buf)
    assert code == 0
    return buf.getvalue().splitlines()


def _norm(line):
    return re.sub(r"\s+", "", line)


def test_criterion_1_paper_table_reproduction():
    start = time.perf_counter()
    for n, expected in V_TABLES.items():
        got = _cli_lines("gamma-path", "--mod", str(n), "--max-iter", str(len(expected) - 1))
        assert [_norm(l) for l in got[: len(expected)]] == [_norm(l) for l in expected], n
    got = _cli_lines("gamma-path", "--mod", "5", "--denoms", "--max-iter", "5")
    assert [_norm(l) for l in got[:6]] == [_norm(l) for l in D_TABLE_5]
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 printed-table-reproduction: PASS ({elapsed:.2f}s)")


def test_criterion_2_termination_dichotomy():
    start = time.perf_counter()
    for n in (2, 3):
        assert v_algorithm(n, 50).terminated
    for n in range(4, 31):
        run = v_algorithm(n, 50, materialize_limit=4)
        assert not run.terminated and run.rounds_run == 50
    existence = {n: loop_exists(n) for n in range(2, 1001)}
    assert [n for n, ok in existence.items() if not ok] == [2, 3]
    for n in range(2, 1001):
        assert nonterminating(n) == existence[n]
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"ACCEPTANCE 2 termination-dichotomy: PASS ({elapsed:.2f}s)")


def test_criterion_3_definitions_equivalence():
    from math import gcd

    start = time.perf_counter()
    report = run_defs_equivalence_scan(150, 2, 12)
    assert report.violations == 0
    fractions = sum(1 for q in range(2, 151) for p in range(1, q) if gcd(p, q) == 1)
    assert report.total == fractions * 11
    # full verdicts (kind, k, m, witness) on periodic input, which the edge
    # route closes on its own state, and on twin-form rationals
    rng = random.Random(SEED)
    cases = 0
    for _ in range(150):
        e = random_periodic_cf(rng, max_period=5, max_entry=60, a0_max=4)
        for n in (4, 6, 8, 9, 10, 12, 15, 16, 18, 20, 24, 30, 36, 60, 100, 360, 1001, 2310):
            assert loop_verdict_geometric(e, n) == is_infinite_loop(e, n), (e, n)
            cases += 1
    for q in range(2, 61):
        for p in range(1, 2 * q):
            if gcd(p, q) == 1:
                twin = cf_from_rational(Rational(p, q))[1]
                for e in (twin, CFExpansion(twin.a0, twin.body)):
                    for n in range(2, 13):
                        assert loop_verdict_geometric(e, n) == is_infinite_loop(e, n), (e, n)
                        cases += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        f"ACCEPTANCE 3 definitions-equivalence: PASS ({report.total} cases, "
        f"{cases} full verdicts, {elapsed:.2f}s)"
    )


def test_criterion_4_noloop_bound_brute_force():
    start = time.perf_counter()
    report = run_noloop_scan(range(4, 26), 1000, SEED)
    assert report.total == 22000
    assert report.violations == 0
    assert report.total - report.skipped > 15000  # the bound was genuinely exercised
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(
        f"ACCEPTANCE 4 noloop-bound: PASS ({report.total - report.skipped} applicable, "
        f"{elapsed:.2f}s)"
    )


def test_criterion_5_infl_consistency():
    start = time.perf_counter()
    pm = [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2)]
    assert all(p**m <= 32 for p, m in pm)
    report = run_infl_scan(pm, 1000, SEED)
    assert report.total == 10000
    assert report.violations == 0
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE 5 infl-consistency: PASS ({elapsed:.2f}s)")


def test_criterion_6_pro2():
    start = time.perf_counter()
    report = run_pro2_scan(range(2, 8), 500, SEED)
    assert report.total == 3000
    assert report.skipped == 0
    assert report.violations == 0
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE 6 pro2: PASS ({elapsed:.2f}s)")


def test_criterion_7_fan_correspondence():
    start = time.perf_counter()
    report = run_thma_scan(500, 100, SEED)
    assert report.violations == 0 and report.total == 600
    # named golden case: the convergent chain read off the fan pivots
    golden = CFExpansion(0, (), (1,))
    pivots = [p for p, _ in fan_chain(crossed_edges(golden, 8))]
    chain = [INFINITY] + pivots  # the seed vertex 1/0 heads the chain
    expected = [
        INFINITY,
        Rational(0),
        Rational(1),
        Rational(1, 2),
        Rational(2, 3),
        Rational(3, 5),
        Rational(5, 8),
    ]
    assert chain[: len(expected)] == expected
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE 7 fan-correspondence: PASS ({elapsed:.2f}s)")


def test_criterion_8_loop_constructions():
    start = time.perf_counter()
    for n in range(4, 101):
        assert loop_exists(n)
        assert is_infinite_loop(loop_example(n), n).kind == LOOP
    half = cf_from_rational(Rational(1, 2))[0]
    assert is_infinite_loop(half, 4).kind == LOOP
    verdict = is_infinite_loop(half, 5)
    assert verdict.kind == NOTLOOP
    assert verdict.witness.den == 5 and verdict.witness_m == 2
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE 8 loop-constructions: PASS ({elapsed:.2f}s)")


def test_criterion_9_determinant_and_sandwich():
    import random

    start = time.perf_counter()
    rng = random.Random(SEED)
    for _ in range(10000):
        e = random_finite_cf(rng, min_len=2, max_len=7, max_entry=9, a0_max=3)
        num, den = convergent_pair(e, e.last_index)
        p_prev, q_prev = 1, 0
        p, q = e.a0, 1
        assert abs(p * q_prev - p_prev * q) == 1
        for k in range(e.last_index):
            a_next = e.entry(k + 1)
            # |x - p_k/q_k| strictly between 1/((a+2) q^2) and 1/(a q^2),
            # cross-multiplied to stay in integers
            gap_num = abs(num * q - p * den)  # |x - p/q| = gap_num / (den q)
            assert gap_num * a_next * q < den
            assert gap_num * (a_next + 2) * q > den
            p, p_prev = a_next * p + p_prev, p
            q, q_prev = a_next * q + q_prev, q
            assert abs(p * q_prev - p_prev * q) == 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"ACCEPTANCE 9 determinant-and-sandwich: PASS ({elapsed:.2f}s)")


def test_criterion_10_count_height_exploration():
    start = time.perf_counter()
    pm = [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2)]
    report = run_count_scan(pm, 200, SEED, L=20, keep_records=True)
    assert report.total == 1000  # every case reported
    assert len(report.records) == 1000
    assert report.violations == 0  # zero unexplained
    buckets = {"refuted_at": 0, "loop_through": 0, "witness_at": 0, "B=": 0}
    for rec in report.records:
        assert rec.passed
        assert any(tag in rec.witness for tag in buckets)
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE 10 count-height-exploration: PASS ({elapsed:.2f}s)")
