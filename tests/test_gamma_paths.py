import functools
import io
from typing import Optional

import pytest

from fareyloops import gamma_paths
from fareyloops.cli import main
from fareyloops.gamma_paths import (
    MediantRun,
    _unresolved_rounds,
    d_algorithm,
    nonterminating,
    v_algorithm,
)
from fareyloops.loops import loop_exists
from fareyloops.rationals import Rational, farey_mediant, is_gamma0_neighbor

# the printed reference rounds, frozen as brace lists
V_ROUNDS_2 = ["{0/1,1/1}", "{0/1,1/2,1/1}"]
V_ROUNDS_3 = ["{0/1,1/1}", "{0/1,1/2,1/1}", "{0/1,1/3,1/2,2/3,1/1}"]
V_ROUNDS_5 = [
    "{0/1,1/1}",
    "{0/1,1/2,1/1}",
    "{0/1,1/3,1/2,2/3,1/1}",
    "{0/1,1/4,1/3,2/5,1/2,3/5,2/3,3/4,1/1}",
    "{0/1,1/5,1/4,2/7,1/3,2/5,1/2,3/5,2/3,5/7,3/4,4/5,1/1}",
]
D_ROUNDS_5 = [
    "{1,1}",
    "{1,2,1}",
    "{1,3,2,3,1}",
    "{1,4,3,0,2,0,3,4,1}",
    "{1,0,4,2,3,0,2,0,3,2,4,0,1}",
    "{1,0,4,1,2,0,3,0,2,0,3,0,2,1,4,0,1}",
]


def braced(seq):
    return "{" + ",".join(str(x) for x in seq) + "}"


class TestVertexAlgorithm:
    def test_mod_two(self):
        run = v_algorithm(2, 10)
        assert run.terminated and run.rounds_run == 1
        assert [braced(r) for r in run.rounds] == V_ROUNDS_2

    def test_mod_three(self):
        run = v_algorithm(3, 10)
        assert run.terminated and run.rounds_run == 2
        assert [braced(r) for r in run.rounds] == V_ROUNDS_3

    def test_mod_five_reference_rounds(self):
        run = v_algorithm(5, 4)
        assert not run.terminated
        assert [braced(r) for r in run.rounds] == V_ROUNDS_5

    def test_terminated_rounds_are_gamma0_paths(self):
        for n in (2, 3):
            final = v_algorithm(n, 10).rounds[-1]
            assert all(is_gamma0_neighbor(a, b, n) for a, b in zip(final, final[1:]))

    def test_monotone_increasing_vertices(self):
        for row in v_algorithm(5, 5).rounds:
            assert all(a < b for a, b in zip(row, row[1:]))
            assert row[0] == Rational(0) and row[-1] == Rational(1)

    def test_materialize_guard_keeps_verdict_exact(self):
        run = v_algorithm(5, 50, materialize_limit=64)
        assert not run.terminated and run.rounds_run == 50
        assert len(run.rounds) < 51  # rounds truncated, verdict not

    def test_validation(self):
        with pytest.raises(ValueError):
            v_algorithm(1, 5)
        with pytest.raises(ValueError):
            v_algorithm(5, 0)


class TestDenominatorAlgorithm:
    def test_mod_five_reference_rounds(self):
        run = d_algorithm(5, 5)
        assert [braced(r) for r in run.rounds] == D_ROUNDS_5

    def test_mod_two(self):
        run = d_algorithm(2, 10)
        assert run.terminated
        assert braced(run.rounds[-1]) == "{1,0,1}"

    def test_mod_three_mirrors_vertices(self):
        run = d_algorithm(3, 10)
        assert run.terminated
        assert braced(run.rounds[-1]) == "{1,0,2,0,1}"

    @pytest.mark.parametrize("n", range(2, 31))
    def test_mirror_property(self, n):
        """Residues of the vertex rounds equal the denominator rounds."""
        vrun = v_algorithm(n, 12)
        drun = d_algorithm(n, 12)
        for vrow, drow in zip(vrun.rounds, drun.rounds):
            assert tuple(v.den % n for v in vrow) == drow


class TestTerminationDichotomy:
    def test_small_moduli_terminate(self):
        assert v_algorithm(2, 50).terminated
        assert v_algorithm(3, 50).terminated

    @pytest.mark.parametrize("n", range(4, 31))
    def test_larger_moduli_exceed(self, n):
        run = v_algorithm(n, 50, materialize_limit=4)
        assert not run.terminated and run.rounds_run == 50

    def test_nonterminating_small(self):
        assert not nonterminating(2)
        assert not nonterminating(3)
        assert nonterminating(4)
        assert nonterminating(5)

    def test_nonterminating_matches_loop_existence(self):
        for n in range(2, 101):
            assert nonterminating(n) == loop_exists(n)


# Frozen oracle: the per-pair insertion loops as they stood before termination
# was read off nonterminating(n), with their own hand-inlined tracking of the
# unresolved residue pairs and the CLI's round formatting of that time.


@functools.lru_cache(maxsize=None)
def _oracle_unresolved_rounds(n: int, max_iter: int) -> Optional[int]:
    pairs = {(1 % n, 1 % n)}
    for i in range(1, max_iter + 1):
        nxt = set()
        for u, v in pairs:
            w = (u + v) % n
            if w:
                nxt.add((u, w))
                nxt.add((w, v))
        if not nxt:
            return i
        pairs = nxt
    return None


def _oracle_v_algorithm(n, max_iter, materialize_limit=1 << 17):
    stop = _oracle_unresolved_rounds(n, max_iter)
    terminated = stop is not None
    rounds_run = stop if terminated else max_iter

    verts = [Rational(0, 1), Rational(1, 1)]
    rounds = [tuple(verts)]
    for _ in range(rounds_run):
        if 2 * len(verts) > materialize_limit:
            break
        nxt = [verts[0]]
        for a, b in zip(verts, verts[1:]):
            if not is_gamma0_neighbor(a, b, n):
                nxt.append(farey_mediant(a, b))
            nxt.append(b)
        verts = nxt
        rounds.append(tuple(verts))
    return MediantRun(terminated, rounds_run, tuple(rounds))


def _oracle_d_algorithm(n, max_iter, materialize_limit=1 << 17):
    stop = _oracle_unresolved_rounds(n, max_iter)
    terminated = stop is not None
    rounds_run = stop if terminated else max_iter

    seq = [1 % n, 1 % n]
    rounds = [tuple(seq)]
    for _ in range(rounds_run):
        if 2 * len(seq) > materialize_limit:
            break
        nxt = [seq[0]]
        for u, v in zip(seq, seq[1:]):
            assert not (u == 0 and v == 0), "adjacent zero denominators"
            if not ((u == 0) != (v == 0)):
                nxt.append((u + v) % n)
            nxt.append(v)
        seq = nxt
        rounds.append(tuple(seq))
    return MediantRun(terminated, rounds_run, tuple(rounds))


def _oracle_cli(run, n, label):
    lines = [f"{label}_{i} = {{" + ",".join(str(x) for x in row) + "}" for i, row in enumerate(run.rounds)]
    if run.terminated:
        lines.append(f"terminated after {run.rounds_run} rounds")
    else:
        # nonterminating(n) holds exactly for n >= 4 (acceptance 2 pins it to n = 1000)
        lines.append(f"exceeded max_iter={run.rounds_run} (nonterminating={1 if n >= 4 else 0})")
    return "".join(line + "\n" for line in lines)


def _recording(algorithm, runs):
    def recorded(*args):
        runs.append(algorithm(*args))
        return runs[-1]

    return recorded


ORACLE_MAX_ITERS = (1, 2, 3, 5, 9, 12, 14)
FORMS = {"V": ("v_algorithm", _oracle_v_algorithm, ()), "D": ("d_algorithm", _oracle_d_algorithm, ("--denoms",))}


class TestAgainstFrozenOracle:
    @pytest.mark.parametrize("n", range(2, 111))
    def test_rounds_verdict_and_cli_bytes(self, n, monkeypatch):
        for label, (name, oracle, flags) in FORMS.items():
            algorithm = getattr(gamma_paths, name)
            runs = []  # the run the CLI prints, so each case is built once
            monkeypatch.setattr(gamma_paths, name, _recording(algorithm, runs))
            for max_iter in ORACLE_MAX_ITERS:
                want = oracle(n, max_iter)
                buf = io.StringIO()
                assert main(["gamma-path", "--mod", str(n), "--max-iter", str(max_iter), *flags], out=buf) == 0
                assert runs.pop() == want, (label, n, max_iter)
                assert buf.getvalue() == _oracle_cli(want, n, label), (label, n, max_iter)
                # a round of length L is stepped at limit 2L and not at 2L - 1
                for limit in (4, 64, *(2 * len(row) - d for row in want.rounds[1:4] for d in (0, 1))):
                    got = algorithm(n, max_iter, materialize_limit=limit)
                    assert got == oracle(n, max_iter, materialize_limit=limit), (label, n, max_iter, limit)

    @pytest.mark.parametrize("n", [2, 3])
    def test_terminating_moduli_at_fifty_rounds(self, n):
        for name, oracle, _ in FORMS.values():
            for limit in (4, 64, 1 << 17):
                got = getattr(gamma_paths, name)(n, 50, materialize_limit=limit)
                assert got == oracle(n, 50, materialize_limit=limit)
                assert got.terminated and got.rounds_run == n - 1


@pytest.mark.parametrize("flags", [(), ("--denoms",)])
@pytest.mark.parametrize("n, max_iter", [(3, 1), (4, 2), (5, 3), (24, 5)])
def test_unterminated_gamma_path_reads_nonterminating_once(n, max_iter, flags, monkeypatch):
    calls = []

    def counted(m):
        calls.append(m)
        return nonterminating(m)

    monkeypatch.setattr(gamma_paths, "nonterminating", counted)
    buf = io.StringIO()
    assert main(["gamma-path", "--mod", str(n), "--max-iter", str(max_iter), *flags], out=buf) == 0
    assert buf.getvalue().endswith(f"(nonterminating={1 if n >= 4 else 0})\n")
    assert calls == [n]


class TestTerminationShortCut:
    """nonterminating(n) answers what _unresolved_rounds would, which stays the oracle."""

    @pytest.mark.parametrize("n", range(2, 121))
    def test_verdict_matches_the_unresolved_pair_scan(self, n):
        stop = _unresolved_rounds(n, 30)
        assert (stop is None) == nonterminating(n)
        for algorithm in (v_algorithm, d_algorithm):
            run = algorithm(n, 30, materialize_limit=4)
            assert (run.terminated, run.rounds_run) == (stop is not None, stop or 30)
