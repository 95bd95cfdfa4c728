"""Golden outputs: SHA-256 digests of `--format record` CLI output.

Each case concatenates the output of a group of invocations, with the
`elapsed=` figure stripped (it is wall time), and compares its digest with
one recorded from the program before its surd recurrence, witness rebuild
and scan dispatch were each merged into a single implementation.  The
`cutseq tail`, `loop-exists`, `loop-example` and `gamma-path` digests were
recorded before the graph cycle searches and the mediant walks were each
merged into one.  The `loopcheck periodic` and `loopcheck rational
geometric` digests were recorded before the periodic, surd and stream
deciders were merged into one state-cycle scan and the finite and periodic
edge scans of the geometric route into one.  The `semiconv` digest was
recorded before every convergent, semi-convergent and mediant step was read
off the single recurrence `contfrac.fans`.  The `loopcheck rational
geometric` digest was re-recorded when the edge route began to walk a twin
carrying the oo-tail in Euclid's form: one line moved, the `geometric:`
line of `[0; 2, 2, 1, oo]` mod 7, from k=2 m=1 to k=1 m=3, the label the
denominator route prints.  The `loopcheck periodic` digest was re-recorded
when `loopcheck` lost its `--depth` option, which changed no verdict: the
case list dropped each `--geometric` call's `--depth 4` twin, 286 calls
down to 165, and the new digest is the one the program before that change
prints for the reduced list, so no remaining call changed a byte.  A
mismatch means some printed verdict, witness, expansion or record changed.
"""

import hashlib
import io
import math
import re

import pytest

from fareyloops.cli import main

_SURDS = ("sqrt(2)", "(1+sqrt(5))/2", "sqrt(8)/2", "(3+sqrt(1000003))/2", "(-4+sqrt(97))/3")
_SMALL_SURDS = ("sqrt(2)", "(1+sqrt(5))/2", "sqrt(8)/2", "(-4+sqrt(97))/3")
_UNIT_SURDS = ("(-1+sqrt(5))/2", "sqrt(2)/2", "(-3+sqrt(19))/5", "(-2+sqrt(1000))/31")
# values in (0, 1) that are loops mod some of the moduli below
_LOOP_SURDS = ("(3+sqrt(2))/7", "(3+sqrt(3))/6", "(4+sqrt(7))/9", "(5+sqrt(5))/10", "(9+sqrt(45))/18")
# rationals in (0, 1) whose mediant walk runs into the oo-tail, both twins
# written out, and one finite expansion without a tail
_TAIL_VALUES = ("3/7", "2/5", "5/8", "1/3", "7/10", "13/21", "[0; 2, 2, 1, oo]", "[0; 2, 3]")
# written eventually periodic expansions, loops and non-loops; those in
# (0, 1) also go through the edge route
_PERIODIC = ("[1; (2)]", "[2; (1, 1, 4)]", "[3; 1, 1, (7)]", "[4; 6, 2, (1, 5, 1, 8)]")
_UNIT_PERIODIC = (
    "[0; (1)]",
    "[0; (2, 9)]",
    "[0; 1, 2, (3, 1)]",
    "[0; 5, (1, 2, 3)]",
    "[0; 2, (1, 1, 2)]",
    "[0; 1, 1, 1, (2)]",
    "[0; 1, 2, (1)]",
    "[0; 1, 3, (1, 2)]",
    "[0; 1, 5, (1, 4)]",
    "[0; 1, 9, (1, 8)]",
    "[0; 1, 2, (1, 4, 1, 1)]",
)

CASES = {
    "verify noloop": [("verify", "noloop", "--n-range", "4..7", "--count", "40", "--seed", "3")],
    "verify infl": [("verify", "infl", "--count", "20", "--seed", "3")],
    "verify pro2": [("verify", "pro2", "--n-range", "2..5", "--count", "20", "--seed", "3")],
    "verify count-height": [("verify", "count-height", "--count", "10", "-L", "6", "--seed", "3")],
    "verify defs-equivalence": [("verify", "defs-equivalence", "--q-max", "20", "--n-range", "2..6")],
    "verify thma": [("verify", "thma", "--count", "30", "--seed", "3")],
    "verify dual-pushforward": [("verify", "dual-pushforward", "--count", "30", "--seed", "3")],
    "cf": [("cf", s) for s in _SURDS] + [("cf", s, "--times", "3") for s in _SURDS],
    "loopcheck": [
        ("loopcheck", f"sqrt({d})", "--mod", str(n))
        for d in range(2, 31)
        if math.isqrt(d) ** 2 != d
        for n in range(2, 11)
    ]
    + [("loopcheck", s, "--mod", str(n)) for s in _SURDS for n in (4, 5, 7, 9, 7919)]
    + [
        ("loopcheck", s, "--mod", str(n), "--geometric")
        for s in _UNIT_SURDS + _LOOP_SURDS
        for n in (5, 6, 7, 8, 9, 18)
    ],
    "loopcheck periodic": [("loopcheck", v, "--mod", str(n)) for v in _PERIODIC for n in range(2, 13)]
    + [
        ("loopcheck", v, "--mod", str(n), "--geometric") for v in _UNIT_PERIODIC for n in range(2, 13)
    ],
    "loopcheck rational geometric": [
        ("loopcheck", v, "--mod", str(n), "--geometric") for v in _TAIL_VALUES for n in range(2, 13)
    ],
    "spectrum": [
        ("spectrum", s, "-p", str(p), "-L", "3", "--persistence", "3")
        for s in _SMALL_SURDS
        for p in (2, 3)
    ],
    "mp-bound": [("mp-bound", s, "-p", str(p), "-L", "3") for s in _SMALL_SURDS for p in (2, 5)],
    "cutseq": [
        ("cutseq", s, "--mod", str(n), "--depth", "40")
        for s in _UNIT_SURDS + _LOOP_SURDS
        for n in (3, 5, 8)
    ],
    "cutseq tail": [("cutseq", v, "--mod", str(n)) for v in _TAIL_VALUES for n in (3, 4, 5)]
    + [("cutseq", v, "--mod", "7", "--depth", "30") for v in _TAIL_VALUES],
    "semiconv": [("semiconv", v) for v in ("3/7", "13/21", "[0; 2, 2, 1, oo]", "[1; 2, (3)]")]
    + [
        ("semiconv", "sqrt(2)", "--depth", "6"),
        ("semiconv", "3/7", "--k", "2", "--m", "5"),
        ("semiconv", "[1; 2, (3)]", "--k", "4", "--m", "2"),
    ],
    "loop-exists": [("loop-exists", "--n-range", "2..60")],
    "loop-example": [("loop-example", "--mod", str(n), "--scale-check", "3") for n in range(4, 41)],
    "gamma-path": [
        ("gamma-path", "--mod", str(n), "--max-iter", "6", *denoms)
        for n in (2, 3, 4, 5, 7, 9)
        for denoms in ((), ("--denoms",))
    ],
}

GOLDEN = {
    "cf": "e5f18d2871c52c5f047e53ae02f57eb42c11333d2665134de379794765855b53",
    "cutseq": "54b5ef343b112f5bb3719f6a4ff4e71a4e48fcb97bb7232fd0930ed94317058f",
    "cutseq tail": "0d3e260bdb865b9aa39f3e66f76e4d90dab113065f7f71781b411624b6a97387",
    "gamma-path": "a959dacc02757aec7c698447bf1ff08f63a18dfbe30b031362ca9ea192c21aa6",
    "loop-example": "50dd21dfa565986145958b02d30d0ddfb1c9e6aab49bc1d0592a30bcb6b85e1e",
    "loop-exists": "d0aa1fb02dcd7283f3e7f40faab9a43c3da9892fbbfde1c88d0f43b1f7816438",
    "loopcheck": "50ded5ae5d2c9657ae2c70bf4e8342af93629a9a64aee14aaba6a65957265241",
    "loopcheck periodic": "33ae9f970e005dfc85d0de2960a65baaec68212cc179f74de4c5150ac42aeab6",
    "loopcheck rational geometric": "7cc6e8fcda0caff405c13b6883f0e16ed6447ec7e7482dbb2ed13961ab381637",
    "mp-bound": "653b9160d8437e91d44b609e3c5683319b2cedfdb53f40413db6add8b619c68a",
    "semiconv": "01a8eadd99a429575aaaa07fe02396292337c8dcefb06514156b1d37c9bc037c",
    "spectrum": "98280d9912c067d4dad313f9cdc847c987c225f01cbe3a43077049414b33330d",
    "verify count-height": "6a0f72aeb5dbf2987fed62d8cf4be4bc271c5311221d44ac626b53633b29b897",
    "verify defs-equivalence": "787626e6ed83056f5ad6da491466ba33844095e39df7deb180e2e2e041872c15",
    "verify dual-pushforward": "426835def1f7b1185c28be3a56c870245dc6e84ee4bc6c5b6edd2de7cb014ae6",
    "verify infl": "a638c6b0e81eb3c934b30bd4486ee05a11f63f5742cc3098ce29001fa0fd7f95",
    "verify noloop": "a12de7cd5a1fa2d37c5837226dbf8b41b968835e9881a4ec61f5c165a9a47600",
    "verify pro2": "bb3624ce73d54ff94a94f0977be747648c666c574c3d57879fc15abaab29e559",
    "verify thma": "ca2c13fd8c719cc73965b061ead38891fb07e76b5b8323d2c4526b6402e43f25",
}


def record_output(argvs) -> str:
    chunks = []
    for argv in argvs:
        buf = io.StringIO()
        code = main(["--format", "record", *argv], out=buf)
        chunks.append(f"$ {' '.join(argv)}\nexit={code}\n{buf.getvalue()}")
    return re.sub(r"elapsed=\S+", "elapsed=", "".join(chunks))


def digest(argvs) -> str:
    return hashlib.sha256(record_output(argvs).encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_record_output_matches_golden(case):
    assert digest(CASES[case]) == GOLDEN[case]
