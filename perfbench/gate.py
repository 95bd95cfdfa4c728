"""Correctness gate: the facts in a CLI output that formatting cannot alter.

Facts are matched by regular expression line by line, so record lines added
to an output later do not break the gate.  ``check`` returns the facts of one
call or raises ``GateError`` when an invariant known without any reference
fails: a NOTLOOP witness q must be divisible by the modulus, ``loop_exists``
is 0 exactly for n = 2, 3, ``loop-example`` must validate as LOOP, a scan
must report exactly the cases its arguments ask for and no violation.
``digest`` condenses the facts so they can be compared with the digests
recorded in ``reference.json``.
"""

from __future__ import annotations

import hashlib
import re

from workloads import Call

_SUMMARY = re.compile(r"^check=\S+ .*\bcases=(\d+) skipped=(\d+) violations=(\d+) pass=([01])\b", re.M)
_VERDICT = re.compile(r"^(LOOP|NOTLOOP|UNKNOWN)\b(?:.*?\bq=(\d+))?", re.M)
_EXISTS = re.compile(r"^n=(\d+) loop_exists=([01])$", re.M)
_EXAMPLE = re.compile(r"^verdict=(\w+)", re.M)
_SCALE = re.compile(r"^scale_check k=(\d+) pass=([01])$", re.M)
_ROUND = re.compile(r"^[VD]_(\d+) = \{", re.M)
_GAMMA_END = re.compile(r"^(?:terminated after (\d+) rounds|exceeded max_iter=(\d+) \(nonterminating=([01])\))", re.M)
_CF = re.compile(r"^\[(\d+)(?:;\s*([^\]]*))?\]$", re.M)
_SPECTRUM = re.compile(r"^l=(\d+) B=(\S+)$", re.M)
_PERSIST = re.compile(r"^m=(\d+) l=(\S+)$", re.M)
_MP = re.compile(r"^(upper|partial_lower_min)=(\S+)", re.M)
_WALK = re.compile(r"^walk: (.*)$", re.M)


class GateError(RuntimeError):
    """The output of a call fails the correctness gate."""


def _require(ok: bool, what: str, call: Call) -> None:
    if not ok:
        raise GateError(f"{what}: {' '.join(call.argv)}")


def _cf_facts(text: str):
    """(a0, preperiod, period) of a printed expansion."""
    m = _CF.match(text)
    if m is None:
        return None
    rest = m.group(2) or ""
    head, _, period = rest.partition("(")
    body = tuple(int(x) for x in re.findall(r"\d+", head))
    per = tuple(int(x) for x in re.findall(r"\d+", period))
    return int(m.group(1)), body, per


def check(call: Call, code: int, out: str) -> tuple:
    """Facts of one call's output; raises GateError on a failed invariant."""
    _require(code == 0, f"exit code {code}", call)
    cmd = call.command
    if cmd.startswith("verify"):
        summaries = _SUMMARY.findall(out)
        _require(len(summaries) == 1, "no scan summary", call)
        cases, skipped, violations, passed = (int(x) for x in summaries[0])
        _require(cases == call.units, f"cases={cases}, expected {call.units}", call)
        _require(violations == 0 and passed == 1, "scan violation", call)
        return cmd, cases, skipped
    if cmd == "loopcheck":
        m = _VERDICT.search(out)
        _require(m is not None and m.group(1) != "UNKNOWN", "no exact verdict", call)
        if m.group(1) == "NOTLOOP":
            _require(m.group(2) is not None and int(m.group(2)) % call.mod == 0, "witness q not divisible by n", call)
        return cmd, m.group(1), m.group(2)
    if cmd == "loop-exists":
        bits = [(int(n), int(b)) for n, b in _EXISTS.findall(out)]
        _require([n for n, _ in bits] == [call.mod], "modulus missing", call)
        _require(all(b == (0 if n in (2, 3) else 1) for n, b in bits), "loop_exists wrong", call)
        return cmd, tuple(bits)
    if cmd == "loop-example":
        m = _EXAMPLE.search(out)
        _require(m is not None and m.group(1) == "LOOP", "example is not a LOOP", call)
        scale = _SCALE.search(out)
        _require(scale is not None and scale.group(2) == "1", "scale check failed", call)
        return cmd, "LOOP", int(scale.group(1))
    if cmd.startswith("gamma-path"):
        rounds = [int(i) for i in _ROUND.findall(out)]
        _require(rounds == list(range(len(rounds))) and rounds, "rounds missing", call)
        end = _GAMMA_END.search(out)
        _require(end is not None, "no termination line", call)
        return cmd, len(rounds), end.groups()
    if cmd == "cf":
        exps = [_cf_facts(line) for line in out.splitlines() if line.startswith("[")]
        _require(len(exps) == 1 and exps[0] is not None and exps[0][2], "no periodic expansion", call)
        return cmd, exps[0]
    if cmd == "spectrum":
        levels = _SPECTRUM.findall(out)
        _require([int(ell) for ell, _ in levels] == list(range(call.levels)), "spectrum levels missing", call)
        return cmd, tuple(b for _, b in levels), tuple(_PERSIST.findall(out))
    if cmd == "mp-bound":
        values = dict(_MP.findall(out))
        _require(set(values) == {"upper", "partial_lower_min"}, "bounds missing", call)
        return cmd, values["upper"], values["partial_lower_min"]
    if cmd == "cutseq":
        m = _WALK.search(out)
        _require(m is not None, "no walk", call)
        walk = re.findall(r"([LR]):(\d+)", m.group(1))
        _require(len(walk) == call.depth, "walk length", call)
        _require(all(int(r) < call.mod for _, r in walk), "walk residue out of range", call)
        return cmd, tuple(walk)
    raise GateError(f"no gate for command {cmd!r}")


def digest(facts: tuple) -> str:
    return hashlib.sha256(repr(facts).encode()).hexdigest()[:16]
