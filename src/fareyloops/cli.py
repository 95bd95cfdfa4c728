"""Command-line front end.

Human mode mirrors the brace-list and bracket notation used throughout the
library so outputs can be diffed against printed tables; record mode emits
stable key=value lines for golden-file comparison.
"""

from __future__ import annotations

import argparse
import itertools
import os
import re
import sys
from typing import Optional, Sequence

# each handler imports the layers it calls, so a command loads only those
from . import contfrac, rationals
from .contfrac import CFExpansion, cf_from_rational, cf_of_surd, format_cf, parse_cf
from .rationals import Immutable, Rational
from .surds import QuadSurd

_SURD_RE = re.compile(
    r"^\(\s*(-?\d+)\s*\+\s*sqrt\(\s*(\d+)\s*\)\s*\)(?:\s*/\s*(-?\d+))?$"
)
_SQRT_RE = re.compile(r"^sqrt\(\s*(\d+)\s*\)(?:\s*/\s*(\d+))?$")
_RATIONAL_RE = re.compile(r"^([+-]?\d+)(?:\s*/\s*([+-]?\d+))?$")
# argparse's negative-number pattern widened by -p/q, so -3/7 is read as a value
_NEGATIVE_VALUE_RE = re.compile(r"^-\d+(/[+-]?\d+)?$|^-\d*\.\d+$")


class Config(Immutable):
    """Run parameters; all limits positive and q_max >= 2, seed fixes every random scan."""

    __slots__ = ("seed", "depth", "q_max", "count", "mode")

    def __init__(
        self, seed: int = 0, depth: Optional[int] = None, q_max: int = 150, count: int = 100, mode: str = "human"
    ):
        if q_max < 1 or count < 1:
            raise ValueError(f"limits must be positive: q_max={q_max} count={count}")
        if q_max < 2:  # no rational in (0, 1) has a denominator below 2
            raise ValueError("q_max must be >= 2")
        if depth is not None and depth < 1:
            raise ValueError(f"depth must be positive, got {depth}")
        if mode not in ("human", "record"):
            raise ValueError("mode must be human or record")
        _set_seed(self, seed)
        _set_depth(self, depth)
        _set_q_max(self, q_max)
        _set_count(self, count)
        _set_mode(self, mode)


_set_seed, _set_depth, _set_q_max, _set_count, _set_mode = Config._setters()


def load_config(path: str) -> dict:
    values: dict = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {raw.rstrip()}")
            key, _, val = line.partition("=")
            values[key.strip()] = val.strip()
    return values


def parse_value(text: str):
    """Rational `p/q`, integer, surd `(P+sqrt(D))[/Q]` or `sqrt(D)[/Q]`, or `[...]`."""
    s = text.strip()
    if s.startswith("["):
        return parse_cf(s)
    m = _SURD_RE.match(s)
    if m:
        return QuadSurd(int(m.group(1)), int(m.group(3) or 1), int(m.group(2)))
    m = _SQRT_RE.match(s)
    if m:
        return QuadSurd(0, int(m.group(2) or 1), int(m.group(1)))
    m = _RATIONAL_RE.match(s)
    if m:
        return Rational(int(m.group(1)), int(m.group(2) or 1))
    raise ValueError(
        f"cannot read {text!r}: expected p/q, an integer, (P+sqrt(D))[/Q], sqrt(D)[/Q] or [a0; ...]"
    )


def expansions_of(value) -> list[CFExpansion]:
    """All expansions the input denotes: both twins of a rational, or one."""
    if isinstance(value, CFExpansion):
        return [value]
    if isinstance(value, Rational):
        canonical, twin = cf_from_rational(value)
        if canonical == twin:
            return [canonical]
        return [canonical, twin]
    return [cf_of_surd(value)]


def _parse_range(text: str) -> range:
    lo, _, hi = text.partition("..")
    try:
        bounds = int(lo), int(hi)
    except ValueError:
        raise ValueError(f"range must look like a..b, got {text!r}") from None
    if bounds[0] > bounds[1]:
        raise ValueError(f"range {text!r} is empty")
    return range(bounds[0], bounds[1] + 1)


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def _nonnegative_int(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_cf(args, cfg: Config, out) -> int:
    value = parse_value(args.value)
    if isinstance(value, CFExpansion):
        exps = [contfrac.multiply_cf(contfrac.shift_cf(value, args.shift), args.times)]
    else:
        # n * (x + s) is formed once and then expanded, so a rational prints both twins of it
        exps = expansions_of(value.shifted(args.shift).scaled(args.times))
    for e in exps:
        print(format_cf(e), file=out)
    return 0


def cmd_semiconv(args, cfg: Config, out) -> int:
    """The semi-convergent {k, m} named by --k and --m, or each vertex of fans 0..depth - 1.

    A surd is read only through a_{k+1}, or a_depth (depth 8 by default), not its period."""
    value = parse_value(args.value)
    vertex = args.k is not None and args.m is not None
    depth = args.depth or cfg.depth
    surd_depth = max(args.k, 0) + 1 if vertex else depth or 8  # a_0..a_surd_depth are read
    e = contfrac.surd_prefix(value, surd_depth) if isinstance(value, QuadSurd) else expansions_of(value)[0]
    if (args.k is None) != (args.m is None):
        raise ValueError("--k and --m must be given together")
    if vertex:
        value = contfrac.semiconvergent(e, args.k, args.m)
        print(f"k={args.k} m={args.m} value={value}", file=out)
        return 0
    if e.is_finite and e.last_index == 0:
        raise ValueError(f"{args.value} has no interior fan to list; name a vertex with --k and --m")
    last = min(e.last_index, depth or e.last_index) if e.is_finite else (depth or 8)
    for k, a, p_prev, q_prev, p, q in itertools.islice(contfrac.fans(e.digits()), 1, last + 1):
        pivot = Rational(p, q)
        for m in range(a + 1):
            value = Rational(m * p + p_prev, m * q + q_prev)
            # consecutive fan vertices differ by the pivot
            assert m == 0 or rationals.farey_difference(value, previous) == pivot
            previous = value
            print(f"k={k} m={m} value={value} pivot={pivot}", file=out)
    return 0


def cmd_loopcheck(args, cfg: Config, out) -> int:
    from . import loops

    value = parse_value(args.value)
    # both routes read one step stream; a surd's comes lazily off its own
    # expansion recurrence, which stops at the first witness instead of
    # expanding the whole period up front
    decided = value if isinstance(value, QuadSurd) else expansions_of(value)[0]
    verdict = loops.is_infinite_loop(decided, args.mod)
    print(verdict.record(), file=out)
    if args.geometric:
        from . import cutting

        geo = cutting.loop_verdict_geometric(decided, args.mod)
        print(f"geometric: {geo.record()}", file=out)
    return 0


def cmd_loop_exists(args, cfg: Config, out) -> int:
    from . import loops

    for n in _parse_range(args.n_range):
        print(f"n={n} loop_exists={1 if loops.loop_exists(n) else 0}", file=out)
    return 0


def cmd_loop_example(args, cfg: Config, out) -> int:
    from . import loops

    e = loops.loop_example(args.mod)  # raises unless the exact decision says LOOP
    print(format_cf(e), file=out)
    print(f"verdict={loops.LOOP}", file=out)
    if args.scale_check:
        ok = loops.loop_scaling_check(e, args.mod, args.scale_check)
        print(f"scale_check k={args.scale_check} pass={1 if ok else 0}", file=out)
    return 0


def cmd_gamma_path(args, cfg: Config, out) -> int:
    from . import gamma_paths

    n = args.mod
    if args.denoms:
        run = gamma_paths.d_algorithm(n, args.max_iter)
        names = [str(d) for d in range(n)]
        label, rows = "D", (map(names.__getitem__, seq) for seq in run.rounds)
    else:
        run = gamma_paths.v_algorithm(n, args.max_iter)
        label, rows = "V", _vertex_texts(run.rounds)
    for i, row in enumerate(rows):
        print(f"{label}_{i} = {{" + ",".join(row) + "}", file=out)
    if run.terminated:
        print(f"terminated after {run.rounds_run} rounds", file=out)
    else:
        print(f"exceeded max_iter={run.rounds_run} (nonterminating={int(run.nonterminating)})", file=out)
    return 0


def _vertex_texts(rounds):
    """Vertex texts of each round; a vertex kept from the round before (same object) reuses its text."""
    old, old_texts = (), []
    for verts in rounds:
        kept = zip(old, old_texts)
        prev, text = next(kept, (None, None))
        texts = []
        for v in verts:
            if v is prev:
                texts.append(text)
                prev, text = next(kept, (None, None))
            else:
                texts.append(str(v))
        yield texts
        old, old_texts = verts, texts


def cmd_cutseq(args, cfg: Config, out) -> int:
    from . import cutting, loops

    value = parse_value(args.value)
    depth = args.depth or cfg.depth
    if isinstance(value, QuadSurd):
        # the word's depth runs after a_0, the walk's depth steps and the edges' depth - 1 read
        # only a_0..a_depth, as each a_i >= 1; the crossing check runs against the surd itself
        depth = depth or 12
        e = contfrac.surd_prefix(value, depth)
    else:
        e = expansions_of(value)[0]
        value = contfrac.cf_value(e)
    # the walk is built first so that a bad --mod prints nothing
    walk = loops.sb_walk(e, args.mod, depth or 12) if args.mod else None
    # the edges too, so that a value with no ray (0) prints nothing
    edges = cutting.crossed_edges(e, depth if e.is_finite else (depth or 12))
    word_depth = e.last_index if e.is_finite else (depth or 12)
    word = cutting.eta_inverse(e, word_depth)
    # the word reads back the partial quotients it was built from
    assert list(cutting.eta(word).digits()) == list(itertools.islice(e.digits(), word_depth + 1))
    # the base edge comes first, and only there: the ray crosses every edge after it
    assert all(cutting.crosses_edge(value, edge) for edge in edges[1:])
    print(f"word: {word}", *(f"{x.a.num}/{x.a.den} -- {x.b.num}/{x.b.den}" for x in edges), sep="\n", file=out)
    if walk is not None:
        print("walk: " + " ".join(f"{l}:{r}" for l, r in walk), file=out)
    return 0


def cmd_spectrum(args, cfg: Config, out) -> int:
    from . import heights

    e = expansions_of(parse_value(args.value))[0]
    spectrum = heights.height_spectrum(e, args.p, args.L)
    # the persistence rows are found before anything is printed, so that a failing call prints nothing
    rows = heights.persistence_scan(e, args.p, args.persistence, args.L) if args.persistence else []
    for ell, b in spectrum:
        print(f"l={ell} B={'oo' if b == float('inf') else b}", file=out)
    for m, ell in rows:
        print(f"m={m} l={'-' if ell is None else ell}", file=out)
    return 0


def cmd_mp_bound(args, cfg: Config, out) -> int:
    from . import heights

    e = expansions_of(parse_value(args.value))[0]
    upper, partial = heights.mp_bounds(e, args.p, args.L)
    print(f"upper={upper}", file=out)
    print(f"partial_lower_min={partial} (not a bound)", file=out)
    return 0


VERIFY_CHECKS = (
    "noloop",
    "infl",
    "pro2",
    "count-height",
    "defs-equivalence",
    "thma",
    "dual-pushforward",
)

_PM_DEFAULT = ((2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2))
_COUNT_PM = ((2, 2), (2, 3), (3, 2), (2, 4), (5, 2))


def cmd_verify(args, cfg: Config, out) -> int:
    from . import heights

    name = args.check
    seed = args.seed if args.seed is not None else cfg.seed
    count = args.count or cfg.count
    keep = cfg.mode == "record"
    if name == "noloop":
        report = heights.run_noloop_scan(_parse_range(args.n_range or "4..25"), count, seed, keep)
    elif name == "infl":
        report = heights.run_infl_scan(_PM_DEFAULT, count, seed, keep)
    elif name == "pro2":
        report = heights.run_pro2_scan(_parse_range(args.n_range or "2..7"), count, seed, keep)
    elif name == "count-height":
        report = heights.run_count_scan(_COUNT_PM, count, seed, L=args.L, keep_records=keep)
    elif name == "defs-equivalence":
        moduli = _parse_range(args.n_range or "2..12")
        report = heights.run_defs_equivalence_scan(args.q_max or cfg.q_max, moduli.start, moduli[-1], keep)
    elif name == "thma":
        report = heights.run_thma_scan(count, max(count // 5, 1), seed, keep_records=keep)
    else:  # dual-pushforward; argparse rejects every other name
        report = heights.run_dual_pushforward_scan(count, seed, keep_records=keep)
    for rec in report.records:  # kept in record mode only
        print(rec.line(), file=out)
    print(report.summary(), file=out)
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# wiring

COMMAND_HANDLERS = {
    "cf": cmd_cf,
    "semiconv": cmd_semiconv,
    "loopcheck": cmd_loopcheck,
    "loop-exists": cmd_loop_exists,
    "loop-example": cmd_loop_example,
    "gamma-path": cmd_gamma_path,
    "cutseq": cmd_cutseq,
    "spectrum": cmd_spectrum,
    "mp-bound": cmd_mp_bound,
    "verify": cmd_verify,
}


_parser: Optional[argparse.ArgumentParser] = None


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after it.

    Sharing is safe: argparse gives every ``parse_args`` call a fresh
    namespace, subcommand namespaces included, and the handlers only read it.
    """
    global _parser
    if _parser is not None:
        return _parser
    parser = argparse.ArgumentParser(
        prog="fareyloops",
        description="Exact continued-fraction and loop-mod-n computations",
    )
    parser.add_argument("--config", help="key = value defaults file")
    parser.add_argument("--format", choices=("human", "record"), default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cf", help="continued fraction expansion(s) of a value")
    p.add_argument("value")
    p.add_argument("--shift", type=int, default=0)
    p.add_argument("--times", type=_positive_int, default=1)

    p = sub.add_parser("semiconv", help="semi-convergents of a value")
    p.add_argument("value")
    p.add_argument("--k", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--depth", type=_positive_int)

    p = sub.add_parser("loopcheck", help="infinite-loop verdict mod n")
    p.add_argument("value")
    p.add_argument("--mod", type=int, required=True)
    p.add_argument("--geometric", action="store_true")

    p = sub.add_parser("loop-exists", help="existence of loops per modulus")
    p.add_argument("--n-range", required=True)

    p = sub.add_parser("loop-example", help="a validated loop expansion")
    p.add_argument("--mod", type=int, required=True)
    p.add_argument("--scale-check", type=_positive_int)

    p = sub.add_parser("gamma-path", help="mediant-insertion rounds at level n")
    p.add_argument("--mod", type=int, required=True)
    p.add_argument("--max-iter", type=int, default=10)
    p.add_argument("--denoms", action="store_true")

    p = sub.add_parser("cutseq", help="letter word and crossed edges")
    p.add_argument("value")
    p.add_argument("--depth", type=_positive_int)
    p.add_argument("--mod", type=_positive_int)

    p = sub.add_parser("spectrum", help="heights under repeated prime scaling")
    p.add_argument("value")
    p.add_argument("-p", type=int, required=True)
    p.add_argument("-L", type=_nonnegative_int, required=True)
    p.add_argument("--persistence", type=_positive_int)

    p = sub.add_parser("mp-bound", help="upper bound from the height spectrum")
    p.add_argument("value")
    p.add_argument("-p", type=int, required=True)
    p.add_argument("-L", type=_nonnegative_int, required=True)

    p = sub.add_parser("verify", help="batch inequality scans")
    p.add_argument("check", choices=VERIFY_CHECKS)
    p.add_argument("--seed", type=int)
    p.add_argument("--count", type=_positive_int)
    p.add_argument("--n-range")
    p.add_argument("--q-max", type=_positive_int)
    p.add_argument("-L", type=_nonnegative_int, default=20)

    for p in sub.choices.values():
        p._negative_number_matcher = _NEGATIVE_VALUE_RE
    _parser = parser
    return parser


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)

    settings = {}
    try:
        if args.config:
            known = {"seed": int, "depth": int, "q_max": int, "count": int, "mode": str}
            for key, value in load_config(args.config).items():
                if key not in known:
                    raise ValueError(f"unknown config key {key!r}")
                settings[key] = known[key](value)
        if args.format is not None:
            settings["mode"] = args.format
        cfg = Config(**settings)
    except (OSError, ValueError) as exc:
        print(f"error: --config {args.config}: {exc}", file=sys.stderr)
        return 2

    try:
        code = COMMAND_HANDLERS[args.command](args, cfg, out)
        out.flush()  # a closed pipe then fails here, not in the flush at exit
        return code
    except (ValueError, ZeroDivisionError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        if out is not sys.__stdout__:
            raise
        # the reader closed the pipe: as Python's signal docs advise, point
        # stdout at devnull so the flush at exit stays quiet; 1 is EPIPE's status
        os.dup2(os.open(os.devnull, os.O_WRONLY), out.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
