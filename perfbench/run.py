"""fareyloops benchmark: a single-process, single-thread, closed-loop CLI harness.

    python3 perfbench/run.py --workload scan-periodic --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20    # every workload
    python3 perfbench/run.py --record-reference                      # rewrite reference.json
    python3 -m pytest perfbench                                      # self-test

Each call goes through the public entry point ``fareyloops.cli.main(argv,
out=buffer)`` in this process, the next one only after the previous returns,
with default settings: no ``--threads``, no ``--config`` and
``FAREYLOOPS_THREADS`` removed from the environment.  The program is imported
from ``src/`` of the checkout this file sits in.

A run (one workload, in a fresh process):

1. set-up: ``setup_s`` is the median over fresh interpreters of importing
   ``fareyloops.cli`` and making the first call of each command the workload
   uses (``probe.py``);
2. warm-up: the reference pass (seed 0, pass -1, never a timed pass) runs
   every command of the workload; the digest of each call's facts must equal
   the one recorded in ``reference.json``;
3. ``--trace 0``: passes drawn from ``--seed`` (pass 0, 1, ...) run until
   ``--seconds`` have gone by, and every output passes the correctness gate.
   ``wall_s`` and ``cases_per_s`` are medians over passes, ``call_p50_ms``
   and ``call_tail_ms`` (p98) are taken over all calls;
   ``--trace 1``: passes 0 and 1 of every workload, whichever ``--workload``
   names, run once untraced and once traced.  Each per-layer metric comes
   from the traced passes of the workload it belongs to
   (``PER_LAYER_WORKLOAD``), so none reads zero for want of work; counts
   repeat exactly for a seed, and the pairs give the tracing overhead.

Every end-to-end time is scaled by the calibration loop of ``calib.py``, run
between calls, so that other tenants of the machine change it less; per-layer
times are unscaled.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it print every metric with its unit and sample count, and the run is
written to ``.bench_out/`` of the checkout (the spans of a traced run too).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import sysconfig
import time
import traceback
from pathlib import Path

import gate
import workloads
from calib import calibrate, scale
from workloads import WORKLOADS, make_pass

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
REFERENCE = HERE / "reference.json"
REFERENCE_SEED, REFERENCE_PASS = 0, -1
SETUP_PROBES = 7
TRACED_PASSES = 2
TAIL_PERCENTILE = 98

# name, unit, better; BENCHMARK.json declares the same lists
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("cases_per_s", "1/s", "higher"),
    ("call_p50_ms", "ms", "lower"),
    ("call_tail_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
_TIMED_FUNCTIONS = {
    "scan-periodic": ("heights.surd_height", "contfrac.cf_value", "loops.is_infinite_loop.periodic",
                      "sampling.random_periodic_cf", "heights.check_noloop_bound", "heights.check_infl",
                      "heights.check_count_height"),
    "scan-rational": ("contfrac.convergent_pair", "contfrac.cf_from_rational", "loops.is_infinite_loop.finite",
                      "cutting.loop_verdict_geometric", "heights.check_pro2"),
    "graph": ("loops.loop_exists", "loops.loop_graph", "loops.loop_example", "gamma_paths.nonterminating",
              "gamma_paths.v_algorithm", "gamma_paths.d_algorithm"),
    "surd-query": ("cli.parse_value", "cli.expansions_of", "contfrac.cf_of_surd", "loops.is_infinite_loop.surd",
                   "heights.height_spectrum", "loops.sb_walk"),
}
# per-layer metric -> the workload it is measured on and whose numbers it
# explains; "scans" and "all" are the union of those workloads
PER_LAYER_WORKLOAD = {
    "surds.QuadSurd.count": "scan-periodic",
    "surds.floor.count": "scan-periodic",
    "heights.surd_height.calls": "scan-periodic",
    "loops.is_infinite_loop.periodic.calls": "scan-periodic",
    "rationals.Rational.count": "scan-rational",
    "rationals.Rational.hash.count": "scan-rational",
    "contfrac.CFExpansion.entry.count": "scan-rational",
    "contfrac.convergent_pair.calls": "scan-rational",
    "cutting.crossed_edges.edges": "scan-rational",
    "loops.loop_graph.states": "graph",
    "cli.main.self_s": "surd-query",
    "contfrac.cf_of_surd.calls": "surd-query",
    "contfrac.cf_of_surd.digits": "surd-query",
    **{f"{fn}.s": w for w, fns in _TIMED_FUNCTIONS.items() for fn in fns},
    "heights.applicable_frac": "scans",
    "trace.overhead_frac": "all",
}


def _unit(metric: str) -> str:
    if metric.endswith("_frac"):
        return "ratio"
    return "s" if metric.endswith((".s", "self_s")) else "count"


def _better(metric: str) -> str:
    return "higher" if metric == "heights.applicable_frac" else "lower"


PER_LAYER = tuple((m, _unit(m), _better(m)) for m in PER_LAYER_WORKLOAD)


class SetupError(RuntimeError):
    """The program cannot be loaded or set up from this checkout."""


# ---------------------------------------------------------------------------
# loading and provenance


def load_program():
    """Import fareyloops.cli from the checkout's src/, nowhere else."""
    os.environ.pop("FAREYLOOPS_THREADS", None)
    if not (SRC / "fareyloops" / "cli.py").is_file():
        raise SetupError(f"no program source at {SRC}")
    sys.path.insert(0, str(SRC))
    import fareyloops.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "fareyloops":
        raise SetupError(f"fareyloops was imported from {cli.__file__}, not from {SRC}")
    return cli


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def provenance() -> dict:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "build": "free-threaded" if sysconfig.get_config_var("Py_GIL_DISABLED") else "gil",
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# running passes


def run_pass(cli, calls) -> tuple[float, float, list]:
    """Run the calls back to back, the calibration loop between them.

    Returns the pass's scaled and raw seconds (sums over its calls) and, per
    call, (exit code or exception, output, scaled seconds).
    """
    results = []
    clock = time.perf_counter
    raw = 0.0
    gc.collect()
    with contextlib.redirect_stderr(io.StringIO()):
        before = calibrate()
        for call in calls:
            buf = io.StringIO()
            start = clock()
            try:
                code = cli.main(list(call.argv), out=buf)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a crash is a failed call, not a failed run
                code = exc
            seconds = clock() - start
            after = calibrate()
            results.append((code, buf.getvalue(), scale(seconds, before, after)))
            raw += seconds
            before = after
    return sum(r[2] for r in results), raw, results


def gate_pass(calls, results, errors: list) -> list:
    """Facts per call, None where the call failed the gate."""
    facts = []
    for call, (code, out, _) in zip(calls, results):
        try:
            facts.append(gate.check(call, code if isinstance(code, int) else -1, out))
        except gate.GateError as exc:
            if isinstance(code, BaseException):
                errors.append(f"{exc}\n{''.join(traceback.format_exception(code))}")
            else:
                errors.append(str(exc) if isinstance(code, int) else f"{exc} ({code!r})")
            facts.append(None)
    return facts


def reference_pass(cli, workload: str, errors: list) -> int:
    """Warm-up: the reference pass, each call's digest checked against
    reference.json; returns the number of calls."""
    calls = make_pass(workload, REFERENCE_SEED, REFERENCE_PASS)
    _, _, results = run_pass(cli, calls)
    facts = gate_pass(calls, results, errors)
    recorded = json.loads(REFERENCE.read_text())["digests"][workload]
    if len(recorded) != len(calls):
        errors.append(f"reference.json has {len(recorded)} digests for {len(calls)} warm-up calls")
        return len(calls)
    for call, fact, want in zip(calls, facts, recorded):
        if fact is not None and gate.digest(fact) != want:
            errors.append(f"facts differ from the reference: {' '.join(call.argv)}")
    return len(calls)


def measure_setup(workload: str) -> list[float]:
    """Seconds of import plus first calls, in fresh interpreters; the first
    probe only warms the bytecode cache and is dropped."""
    env = {k: v for k, v in os.environ.items() if k != "FAREYLOOPS_THREADS"}
    calls = ["\t".join(argv) for argv in workloads.FIRST_CALLS[workload]]
    samples = []
    for _ in range(SETUP_PROBES + 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), str(SRC), *calls],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise SetupError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples[1:]


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the tail: p98 (nearest rank), which leaves at
    least ten samples beyond it from 500 calls on; with fewer calls, the
    highest percentile that still does (the 11th-largest sample)."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = math.ceil(TAIL_PERCENTILE / 100 * n)
    if n - rank < 10:
        rank = max(n - 10, 1)
    return ordered[rank - 1], 100.0 * rank / n


def timed_run(cli, workload: str, seed: int, seconds: float, errors: list) -> dict:
    setup = measure_setup(workload)
    attempted = reference_pass(cli, workload, errors)
    walls, raw_walls, rates, latencies = [], [], [], []
    begin = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - begin < seconds:
        calls = make_pass(workload, seed, index)
        wall, raw, results = run_pass(cli, calls)
        gate_pass(calls, results, errors)
        attempted += len(calls)
        walls.append(wall)
        raw_walls.append(raw)
        rates.append(sum(c.units for c in calls) / wall)
        latencies.extend(r[2] for r in results)
        index += 1
    tail_s, tail_pct = tail(latencies)
    n_calls = len(latencies)
    return {
        "attempted": attempted,
        "metrics": {
            "setup_s": (statistics.median(setup), f"median of {len(setup)} fresh interpreters"),
            "wall_s": (statistics.median(walls),
                       f"median of {len(walls)} passes; unscaled {statistics.median(raw_walls):.4g} s"),
            "cases_per_s": (statistics.median(rates), f"median of {len(rates)} passes"),
            "call_p50_ms": (1000 * statistics.median(latencies), f"n={n_calls}"),
            "call_tail_ms": (1000 * tail_s, f"p{tail_pct:.2f} of n={n_calls}"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "n=1, whole process"),
        },
    }


def traced_run(cli, seed: int, errors: list) -> dict:
    """Passes 0 and 1 of every workload, each once untraced and once traced;
    each per-layer metric comes from the workload it belongs to."""
    from tracer import Tracer

    attempted = 0
    tracers = {}
    plain = traced = 0.0
    cases = skipped = 0
    OUT_DIR.mkdir(exist_ok=True)
    for workload in WORKLOADS:
        attempted += reference_pass(cli, workload, errors)
        tracer = tracers[workload] = Tracer()
        for index in range(TRACED_PASSES):
            calls = make_pass(workload, seed, index)
            wall, _, results = run_pass(cli, calls)
            gate_pass(calls, results, errors)
            plain += wall
            with tracer:
                wall, _, results = run_pass(cli, calls)
            traced += wall
            for fact in gate_pass(calls, results, errors):
                if fact is not None and fact[0].startswith("verify"):
                    cases += fact[1]
                    skipped += fact[2]
            attempted += 2 * len(calls)
        tracer.write_spans(OUT_DIR / f"{workload}.spans.tsv")
    values = {
        "heights.applicable_frac": ((cases - skipped) / cases, f"{cases} scan cases"),
        "trace.overhead_frac": (traced / plain - 1, f"{TRACED_PASSES} passes per workload"),
    }
    for metric, _, _ in PER_LAYER:
        if metric not in values:
            workload = PER_LAYER_WORKLOAD[metric]
            values[metric] = (layer_value(tracers[workload], metric), f"{TRACED_PASSES} traced passes of {workload}")
    return {"attempted": attempted, "metrics": values, "tracers": tracers}


def layer_value(tracer, metric: str):
    if metric in tracer.work:
        return tracer.work[metric]
    base, _, suffix = metric.rpartition(".")
    if suffix == "count":
        return tracer.counts[base]
    slot = tracer.names.index(base)
    return {"calls": tracer.calls, "s": tracer.total, "self_s": tracer.self_time}[suffix][slot]


# ---------------------------------------------------------------------------
# entry points


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    try:
        cli = load_program()
    except (SetupError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    errors: list[str] = []
    try:
        if trace:
            outcome = traced_run(cli, seed, errors)
            declared = PER_LAYER
        else:
            outcome = timed_run(cli, workload, seed, seconds, errors)
            declared = END_TO_END
    except (SetupError, workloads.InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    prov = provenance()
    failed = len(errors)
    attempted = outcome["attempted"]
    print(f"provenance: {json.dumps(prov)}")
    print(f"workload={'all' if trace else workload} seed={seed} trace={int(trace)} calls={attempted}")
    for name, unit, _ in declared:
        value, samples = outcome["metrics"][name]
        print(f"  {name:42s} {value:14.6g} {unit:6s} {samples}")
    print(f"  {'failed_frac':42s} {failed / attempted:14.6g} {'ratio':6s} {failed} of {attempted} calls")
    for err in errors[:10]:
        print(f"  failed: {err}", file=sys.stderr)
    tables = {}
    for name, tracer in outcome.get("tracers", {}).items():
        tables[name] = {"timed": tracer.table(), "counted": tracer.counts}
        print(f"  {name}: {len(tracer.span_start)} spans; calls, total s, self s per traced function:")
        for fn, calls, total, self_s in tracer.table():
            if calls:
                print(f"    {fn:40s} {calls:9d} {total:10.4f} {self_s:10.4f}")
        for fn, calls in tracer.counts.items():
            print(f"    {fn:40s} {calls:9d}  (counted only)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": outcome["metrics"][name][0], "unit": unit} for name, unit, _ in declared},
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = {"workload": workload, "seed": seed, "trace": int(trace), "provenance": prov, "errors": errors,
              "result": result, "layers": tables}
    (OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload, each in a fresh process; the last line maps workload
    to result."""
    results = {}
    for workload in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(argv, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[workload] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def record_reference() -> int:
    """Rewrite reference.json from the warm-up pass of every workload.  Run
    it only on a commit whose outputs are known good."""
    cli = load_program()
    digests = {}
    for workload in WORKLOADS:
        calls = make_pass(workload, REFERENCE_SEED, REFERENCE_PASS)
        _, _, results = run_pass(cli, calls)
        errors: list[str] = []
        facts = gate_pass(calls, results, errors)
        if errors:
            print("\n".join(errors), file=sys.stderr)
            return 1
        digests[workload] = [gate.digest(f) for f in facts]
    doc = {"seed": REFERENCE_SEED, "pass": REFERENCE_PASS, "commit": _git_commit(), "digests": digests}
    REFERENCE.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.record_reference:
        return record_reference()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all" and not args.trace:
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
