"""Per-layer tracing installed from outside the program.

``Tracer`` wraps the public functions of every fareyloops module once and
binds the wrapper at every module-level name that refers to the function
(``heights.is_infinite_loop``, ``cutting.is_infinite_loop`` and
``loops.is_infinite_loop`` are one function, so one wrapper), so a call is
never missed or counted twice.  Each timed call records a span (name,
start, end, parent, call id) in flat arrays; self time is a span's duration
minus the time its direct child spans cover.  The hot value-type methods
and the per-step helpers are counted only, since a span per call would cost
more than the call.  ``uninstall`` restores every original binding.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

LAYERS = ("cli", "rationals", "surds", "contfrac", "loops", "cutting", "gamma_paths", "heights", "sampling")

# the CLI layer is main and its two value helpers; the handlers it dispatches
# to and the parser it builds are main's own (self) time
CLI_FUNCTIONS = ("main", "parse_value", "expansions_of")

# counted, not timed: (module, class or None, attribute, metric name)
COUNTED = (
    ("rationals", "Rational", "__init__", "rationals.Rational"),
    ("rationals", "Rational", "__hash__", "rationals.Rational.hash"),
    ("surds", "QuadSurd", "__init__", "surds.QuadSurd"),
    ("surds", "QuadSurd", "floor", "surds.floor"),
    ("contfrac", "CFExpansion", "entry", "contfrac.CFExpansion.entry"),
    ("surds", None, "is_square", "surds.is_square"),
    ("loops", None, "successors", "loops.successors"),
)

# work measured off a traced function's result: metric suffix and size
MEASURES = {
    "loops.loop_graph": ("states", len),
    "cutting.crossed_edges": ("edges", len),
    "contfrac.cf_of_surd": ("digits", lambda e: 1 + len(e.body) + len(e.period)),
}


class Tracer:
    """Counters and spans for one traced run; install, run, uninstall."""

    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        self.work: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        # spans, one entry per timed call; the call id is the array index
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._current = -1
        self._child = [0.0]  # time covered by children, per open span
        self._restore: list[tuple[object, str, object]] = []

    def _slot(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
        return self._index[name]

    def _timed(self, name: str, fn, kind_of=None):
        slot = self._slot(name)
        measure = MEASURES.get(name)
        if measure is not None:
            self.work.setdefault(f"{name}.{measure[0]}", 0)
        if kind_of is not None:
            slots = {kind: self._slot(f"{name}.{kind}") for kind in ("finite", "periodic", "surd", "stream")}
        clock = time.perf_counter
        child = self._child
        calls, total, self_time = self.calls, self.total, self.self_time
        s_name, s_parent, s_start, s_end = self.span_name, self.span_parent, self.span_start, self.span_end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = slot if kind_of is None else slots[kind_of(args[0] if args else kwargs["e"])]
            call_id = len(s_start)
            s_name.append(i)
            s_parent.append(self._current)
            s_end.append(0.0)
            self._current = call_id
            child.append(0.0)
            start = clock()
            s_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                s_end[call_id] = end
                duration = end - start
                covered = child.pop()
                child[-1] += duration
                calls[i] += 1
                total[i] += duration
                self_time[i] += duration - covered
                self._current = s_parent[call_id]
            if measure is not None:
                key = f"{name}.{measure[0]}"
                self.work[key] += measure[1](result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        self.counts.setdefault(name, 0)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every public function of every layer and rebind it everywhere."""
        package = importlib.import_module("fareyloops")
        from fareyloops.contfrac import CFExpansion
        from fareyloops.surds import QuadSurd

        def kind_of(e) -> str:
            if isinstance(e, CFExpansion):
                return "periodic" if e.is_periodic else "finite"
            return "surd" if isinstance(e, QuadSurd) else "stream"

        modules = {name: importlib.import_module(f"fareyloops.{name}") for name in LAYERS}
        wrappers: dict[int, object] = {}
        for mod_name, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                if mod_name == "cli" and attr not in CLI_FUNCTIONS:
                    continue
                if any(m == mod_name and c is None and a == attr for m, c, a, _ in COUNTED):
                    continue
                name = f"{mod_name}.{attr}"
                split = kind_of if name == "loops.is_infinite_loop" else None
                wrappers[id(obj)] = self._timed(name, obj, split)
        for mod_name, cls_name, attr, name in COUNTED:
            owner = modules[mod_name] if cls_name is None else getattr(modules[mod_name], cls_name)
            original = vars(owner)[attr]
            if cls_name is None:
                wrappers[id(original)] = self._counted(name, original)
            else:
                self._bind(owner, attr, self._counted(name, original))
        for mod in (package, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._bind(mod, attr, wrapper)

    def _bind(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def table(self) -> list[tuple[str, int, float, float]]:
        """(name, calls, total seconds, self seconds) of every timed function."""
        return [(n, self.calls[i], self.total[i], self.self_time[i]) for i, n in enumerate(self.names)]

    def write_spans(self, path) -> None:
        """Write the spans as tab-separated lines."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("call_id\tparent\tname\tstart\tend\n")
            for i, (n, parent, start, end) in enumerate(
                zip(self.span_name, self.span_parent, self.span_start, self.span_end)
            ):
                fh.write(f"{i}\t{parent}\t{self.names[n]}\t{start:.9f}\t{end:.9f}\n")
