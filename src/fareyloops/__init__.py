"""Exact continued-fraction and Farey-graph machinery for loop decisions mod n.

Every name below is resolved on first use (PEP 562), so ``import fareyloops``
loads no submodule, and a process imports only the layers it reads.  The
package namespace never caches a resolved name: each access returns the
submodule's current binding, so a caller that rebinds a submodule's name
and later restores it (a tracer does) leaves no stale copy here.
"""

import importlib

__version__ = "0.1.0"

# each exported name and the submodule that defines it
_SOURCES = {
    "contfrac": (
        "CFExpansion", "cf_eval", "cf_from_rational", "cf_of_surd", "cf_value", "convergent",
        "convergents", "format_cf", "height", "multiply_cf", "parse_cf", "semiconvergent",
        "shift_cf", "twin_of",
    ),
    "cutting": (
        "CuttingWord", "crossed_edges", "crosses_edge", "eta", "eta_inverse", "fan_chain",
        "loop_verdict_geometric",
    ),
    "gamma_paths": ("MediantRun", "d_algorithm", "nonterminating", "v_algorithm"),
    "heights": (
        "CheckRecord", "ScanReport", "check_count_height", "check_infl", "check_noloop_bound",
        "check_pro2", "height_spectrum", "mp_bounds", "persistence_scan",
    ),
    "loops": (
        "LoopVerdict", "ModState", "is_infinite_loop", "loop_example", "loop_exists",
        "loop_graph", "loop_scaling_check", "sb_walk",
    ),
    "rationals": (
        "INFINITY", "FareyEdge", "Rational", "farey_difference", "farey_mediant",
        "is_dual_neighbor", "is_farey_neighbor", "is_gamma0_neighbor",
    ),
    "surds": ("QuadSurd",),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    # an unknown name must raise AttributeError, so that
    # ``from fareyloops import heights`` falls back to importing the submodule
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list:
    return sorted({*globals(), *__all__})
