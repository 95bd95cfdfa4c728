"""A frozen copy of the fan scan `loops._scan_cycle` ran before it solved fans inline.

`_fan_hit` solves one fan's congruence u + m*v = 0 (mod n) from scratch:
it reduces (u, v), takes a gcd and an inverse, and lifts the root above
`min_m`.  `_scan_cycle` is the state-cycle scan that called it once per fan,
fan 0 included.  The library now solves fan 0 in closed form and later fans
inline; the tests keep this copy as the oracle it is compared against.
"""

from __future__ import annotations

import math
from typing import Optional, Union

from fareyloops.contfrac import CFExpansion
from fareyloops.loops import LoopVerdict


def _fan_hit(u: int, v: int, n: int, bound: Optional[int], min_m: int) -> Optional[int]:
    """Smallest m with min_m <= m (<= bound) and u + m*v divisible by n, else None."""
    u %= n
    v %= n
    g = math.gcd(v, n)
    if u % g:
        return None
    nn = n // g
    m0 = (-(u // g) * pow(v // g, -1, nn)) % nn if nn > 1 else 0
    if m0 < min_m:
        m0 += ((min_m - m0 + nn - 1) // nn) * nn
    if bound is not None and m0 > bound:
        return None
    return m0


def _scan_cycle(steps, n: int, prefix: Union[CFExpansion, list[int]]) -> LoopVerdict:
    """The state-cycle scan over `loops._steps` output, one `_fan_hit` per fan."""
    u, v = 0, 1
    u0 = None
    k = 0
    for a, boundary in steps:
        if boundary:
            if u0 is None:
                u0, v0 = u, v
            elif (u * v0 - v * u0) % n == 0:
                return LoopVerdict.loop()
        m = _fan_hit(u, v, n, a, 1 if k == 0 else 0)
        if m is not None:
            return LoopVerdict._not_loop_at(k, m, prefix)
        if a is None:
            break
        u, v = v, (a * v + u) % n
        k += 1
    return LoopVerdict.loop() if isinstance(prefix, CFExpansion) else LoopVerdict.unknown(k)
