#!/usr/bin/env python3
"""Height spectra under repeated prime scaling, and the inequality scans.

The height B of an expansion is its largest partial quotient after the
leading term.  Scaling by a prime power interacts with B through two exact
inequalities, both checked here on seeded random populations:

  * a value that is not a loop mod n has max{B(a), B(na)} >= floor(2*sqrt(n)) - 1
  * a convergent denominator divisible by n forces a partial quotient of
    size n*a_{k+1} in the scaled expansion
"""

from fareyloops import (
    QuadSurd,
    cf_of_surd,
    format_cf,
    height_spectrum,
    mp_bounds,
    persistence_scan,
)
from fareyloops.heights import (
    run_infl_scan,
    run_noloop_scan,
    run_pro2_scan,
)

golden_conj = cf_of_surd(QuadSurd(-1, 2, 5))
sqrt2 = cf_of_surd(QuadSurd(0, 1, 2))

print("== spectra under doubling ==")
for label, e in [("golden conjugate", golden_conj), ("sqrt(2)", sqrt2)]:
    row = "  ".join(f"B(2^{l}a)={b}" for l, b in height_spectrum(e, 2, 4))
    print(f"{label:18} {format_cf(e):10} {row}")
    print(f"{'':18} upper bound from the spectrum: {mp_bounds(e, 2, 4)[0]}")

print()
print("== every power of 2 is witnessed for the golden conjugate ==")
scan = persistence_scan(golden_conj, 2, 8, 10)
print("smallest scaling level at which the value stops looping mod 2^m:")
print("  " + "  ".join(f"m={m}: l={l}" for m, l in scan))
print("(level 0 everywhere: the Fibonacci denominators already hit every 2^m)")

print()
print("== batch scans, exact arithmetic, seeded ==")
print(run_noloop_scan(range(4, 16), 300, seed=7).summary())
print(run_infl_scan([(2, 2), (2, 3), (3, 2), (5, 1)], 300, seed=7).summary())
print(run_pro2_scan(range(2, 8), 200, seed=7).summary())
print("zero violations expected in every line above")
