#!/usr/bin/env python3
"""Infinite loops mod n: decision, existence, construction.

A positive real is an infinite loop mod n when none of its semi-convergent
denominators (tail progressions included) is divisible by n.  Loops exist for
every n >= 4, as the examples show: they come from a proven family,
[0; 1, n-3, (1, n-4)] for n >= 5, and are validated exactly.  Mod 2 and 3
there is none, which closing a pruned finite graph of denominator pairs
proves: the start is among the states dropped for having no infinite walk.
"""

from fareyloops import (
    Rational,
    cf_from_rational,
    format_cf,
    is_infinite_loop,
    loop_example,
    loop_exists,
    loop_scaling_check,
    sb_walk,
)

print("== the smallest interesting example: 1/2 ==")
half = cf_from_rational(Rational(1, 2))[0]
for n in (2, 3, 4, 5, 8, 12):
    print(f"mod {n:2}: {is_infinite_loop(half, n).record()}")
print("1/2 is a loop mod 4 (and mod 8, 12, ... by divisibility) but mod 5 the")
print("tail denominators 2m+1 reach 5 at m = 2")

print()
print("== where do loops exist? ==")
row = " ".join(f"{n}:{'y' if loop_exists(n) else 'n'}" for n in range(2, 21))
print(row)
print("(no loops mod 2 or 3; loops for every n >= 4)")

print()
print("== constructed examples, exactly validated ==")
for n in (4, 5, 7, 9, 12, 25):
    e = loop_example(n)
    verdict = is_infinite_loop(e, n)
    assert verdict.is_loop
    print(f"mod {n:2}: {format_cf(e):24} -> {verdict.record()}")

print()
print("== a loop mod n stays a loop mod k*n ==")
e = loop_example(4)
for k in (2, 3, 5):
    assert loop_scaling_check(e, 4, k)
    print(f"{format_cf(e)} is a loop mod {4 * k}")

print()
print("== the walk picture ==")
print("denominator residues along the mediant walk toward 3/7, mod 5:")
walk = sb_walk(cf_from_rational(Rational(3, 7))[0], 5, 8)
print("  " + " ".join(f"{letter}:{r}" for letter, r in walk))
print("a residue 0 appears exactly when the value is not a loop")
