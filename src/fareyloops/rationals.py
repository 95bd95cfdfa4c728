"""Exact rationals with a point at infinity, plus the Farey-structure predicates.

``Rational`` is the library's one rational type; no module imports ``fractions``.
Values are reduced fractions num/den with den >= 0, hashed on that pair (an
integer on its int).  The single point at infinity is stored canonically as 1/0
and compares greater than every finite rational.  Everything here is immutable and pure.
"""

from __future__ import annotations

import math
import operator


class Immutable:
    """Base of the slotted value types and records.

    A subclass names its fields in ``__slots__`` and writes each once, in
    ``__init__``, through the slot descriptor's own ``__set__`` (``_setters``),
    which skips the raising ``__setattr__`` and costs less than
    ``object.__setattr__``.  Equality (same class only), hash and repr run
    over the field tuple, as a frozen dataclass's do; pickle and copy rebuild
    a value by passing its field tuple to ``__init__``.  A one-field type's
    tuple holds that one field.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        get = operator.attrgetter(*cls.__slots__)
        cls._astuple = staticmethod(get if len(cls.__slots__) > 1 else lambda x: (get(x),))

    @classmethod
    def _setters(cls) -> tuple:
        return tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    @classmethod
    def _builder(cls):
        """A function of the fields, in slot order, that builds an instance without
        ``__init__``'s checks.  Generated from the slot names, so a build is one
        ``object.__new__`` and one setter call per field, as a hand-written one is."""
        names = cls.__slots__
        namespace = {"new": object.__new__, "cls": cls}
        namespace.update((f"set_{name}", setter) for name, setter in zip(names, cls._setters()))
        body = "".join(f"    set_{name}(obj, {name})\n" for name in names)
        exec(f"def build({', '.join(names)}):\n    obj = new(cls)\n{body}    return obj\n", namespace)
        return namespace["build"]

    def __setattr__(self, *name_value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple(self) == other._astuple(other)

    def __hash__(self):
        return hash(self._astuple(self))

    def __reduce__(self):
        return type(self), self._astuple(self)

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._astuple(self)))
        return f"{type(self).__qualname__}({fields})"


class Rational(Immutable):
    """Reduced fraction; ``Rational(1, 0)`` is the point at infinity."""

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int = 1):
        if den == 0:
            if num == 0:
                raise ZeroDivisionError("0/0 is not a rational value")
            num = 1  # canonical infinity, -1/0 folds onto 1/0
        else:
            if den < 0:
                num, den = -num, -den
            g = math.gcd(num, den)
            if g > 1:
                num //= g
                den //= g
        _set_num(self, num)
        _set_den(self, den)

    @property
    def is_infinite(self) -> bool:
        return self.den == 0

    def shifted(self, k: int) -> "Rational":
        """self + k; infinity is fixed by shifting."""
        return Rational(self.num + k * self.den, self.den)

    def scaled(self, n: int) -> "Rational":
        """n * self, reduced; infinity is fixed by scaling."""
        if self.den == 0:
            return self
        return Rational(n * self.num, self.den)

    def __eq__(self, other):
        if other.__class__ is not Rational:
            if not isinstance(other, int):
                return NotImplemented
            other = Rational(other)
        return self.num == other.num and self.den == other.den

    def __lt__(self, other):
        if other.__class__ is not Rational:
            if not isinstance(other, int):
                return NotImplemented
            other = Rational(other)
        if self.den == 0:
            return False
        if other.den == 0:
            return True
        return self.num * other.den < other.num * self.den

    def __le__(self, other):
        return self == other or self < other

    def __gt__(self, other):
        if isinstance(other, (int, Rational)):
            return not self <= other
        return NotImplemented

    def __ge__(self, other):
        if isinstance(other, (int, Rational)):
            return not self < other
        return NotImplemented

    def __neg__(self) -> "Rational":
        if self.den == 0:
            return self
        return Rational(-self.num, self.den)

    def __hash__(self):
        # equal values share one reduced pair; an integer hashes as the int, which __eq__ accepts
        return hash(self.num) if self.den == 1 else hash((self.num, self.den))

    def __repr__(self):
        return f"Rational({self.num}, {self.den})"

    def __str__(self):
        return f"{self.num}/{self.den}"


_set_num, _set_den = Rational._setters()

INFINITY = Rational(1, 0)
ZERO = Rational(0, 1)

# num/den already in lowest terms with den >= 0, oo as 1/0
_reduced = Rational._builder()


class FareyEdge(Immutable):
    """Unordered pair of distinct boundary points, stored with a < b."""

    __slots__ = ("a", "b")

    def __init__(self, a: Rational, b: Rational):
        if a == b:
            raise ValueError("edge endpoints must differ")
        if b < a:
            a, b = b, a
        _set_a(self, a)
        _set_b(self, b)

    @property
    def is_base(self) -> bool:
        """True for the edge I between 0 and infinity."""
        return self.a == ZERO and self.b == INFINITY

    def endpoints(self) -> tuple[Rational, Rational]:
        return (self.a, self.b)

    def __str__(self):
        return f"{self.a} -- {self.b}"


_set_a, _set_b = FareyEdge._setters()

# the edge of distinct endpoints a < b
_edge = FareyEdge._builder()


def farey_mediant(a: Rational, b: Rational) -> Rational:
    """Mediant (p+r)/(q+s) of two distinct points, reduced.

    The one mediant constructor.  For Farey neighbours the result is already
    in lowest terms and is a neighbour of both inputs.  Only infinity has
    den 0, so for distinct points q+s > 0: the gcd is the only reduction.
    """
    if a.num == b.num and a.den == b.den:
        raise ValueError("mediant of a point with itself is undefined")
    num, den = a.num + b.num, a.den + b.den
    g = math.gcd(num, den)
    return _reduced(num // g, den // g)


def farey_difference(a: Rational, b: Rational) -> Rational:
    """Componentwise difference (p-r)/(q-s), reduced with canonical sign."""
    if a == b:
        raise ValueError("difference of a point with itself is degenerate")
    return Rational(a.num - b.num, a.den - b.den)


def is_farey_neighbor(a: Rational, b: Rational) -> bool:
    """True iff |p*s - q*r| = 1, i.e. the points share a tessellation edge."""
    return abs(a.num * b.den - b.num * a.den) == 1


def is_gamma0_neighbor(a: Rational, b: Rational, n: int) -> bool:
    """True iff {a, b} is an edge in the level-n congruence orbit of the base edge.

    Equivalent characterisation: the pair is a Farey edge and exactly one
    denominator is divisible by n.  (Both cannot be: consecutive denominators
    of a Farey edge are coprime.)  For n = 1 this degenerates to the plain
    Farey-neighbour predicate.
    """
    if n < 1:
        raise ValueError("modulus must be >= 1")
    if n > 1 and (a.den % n == 0) == (b.den % n == 0):
        return False
    return is_farey_neighbor(a, b)


def is_dual_neighbor(a: Rational, b: Rational, n: int) -> bool:
    """True iff {a, b} is an edge of both the Farey tessellation and its 1/n scaling.

    Decided by the scaling characterisation: the pair must be a Farey edge and
    n*a, n*b (reduced) must again be a Farey edge.
    """
    if n < 1:
        raise ValueError("modulus must be >= 1")
    if not is_farey_neighbor(a, b):
        return False
    return is_farey_neighbor(a.scaled(n), b.scaled(n))
