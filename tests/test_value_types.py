"""The slotted value types and records: immutable, compared and hashed over
their field tuple (same class only), and printed as they always were."""

import ast
import copy
import inspect
import operator
import pickle
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

import fareyloops
from fareyloops import contfrac, rationals, surds
from fareyloops.cli import Config
from fareyloops.contfrac import CFExpansion, cf_of_surd, semiconvergent
from fareyloops.gamma_paths import MediantRun, v_algorithm
from fareyloops.heights import CheckRecord, ScanReport
from fareyloops.cutting import CuttingWord, loop_verdict_geometric
from fareyloops.loops import LOOP, NOTLOOP, LoopVerdict, is_infinite_loop, loop_example
from fareyloops.sampling import random_periodic_cf
from fareyloops.rationals import INFINITY, ZERO, FareyEdge, Rational
from fareyloops.surds import QuadSurd


def _fields(x) -> tuple:
    return tuple(getattr(x, name) for name in type(x).__slots__)


def _verdict_key(v: LoopVerdict) -> tuple:
    return (*v._fields(), v.witness)


def _run_key(run: MediantRun) -> tuple:
    return _fields(run)[:3]  # nonterminating is left out


_HALF_ROUNDS = ((ZERO, Rational(1)), (ZERO, Rational(1, 2), Rational(1)))


# (value, an equal value built another way, an unequal value of the same
# type, equality key, hash key, and the repr the value has always had)
CASES = [
    pytest.param(
        CFExpansion(0, [1, 2, 3, 3], [3]),
        CFExpansion(0, (1, 2), (3, 3)),
        CFExpansion(0, (1, 2), (4,)),
        _fields,
        _fields,
        "CFExpansion(a0=0, body=(1, 2), period=(3,), inf_tail=False)",
        id="CFExpansion-periodic",
    ),
    pytest.param(
        CFExpansion(2, (5, 1), None, True),
        CFExpansion(a0=2, body=[5, 1], inf_tail=True),
        CFExpansion(2, (5, 1)),
        _fields,
        _fields,
        "CFExpansion(a0=2, body=(5, 1), period=None, inf_tail=True)",
        id="CFExpansion-finite",
    ),
    pytest.param(
        QuadSurd(1, 2, 5),
        QuadSurd(2, 4, 20),
        QuadSurd(1, 3, 5),
        QuadSurd._key,
        QuadSurd._key,
        "QuadSurd(1, 2, 5)",
        id="QuadSurd",
    ),
    pytest.param(
        LoopVerdict.not_loop(1, 2, CFExpansion(0, (2, 3))),
        LoopVerdict.not_loop(1, 2, Rational(2, 5)),
        LoopVerdict.not_loop(1, 2, Rational(3, 7)),
        _verdict_key,
        LoopVerdict._fields,
        "LoopVerdict(kind='NOTLOOP', witness_k=1, witness_m=2, witness=Rational(2, 5))",
        id="LoopVerdict",
    ),
    pytest.param(  # a surd source: the witness reads its digits a_0..a_{k+1} again
        LoopVerdict.not_loop(2, 1, QuadSurd(0, 1, 2)),
        LoopVerdict(NOTLOOP, witness_k=2, witness_m=1, witness=semiconvergent(CFExpansion(1, (), (2,)), 2, 1)),
        LoopVerdict.not_loop(2, 2, QuadSurd(0, 1, 2)),
        _verdict_key,
        LoopVerdict._fields,
        "LoopVerdict(kind='NOTLOOP', witness_k=2, witness_m=1, witness=Rational(10, 7))",
        id="LoopVerdict-digits",
    ),
    pytest.param(
        LoopVerdict.loop(),
        LoopVerdict(LOOP),
        LoopVerdict.not_loop(0, 2, Rational(1, 2)),
        _verdict_key,
        LoopVerdict._fields,
        "LoopVerdict(kind='LOOP', witness_k=None, witness_m=None, witness=None)",
        id="LoopVerdict-LOOP",
    ),
    pytest.param(
        CheckRecord("noloop", (("n", 5), ("e", "[0; 2, (1)]")), True, False, "q=5"),
        CheckRecord(
            check="noloop", params=(("n", 5), ("e", "[0; 2, (1)]")), applicable=True, passed=False, witness="q=5"
        ),
        CheckRecord("noloop", (("n", 5), ("e", "[0; 2, (1)]")), True, False),
        _fields,
        _fields,
        "CheckRecord(check='noloop', params=(('n', 5), ('e', '[0; 2, (1)]')), "
        "applicable=True, passed=False, witness='q=5')",
        id="CheckRecord",
    ),
    pytest.param(
        FareyEdge(INFINITY, ZERO),
        FareyEdge(ZERO, INFINITY),
        FareyEdge(ZERO, Rational(1)),
        _fields,
        _fields,
        "FareyEdge(a=Rational(0, 1), b=Rational(1, 0))",
        id="FareyEdge",
    ),
    # the records below were frozen dataclasses; each text is the repr they printed
    pytest.param(
        Config(seed=3, depth=4, q_max=9, count=2, mode="record"),
        Config(3, 4, 9, 2, "record"),
        Config(),
        _fields,
        _fields,
        "Config(seed=3, depth=4, q_max=9, count=2, mode='record')",
        id="Config",
    ),
    pytest.param(
        CuttingWord((("L", 2), ("R", 1))),
        CuttingWord([["L", "2"], ("R", True)]),
        CuttingWord((("R", 2),)),
        _fields,
        _fields,
        "CuttingWord(runs=(('L', 2), ('R', 1)))",
        id="CuttingWord",
    ),
    pytest.param(
        v_algorithm(2, 1),
        MediantRun(True, 1, _HALF_ROUNDS, nonterminating=True),
        MediantRun(False, 1, _HALF_ROUNDS),
        _run_key,
        _run_key,
        "MediantRun(terminated=True, rounds_run=1, rounds=((Rational(0, 1), Rational(1, 1)), "
        "(Rational(0, 1), Rational(1, 2), Rational(1, 1))), nonterminating=False)",
        id="MediantRun",
    ),
]


@pytest.mark.parametrize("value, twin, other, eq_key, hash_key, text", CASES)
class TestValueTypeContract:
    def test_fields_cannot_be_assigned_or_deleted(self, value, twin, other, eq_key, hash_key, text):
        for name in (*type(value).__slots__, "extra"):
            with pytest.raises(AttributeError, match="is immutable"):
                setattr(value, name, None)
        with pytest.raises(AttributeError, match="is immutable"):
            delattr(value, type(value).__slots__[0])
        assert value == twin and eq_key(value) == eq_key(twin)

    def test_equality_and_hash_follow_the_field_tuple(self, value, twin, other, eq_key, hash_key, text):
        for x in (value, twin, other):
            assert hash(x) == hash(hash_key(x))
            for y in (value, twin, other):
                assert (x == y) == (eq_key(x) == eq_key(y))
                assert (x != y) == (eq_key(x) != eq_key(y))
        assert value != other
        assert len({value, twin, other}) == 2
        assert {value: 1}[twin] == 1

    def test_other_types_are_never_equal(self, value, twin, other, eq_key, hash_key, text):
        for foreign in (eq_key(value), hash_key(value), _fields(value), object(), None, str(value)):
            assert not value == foreign
            assert value != foreign

    def test_repr_is_unchanged(self, value, twin, other, eq_key, hash_key, text):
        assert repr(value) == text

    def test_pickle_and_copy_rebuild_the_value(self, value, twin, other, eq_key, hash_key, text):
        for rebuild in (lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy):
            x = rebuild(value)
            assert type(x) is type(value) and x == value and repr(x) == text


def test_loop_is_one_shared_verdict():
    # a LOOP verdict has no fields, so both routes hand out the same instance
    assert LoopVerdict.loop() is LoopVerdict.loop() and LoopVerdict.loop().record() == "LOOP"
    tail = CFExpansion(0, (2,), None, True)
    assert is_infinite_loop(tail, 4) is LoopVerdict.loop() is loop_verdict_geometric(tail, 4)
    periodic = loop_example(7)
    assert is_infinite_loop(periodic, 7) is LoopVerdict.loop() is loop_verdict_geometric(periodic, 7)


@pytest.mark.parametrize(
    "args, message",
    [
        ((-1,), "leading term must be nonnegative"),
        ((-1, (0,), ()), "leading term must be nonnegative"),
        ((0, (1, 0)), "partial quotients after a0 must be >= 1"),
        ((0, (0,), ()), "partial quotients after a0 must be >= 1"),
        ((0, (), (1,), True), "a periodic expansion cannot carry an oo-tail"),
        ((0, (), (), True), "a periodic expansion cannot carry an oo-tail"),
        ((0, (), ()), "period must be nonempty"),
        ((0, (2,), (2, 0)), "period entries must be >= 1"),
        ((0, (2,), (-1,)), "period entries must be >= 1"),
    ],
)
def test_cfexpansion_errors_are_unchanged(args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        CFExpansion(*args)



def test_notloop_holds_the_value_read_until_the_first_witness():
    # one slot: a decision's NOTLOOP keeps the value it read, and the first
    # .witness replaces it with the Rational read off it
    rng = random.Random(23)
    inputs = [(random_periodic_cf(rng), n) for n in range(2, 40)] + [(QuadSurd(0, 1, d), 7) for d in (2, 3, 5, 6, 7)]
    notloops = [(e, v) for e, n in inputs for route in (is_infinite_loop, loop_verdict_geometric)
                for v in (route(e, n),) if v.kind == NOTLOOP]
    assert len(notloops) > 40
    for e, v in notloops:
        k, m = v.witness_k, v.witness_m
        assert _fields(v)[:3] == (NOTLOOP, k, m) and v._witness is e  # the value read, not its digits
        expansion = e if isinstance(e, CFExpansion) else cf_of_surd(e)
        built = LoopVerdict(NOTLOOP, witness_k=k, witness_m=m, witness=semiconvergent(expansion, k, m))
        assert v.witness == built.witness and _fields(v) == _fields(built)
        assert type(v._witness) is Rational and v._witness is v.witness
        assert v == built and repr(v) == repr(built)


# Each binding of Immutable._builder() with values its validating constructor built
BUILDERS = [
    pytest.param(rationals._reduced, [Rational(3, 8), Rational(-2), ZERO, INFINITY], id="rationals._reduced"),
    pytest.param(rationals._edge, [FareyEdge(ZERO, INFINITY), FareyEdge(Rational(1, 2), Rational(1, 3))],
                 id="rationals._edge"),
    pytest.param(surds._derived, [QuadSurd(1, 2, 5), QuadSurd(-3, 7, 2), QuadSurd(4, -6, 12)], id="surds._derived"),
    pytest.param(contfrac._canonical, [CFExpansion(0, (1, 2), (3,)), CFExpansion(2, (5, 1), None, True),
                                       CFExpansion(3, (), None, False), cf_of_surd(QuadSurd(1, 3, 7))],
                 id="contfrac._canonical"),
]


@pytest.mark.parametrize("build, values", BUILDERS)
def test_each_builder_builds_what_the_validating_constructor_builds(build, values):
    for value in values:
        cls, fields = type(value), value._astuple(value)
        assert list(inspect.signature(build).parameters) == list(cls.__slots__)
        built = build(*fields)
        assert type(built) is cls and _fields(built) == fields
        assert built == value and hash(built) == hash(value) and repr(built) == repr(value)


# The one place that skips a type's checks through object.__new__: each
# binding of Immutable._builder() is in BUILDERS above, and a new site must
# come with a differential test against the validating constructor.
UNCHECKED_BUILDERS = ("rationals.Immutable._builder",)


def _object_new_sites(node: ast.AST, scope: str) -> list[str]:
    """The scope (module.class.function) of every ``object.__new__`` under node."""
    sites = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            sites += _object_new_sites(child, f"{scope}.{child.name}")
            continue
        if (isinstance(child, ast.Attribute) and child.attr == "__new__"
                and isinstance(child.value, ast.Name) and child.value.id == "object"):
            sites.append(scope)
        sites += _object_new_sites(child, scope)
    return sites


def test_object_new_is_called_only_in_the_known_unchecked_builders():
    package = Path(fareyloops.__file__).parent
    sites = []
    for path in sorted(package.rglob("*.py")):
        sites += _object_new_sites(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert sorted(sites) == list(UNCHECKED_BUILDERS)


def test_mediant_run_equality_and_hash_ignore_nonterminating():
    run = v_algorithm(5, 2)
    assert (run.terminated, run.nonterminating) == (False, True)
    flipped = MediantRun(run.terminated, run.rounds_run, run.rounds)
    assert run == flipped and hash(run) == hash(flipped) and len({run, flipped}) == 1
    assert repr(run) == repr(flipped).replace("nonterminating=False", "nonterminating=True")
    assert run != MediantRun(run.terminated, run.rounds_run - 1, run.rounds, True)
    for rebuild in (lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy):
        assert rebuild(run).nonterminating is True and rebuild(flipped).nonterminating is False


def test_records_keep_their_checks():
    assert CuttingWord([("R", 2.0)]).runs == (("R", 2),)
    for runs, message in (((), "empty cutting word"), ((("X", 1),), "bad letter 'X'"),
                          ((("R", 0),), "run counts must be >= 1"), ((("L", 1), ("L", 2)), "runs must alternate strictly")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            CuttingWord(runs)
    assert Config() == Config(0, None, 150, 100, "human")
    for kwargs, message in (({"q_max": 0}, "limits must be positive: q_max=0 count=100"),
                            ({"count": -1}, "limits must be positive: q_max=150 count=-1"),
                            ({"depth": 0}, "depth must be positive, got 0"),
                            ({"mode": "loud"}, "mode must be human or record")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Config(**kwargs)


def test_scan_report_keeps_its_constructor_defaults_and_counters():
    report = ScanReport("noloop", {"n": "4..5"})
    assert (report.check, report.params, report.total, report.violations, report.skipped) == (
        "noloop", {"n": "4..5"}, 0, 0, 0)
    assert report.first_violation is None and report.elapsed == 0.0 and report.records == []
    assert ScanReport("x", {}).records is not ScanReport("x", {}).records  # a fresh list each
    good, skipped = CheckRecord("noloop", (), True, True), CheckRecord("noloop", (), False, True)
    bad, worse = CheckRecord("noloop", (), True, False, "q=5"), CheckRecord("noloop", (), True, False, "q=7")
    for record, keep in ((good, True), (skipped, False), (bad, True), (worse, False)):
        report.add(record, keep)
    assert (report.total, report.violations, report.skipped, report.passed) == (4, 2, 1, False)
    assert report.first_violation is bad and report.records == [good, bad]
    assert report.summary() == "check=noloop n=4..5 cases=4 skipped=1 violations=2 pass=0 elapsed=0.00s"


class _Reflecting:
    """A foreign type that answers the reflected comparisons itself."""

    def __eq__(self, other):
        return "reflected-eq"

    def __lt__(self, other):
        return "reflected-lt"

    def __gt__(self, other):
        return "reflected-gt"


_RATIONALS = (ZERO, Rational(1, 2), Rational(1), Rational(3), Rational(-2), INFINITY)


@pytest.mark.parametrize("a", _RATIONALS, ids=str)
@pytest.mark.parametrize("b", (0, 1, 3, -2, 7, True, False), ids=repr)
def test_rational_compares_with_int_and_bool_as_the_integer(a, b):
    # an int or bool b is read as b/1; infinity is above every integer
    finite = a.den != 0
    assert (a == b) is (finite and a.num == b and a.den == 1) is (b == a)
    assert (a != b) is not (a == b)
    assert (a < b) is (finite and a.num < b * a.den) is (b > a)
    assert (a > b) is (not finite or a.num > b * a.den) is (b < a)
    assert (a <= b) is (a == b or a < b) and (a >= b) is (a == b or a > b)
    assert a == Rational(b) if a == b else a != Rational(b)


@pytest.mark.parametrize("a", _RATIONALS, ids=str)
@pytest.mark.parametrize("b", (Fraction(1, 2), Fraction(3), None, object(), 0.5, "1/2"),
                         ids=("Fraction-1/2", "Fraction-3", "None", "object", "float-0.5", "str-1/2"))
def test_rational_against_other_types_falls_through(a, b):
    # NotImplemented from both sides: == falls back to identity, < raises
    assert a.__eq__(b) is NotImplemented and a.__lt__(b) is NotImplemented
    assert a.__gt__(b) is NotImplemented and a.__ge__(b) is NotImplemented
    assert (a == b) is False and (b == a) is False and (a != b) is True
    for compare in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(TypeError):
            compare(a, b)
        with pytest.raises(TypeError):
            compare(b, a)


@pytest.mark.parametrize("a", _RATIONALS, ids=str)
def test_rational_hands_foreign_comparisons_to_the_other_side(a):
    b = _Reflecting()
    assert (a == b) == "reflected-eq" and (a != b) is False
    assert (a < b) == "reflected-gt" and (a > b) == "reflected-lt"
    assert (a <= b) == "reflected-eq"  # __le__ is "== or <", and the reflected == is truthy


def test_rational_compares_with_rational_by_value():
    ordered = [Rational(-2), ZERO, Rational(1, 3), Rational(1, 2), Rational(1), Rational(3), INFINITY]
    for i, a in enumerate(ordered):
        for j, b in enumerate(ordered):
            assert (a == b) is (i == j) and (a < b) is (i < j) and (a > b) is (i > j)
            assert (a <= b) is (i <= j) and (a >= b) is (i >= j)
    assert Rational(2, 4) == Rational(1, 2) and Rational(1, 0) == INFINITY == Rational(-5, 0)
    assert not INFINITY < INFINITY and INFINITY <= INFINITY
