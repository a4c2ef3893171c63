"""What the immutable records of lctforge promise: equality only within
one kind of record, construction by position or keyword with no defaults,
validation and coercion in the constructor, and no assignment to
fields."""

from fractions import Fraction as F
import importlib
import inspect
import pkgutil

import pytest

import lctforge
from lctforge.certs import BinOp, Neg, StepResult, Var, parse_cert
from lctforge.lattice import apply_involution, min_orbit_size
from lctforge.linprog import Infeasible, LinearProgram, Optimal, Unbounded
from lctforge.localineq import ThmIParams
from lctforge.resolution import (an_chain, resolution_pairing,
                                 tower_coefficients)
from lctforge.surfaces import (CoordCut, QuasiLine, SurfaceLedger,
                               WeightedSurface, parse_ledger)
from oracles import is_fano, num


def test_records_equal_only_records_of_their_own_kind():
    assert QuasiLine(0, 1) != CoordCut(0, 1)
    assert not QuasiLine(0, 1) == CoordCut(0, 1)
    assert Optimal(F(1), (F(0),)) != (F(1), (F(0),))
    assert (F(1), (F(0),)) != Optimal(F(1), (F(0),))
    assert BinOp("+", Var("a"), num(1)) == BinOp("+", Var("a"), num(1))
    assert hash(Var("a")) == hash(Var("a")) and Var("a") != Var("b")
    assert {QuasiLine(0, 1): 1, CoordCut(0, 1): 2}[CoordCut(0, 1)] == 2


def test_parsed_nodes_are_plain_values():
    cert = parse_cert('cert "c"\nlet x = -(a + 1) * b\n')
    assert cert.steps[0].expr == BinOp(
        "*", Neg(BinOp("+", Var("a"), num(1))), Var("b"))
    assert repr(Var("a")) == "Var(name='a')"
    assert repr(BinOp("+", Var("a"), num(1))) == (
        "BinOp(op='+', left=Var(name='a'), right=Num(value=Fraction(1, 1)))")


def test_keyword_construction_and_defaults():
    step = StepResult(index=1, status="PASS", description="let a",
                      value=None)
    assert step == StepResult(1, "PASS", "let a", None)
    with pytest.raises(TypeError, match="missing 1 required"):
        StepResult(index=1, status="PASS", description="let a")  # no defaults
    assert BinOp(op="*", left=num(2), right=num(3)) == BinOp("*", num(2),
                                                             num(3))
    p = ThmIParams(A=1, B=2, M=3, N=4, alpha=F(1, 2), beta=0)
    assert p == ThmIParams(1, 2, 3, 4, F(1, 2), 0)


@pytest.mark.parametrize("build, message", [
    (lambda: ThmIParams(1, 1, 1, 1, 1, F(-1, 2)),
     "beta must be nonnegative, got -1/2"),
    (lambda: ThmIParams(1, -2, 1, 1, 1, -1), "B must be nonnegative, got -2"),
    (lambda: tower_coefficients(0, 0, (1, -1), 1),
     "multiplicities must be nonnegative"),
    (lambda: resolution_pairing(1, "1/2", (), 1, (), 1),
     "k, ksq and e must be rationals"),
    (lambda: resolution_pairing(1, 1, [0, 0.5], 1, [0, 0], 2),
     "k, ksq and e must be rationals"),
    (lambda: ThmIParams(1, "1/2", 0, 2, 1, 0), "parameters must be rationals"),
    (lambda: tower_coefficients(0, 0, ["1/2", 1], 2),
     "a1, a2 and m must be rationals"),
    (lambda: apply_involution("1/2", 0), "h and e must be rationals"),
    (lambda: QuasiLine(1, 1), "quasiline needs two distinct coordinates"),
    (lambda: QuasiLine(0, 4), "coordinate index out of range"),
    (lambda: CoordCut(4, 1), "coordinate index out of range"),
    (lambda: CoordCut(2, 0), "residual degree must be positive"),
])
def test_constructors_refuse_bad_fields(build, message):
    """Each constructor, and each function that takes its numbers
    without a record, refuses a bad field with its message."""
    with pytest.raises(ValueError, match=message):
        build()


def test_constructors_coerce_to_fractions():
    p = ThmIParams(1, F(1, 2), 0, 2, 1, 0)
    values = [p.A, p.B, p.M, p.N, p.alpha, p.beta]
    assert all(type(v) is F for v in values)
    assert p.B == F(1, 2)
    assert QuasiLine(0, 3).j == 3 and CoordCut(0, 5).e == 5


@pytest.mark.parametrize("record, field", [
    (Optimal(F(1), (F(0),)), "value"),
    (Optimal(F(1), (F(0),)), "witness"),
    (StepResult(1, "PASS", "let a", F(1)), "status"),
    (StepResult(1, "PASS", "let a", F(1)), "value"),
])
def test_fields_cannot_be_assigned(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, None)


def test_results_without_an_optimum_are_true_and_equal_by_class():
    assert bool(Infeasible()) and bool(Unbounded())
    assert Infeasible() == Infeasible() and Unbounded() == Unbounded()
    assert hash(Infeasible()) == hash(Infeasible())
    assert Infeasible() != Unbounded()
    assert repr(Infeasible()) == "Infeasible()"


LEDGER = """\
surface weights=1,1,2,3 degree=6
curve L = line(x,y)
curve M = line(z,t)
pair L.M = 0
self L = -1/12
"""


def value_records():
    """The orbit datum, and one each of the value classes that used to
    write their own dunders."""
    return [min_orbit_size("A5", "P2"), WeightedSurface((1, 1, 2, 3), 6),
            LinearProgram(1, [1], [([1], "<=", 1)]), parse_ledger(LEDGER)]


def test_value_records_equal_only_their_own_kind():
    records = value_records()
    for a, b in zip(records, value_records()):
        assert a == b and a != tuple(a) and tuple(a) != a
    for i, a in enumerate(records):
        assert all(a != b for b in records[i + 1:])
    assert isinstance(records[3], SurfaceLedger)
    assert WeightedSurface((1, 1, 2, 3), 6) != Optimal((1, 1, 2, 3), 6)
    for a, b in zip(records[:3], value_records()):
        assert hash(a) == hash(b)


def test_value_records_coerce_their_fields():
    s = WeightedSurface([F(1), 1, 2, 3], F(6))
    assert s == WeightedSurface((1, 1, 2, 3), 6)
    assert all(type(v) is int for v in (*s.weights, s.degree))
    assert (s.amplitude, is_fano(s)) == (1, True)
    # an integer is never parsed from text
    with pytest.raises(ValueError, match="weights must be integers"):
        WeightedSurface([F(1), 1, "2", 3], "6")
    # nor is a rational
    with pytest.raises(ValueError, match="objective must be rationals"):
        LinearProgram(2, [1, "1/2"], [[[1, 0], "<=", "3/4"]])
    lp = LinearProgram(2, [1, F(1, 2)], [[[1, 0], "<=", F(3, 4)]])
    assert lp.objective == (F(1), F(1, 2))
    assert lp.constraints == (((F(1), F(0)), "<=", F(3, 4)),)
    assert all(type(v) is F for v in (*lp.objective, *lp.constraints[0][0],
                                      lp.constraints[0][2]))
    led = parse_ledger(LEDGER)
    assert led.pairings == {("L", "M"): F(0), ("L", "L"): F(-1, 12)}
    assert led.pairing("M", "L") == 0 and led.singular_points == {}
    assert type(led.pairing("L", "L")) is F


@pytest.mark.parametrize("build, message", [
    (lambda: WeightedSurface((1, 1, 2), 4), "need 4 weights, got 3"),
    (lambda: WeightedSurface((1, 1, 2, 3), 0),
     "weights and degree must be positive"),
    (lambda: an_chain(0), "chain length must be at least 1"),
    (lambda: LinearProgram(-1, [], []), "n_vars must be nonnegative"),
    (lambda: LinearProgram(2, [1], []),
     "objective has 1 coefficients, expected 2"),
    (lambda: LinearProgram(1, [1], [([1, 0], "<=", 1)]),
     "constraint 0 has 2 coefficients, expected 1"),
    (lambda: LinearProgram(1, [1], [([1], "!=", 1)]),
     "constraint 0: unknown relation '!='"),
], ids=["surface-weights", "surface-degree", "chain", "lp-n",
        "lp-objective", "lp-row", "lp-relation"])
def test_value_records_refuse_bad_fields(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("build, error, message", [
    (lambda: LinearProgram(1, [1], [([1], "<=", 1)])._replace(
        objective=(1, 2)), ValueError,
     "objective has 2 coefficients, expected 1"),
    (lambda: WeightedSurface((1, 1, 2, 3), 6)._replace(weights=(0, -1)),
     ValueError, "need 4 weights, got 2"),
    (lambda: WeightedSurface._make(((0, 1, 2, 3), 6)), ValueError,
     "weights and degree must be positive"),
    # a field with a default is still required, as namedtuple's _make has it
    (lambda: StepResult._make((1, "PASS", "let a")), TypeError,
     "Expected 4 arguments, got 3"),
], ids=["lp-replace", "surface-replace", "surface-make", "plain-make-short"])
def test_make_and_replace_go_through_the_constructor(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_replace_on_a_plain_record():
    step = StepResult(1, "PASS", "let a", F(1))
    assert step._replace(status="FAIL") == StepResult(1, "FAIL", "let a",
                                                      F(1))
    assert WeightedSurface((1, 1, 2, 3), 6)._replace(degree=5) == (
        WeightedSurface((1, 1, 2, 3), 5))


def test_value_record_fields_cannot_be_assigned():
    for record in value_records():
        for field in (*record._fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(record, field, None)


ALLOWED = {"sparsepoly.SparsePoly", "syntax.Cursor", "syntax.Grammar",
           "linprog._NoOptimum", "linprog.Infeasible", "linprog.Unbounded"}


def test_every_class_is_a_record_an_exception_or_allowed():
    names = ["lctforge"] + [
        f"lctforge.{m.name}" for m in pkgutil.iter_modules(lctforge.__path__)]
    seen = []
    for name in names:
        module = importlib.import_module(name)
        for cls in vars(module).values():
            if not inspect.isclass(cls) or cls.__module__ != name:
                continue
            where = f"{name.removeprefix('lctforge.')}.{cls.__name__}"
            seen.append(where)
            if where in ALLOWED or issubclass(cls, Exception):
                continue
            assert cls.__eq__ is Optimal.__eq__, where
            assert vars(cls).get("__slots__") == (), where
    assert {"localineq.ThmIParams", "surfaces.SurfaceLedger"} <= set(seen)
