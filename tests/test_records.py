"""What the immutable records of lctforge promise: equality only within
one kind of record, construction by position or keyword with defaults,
validation and coercion in the constructor, and no assignment to
fields."""

from fractions import Fraction as F

import pytest

from lctforge.certs import BinOp, Neg, Num, StepResult, Str, Var, parse_cert
from lctforge.linprog import Infeasible, Optimal, Unbounded
from lctforge.localineq import ThmIParams
from lctforge.resolution import ResClass, TowerInput
from lctforge.surfaces import CoordCut, QuasiLine


def test_records_equal_only_records_of_their_own_kind():
    assert QuasiLine(0, 1) != CoordCut(0, 1)
    assert not QuasiLine(0, 1) == CoordCut(0, 1)
    assert Str("a") != Neg("a") and Var("a") != Str("a")
    assert Optimal(F(1), (F(0),)) != (F(1), (F(0),))
    assert (F(1), (F(0),)) != Optimal(F(1), (F(0),))
    assert BinOp("+", Var("a"), Num(1)) == BinOp("+", Var("a"), Num(1))
    assert hash(Var("a")) == hash(Var("a")) and Var("a") != Var("b")
    assert {QuasiLine(0, 1): 1, CoordCut(0, 1): 2}[CoordCut(0, 1)] == 2


def test_parsed_nodes_are_plain_values():
    cert = parse_cert('cert "c"\nlet x = -(a + 1) * b\n')
    assert cert.steps[0].expr == BinOp(
        "*", Neg(BinOp("+", Var("a"), Num(1))), Var("b"))
    assert repr(Var("a")) == "Var(name='a')"
    assert repr(BinOp("+", Var("a"), Num(1))) == (
        "BinOp(op='+', left=Var(name='a'), right=Num(value=Fraction(1, 1)))")


def test_keyword_construction_and_defaults():
    step = StepResult(index=1, status="PASS", description="let a")
    assert step.value is None
    assert step == StepResult(1, "PASS", "let a", None)
    assert BinOp(op="*", left=Num(2), right=Num(3)) == BinOp("*", Num(2),
                                                             Num(3))
    p = ThmIParams(A=1, B=2, M=3, N=4, alpha=F(1, 2), beta=0)
    assert p == ThmIParams(1, 2, 3, 4, F(1, 2), 0)


@pytest.mark.parametrize("build, message", [
    (lambda: Num(-1), "negative literal; wrap in Neg instead"),
    (lambda: ThmIParams(1, 1, 1, 1, 1, F(-1, 2)),
     "beta must be nonnegative, got -1/2"),
    (lambda: ThmIParams(1, -2, 1, 1, 1, -1), "B must be nonnegative, got -2"),
    (lambda: TowerInput(0, 0, (1, -1)), "multiplicities must be nonnegative"),
    (lambda: ResClass("1/x", 1, ()), "Invalid literal for Fraction"),
    (lambda: QuasiLine(1, 1), "quasiline needs two distinct coordinates"),
    (lambda: QuasiLine(0, 4), "coordinate index out of range"),
    (lambda: CoordCut(4, 1), "coordinate index out of range"),
    (lambda: CoordCut(2, 0), "residual degree must be positive"),
])
def test_constructors_refuse_bad_fields(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_constructors_coerce_to_fractions():
    p = ThmIParams(1, "1/2", 0, 2, 1, 0)
    t = TowerInput("1/3", 0, ["1/2", 1])
    c = ResClass(1, "9/2", [0, "-1/2"])
    values = [Num("3/4").value, p.A, p.B, p.M, p.N, p.alpha, p.beta,
              t.a1, t.a2, *t.m, c.k, c.ksq, *c.e]
    assert all(type(v) is F for v in values)
    assert (p.B, t.a1, t.m, c.ksq, c.e) == (
        F(1, 2), F(1, 3), (F(1, 2), F(1)), F(9, 2), (F(0), F(-1, 2)))
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
