"""The layer harness, ``tests/layerbench.py``: two loads of one tree are
distinct copies that leave the interpreter's imports as they were,
every layer's table of operations builds, and two copies of one tree
count the same work.  The ``lp`` solves are not run here."""

import sys
from pathlib import Path

import pytest

import layerbench

SRC = Path(layerbench.__file__).resolve().parents[1] / "src"


def _lctforge_modules():
    return {k: m for k, m in sys.modules.items() if k.startswith("lctforge")}


@pytest.fixture(scope="module")
def twice():
    return [layerbench.load(SRC), layerbench.load(SRC)]


def test_two_loads_are_distinct_and_put_the_imports_back():
    modules, path = _lctforge_modules(), list(sys.path)
    a, b = layerbench.load(SRC), layerbench.load(SRC)
    assert _lctforge_modules() == modules and sys.path == path
    assert a is not b and a.linprog is not b.linprog
    assert a.syntax.CheckFailed is not b.syntax.CheckFailed
    assert Path(a.certs.__file__).resolve().parent == SRC / "lctforge"


@pytest.mark.parametrize("layer", sorted(layerbench.LAYERS))
def test_every_layer_table_builds(twice, layer, tmp_path):
    tables = layerbench.LAYERS[layer](twice, tmp_path)
    assert len(tables) == 2 and len(tables[0]) == len(tables[1]) > 0
    for ops in zip(*tables):
        assert ops[0][:2] == ops[1][:2] and ops[0][1] > 0
        assert ops[0][2] is not ops[1][2]
        assert all(callable(run) and callable(count) for *_, run, count in ops)


@pytest.mark.parametrize("layer, counts", [
    ("poly", ["101 products, 6219 term products",
              "1 products, 400 term products",
              "1 products, 6889 term products",
              "1 products, 496 term products",
              "0 products, 0 term products"]),
    ("ledger",
     [f"{n} checks" for n in (23, 23, 26, 23, 23) for _ in range(3)]),
])
def test_two_copies_count_the_same_work(layer, counts, capsys):
    layerbench.main([layer, str(SRC), str(SRC), "--rounds", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(counts)
    for line, count in zip(lines, counts):
        cols = line.split("\t")
        assert cols[-6] == cols[-5] == count, line
        assert cols[-1] in ("change faster in 0 of 1",
                            "change faster in 1 of 1")
