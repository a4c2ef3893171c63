"""Replay the parser outcome corpus, ``tests/data/parse-corpus.json``.

Every case must give the outcome pinned in the corpus: the same tree,
ledger fields or polyid witnesses, or the same ``ParseError`` text with
its line and column.  How the corpus was made, and why it is never
regenerated to suit a parser, is in ``tests/make_parse_corpus.py``.
"""

import json

import pytest

from make_parse_corpus import CORPUS, cases, outcome

with open(CORPUS) as fh:
    DATA = json.load(fh)
FILES = [tuple(f) for f in DATA["files"]]


def _mismatches(pairs):
    """(input, pinned, got) of every case whose outcome moved."""
    return [(text, want, got) for text, want, got in
            ((text, want, outcome(kind, text, context))
             for kind, text, context, want in pairs)
            if got != want]


@pytest.mark.parametrize("kind", ["cert", "ledger", "polyid"])
def test_edited_lines_give_the_pinned_outcome(kind):
    built = list(cases(FILES))
    assert len(built) == len(DATA["cases"])
    pairs = []
    for case, pinned in zip(built, DATA["cases"]):
        k, index, lineno, op, col, ch, text, context = case
        assert [index, lineno, op, col, ch] == pinned[:5]
        if k == kind:
            pairs.append((k, text, context, pinned[5]))
    assert pairs
    bad = _mismatches(pairs)
    assert not bad, f"{len(bad)} of {len(pairs)} moved, first: {bad[:5]!r}"


def test_hand_written_lines_give_the_pinned_outcome():
    bad = _mismatches((kind, text, "", want)
                      for kind, text, want in DATA["hand"])
    assert not bad, f"{len(bad)} moved: {bad!r}"
