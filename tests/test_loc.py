"""What ``tests/loc.py`` counts: every line as ``wc -l`` does, and as
code only the lines that hold a token outside the docstrings."""

from loc import counts, main

SOURCE = '''"""Module docstring,
on two lines."""

import os  # a comment after code leaves the line code


# a comment-only line
def f(x):
    """Function docstring."""
    text = """a string that is not a docstring
spans two lines"""
    return text
'''


def test_counts_skip_docstrings_comments_and_blanks():
    # code: the import, def, both lines of the string and the return
    assert counts(SOURCE) == (12, 5)


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n")
    main([str(tmp_path)])
    assert capsys.readouterr().out == (
        "    12      5  a.py\n"
        "     1      1  b.py\n"
        "    13      6  total\n")


def test_the_source_stays_under_3000_lines(capsys):
    # the line bar of the roadmap: lctforge's whole source, by wc -l
    main([])
    total = capsys.readouterr().out.splitlines()[-1].split()
    assert total[2] == "total" and int(total[0]) < 3000
