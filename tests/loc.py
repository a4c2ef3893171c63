"""Count the source lines of lctforge, per module and in total.

    python tests/loc.py [directory]

The directory defaults to ``src/lctforge``.  Two counts are printed
for each ``*.py`` file in it: its lines, as ``wc -l`` counts them, and
its code-only lines.  A code-only line holds a Python token other than
a comment or a line break, outside the docstrings of the module and of
its classes and functions; a string token that spans lines counts on
each of them.  pytest does not collect this file.
"""

import ast
import io
from pathlib import Path
import sys
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
             tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER,
             tokenize.ENCODING}


def _docstring_lines(tree):
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def counts(text):
    """(lines as wc -l counts them, code-only lines) of Python source."""
    skip = _docstring_lines(ast.parse(text))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return text.count("\n"), len(code - skip)


def main(argv):
    root = Path(argv[0] if argv else Path(__file__).parents[1]
                / "src" / "lctforge")
    total_lines = total_code = 0
    for path in sorted(root.glob("*.py")):
        lines, code = counts(path.read_text(encoding="utf-8"))
        total_lines += lines
        total_code += code
        print(f"{lines:6} {code:6}  {path.name}")
    print(f"{total_lines:6} {total_code:6}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
