"""Count the code lines of a Python package: lines holding a token outside docstrings and comments.

A line counts when some token other than a comment, a docstring or the
layout tokens (newlines, indents, dedents) starts on it or spans it, so
a blank line, a comment line and every line of a docstring do not
count, and each line of a multi-line expression or string does.  A
docstring is the string statement that opens a module, class or
function body.

    python tests/code_lines.py [DIR]

prints each module's count and the total, for DIR (default src/qosp).
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_starts(tree):
    """The (line, column) of every docstring token in a parsed module."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.value.lineno, first.value.col_offset))
    return starts


def code_lines(source):
    """The number of lines of source that hold a token outside docstrings and comments."""
    docstrings = _docstring_starts(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT and tok.start not in docstrings:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def package_counts(root):
    """{module path relative to root: code lines} for every .py file under root."""
    root = Path(root)
    return {str(p.relative_to(root)): code_lines(p.read_text()) for p in sorted(root.rglob("*.py"))}


def main(argv):
    root = argv[1] if len(argv) > 1 else "src/qosp"
    counts = package_counts(root)
    for name, count in counts.items():
        print("%6d  %s" % (count, name))
    print("%6d  total" % sum(counts.values()))


if __name__ == "__main__":
    main(sys.argv)
