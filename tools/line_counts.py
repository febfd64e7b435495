"""Per-module line counts of a source tree's package.

    python tools/line_counts.py TREE

Prints, for each module under TREE/src, its total lines and its
code-only lines, then the sums. Code-only lines are those that hold a
token of code: blank lines, comment lines and docstrings (a string that
is the first statement of a module, class or function) do not count; a
statement or string that spans several lines counts each of them.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

# tokens that are not code by themselves
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree):
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def counts(text):
    """(total, code-only) lines of one module's source text."""
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(text.splitlines()), len(code - _docstring_lines(ast.parse(text)))


def main(argv):
    if len(argv) != 1:
        print("usage: python tools/line_counts.py TREE", file=sys.stderr)
        return 2
    paths = sorted(Path(argv[0], "src").rglob("*.py"))
    if not paths:
        print(f"no Python modules under {Path(argv[0], 'src')}", file=sys.stderr)
        return 2
    rows = [(str(path.relative_to(Path(argv[0], "src"))), *counts(path.read_text()))
            for path in paths]
    rows.append(("total", sum(row[1] for row in rows), sum(row[2] for row in rows)))
    width = max(len(row[0]) for row in rows)
    print(f"{'module':<{width}}  {'lines':>6}  {'code':>6}")
    for name, total, code in rows:
        print(f"{name:<{width}}  {total:>6,}  {code:>6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
