"""Lines and code lines of each module of src/fmcalc.

    python3 tools/codelines.py [FILE ...]

For each Python file (by default every module of src/fmcalc) prints its
lines, as `wc -l` counts them, and its code lines: the lines that hold a
token of code.  Blank lines, lines holding only a comment and the
docstrings of the module, its classes and its functions are not code
lines, so neither deleting nor adding comments changes the count.  A last
line gives the totals.
"""

import ast
import io
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "fmcalc")

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_starts(tree):
    """(line, column) of the first character of every docstring."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def count(source):
    """(lines, code lines) of Python source text."""
    docstrings = docstring_starts(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in NOT_CODE or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return source.count("\n"), len(code)


def main(paths):
    if not paths:
        paths = sorted(os.path.join(PACKAGE, name) for name in os.listdir(PACKAGE)
                       if name.endswith(".py"))
    total_lines = total_code = 0
    print("%-32s %6s %6s" % ("module", "lines", "code"))
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            lines, code = count(fh.read())
        total_lines += lines
        total_code += code
        print("%-32s %6d %6d" % (os.path.relpath(path, ROOT), lines, code))
    print("%-32s %6d %6d" % ("total", total_lines, total_code))


if __name__ == "__main__":
    main(sys.argv[1:])
