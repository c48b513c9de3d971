"""Count the code lines and the options of each `src/kiloland` module, and
their totals.

A code line is a non-blank line outside comments and docstrings. An option
is a parameter with a default in a public function or method (a method of
a public class, whose name is public or a dunder), or a field with a
default in a public dataclass. Run from anywhere:

    python tools/code_lines.py
"""

from __future__ import annotations

import ast
import io
import pathlib
import sys
import tokenize

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "kiloland"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    docstrings = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def _public(name: str) -> bool:
    return not name.startswith("_") or (name.startswith("__") and name.endswith("__"))


def _is_dataclass(node: ast.ClassDef) -> bool:
    for d in node.decorator_list:
        f = d.func if isinstance(d, ast.Call) else d
        if getattr(f, "id", getattr(f, "attr", None)) == "dataclass":
            return True
    return False


def _defaults(fn) -> int:
    return len(fn.args.defaults) + sum(d is not None for d in fn.args.kw_defaults)


def options(source: str) -> int:
    """The number of options in one module's source."""
    n = 0
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.parse(source).body:
        if isinstance(node, functions) and not node.name.startswith("_"):
            n += _defaults(node)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            dataclass = _is_dataclass(node)
            for item in node.body:
                if isinstance(item, functions) and _public(item.name):
                    n += _defaults(item)
                elif dataclass and isinstance(item, ast.AnnAssign) and item.value is not None:
                    n += 1
    return n


def main() -> int:
    total = total_options = 0
    print(f"{'module':20} {'code':>5} {'options':>7}")
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        n, k = code_lines(source), options(source)
        total += n
        total_options += k
        print(f"{path.name:20} {n:5} {k:7}")
    print(f"{'total':20} {total:5} {total_options:7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
