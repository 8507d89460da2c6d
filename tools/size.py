"""Print a JSON report of the size of the hetquant source.

Usage (from anywhere; it reads the ``src/hetquant`` directory beside this
script, and takes no options):

    python tools/size.py

Every line of each module falls in exactly one class, taken in this order:
- blank: nothing but whitespace, also inside a string;
- comment: a line whose first token is a ``#`` comment;
- docstring: a line of a module, class or function docstring, that is the
  string that is the first statement of its body;
- code: every other line, a line with code and a trailing comment included.
So the four counts of a module add up to its line count. The report also
lists every function, method or nested function of more than
``LONG_FUNCTION`` lines, counted from its ``def`` to its last line.
"""

from __future__ import annotations

import ast
import io
import json
import tokenize
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "hetquant"

LONG_FUNCTION = 50

CLASSES = ("code", "docstring", "comment", "blank")


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers that docstrings of ``tree`` span."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def _comment_lines(text: str) -> set[int]:
    """The line numbers whose first token is a comment."""
    return {
        token.start[0]
        for token in tokenize.generate_tokens(io.StringIO(text).readline)
        if token.type == tokenize.COMMENT and not token.line[: token.start[1]].strip()
    }


def module_size(path: Path) -> tuple[dict[str, int], list[tuple[str, int]]]:
    """The line counts of one module, by class, and its long functions as
    ``(qualified name, lines)`` pairs."""
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text)
    docstrings, comments = _docstring_lines(tree), _comment_lines(text)
    counts = dict.fromkeys(CLASSES, 0)
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            counts["blank"] += 1
        elif number in comments:
            counts["comment"] += 1
        elif number in docstrings:
            counts["docstring"] += 1
        else:
            counts["code"] += 1
    long_functions = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    lines = child.end_lineno - child.lineno + 1
                    if lines > LONG_FUNCTION:
                        long_functions.append((name, lines))
                visit(child, name)

    visit(tree, path.stem)
    return counts, long_functions


def report() -> dict:
    """The size report of ``src/hetquant``."""
    modules = {}
    total = dict.fromkeys(CLASSES, 0)
    long_functions = []
    for path in sorted(SOURCE.glob("*.py")):
        counts, long = module_size(path)
        modules[path.name] = counts
        for name in CLASSES:
            total[name] += counts[name]
        long_functions += [{"function": name, "lines": lines} for name, lines in long]
    return {
        "source": "src/hetquant",
        "modules": modules,
        "total": total,
        "long_function_lines": LONG_FUNCTION,
        "long_functions": long_functions,
    }


if __name__ == "__main__":
    print(json.dumps(report(), indent=2))
