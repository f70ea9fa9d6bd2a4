"""Run pytest and print the statement lines of ``src/tdcodec/`` that no test executed.

Usage:
    python3 tools/untested_lines.py [PYTEST ARGS...]

Every argument goes to pytest, which runs in this process under a line
tracer (``sys.settrace`` and ``threading.settrace``) that records the
lines executed in ``src/tdcodec/`` and nothing else.  Afterwards each
module's statements are found with ``ast``, leaving out docstrings and
statements that emit no line event (``nonlocal``, ``global``), and one
line per module lists the first lines of the statements that never ran.
The exit code is pytest's.

Only this process is traced.  Lines that run only in forked pursuit
workers (``--threads > 1``) or in subprocesses, such as the demos, are
listed as well, because their hits are not collected.  Tracing slows the
codec's Python code several times over.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tdcodec"


def _executable_lines(source: str, path: Path) -> set[int]:
    """The lines that some instruction of the module's code objects carries."""
    lines, stack = set(), [compile(source, str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def _is_docstring(node: ast.AST, parent: ast.AST) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
            and isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                    ast.AsyncFunctionDef))
            and parent.body[0] is node)


def statements(path: Path) -> dict[int, set[int]]:
    """Each statement's first line, mapped to the lines that may report it run.

    Those are the statement's own lines (a compound statement's header and
    decorators, without its body) that carry an instruction.
    """
    source = path.read_text()
    executable = _executable_lines(source, path)
    found = {}
    for parent in ast.walk(ast.parse(source)):
        for node in ast.iter_child_nodes(parent):
            if not isinstance(node, (ast.stmt, ast.ExceptHandler)) or _is_docstring(node,
                                                                                    parent):
                continue
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            own = set(range(first, node.end_lineno + 1))
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.stmt, ast.ExceptHandler)):
                    own -= set(range(child.lineno, child.end_lineno + 1))
            own = (own | {node.lineno}) & executable
            if own:
                found[node.lineno] = own
    return found


def _ranges(lines: list[int]) -> str:
    """``1 3-5 9`` for lines 1, 3, 4, 5 and 9."""
    spans = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return " ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def _tracer(hits: dict[str, set[int]]):
    """A global trace function that records the lines run in ``PACKAGE``."""
    prefix = str(PACKAGE) + os.sep
    lines_of = {}   # co_filename -> its set in ``hits``, or None outside the package

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in lines_of:
            real = os.path.realpath(filename)
            lines_of[filename] = hits.setdefault(real, set()) if real.startswith(
                prefix) else None
        lines = lines_of[filename]
        if lines is None:
            return None
        add = lines.add

        def line(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return line

        return line

    return trace


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0], allow_abbrev=False,
        epilog="Every other argument goes to pytest.")
    _, pytest_args = ap.parse_known_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    hits: dict[str, set[int]] = {}
    trace = _tracer(hits)
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = untested = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        ran = hits.get(os.path.realpath(path), set())
        found = statements(path)
        missed = sorted(first for first, own in found.items() if not own & ran)
        total += len(found)
        untested += len(missed)
        if missed:
            print(f"{path.relative_to(ROOT)}: {len(missed)} of {len(found)} untested: "
                  f"{_ranges(missed)}")
    print(f"{untested} of {total} statements untested")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
