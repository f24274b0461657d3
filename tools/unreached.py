"""List the statements of ``src/equifdp`` that the Tier-1 suite never runs.

No coverage package is needed.  The suite runs in this process under a line
tracer, ``sys.settrace`` for the main thread and ``threading.settrace`` for
the worker threads of ``run``, which records the lines executed in the
package's files.  A statement is executable when the compiler emitted code
for one of its own lines (its header, not the statements of its body), and
it counts as run when one of those lines ran.

Run from anywhere, with extra pytest arguments if wanted:

    python tools/unreached.py [pytest args]

Prints each unreached statement as ``path:line: source``.  Exits 1 if any is
left besides the body of ``cli.py``'s ``if __name__ == "__main__":`` guard,
which only ``python -m equifdp.cli`` runs, or if the suite fails.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "equifdp"
ALLOWED = {("cli.py", "sys.exit(main())")}  # the __main__ guard's body


def executable_lines(code: types.CodeType) -> set[int]:
    """Every line of a compiled module that carries code, nested code
    objects included."""
    lines, stack = set(), [code]
    while stack:
        co = stack.pop()
        lines.update(line for _, _, line in co.co_lines() if line is not None)
        stack.extend(c for c in co.co_consts if isinstance(c, types.CodeType))
    return lines


def span(node: ast.AST) -> range:
    """The lines of a statement, its decorators included."""
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
    return range(first, node.end_lineno + 1)


def statements(tree: ast.Module):
    """(first line, own lines) of each statement and except clause: its
    span less the spans of its nested statements."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.stmt, ast.excepthandler)):
            own = set(span(node))
            for field in ("body", "orelse", "finalbody", "handlers"):
                for child in getattr(node, field, ()):
                    own -= set(span(child))
            yield span(node).start, own


def main(argv: list[str]) -> int:
    hits = {str(path): set() for path in sorted(PACKAGE.glob("*.py"))}

    def trace(frame, event, arg):
        lines = hits.get(frame.f_code.co_filename)
        if lines is None:
            return None
        add = lines.add

        def local(frame, event, arg):
            add(frame.f_lineno)
            return local

        return local

    os.chdir(ROOT)  # pytest's rootdir, testpaths and pythonpath come from pyproject.toml
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if not any(hits.values()):
        print("no line of the package ran; was it imported before tracing began?")
        return 1

    left = 0
    for path, ran in hits.items():
        source = Path(path).read_text()
        code = compile(source, path, "exec")
        lines, text = executable_lines(code), source.splitlines()
        name = Path(path).name
        for first, own in sorted(statements(ast.parse(source))):
            if own & lines and not own & ran:
                stmt = text[first - 1].strip()
                print(f"{Path(path).relative_to(ROOT)}:{first}: {stmt}")
                left += (name, stmt) not in ALLOWED
    print(f"{left} unreached statement(s) besides the __main__ guard")
    return 1 if status != 0 or left else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
