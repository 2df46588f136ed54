"""List the statements of ``src/algdoe`` that no tier-1 test runs.

Run from the repository root, with pytest's arguments after the script if a
narrower run is wanted (the default is the whole tier-1 suite)::

    python tests/statements.py
    python tests/statements.py tests/test_markov.py -k fiber

The suite runs in this process under ``sys.settrace``, which traces only the
frames of code compiled from ``src/algdoe`` and records the lines they run.
A statement counts as run when a line of its own ran: all of its lines for a
simple statement, its header for a compound one (a ``try`` by its body's
statements, and docstrings, ``global`` and ``nonlocal``, which compile to
nothing, are not counted).  Each module's unrun statements are printed by
line, then the totals.

The tracer sees only this process: the golden cases, and every other test
that runs ``algdoe`` in a subprocess, are invisible to it, so a statement
that only they reach is listed as unrun.  No coverage package is needed and
no process is started.  It is not collected by pytest, and tracing makes
the suite several times slower.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "algdoe"


def statements(tree: ast.Module):
    """(first line, last line) of each counted statement of a module: the
    lines whose run shows that the statement ran."""
    spans = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, (ast.Try, ast.Global, ast.Nonlocal)):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue  # a docstring, or a constant that compiles to nothing
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        blocks = [getattr(node, name, []) for name in ("body", "orelse", "handlers", "finalbody")]
        inner = [s for block in blocks for s in block]
        last = min(s.lineno for s in inner) - 1 if inner else node.end_lineno
        spans.append((first, max(first, last)))
    return sorted(spans)


def trace(pytest_args) -> tuple[int, dict[str, set[int]]]:
    """Run pytest in this process and return its exit code and, per file of
    the package, the lines that ran."""
    prefix = str(PACKAGE) + "/"
    ran: dict[str, set[int]] = {}

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        add = ran.setdefault(filename, set()).add

        def on_line(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return on_line

        return on_line

    # as the tier-1 command sets it, for this process and the tests' own
    # subprocesses alike
    src = str(PACKAGE.parent)
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    import pytest

    sys.settrace(on_call)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *pytest_args])
    finally:
        sys.settrace(None)
    return int(code), ran


def _ranges(lines: list[int]) -> str:
    out: list[list[int]] = []
    for line in lines:
        if out and line == out[-1][1] + 1:
            out[-1][1] = line
        else:
            out.append([line, line])
    return ", ".join(f"{a}" if a == b else f"{a}-{b}" for a, b in out)


def main(argv: list[str]) -> int:
    code, ran = trace(argv or [str(ROOT / "tests")])
    total = unrun_total = 0
    print()
    for path in sorted(PACKAGE.glob("*.py")):
        spans = statements(ast.parse(path.read_text(), str(path)))
        lines = ran.get(str(path), set())
        unrun = [a for a, b in spans if not any(k in lines for k in range(a, b + 1))]
        total += len(spans)
        unrun_total += len(unrun)
        print(f"{path.relative_to(ROOT)}: {len(unrun)} of {len(spans)} statements unrun"
              + (f": lines {_ranges(unrun)}" if unrun else ""))
    print(f"total: {unrun_total} of {total} statements unrun (pytest exit code {code})")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
