"""Replay the golden CLI cases and compare every output byte for byte.

Each directory under ``cases/`` is one case: ``args`` holds the command line
after ``algdoe`` (split like a shell would split it), and ``stdout``,
``stderr`` and ``exit`` hold what that command must print and return. Every
case runs once as ``python -m algdoe.cli <args>`` with ``inputs/`` as its
working directory, so it reads its files by bare name.

    python tests/golden/run.py

needs only the standard library and an importable ``algdoe`` (installed, or
on ``PYTHONPATH``). It names the Python it runs under, prints a diff for every
failing case, names each one, and exits 1 if any case fails.

    python tests/golden/run.py --record NAME ARGS...

runs ``algdoe ARGS...`` the same way and writes what it printed and returned
as the new case ``NAME``, from the code as it is now. It refuses (exit 2) to
overwrite a case that exists.
"""

from __future__ import annotations

import difflib
import os
import platform
import shlex
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent
OUTPUTS = ("stdout", "stderr", "exit")
# a case's time is mostly interpreter start-up, so two at a time nearly halve
# the wall time while keeping at most two children in memory
WORKERS = 2


def _child_env() -> dict:
    # the cases run in inputs/, so relative PYTHONPATH entries (such as the
    # ``src`` of ``PYTHONPATH=src``) are resolved against the caller's cwd
    env = dict(os.environ)
    if env.get("PYTHONPATH"):
        paths = env["PYTHONPATH"].split(os.pathsep)
        env["PYTHONPATH"] = os.pathsep.join(os.path.abspath(p) for p in paths)
    return env


def _diff(name: str, expected: bytes, actual: bytes) -> str:
    """A unified diff of two outputs that differ."""
    def lines(data):
        text = data.decode("utf-8", "backslashreplace")
        return [line if line.endswith("\n") else line + "\n\\ no newline at end\n"
                for line in text.splitlines(keepends=True)]

    diff = difflib.unified_diff(
        lines(expected), lines(actual), f"expected {name}", f"actual {name}")
    return "".join(diff) or f"expected {name} and actual {name} differ in bytes that print alike\n"


def _outputs(argv: list[str], inputs: Path, env: dict) -> dict[str, bytes]:
    """What ``algdoe argv`` prints and returns, run in ``inputs``, by output
    file name."""
    proc = subprocess.run(
        [sys.executable, "-m", "algdoe.cli", *argv],
        cwd=inputs, env=env, capture_output=True,
    )
    return {"stdout": proc.stdout, "stderr": proc.stderr,
            "exit": f"{proc.returncode}\n".encode()}


def run_case(case: Path, inputs: Path, env: dict) -> str:
    """The diffs of one case's outputs from its expected files; empty if none."""
    argv = shlex.split((case / "args").read_text())
    actual = _outputs(argv, inputs, env)
    return "".join(
        _diff(name, (case / name).read_bytes(), actual[name])
        for name in OUTPUTS
        if (case / name).read_bytes() != actual[name]
    )


def run(root: Path = ROOT) -> tuple[int, list[str]]:
    """Replay every case under ``root``: the number of cases, and one report
    per failing case, each starting ``FAIL <case name>``."""
    env = _child_env()
    cases = sorted(p for p in (root / "cases").iterdir() if p.is_dir())
    with ThreadPoolExecutor(WORKERS) as pool:
        diffs = pool.map(lambda case: run_case(case, root / "inputs", env), cases)
        failures = [f"FAIL {case.name}\n{diff}" for case, diff in zip(cases, diffs) if diff]
    return len(cases), failures


def record(name: str, argv: list[str], root: Path = ROOT) -> Path:
    """Write the case ``name`` from what ``algdoe argv`` does now; a
    FileExistsError, writing nothing, if the case exists."""
    case = root / "cases" / name
    if case.exists():
        raise FileExistsError(case)
    outputs = _outputs(argv, root / "inputs", _child_env())
    case.mkdir(parents=True)
    (case / "args").write_text(shlex.join(argv) + "\n")
    for output, data in outputs.items():
        (case / output).write_bytes(data)
    return case


def main(root: Path = ROOT, argv=()) -> int:
    if argv and argv[0] == "--record":
        if len(argv) < 3:
            print("usage: run.py --record NAME ARGS...", file=sys.stderr)
            return 2
        try:
            case = record(argv[1], argv[2:], root)
        except FileExistsError:
            print(f"case {argv[1]} exists; not overwritten", file=sys.stderr)
            return 2
        print(f"recorded {case.name}: exit {(case / 'exit').read_text().strip()}")
        return 0
    print(f"golden cases under Python {platform.python_version()}")
    count, failures = run(root)
    for report in failures:
        print(report)
    print(f"{count - len(failures)} of {count} golden cases pass")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(argv=sys.argv[1:]))
