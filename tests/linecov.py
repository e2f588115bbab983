"""Tier-1 line coverage of ``src/``: run the suite under a line tracer, fail on unrun lines.

    python tests/linecov.py

runs tier-1 (``pytest -q -rP --continue-on-collection-errors`` on ``tests/``) in
this process with ``sys.settrace`` and ``threading.settrace`` set, then lists
every executable line of ``src/`` (the ``co_lines()`` of each code object) that
no test ran.  Subprocesses are not followed, so the body of
``if __name__ == "__main__":`` is exempt.  Exits 1 if the suite fails or leaves
any other line unrun.
"""

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")
ran = set()


def trace(frame, event, arg):
    if not frame.f_code.co_filename.startswith(SRC):
        return None
    if event == "line":
        ran.add((frame.f_code.co_filename, frame.f_lineno))
    return trace


def executable(path):
    """Line numbers of ``path`` that its code objects run, less the ``__main__`` bodies."""
    source = path.read_text(encoding="utf-8")
    lines, codes = set(), [compile(source, str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes += [const for const in code.co_consts if hasattr(const, "co_lines")]
    for node in ast.parse(source).body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'":
            lines -= set(range(node.body[0].lineno, node.end_lineno + 1))
    return lines


if __name__ == "__main__":
    threading.settrace(trace)
    sys.settrace(trace)
    # -rP prints the passed tests' stdout: the eleven ACCEPTANCE lines of test_acceptance.py
    status = pytest.main(["-q", "-rP", "--continue-on-collection-errors", "-p", "no:cacheprovider",
                          str(ROOT / "tests")])
    sys.settrace(None)
    threading.settrace(None)
    total = unrun = 0
    for path in sorted(Path(SRC).rglob("*.py")):
        lines = executable(path)
        missing = sorted(line for line in lines if (str(path), line) not in ran)
        total, unrun = total + len(lines), unrun + len(missing)
        for line in missing:
            print(f"unrun: {path.relative_to(ROOT)}:{line}")
    print(f"tier-1 ran {total - unrun} of {total} executable src/ lines")
    sys.exit(1 if status or unrun else 0)
