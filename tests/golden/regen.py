"""Record the golden CLI corpus, or compare a run against the record.

    python tests/golden/regen.py

runs every line of ``cases.txt`` through ``qtmpair.cli.main`` of this
checkout, in order, in a temporary directory that starts with a copy of
``inputs/``, rewrites ``expected.json`` (exit code, stdout, stderr and the
files each case wrote through ``--output`` or ``--curve-output``) and
prints, per subcommand, how many cells moved against the old record and by
how much, and which cases of the old record the new one drops.  While any
case raises a Python warning it writes nothing and names the case instead.
It takes no arguments: given any, it prints this text and writes nothing.
``tests/test_golden.py`` runs the same cases and checks them with
:func:`mismatches`, one test per case.
"""

import contextlib
import difflib
import io
import json
import os
import shlex
import shutil
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
CASES, EXPECTED, INPUTS = HERE / "cases.txt", HERE / "expected.json", HERE / "inputs"
# these subcommands print LAPACK results: their tables are compared cell by cell, levels to
# LEVEL_RTOL * max(1, |level|), other cells to CELL_RTOL * max(1, |column max|), and a cell
# recorded as 0 (either sign) or, among the levels, as --u must print the same bytes
TOLERANT = ("eigen", "spectrum-field", "evolve")
LEVELS = ("values_K", "lambda1", "lambda2", "lambda3", "lambda4")
LEVEL_RTOL, CELL_RTOL = 1e-12, 1e-9


def load_cases():
    """Argument lines of ``cases.txt``, without comments and blank lines."""
    lines = CASES.read_text(encoding="utf-8").splitlines()
    return [line for line in lines if line.strip() and not line.startswith("#")]


def _in_process(argv):
    """Exit code, stdout, stderr and the warnings (``Category: message``, kept out of stderr)
    of ``qtmpair.cli.main(argv)`` run in this process."""
    from qtmpair import cli
    out, err = io.StringIO(), io.StringIO()
    with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
          warnings.catch_warnings(record=True) as caught):
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except SystemExit as exit_:
            code = exit_.code
    warned = [f"{w.category.__name__}: {w.message}" for w in caught]
    return code, out.getvalue(), err.getvalue(), warned


def run_cases(workdir, cases, call=_in_process):
    """Run ``cases`` in order inside ``workdir``; one record per case.  ``call(argv)`` returns
    the exit code, stdout, stderr and warnings of one call, by default of ``cli.main`` in this
    process."""
    shutil.copytree(INPUTS, workdir, dirs_exist_ok=True)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with mock.patch.dict(os.environ, COLUMNS="80"):     # argparse wraps help to this width
            return [_run(call, case) for case in cases]
    finally:
        os.chdir(cwd)


def _run(call, case):
    argv = shlex.split(case)
    targets = [b for a, b in zip(argv, argv[1:]) if a in ("--output", "--curve-output")]
    before = {name: _read(name) for name in targets}
    code, out, err, warned = call(argv)
    written = {name: _read(name) for name in targets}
    return {"case": case, "exit": code, "stdout": out, "stderr": err,
            "files": {name: text for name, text in written.items() if text != before[name]},
            "warnings": warned}


def _read(name):
    path = Path(name)
    return path.read_bytes().decode("utf-8") if path.is_file() else None


def _structured(text):
    """Cells of a JSON document or a CSV table by (column, position), else None."""
    try:
        doc = json.loads(text)
    except ValueError:
        doc = None
    if isinstance(doc, dict):
        cells = {}
        for key, value in doc.items():
            _leaves(value, key, (), cells)
        return cells
    lines = text.splitlines()
    rows = [line.split(",") for line in lines]
    if len(rows) > 1 and len(rows[0]) > 1 and all(len(row) == len(rows[0]) for row in rows):
        header = rows[0]
        cells = {("header", j): name for j, name in enumerate(header)}
        cells.update(((name, i), row[j]) for i, row in enumerate(rows[1:])
                     for j, name in enumerate(header))
        return cells
    return None


def _lines(text):
    """Lines of ``text``, and an empty last one after a final line break."""
    return text.splitlines() + [""] * text.endswith("\n")


def _cells(text):
    """Cells of a JSON document or a CSV table by (column, position), else lines by number."""
    cells = _structured(text)
    return {("line", i): line for i, line in enumerate(_lines(text))} if cells is None else cells


def _leaves(value, column, position, cells):
    if isinstance(value, (list, dict)) and value:
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, item in items:
            _leaves(item, column, position + (key,), cells)
    else:
        cells[column, position] = json.dumps(value)


def _number(cell):
    try:
        return float(cell)
    except (TypeError, ValueError):
        return None


def moved_cells(old, new):
    """(column, old cell, new cell) for every cell that differs between two texts.  Where
    neither is JSON or a table, a run of lines that one side inserts, deletes or replaces is
    one ("line", old lines, new lines) cell, None on the side that has none."""
    if old == new:
        return []
    if _structured(old) is None and _structured(new) is None:
        a, b = _lines(old), _lines(new)
        moved = [("line", "\n".join(a[i1:i2]) if i2 > i1 else None,
                  "\n".join(b[j1:j2]) if j2 > j1 else None)
                 for tag, i1, i2, j1, j2 in difflib.SequenceMatcher(None, a, b).get_opcodes()
                 if tag != "equal"]
        return moved or [("layout", old, new)]
    old_cells, new_cells = _cells(old), _cells(new)
    keys = list(old_cells) + [key for key in new_cells if key not in old_cells]
    moved = [(key[0], old_cells.get(key), new_cells.get(key))
             for key in keys if old_cells.get(key) != new_cells.get(key)]
    return moved or [("layout", old, new)]     # the same cells, written differently


def _outputs(record):
    return {"exit": str(record["exit"]), "stdout": record["stdout"], "stderr": record["stderr"],
            **{f"file {name}": text for name, text in record["files"].items()}}


def mismatches(expected, actual):
    """What in ``actual`` breaks the record ``expected``: a list of readable lines.  A warning
    that the case raised is always one."""
    argv = shlex.split(expected["case"])
    tolerant = argv[0] in TOLERANT and expected["exit"] == 0 and "--help" not in argv
    given = [b for a, b in zip(argv, argv[1:]) if a == "--u"] + [
        a[len("--u="):] for a in argv if a.startswith("--u=")]
    u = float(given[-1]) if given else None
    old, new = _outputs(expected), _outputs(actual)
    problems = [f"warning {text}" for text in actual.get("warnings", ())]
    problems += [f"{name} written by one side only" for name in set(old) ^ set(new)]
    for name in sorted(set(old) & set(new)):
        moved = moved_cells(old[name], new[name])
        if not (tolerant and name not in ("exit", "stderr")):
            problems += [f"{name}, {column}: {a!r} -> {b!r}" for column, a, b in moved]
            continue
        scale = {}
        for column, cell in _cells(old[name]).items():
            value = _number(cell)
            if value is not None:
                scale[column[0]] = max(scale.get(column[0], 1.0), abs(value))
        for column, a, b in moved:
            x, y = _number(a), _number(b)
            if x is None or y is None or x == 0.0 or (column in LEVELS and x == u):
                close = False       # text, a missing cell, or a symmetry-protected one
            elif column in LEVELS:
                close = abs(x - y) <= LEVEL_RTOL * max(1.0, abs(x))
            else:
                close = abs(x - y) <= CELL_RTOL * scale[column]
            if not close:
                problems.append(f"{name}, {column}: {a!r} -> {b!r}")
    return problems


def report(old_records, new_records):
    """Per subcommand: cases, new cases, dropped cases (in the old record only), cases and
    cells that moved, the largest numeric move, each dropped case and each moved text cell
    (a message, an exit code, a line of text)."""
    old = {record["case"]: record for record in old_records}
    summary = {}

    def row_of(case):
        argv = shlex.split(case)
        command = next((a for a in argv if not a.startswith("-")), "qtmpair")   # --help: qtmpair
        return summary.setdefault(command, {"cases": 0, "new": 0, "dropped": 0, "moved": 0,
                                            "cells": 0, "largest": 0.0, "texts": []})

    kept = {record["case"] for record in new_records}
    for case in old:
        if case not in kept:
            row = row_of(case)
            row["dropped"] += 1
            row["texts"].append(f"dropped: {case}")
    for record in new_records:
        row = row_of(record["case"])
        row["cases"] += 1
        if record["case"] not in old:
            row["new"] += 1
            continue
        before, after = _outputs(old[record["case"]]), _outputs(record)
        moved = [(name, *cell) for name in sorted(set(before) | set(after))
                 for cell in moved_cells(before.get(name, ""), after.get(name, ""))]
        row["moved"] += bool(moved)
        row["cells"] += len(moved)
        for name, column, a, b in moved:
            x, y = _number(a), _number(b)
            if name != "exit" and x is not None and y is not None:
                row["largest"] = max(row["largest"], abs(x - y))
            else:
                row["texts"].append(f"{record['case']}\n      {name}: {a!r}\n"
                                    f"      {' ' * len(name)}  -> {b!r}")
    lines = []
    for command, row in sorted(summary.items()):
        lines.append(f"{command}: {row['cases']} cases, {row['new']} new, "
                     f"{row['dropped']} dropped, {row['moved']} moved, "
                     f"{row['cells']} cells moved, largest numeric move {row['largest']:.3g}")
        lines += [f"  {text}" for text in row["texts"]]
    return "\n".join(lines)


def main(argv=()):
    if argv:
        sys.exit(__doc__)
    sys.path.insert(0, str(HERE.parents[1] / "src"))
    with tempfile.TemporaryDirectory() as workdir:
        records = run_cases(workdir, load_cases())
    warned = [f"{record['case']}\n  {text}" for record in records
              for text in record.pop("warnings")]
    if warned:
        sys.exit("expected.json not written, a case warned:\n" + "\n".join(warned))
    old = json.loads(EXPECTED.read_text(encoding="utf-8")) if EXPECTED.exists() else []
    EXPECTED.write_text(json.dumps(records, indent=1, ensure_ascii=False) + "\n",
                        encoding="utf-8")
    print(report(old, records))


if __name__ == "__main__":
    main(sys.argv[1:])
