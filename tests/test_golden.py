"""The golden CLI corpus: every case of tests/golden/cases.txt against its record.

Each case is its own test, named by its argument line.  ``spectrum-ua``, ``extract``,
``synth`` and ``fit`` output, every exit code and all stderr must match byte for byte;
``eigen``, ``spectrum-field`` and ``evolve`` tables cell by cell within the tolerances of
``regen.py``, which rewrites the record after a deliberate change and reports what moved.
A few cases also run through ``python -m qtmpair.cli``, the process entry ``cli.run``.
"""

import importlib.util
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "golden_regen", Path(__file__).resolve().parent / "golden" / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)
CASES = regen.load_cases()
RECORD = {record["case"]: record for record in json.loads(regen.EXPECTED.read_text("utf-8"))}
SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="module")
def actual(tmp_path_factory):
    """Every case run once, in order, in one directory, so later cases read earlier files."""
    return dict(zip(CASES, regen.run_cases(tmp_path_factory.mktemp("golden"), CASES)))


def test_record_lists_every_case_in_order():
    assert list(RECORD) == CASES, "run tests/golden/regen.py"


@pytest.mark.parametrize("case", CASES)
def test_cli_output_matches_the_golden_corpus(actual, case):
    assert not (problems := regen.mismatches(RECORD[case], actual[case])), "\n".join(problems)


def _process(argv):
    proc = subprocess.run([sys.executable, "-m", "qtmpair.cli", *argv], capture_output=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    # a warning of the child goes to its stderr, which the record holds
    return proc.returncode, proc.stdout.decode("utf-8"), proc.stderr.decode("utf-8"), []


@pytest.mark.parametrize("case", [
    "spectrum-ua --min 0 --max 20 --points 21",
    "fit --input bom.csv --processes 2 --output bom_fit.json --curve-output bom_curve.csv",
    "spectrum-ua --min 3 --max 1 --points 5",       # a usage error, exit 2
    "fit --input bad_header.csv --processes 2",     # a DatasetError, exit 3
    "eigen --u 10 --a 1 --mu-y 10 --bz 1",          # a stray option, exit 2
    "--help",
])
def test_process_entry_matches_the_golden_corpus(tmp_path, case):
    """``python -m qtmpair.cli``, the way scripts call it: exit codes, stdio and files of
    ``cli.run``'s process path, which no in-process case reaches."""
    [record] = regen.run_cases(tmp_path, [case], _process)
    assert not (problems := regen.mismatches(RECORD[case], record)), "\n".join(problems)


def test_report_names_a_case_that_the_new_record_drops():
    kept = dict(case="eigen --u 1 --a 1 --mu-y 1", exit=0, stdout="", stderr="", files={})
    assert regen.report([kept, {**kept, "case": "extract --delta 7"}], [kept]).splitlines() == [
        "eigen: 1 cases, 0 new, 0 dropped, 0 moved, 0 cells moved, largest numeric move 0",
        "extract: 0 cases, 0 new, 1 dropped, 0 moved, 0 cells moved, largest numeric move 0",
        "  dropped: extract --delta 7"]


def test_tolerant_comparison_accepts_rounding_and_nothing_more():
    record = {"case": "spectrum-field --u -15 --a 1 --mu-y 10 --max 2 --points 2", "exit": 0,
              "stderr": "", "files": {},
              "stdout": "axis,lambda1,lambda2,lambda3,lambda4,mx,my\n"
                        "0.0,-15.0,-0.0,0.0625,2.5,-0.0,3.0\n"}

    def moved(stdout):
        return regen.mismatches(record, {**record, "stdout": stdout})

    assert moved("axis,lambda1,lambda2,lambda3,lambda4,mx,my\n"
                 "0.0,-15.0,-0.0,0.0625000000000004,2.5,-0.0,3.000000001\n") == []
    for changed in ("0.0,-15.0,-0.0,0.06250000001,2.5,-0.0,3.0",      # a level beyond 1e-12
                    "0.0,-15.0,-0.0,0.0625,2.5,-0.0,3.0000001",        # a cell beyond 1e-9 * 3
                    "0.0,-14.999999999999998,-0.0,0.0625,2.5,-0.0,3.0",   # the exact level U
                    "0.0,-15.0,0.0,0.0625,2.5,-0.0,3.0",               # a signed zero
                    "0.0,-15.0,-0.0,0.0625,2.5,1e-300,3.0"):            # an exact zero
        assert len(moved("axis,lambda1,lambda2,lambda3,lambda4,mx,my\n" + changed + "\n")) == 1
    assert moved("axis,lambda1,lambda2,lambda3,lambda4,mx,my\n"
                 "0.0,-15.0,-0.0,0.0625,2.5,-0.0,3.0") != []           # the final newline
    assert regen.mismatches(record, {**record, "stderr": "warning\n"}) != []


def test_lines_inserted_above_a_message_are_one_insertion():
    """A text that is neither JSON nor a table is compared as a line diff, so two lines put
    before a usage message neither move it nor pair it with an unrelated line."""
    assert regen.moved_cells("usage\nerror: old\n", "w1\nw2\nusage\nerror: new\n") == [
        ("line", None, "w1\nw2"), ("line", "error: old", "error: new")]
    assert regen.moved_cells("usage\nerror: old\n", "usage\n") == [("line", "error: old", None)]


def test_a_warning_fails_its_case_by_name(monkeypatch):
    """The in-process run records a warning apart from stderr, under any warning filter,
    and the comparison names its category and message."""
    def main(argv):
        warnings.warn("invalid value encountered in multiply", RuntimeWarning)
        print("axis")
        return 0

    monkeypatch.setattr("qtmpair.cli.main", main)
    assert regen._in_process(["eigen"]) == (
        0, "axis\n", "", ["RuntimeWarning: invalid value encountered in multiply"])
    record = dict(case="eigen --u 1", exit=0, stdout="axis\n", stderr="", files={})
    warned = {**record, "warnings": ["RuntimeWarning: invalid value encountered in multiply"]}
    assert regen.mismatches(record, warned) == [
        "warning RuntimeWarning: invalid value encountered in multiply"]
