"""The golden CLI corpus: every case of tests/golden/cases.txt against its record.

``spectrum-ua``, ``extract``, ``synth`` and ``fit`` output, every exit code and all
stderr must match byte for byte; ``eigen``, ``spectrum-field`` and ``evolve`` tables
cell by cell within the tolerances of ``tests/golden/regen.py``.  After a deliberate
change, ``python tests/golden/regen.py`` rewrites the record and reports what moved.
"""

import importlib.util
import json
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "golden_regen", Path(__file__).resolve().parent / "golden" / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


def test_cli_output_matches_the_golden_corpus(tmp_path):
    expected = json.loads(regen.EXPECTED.read_text(encoding="utf-8"))
    cases = regen.load_cases()
    assert [record["case"] for record in expected] == cases, "run tests/golden/regen.py"
    problems = [
        f"{record['case']}\n  " + "\n  ".join(found)
        for record, actual in zip(expected, regen.run_cases(tmp_path, cases))
        if (found := regen.mismatches(record, actual))
    ]
    assert not problems, "\n".join(problems)


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
