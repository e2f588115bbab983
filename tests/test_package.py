"""The package as a user meets it: the README examples, the import graph, the version."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import qtmpair
from qtmpair.cli import main

ROOT = Path(__file__).resolve().parents[1]


def test_readme_python_examples_run_in_order(capsys):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, flags=re.M | re.S)
    assert len(blocks) >= 3
    namespace = {}
    for number, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md python block {number}", "exec"), namespace)
    assert capsys.readouterr().out.startswith("axis,lambda1,lambda2,lambda3,lambda4,mx,my\n")
    assert namespace["states"].shape == (64, 4)
    assert len(namespace["result"].model.processes) == 2


def readme_shell_lines():
    """The ``qtmpair`` command lines of the README's ``sh`` blocks, continuations joined.

    CI runs the same lines through the installed console script.
    """
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```$", text, flags=re.M | re.S)
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    return [line for line in lines if line.startswith("qtmpair ")]


def test_readme_shell_examples_run_in_order(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    lines = readme_shell_lines()
    assert len(lines) >= 8
    for line in lines:
        assert main(shlex.split(line, comments=True)[1:]) == 0, line
    assert (tmp_path / "curve.csv").read_text().startswith("T_K,tau_s\n")
    capsys.readouterr()


def test_cli_import_leaves_the_reference_data_out():
    probe = "import sys, qtmpair.cli; print('qtmpair.reference' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout == "False\n"


def test_cli_import_leaves_what_only_fit_and_synth_use_out():
    # a spectral call paid for these on every start: dataclasses for the records,
    # relaxation (and csv with it) for two of the seven subcommands
    probe = ("import sys, qtmpair.cli; "
             "print([m for m in ('dataclasses', 'qtmpair.relaxation', 'csv') if m in sys.modules])")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout == "[]\n"


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")     # Python 3.11 and later
    with open(ROOT / "pyproject.toml", "rb") as handle:
        assert tomllib.load(handle)["project"]["version"] == qtmpair.__version__
