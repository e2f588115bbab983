"""Spans around the benchmark's own calls into qtmpair, and start-up timing.

Spans are kept in memory as ``[name, start, end, parent, task]`` lists and
written out when the run ends.  A span's self time is its duration minus
the time its child spans cover.  Nothing inside ``src/`` is instrumented:
lower layers are timed by calling their public functions directly.
"""

import json
import statistics
import subprocess
import sys
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []
        self._task = 0

    def call(self, name, fn, *args):
        """Call ``fn(*args)`` inside a span named ``name``."""
        span = [name, 0.0, 0.0, self._open[-1] if self._open else -1, self._task]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            return fn(*args)
        finally:
            span[2] = perf_counter()
            self._open.pop()

    @contextmanager
    def task(self, name):
        """Root span of one task; spans opened inside share its task id."""
        self._task += 1
        span = [name, 0.0, 0.0, -1, self._task]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            yield
        finally:
            span[2] = perf_counter()
            self._open.pop()

    def self_times(self, first=0, last=None):
        """{name: (calls, total self seconds)} over the spans ``first:last``."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals = {}
        for i in range(first, len(self.spans) if last is None else last):
            name, start, end, _, _ = self.spans[i]
            calls, total = totals.get(name, (0, 0.0))
            totals[name] = (calls + 1, total + (end - start) - covered[i])
        return totals

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, task in self.spans:
                handle.write(json.dumps([name, start, end, parent, task]) + "\n")


def _importtime(line):
    """(depth, name, self_us, cumulative_us) of one ``-X importtime`` line."""
    head, cumulative, raw = line.split("|")
    name = raw.rstrip()
    depth = (len(name) - len(name.lstrip()) - 1) // 2
    return depth, name.strip(), int(head.split(":")[1]), int(cumulative)


def startup_breakdown(runs, cwd):
    """Interpreter start and import costs of ``qtmpair.cli``, medians of ``runs``.

    ``python -c pass`` gives the interpreter start; ``python -X importtime``
    gives the cumulative import time of numpy and of qtmpair (``qtmpair.cli``
    and everything it pulls in, less numpy), plus every module's own cost.
    """
    interpreter = []
    for _ in range(runs):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=cwd, check=True)
        interpreter.append(perf_counter() - start)
    numpy_us, qtmpair_us, self_us = [], [], {}
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import qtmpair.cli"],
            cwd=cwd, check=True, capture_output=True, text=True,
        )
        rows = [_importtime(line) for line in proc.stderr.splitlines()
                if line.startswith("import time:") and "cumulative" not in line]
        cumulative = {name: cum for _, name, _, cum in rows}
        numpy_us.append(cumulative["numpy"])
        qtmpair_us.append(cumulative["qtmpair.cli"] - cumulative["numpy"])
        for _, name, own, _ in rows:
            self_us.setdefault(name, []).append(own)
    top = sorted(((statistics.median(v), k) for k, v in self_us.items()), reverse=True)[:12]
    return {
        "interpreter_ms": statistics.median(interpreter) * 1e3,
        "import_numpy_ms": statistics.median(numpy_us) / 1e3,
        "import_qtmpair_ms": statistics.median(qtmpair_us) / 1e3,
        "top_modules_self_ms": [[name, us / 1e3] for us, name in top],
    }
