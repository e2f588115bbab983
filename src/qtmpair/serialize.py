"""The one place that decides how CSV and JSON text is written.

Floats are written with ``repr``: the shortest decimal string that
round-trips to the same value (at most 17 significant digits, '.'
separator, no locale effects), so output is byte-identical across runs.
The stdlib ``json`` module formats floats with ``repr`` too.
"""

import json

import numpy as np


def fmt(value):
    """Shortest round-trip decimal representation of a float."""
    return repr(float(value))


def csv_text(columns):
    """CSV text: header, one line per row, final newline.

    ``columns`` maps each header name, in order, to an array of floats,
    written as :func:`fmt` writes them, or to a list of formatted cells.
    """
    cells = [
        values.tolist() if values.dtype.kind == "U" else map(repr, values.astype(float).tolist())
        for values in map(np.asarray, columns.values())
    ]
    return "\n".join([",".join(columns), *map(",".join, zip(*cells))]) + "\n"


def json_text(obj):
    """JSON text indented by two spaces with a final newline; arrays become lists."""
    return json.dumps(obj, indent=2, default=np.ndarray.tolist) + "\n"
