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
    written as :func:`fmt` writes them, or to a list of formatted cells,
    written as given.
    """
    cells = [
        values if isinstance(values, list) else map(repr, np.asarray(values, float).tolist())
        for values in columns.values()
    ]
    return "\n".join([",".join(columns), *map(",".join, zip(*cells))]) + "\n"


def json_text(obj):
    """JSON text indented by two spaces with a final newline; arrays become lists.

    Dict keys must be strings.  The stdlib writes the same bytes with ``indent=2``,
    but only through its pure-Python encoder; here float arrays take one ``repr`` pass.
    """
    return _json(obj, "\n") + "\n"


def _json(obj, newline):
    """JSON text of ``obj``; ``newline`` is the line break and indent of its closing bracket."""
    inner = newline + "  "
    if isinstance(obj, np.ndarray):
        # float16/32/64 only: tolist leaves longdouble entries as numpy scalars
        if obj.ndim == 1 and obj.dtype.char in "efd" and obj.size and np.isfinite(obj).all():
            return "[" + inner + ("," + inner).join(map(repr, obj.tolist())) + newline + "]"
        obj = list(obj) if obj.ndim > 1 else obj.tolist()
    if isinstance(obj, dict) and obj:
        keys = map(json.encoder.encode_basestring_ascii, obj)
        items = (key + ": " + _json(value, inner) for key, value in zip(keys, obj.values()))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(obj, (list, tuple)) and obj:
        return "[" + inner + ("," + inner).join(_json(v, inner) for v in obj) + newline + "]"
    return json.dumps(obj)
