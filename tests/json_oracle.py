"""Reference JSON writer: map the payload to plain JSON values, then json.dumps.

nmpo.cli writes its JSON documents in one recursive pass (cli._json).  This
module keeps the two-step form it replaces: jsonable() maps a Phase to its
value, a complex to {"re", "im"}, numpy scalars and arrays to Python ones
and inf and nan to the strings "inf", "-inf" and "nan"; json.dumps with
indent=2 and sorted keys then writes the result.  Both must give the same
bytes (tests/test_json_writer.py).
"""

from __future__ import annotations

import json
import math

import numpy as np

from nmpo import __version__, cli
from nmpo.meanfield import Phase


def jsonable(obj):
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, Phase):
        return obj.value
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        if math.isinf(f):
            return "inf" if f > 0 else "-inf"
        if math.isnan(f):
            return "nan"
        return f
    if isinstance(obj, complex):
        return {"re": jsonable(obj.real), "im": jsonable(obj.imag)}
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    return obj


def dumps(obj) -> str:
    """obj as the reference writes it, without the closing newline."""
    return json.dumps(jsonable(obj), indent=2, sort_keys=True)


def write_json(args, command, payload, extra_meta) -> None:
    """Drop-in for cli._write_json: the same document through this route."""
    meta = {"tool": "nmpo", "version": __version__, "command": command}
    meta.update(cli._header_fields(args, extra_meta))
    doc = {"meta": jsonable(meta)}
    doc.update(jsonable(payload))
    cli._write_text(args.out, json.dumps(doc, indent=2, sort_keys=True) + "\n")
