"""Rendering for check reports.

JSON output is canonical: keys sorted and containers normalized, so
repeated runs of the same command agree byte for byte.  Text output is
for reading.
"""

import json
import math


def jsonable(x):
    """Plain data with a deterministic shape."""
    if isinstance(x, dict):
        return {k if isinstance(k, str) else str(k): jsonable(v)
                for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, (set, frozenset)):
        return sorted((jsonable(v) for v in x), key=lambda v: json.dumps(
            v, sort_keys=True))
    if isinstance(x, bool) or x is None or isinstance(x, (int, str)):
        return x
    if isinstance(x, float):
        return x if math.isfinite(x) else str(x)
    return str(x)


def render_json(report) -> str:
    return json.dumps(jsonable(report), sort_keys=True, indent=2) + "\n"


def _text_lines(x, indent, out):
    pad = "  " * indent
    if isinstance(x, dict):
        for k, v in x.items():
            if isinstance(v, (dict, list)) and v:
                out.append(f"{pad}{k}:")
                _text_lines(v, indent + 1, out)
            else:
                out.append(f"{pad}{k}: {_scalar(v)}")
    elif isinstance(x, list):
        for v in x:
            if isinstance(v, (dict, list)) and v:
                out.append(f"{pad}-")
                _text_lines(v, indent + 1, out)
            else:
                out.append(f"{pad}- {_scalar(v)}")
    else:
        out.append(f"{pad}{_scalar(x)}")


def _scalar(v):
    if isinstance(v, list) and not v:
        return "[]"
    if isinstance(v, dict) and not v:
        return "{}"
    return str(v)


def render_text(report) -> str:
    out = []
    _text_lines(jsonable(report), 0, out)
    return "\n".join(out) + "\n"


def render(report, fmt: str = "text") -> str:
    if fmt == "json":
        return render_json(report)
    if fmt == "text":
        return render_text(report)
    raise ValueError(f"unknown format {fmt!r}")
