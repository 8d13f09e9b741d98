"""Rendering for check reports.

A report reaching here is plain data: dicts with string keys, lists,
strings, numbers, booleans and None (cli._clean makes it so).  JSON output
sorts keys, so repeated runs of the same command agree byte for byte.
Text output is for reading.
"""

import json


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


def render(report, fmt: str = "text") -> str:
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    if fmt == "text":
        out = []
        _text_lines(report, 0, out)
        return "\n".join(out) + "\n"
    raise ValueError(f"unknown format {fmt!r}")
