"""JSON text as ``json.dumps(doc, sort_keys=True, indent=2)`` writes it.

With an indent, the standard library cannot use its C encoder and walks
the whole document in its pure-Python one. :func:`dumps` writes the same
bytes faster: a list whose items are all floats, ints, strings or bools
(by exact type) is joined with plain string operations, and everything
else is encoded item by item as the standard encoder does it.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii

_BOOLS = ("false", "true")


def _float(value: float) -> str:
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    # float's own repr: a numpy scalar's repr spells its type out
    return float.__repr__(value)


def _floats(values, sep: str) -> str:
    text = sep.join(map(float.__repr__, values))
    # only repr's "nan" and "inf" hold an n; JSON spells them NaN and Infinity
    return sep.join(map(_float, values)) if "n" in text else text


_JOINS = {
    float: _floats,
    int: lambda values, sep: sep.join(map(int.__repr__, values)),
    str: lambda values, sep: sep.join(map(encode_basestring_ascii, values)),
    bool: lambda values, sep: sep.join([_BOOLS[v] for v in values]),
}


def _key(key) -> str:
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if isinstance(key, float):
        return encode_basestring_ascii(_float(key))
    if key is True or key is False or key is None:
        return '"' + _encode(key, "") + '"'
    if isinstance(key, int):
        return '"' + int.__repr__(key) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _encode(value, newline: str) -> str:
    """``value`` as the standard encoder writes it at the indent of ``newline``."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True or value is False:
        return _BOOLS[value]
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float(value)
    inner = newline + "  "
    sep = "," + inner
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        kinds = set(map(type, value))
        join = _JOINS.get(kinds.pop()) if len(kinds) == 1 else None
        items = (join(value, sep) if join is not None
                 else sep.join([_encode(item, inner) for item in value]))
        return "[" + inner + items + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        return ("{" + inner + sep.join([_key(key) + ": " + _encode(item, inner)
                                        for key, item in sorted(value.items())])
                + newline + "}")
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def dumps(doc) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2)``, byte for byte."""
    return _encode(doc, "\n")
