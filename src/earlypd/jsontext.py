"""The one JSON writer for every artifact: the bytes of
``json.dumps(obj, indent=2, sort_keys=True)`` and a final newline.

Any indent sends the standard library's encoder down its pure-Python path,
which takes tenths of a second on a forest of thousands of nodes or a ROC
curve of thousands of points. Here dicts (keys sorted) and lists with a
container among their items are walked in Python, and each list of scalars
goes to the C encoder in one call: with no indent it joins items with the
item separator, so a separator of a comma, a newline and the level's indent
lays the items out exactly as the indented encoder does. The pieces are
joined once, at the end.
"""

from __future__ import annotations

import json

_SCALARS = frozenset((float, int, str, bool, type(None)))


def json_text(obj) -> str:
    """json.dumps(obj, indent=2, sort_keys=True) + "\\n" for an object of
    dicts with string keys, lists, tuples and scalars."""
    chunks = list(_chunks(obj, "\n"))
    chunks.append("\n")
    return "".join(chunks)


def _chunks(obj, newline: str):
    """obj's text in pieces, at the level whose line breaks are newline: "\\n"
    and the level's indent."""
    inner = newline + "  "
    if isinstance(obj, dict) and obj:
        if not all(type(key) is str for key in obj):
            raise TypeError("json_text writes dicts with string keys only")
        opening = "{"
        for key, value in sorted(obj.items()):
            yield opening + inner + json.dumps(key) + ": "
            yield from _chunks(value, inner)
            opening = ","
        yield newline + "}"
    elif isinstance(obj, (list, tuple)) and obj:
        if set(map(type, obj)) <= _SCALARS:
            yield "[" + inner
            yield json.dumps(obj, separators=("," + inner, ": "))[1:-1]
        else:
            opening = "["
            for item in obj:
                yield opening + inner
                yield from _chunks(item, inner)
                opening = ","
        yield newline + "]"
    else:  # a scalar, or an empty dict, list or tuple
        yield json.dumps(obj)
