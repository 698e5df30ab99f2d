"""Frozen copy of the regex ``collapse_ws`` that
``ocr_lib_ray.kernel.tokenizer`` replaced with a ``translate`` + split
rebuild.

It is the differential oracle of ``tests/test_collapse_ws.py`` — keep it
byte-for-byte as it was; do not "fix" or speed it up.
"""

from __future__ import annotations

import re

_WS_RE = re.compile(r"[ \t\n\r\f\v]+")


def frozen_collapse_ws(text: str) -> str:
    """Canonical whitespace: ASCII whitespace runs → one space, trimmed.

    Matches the SQL oracle ``trim(regexp_replace(x, '[ \\t\\n\\r\\f\\v]+',
    ' ', 'g'))`` exactly (the class is explicit so Python's unicode-aware
    ``\\s`` cannot diverge from it).
    """
    return _WS_RE.sub(" ", text).strip()
