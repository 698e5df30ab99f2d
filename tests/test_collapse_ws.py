"""Differential test of the linear-time ``collapse_ws`` against the frozen
regex copy it replaced (``tests/frozen_tokenizer.py``), and of the
``count(" ") + 1`` word count ``segment`` uses against ``len(split(" "))``.

Texts are drawn from every ASCII whitespace character (in runs), the
non-ASCII characters ``str.strip`` also removes but the ASCII class does
not (``\\xa0``, ``\\u2003``, ``\\x1c``-``\\x1f``, ``\\x85``) and a few
letters, so the ends and the interior of a text hit every mix of the two.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frozen_tokenizer import frozen_collapse_ws
from ocr_lib_ray.kernel.tokenizer import collapse_ws

ASCII_WS = " \t\n\r\f\v"
UNICODE_WS = "\xa0\u2003\x1c\x1d\x1e\x1f\x85"

_piece = st.one_of(
    st.text(alphabet=ASCII_WS, min_size=1, max_size=5),  # ASCII runs
    st.sampled_from(list(UNICODE_WS)),
    st.text(alphabet="abé", min_size=1, max_size=3),
)
_texts = st.lists(_piece, max_size=12).map("".join)


def _assert_same(text: str) -> None:
    out = collapse_ws(text)
    assert out == frozen_collapse_ws(text)
    assert out.count(" ") + 1 == len(out.split(" "))


@settings(max_examples=2000, deadline=None)
@given(_texts)
def test_collapse_ws_equals_frozen(text):
    _assert_same(text)


@settings(max_examples=300, deadline=None)
@given(st.text())
def test_collapse_ws_equals_frozen_on_any_text(text):
    _assert_same(text)


@pytest.mark.parametrize(
    "text",
    ["", " ", "      ", ASCII_WS, ASCII_WS * 3, UNICODE_WS, "a"]
    + [f"{c}a{c}{c}b{c}" for c in ASCII_WS + UNICODE_WS]
    + [f"{u} {u}a  b{u} {u}" for u in UNICODE_WS]
    + [f" {u}  a{u}\t{u}b \n{u}" for u in UNICODE_WS],
)
def test_collapse_ws_edges(text):
    """Empty and all-space texts, each whitespace character doubled at
    both ends and inside, and non-ASCII whitespace between ASCII runs."""
    _assert_same(text)
