"""The plant link's JSON coders against the standard library's.

`service.encode_json` must give `json.dumps`'s text and exceptions, and
`jsonread.decode_json` `json.loads`'s value or exception, in whatever
encoding, with whatever around the value; only JSON nested past the
recursion limit differs, as a ValueError.
"""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jsontrees import JSON
from plantagents.jsonread import decode_json
from plantagents.service import encode_json

# Every encoding `json.loads` detects in bytes; utf-16 and utf-32 write a BOM.
ENCODINGS = ["utf-8", "utf-8-sig", "utf-16", "utf-16-le", "utf-16-be", "utf-32", "utf-32-le"]
AROUND = st.sampled_from(["", " ", "\r\n\t", "﻿", "\0", "x", "}", "{}", "[1]", "é"])


def _outcome(decode, document):
    """The decoded value as its JSON text (NaN is not NaN), or the exception's type and message."""
    try:
        return json.dumps(decode(document))
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(value=JSON)
def test_encode_json_is_json_dumps(value):
    assert encode_json(value) == json.dumps(value)


@pytest.mark.parametrize("value", [set(), {"a": [1, {2}]}, {1j: 1}, b"x"], ids=["set", "nested-set", "key", "bytes"])
def test_encode_json_refuses_what_json_dumps_refuses(value):
    with pytest.raises(TypeError) as dumps:
        json.dumps(value)
    with pytest.raises(TypeError) as encoded:
        encode_json(value)
    assert str(encoded.value) == str(dumps.value)


def test_encode_json_refuses_a_circular_value_on_every_call():
    circular = {"a": []}
    circular["a"].append(circular)
    for _ in range(2):
        with pytest.raises(ValueError, match="^Circular reference detected$"):
            encode_json(circular)
    assert encode_json({"a": [1]}) == '{"a": [1]}'


@settings(max_examples=300, deadline=None)
@given(value=JSON, ascii=st.booleans(), encoding=st.sampled_from(ENCODINGS), before=AROUND, after=AROUND,
       as_text=st.booleans())
def test_decode_json_is_json_loads(value, ascii, encoding, before, after, as_text):
    """The text of a value, in any encoding `json.loads` reads from bytes,
    or as text, with whitespace, a BOM or junk before or after it."""
    text = before + json.dumps(value, ensure_ascii=ascii) + after
    document = text if as_text else text.encode(encoding, "surrogatepass")
    assert _outcome(decode_json, document) == _outcome(json.loads, document)


@settings(max_examples=300, deadline=None)
@given(document=st.binary(max_size=24) | st.binary(max_size=24).map(lambda tail: b"{" + tail))
@example(document=b'{"\xed\xa0\x80": 1}')  # a lone surrogate, which `json.loads` reads as one
def test_decode_json_is_json_loads_on_any_bytes(document):
    assert _outcome(decode_json, document) == _outcome(json.loads, document)


DEEP = 100_000  # far past any recursion limit


@pytest.mark.parametrize("document", [
    b"[" * DEEP + b"]" * DEEP,
    b'{"a": ' + b"[" * DEEP + b"]" * DEEP + b"}",  # bytes that skip `json.loads`
    '{"a": ' * DEEP + "1" + "}" * DEEP,
], ids=["array", "object-of-arrays", "text"])
def test_decode_json_refuses_json_nested_past_the_recursion_limit(document):
    with pytest.raises(RecursionError):
        json.loads(document)
    with pytest.raises(ValueError, match="^nested too deeply: "):
        decode_json(document)
