"""Positions in a JSON value, and hypothesis strategies for the values put there.

Shared by the fuzz tests of the catalog loader and of the task, corpus,
replay and step-array loaders.
"""

from hypothesis import strategies as st


def positions(value, keys=()):
    """The keys that lead to each value under `value`, `value` itself first."""
    yield keys
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield from positions(item, keys + (key,))


def json_path(keys) -> str:
    """The JSON path a loader's message names for `keys`: `a.b[0].c`, or `[0].a` in a list."""
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" if i else k for i, k in enumerate(keys))


def value_at(data, keys):
    for key in keys:
        data = data[key]
    return data


def replaced(data, keys, value):
    """The JSON value `data` with the value at `keys` replaced; only the
    containers on the way to it are copied, and `data` is left as it is."""
    if not keys:
        return value
    copy = data.copy()
    copy[keys[0]] = replaced(data[keys[0]], keys[1:], value)
    return copy


SCALARS = st.none() | st.booleans() | st.integers() | st.floats()
# Text a loader check parses: URLs, templates, skill codes, blanks, lone surrogates.
TEXT_VALUES = st.text(st.characters(exclude_categories=())) | st.sampled_from(
    ["", " ", "M1", "M²", "{start}", "{", "http://[", "http://a:1/b", "http://a＃b/c", "\ud800"]
)
JSON = st.recursive(
    SCALARS | TEXT_VALUES,
    lambda children: st.lists(children, max_size=3) | st.dictionaries(TEXT_VALUES, children, max_size=3),
    max_leaves=6,
)
NOT_NULL_OR_STRING = st.booleans() | st.integers() | st.floats() | st.lists(JSON, max_size=2) | st.dictionaries(
    TEXT_VALUES, JSON, max_size=2)
NOT_STRING = NOT_NULL_OR_STRING | st.none()
