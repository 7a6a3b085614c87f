"""Generated catalogs through the loader.

Each example is the bundled catalog with one value replaced.  Whatever the
value, loading gives a `Registry` or a `CatalogError`, and nothing else; a
value that is no string where the catalog takes a string is refused with a
message that starts with that value's JSON path.
"""

import json
from importlib import resources

from hypothesis import given, settings
from hypothesis import strategies as st

from plantagents.catalog import CatalogError, Registry, registry_from_dict

TEXT = resources.files("plantagents.data").joinpath("catalog.json").read_text("utf-8")

# The keys whose value may be null instead of a string.
NULLABLE = {"feature", "role", "transport_phrase"}


def _positions(value, keys=()):
    """The keys that lead to each value under `value`, `value` itself first."""
    yield keys
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield from _positions(item, keys + (key,))


def _json_path(keys) -> str:
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" if i else k for i, k in enumerate(keys))


def _value_at(data, keys):
    for key in keys:
        data = data[key]
    return data


def _replaced(keys, value):
    """The bundled catalog's JSON value with the value at `keys` replaced."""
    if not keys:
        return value
    data = json.loads(TEXT)
    _value_at(data, keys[:-1])[keys[-1]] = value
    return data


BUNDLED = json.loads(TEXT)
POSITIONS = list(_positions(BUNDLED))
STRING_LEAVES = [keys for keys in POSITIONS if isinstance(_value_at(BUNDLED, keys), str)]

SCALARS = st.none() | st.booleans() | st.integers() | st.floats()
# Text a catalog check parses: URLs, templates, skill codes, blanks, lone surrogates.
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


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_a_string_leaf_of_another_json_type_is_refused_with_its_json_path(data):
    keys = data.draw(st.sampled_from(STRING_LEAVES), label="leaf")
    value = data.draw(NOT_NULL_OR_STRING if keys[-1] in NULLABLE else NOT_STRING, label="value")
    path = _json_path(keys)
    try:
        registry_from_dict(_replaced(keys, value))
    except CatalogError as exc:
        assert str(exc).startswith(f"{path}: expected string, got "), (path, str(exc))
    else:
        raise AssertionError(f"{path} = {value!r} loaded")


@settings(max_examples=300, deadline=None)
@given(keys=st.sampled_from(POSITIONS), value=JSON)
def test_any_json_value_anywhere_loads_or_is_a_catalog_error(keys, value):
    try:
        assert isinstance(registry_from_dict(_replaced(keys, value)), Registry)
    except CatalogError:
        pass
