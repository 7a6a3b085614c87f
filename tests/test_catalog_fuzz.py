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

from jsontrees import JSON, NOT_NULL_OR_STRING, NOT_STRING, json_path, positions, replaced, value_at
from plantagents.catalog import CatalogError, Registry, registry_from_dict

BUNDLED = json.loads(resources.files("plantagents.data").joinpath("catalog.json").read_text("utf-8"))

# The keys whose value may be null instead of a string.
NULLABLE = {"feature", "role", "transport_phrase"}

POSITIONS = list(positions(BUNDLED))
STRING_LEAVES = [keys for keys in POSITIONS if isinstance(value_at(BUNDLED, keys), str)]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_a_string_leaf_of_another_json_type_is_refused_with_its_json_path(data):
    keys = data.draw(st.sampled_from(STRING_LEAVES), label="leaf")
    value = data.draw(NOT_NULL_OR_STRING if keys[-1] in NULLABLE else NOT_STRING, label="value")
    path = json_path(keys)
    try:
        registry_from_dict(replaced(BUNDLED, keys, value))
    except CatalogError as exc:
        assert str(exc).startswith(f"{path}: expected string, got "), (path, str(exc))
    else:
        raise AssertionError(f"{path} = {value!r} loaded")


@settings(max_examples=300, deadline=None)
@given(keys=st.sampled_from(POSITIONS), value=JSON)
def test_any_json_value_anywhere_loads_or_is_a_catalog_error(keys, value):
    try:
        assert isinstance(registry_from_dict(replaced(BUNDLED, keys, value)), Registry)
    except CatalogError:
        pass
