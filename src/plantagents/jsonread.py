"""Typed reads of the JSON values the package loads: files, standard input,
completion replies, and both ends of the plant link (request bodies and
state replies).  It imports no other module of the package.

Every such value is parsed by `decode_json`, which is `json.loads` but for
JSON nested past the recursion limit: that is a ValueError, as any other
invalid JSON is, rather than a RecursionError.

Each read checks a value's JSON type where it stands, as `json.load` gives
it.  A value that is absent or of the wrong type raises `JsonTypeError`,
which `checked` raises as the loader's own error with the value's JSON path
first: `samples[7].task_spec.required_checks: expected list, got string`.
No path is built for a value that passes: each container read adds its key
or index to an error on its way out.
"""

from __future__ import annotations

import json
from pathlib import Path

_scan_once = json.JSONDecoder().scan_once
_NAMES = {dict: "object", list: "list", str: "string", bool: "boolean", int: "number", float: "number",
          type(None): "null"}
_REQUIRED = object()


class JsonTypeError(ValueError):
    """A JSON value is absent or of the wrong type; `keys` lead to it from the value `checked` reads."""

    def __init__(self, problem: str, *keys: str | int) -> None:
        super().__init__(problem)
        self.keys = list(keys)


def _expect(value, kind: type | tuple[type, ...]):
    """`value` if it is a JSON `kind`, or one of a tuple of kinds (a boolean is no integer)."""
    kinds = kind if type(kind) is tuple else (kind,)
    if type(value) in kinds:
        return value
    expected = " or ".join("integer" if k is int else _NAMES[k] for k in kinds)
    raise JsonTypeError(f"expected {expected}, got {_NAMES.get(type(value), type(value).__name__)}")


def get(raw: dict, key: str, kind: type = str, default=_REQUIRED):
    """`raw[key]` checked to be a JSON `kind` (or null, where `default` is None), or `default` if absent."""
    value = raw.get(key, _REQUIRED)
    if type(value) is kind or (value is None and default is None):
        return value
    if value is not _REQUIRED:
        return _within(key, _expect, value, kind)
    if default is _REQUIRED:
        raise JsonTypeError(f"missing required key {key!r}")
    return default


def nested(raw: dict, key: str, read):
    """`read(raw[key])`, where `raw[key]` must be an object."""
    return _within(key, read, get(raw, key, dict))


def items(raw: dict, key: str, read=None, kind: type = dict, default=_REQUIRED) -> tuple:
    """`each` item of the list `raw[key]`, or `default` if `key` is absent."""
    return _within(key, each, get(raw, key, list, default), read, kind)


def each(values: list, read=None, kind: type = dict) -> tuple:
    """Each item of `values`, checked to be a JSON `kind`, then passed through `read` if given."""
    out = []
    try:
        for value in values:
            if type(value) is not kind:
                _expect(value, kind)
            out.append(value if read is None else read(value))
    except JsonTypeError as exc:
        exc.keys.insert(0, len(out))
        raise
    return tuple(out)


def members(raw: dict, key: str, read=None, kind: type = dict, default=_REQUIRED) -> dict:
    """Each member of the object `raw[key]` by its name, checked and read as `each` checks and reads an item;
    `default` if `key` is absent (or null, where `default` is None)."""
    values = get(raw, key, dict, default)
    if values is default:
        return values
    out = {}
    try:
        for name, value in values.items():
            if type(value) is not kind:
                _expect(value, kind)
            out[name] = value if read is None else read(value)
    except JsonTypeError as exc:
        exc.keys[:0] = (key, name)
        raise
    return out


def _within(key: str, read, *args):
    """`read(*args)`, with `key` put at the head of the path of a JsonTypeError it raises."""
    try:
        return read(*args)
    except JsonTypeError as exc:
        exc.keys.insert(0, key)
        raise


def checked(value, kind: type | tuple[type, ...], read, error: type[Exception], root: str):
    """`read(value)`, `value` checked to be a JSON `kind` first.  A JsonTypeError leaves as `error`, with
    the message `<JSON path>: <problem>`; the path of `value` itself is `root`."""
    try:
        return read(_expect(value, kind))
    except JsonTypeError as exc:
        path = "".join(f"[{key}]" if type(key) is int else f".{key}" for key in exc.keys)
        raise error(f"{path.lstrip('.') or root}: {exc}") from None


def decode_json(document: str | bytes):
    """What `json.loads(document)` gives or raises, but a ValueError for a
    document nested past the recursion limit.  Bytes that start with `{` and
    whose second byte is not NUL are UTF-8 by `json.detect_encoding`'s rules;
    the C scanner reads them without `json.loads`'s set-up, and a value that
    ends where they end is the answer.  Any other document, or one that ends
    in whitespace or has more after its value, goes through `json.loads`, so
    its encoding, BOM and error messages are as there."""
    try:
        if type(document) is bytes and document[:1] == b"{" and document[1:2] != b"\0":
            text = document.decode("utf-8", "surrogatepass")
            try:
                value, end = _scan_once(text, 0)
                if end == len(text):
                    return value
            except StopIteration:  # a missing value inside, which `json.loads` words as "Expecting value"
                pass
        return json.loads(document)
    except RecursionError as exc:
        raise ValueError(f"nested too deeply: {exc}") from None


def read_json(path: str | Path, what: str):
    """The JSON value in the file at `path`; `what` names the file in errors."""
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"{what} not found: {p}")
    with p.open("r", encoding="utf-8") as fh:
        try:
            return decode_json(fh.read())
        except ValueError as exc:  # also JSONDecodeError and UnicodeDecodeError
            raise ValueError(f"{what} is not valid JSON: {exc}") from exc
