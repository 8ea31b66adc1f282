"""Fixed-layout JSON text shared by the graph and trace files.

Both file formats are frozen byte for byte as ``json.dumps(doc,
indent=2)`` lays them out.  With ``indent`` set, json falls back to its
pure-Python encoder, so the writers instead fill %-format templates that
are built once per record shape, with keys and indentation baked in;
only the values are formatted per record.
"""

from __future__ import annotations

import json
from itertools import repeat
from json.encoder import encode_basestring_ascii as quote
from operator import itemgetter

INDENT = "  "


def record(depth: int, fields) -> str:
    """%-format template of one object nested `depth` levels deep.

    `fields` lists (key, conversion) pairs in output order; "%s" takes
    text that is already JSON, and JSON text without "%" is kept as is.
    The template starts with its own indentation, as an array item does.
    """
    pad = INDENT * depth
    lines = ",\n".join(f"{pad}{INDENT}{quote(key)}: {conv}" for key, conv in fields)
    return f"{pad}{{\n{lines}\n{pad}}}"


def array(items: list, depth: int) -> str:
    """A JSON array whose key sits at `depth`; items are laid out one deeper."""
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + "\n" + INDENT * depth + "]"


def document(template: str, values: tuple, meta: dict | None) -> str:
    """Fill a depth-0 `template`; a truthy `meta` becomes the first key.

    `meta` is small and arbitrary, so it keeps json's own encoder.
    """
    if meta:
        head = json.dumps({"meta": dict(meta)}, indent=2)[2:-2]
        template = "{\n%s,\n" + template[2:]
        values = (head,) + values
    return template % values


def enum_text(enum) -> dict:
    """member -> its value as JSON text."""
    return {member: quote(member.value) for member in enum}


_EXPECTED = {int: "an integer", bool: "true or false", str: "a string"}


def expected(kind: type, value) -> str:
    return f"expected {_EXPECTED[kind]}, got {json.dumps(value, default=repr)}"


def typed(values: list, kind: type, name: str) -> list:
    """`values` if each has exactly JSON type `kind` (int, bool or str),
    told by one pass over their types in C; else a TypeError naming the
    first other value as ``name.format(position)``."""
    if {kind}.issuperset(map(type, values)):
        return values
    pos, value = next((pos, v) for pos, v in enumerate(values) if type(v) is not kind)
    raise TypeError(f"{name.format(pos)}: {expected(kind, value)}")


def read(reader, value, key: str):
    """``reader(value)``; its TypeError or ValueError names `key`."""
    try:
        return reader(value)
    except (TypeError, ValueError) as exc:
        raise type(exc)(f"{key}: {exc}") from None


def records(cls, items, fields, name: str) -> tuple:
    """One `cls` tuple per JSON object in `items`, built in C a column at a
    time from (key, reader) `fields`: a JSON type, checked by ``typed`` as
    ``f"{name} {position}, {key}"``, or a converter for each value.  Once
    one fails, an item that is not an object or lacks a key is named first
    (``f"{name} {position}, {key}: missing"``); a converter's TypeError or
    ValueError is named ``f"{name} {position}, {key}"``."""
    columns = None
    try:
        columns = [
            typed(list(map(itemgetter(key), items)), reader, f"{name} {{}}, {key}")
            if isinstance(reader, type)
            else map(reader, map(itemgetter(key), items))
            for key, reader in fields
        ]
        return tuple(map(tuple.__new__, repeat(cls), zip(*columns)))
    except (KeyError, TypeError, ValueError):
        missing = (f"{name} {pos}, {key}: missing" for key, _ in fields for pos, item in enumerate(items) if key not in item)
        problem = not_object(items, name) or next(missing, None)
        if problem:
            raise TypeError(problem) from None
        if columns is None:  # a typed column, which named its value
            raise
        for pos, item in enumerate(items):  # in the order the columns were read
            for key, reader in fields:
                if not isinstance(reader, type):
                    read(reader, item[key], f"{name} {pos}, {key}")
        raise


def not_object(items, name: str):
    """``f"{name} {position}: ..."`` for the first item of `items` that is
    not a JSON object, or None when every one is."""
    for pos, item in enumerate(items):
        if type(item) is not dict:
            return f"{name} {pos}: expected an object, got {json.dumps(item, default=repr)}"
    return None


class _Members(dict):
    def __init__(self, enum):
        super().__init__((member.value, member) for member in enum)
        self.enum = enum

    def __missing__(self, value):
        return self.enum(value)


def enum_reader(enum):
    """value -> member through one dict lookup in C; another hashable value
    goes to `enum(value)`, which returns a member or raises its own
    ValueError, and an unhashable one is a TypeError.  Neither names its
    field: the decoders locate it once a decode has failed."""
    return _Members(enum).__getitem__
