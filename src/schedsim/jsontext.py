"""Fixed-layout JSON text shared by the graph and trace files, and the
schema their decoders read.

Both file formats are frozen byte for byte as ``json.dumps(doc,
indent=2)`` lays them out.  With ``indent`` set, json falls back to its
pure-Python encoder, so the writers instead fill %-format templates;
only the values are formatted per record.

Each format is described once, as a schema in plain data: a record maps
each key, in file order, to its kind, which is ``int``, ``bool`` or
``str`` (that exact JSON type: a boolean is no integer), an enum,
``(item, kind)`` for an array whose items are named ``f"{item}
{position}"``, or, for a tag such as an action's ``"type"``, a dict from
each value to the record whose fields follow.  The writers' templates
are built once at import from the schema records (`template`), with
keys, indentation and any fixed tag or enum text baked in.  The decoders
read the schema's columns in C (`records`, `typed`) under `decoding`: if
one raises, `check` walks the document against the schema and names the
first problem.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from itertools import repeat
from json.encoder import encode_basestring_ascii as quote
from operator import itemgetter

INDENT = "  "


def template(depth: int, record: dict, **baked: str) -> str:
    """%-format template of one object of schema `record`, nested `depth`
    levels deep, its keys in the record's order: an ``int`` field takes
    "%d", any other field "%s" (text that is already JSON), and a field
    named in `baked` is the JSON text given for it, fixed, which holds no
    "%".  The template starts with its own indentation, as an array item
    does."""
    pad = INDENT * depth
    lines = ",\n".join(
        f"{pad}{INDENT}{quote(key)}: "
        + (baked[key] if key in baked else "%d" if kind is int else "%s")
        for key, kind in record.items()
    )
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


_EXPECTED = {int: "an integer", bool: "true or false", str: "a string", dict: "an object", list: "an array"}
SHOWN = 60  # the longest value a message shows whole


def shown(text: str) -> str:
    """`text`, cut to SHOWN characters with "..." if it is longer."""
    return text if len(text) <= SHOWN else text[: SHOWN - 3] + "..."


def typed(values: list, kind: type) -> list:
    """`values` if it is a list whose items all have exactly JSON type
    `kind`, told by one pass over their types in C; else a TypeError."""
    if type(values) is list and {kind}.issuperset(map(type, values)):
        return values
    raise TypeError(kind)


def records(cls, items: list, record: dict, **readers) -> tuple:
    """One `cls` tuple per JSON object of the array `items`, built in C a
    column at a time from schema `record`: a JSON type is checked, an enum
    value looked up, and an array checked and read by ``readers[key]``."""
    if type(items) is not list:
        raise TypeError(items)
    columns = []
    for key, kind in record.items():
        column = map(itemgetter(key), items)
        if type(kind) is tuple:
            column = map(readers[key], typed(list(column), list))
        elif kind in (int, bool, str):
            column = typed(list(column), kind)
        else:
            column = map(enum_reader(kind), column)
        columns.append(column)
    return tuple(map(tuple.__new__, repeat(cls), zip(*columns)))


def enum_reader(enum):
    """value -> member through one dict lookup in C; any other value raises."""
    return {member.value: member for member in enum}.__getitem__


@contextmanager
def decoding(schema: dict, data):
    """Around the fast decode of `data`: if it raises, `check` names the
    first place where `data` departs from `schema`; with none, the decode's
    own exception goes on."""
    try:
        yield
    except Exception:
        check(schema, data)
        raise


def check(kind, value, at: str = "", key: str = "", record: str = "") -> None:
    """Raise at the first place where `value`, the field `key` of the
    record named `at` (an item of array `record`, if it is one), departs
    from `kind`: a TypeError for a missing key or another JSON type, a
    ValueError for an unknown value.  The walk recurses once per level of
    the schema, whatever the document's nesting."""
    name = f"{at}, {key}" if at and key else at or key
    want = {tuple: list, dict: dict}.get(type(kind), kind)  # the JSON type `value` needs
    if want not in _EXPECTED:  # an enum, which words an unknown value itself
        try:
            hash(value)
            kind(value)
        except (TypeError, ValueError) as exc:
            raise type(exc)(f"{name}: {exc}") from None
    elif type(value) is not want:
        text = json.dumps(value, default=repr)
        if repr(json.loads(text)) != repr(value):  # a tuple, a key that is no str, a non-JSON type
            text = repr(value)
        raise TypeError((f"{name}: " if name else "") + f"expected {_EXPECTED[want]}, got {shown(text)}") from None
    elif want is list:
        item, kind = kind
        for pos, each in enumerate(value):
            check(kind, each, at, f"{item} {pos}", item)
    elif want is dict:
        for field, of in kind.items():
            here = f"{name}, {field}" if name else field
            if field not in value:
                raise TypeError(f"{here}: missing") from None
            if type(of) is not dict:
                check(of, value[field], name, field)
                continue
            tag = value[field]  # a tag: its value picks the record whose fields follow
            try:
                hash(tag)
            except TypeError as exc:
                raise TypeError(f"{here}: {exc}") from None
            if tag not in of:
                raise ValueError(f"{here}: {tag!r} is not a valid {record} {field}") from None
            check(of[tag], value, at, key, record)
