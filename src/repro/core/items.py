"""Typed items: the fields of a note.

A note is a set of named items, each carrying a type tag and a value.
Special types matter to other subsystems: ``READERS``/``AUTHORS`` drive
document-level security, ``NAMES`` items hold hierarchical user names, and
``RICH_TEXT`` marks large bodies the full-text indexer tokenizes.

Values are restricted to plain builtin shapes (``str``, ``int``,
``float``, lists of them, and the attachment dict) so notes round-trip
losslessly through the binary note record (``marshal``) that storage
writes. An instance of a ``str``/``int``/``float``/``list``/``dict``
subclass (a ``str``-mixin ``Enum`` member, say) is accepted and stored as
the plain builtin, as a JSON encoder would store it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Iterable

from repro.errors import ItemError

Number = (int, float)


class ItemType(str, Enum):
    """Item data types, following the Notes item type summary."""

    TEXT = "text"
    TEXT_LIST = "text_list"
    NUMBER = "number"
    NUMBER_LIST = "number_list"
    DATETIME = "datetime"
    NAMES = "names"
    READERS = "readers"
    AUTHORS = "authors"
    RICH_TEXT = "rich_text"
    ATTACHMENT = "attachment"

    @property
    def is_name_type(self) -> bool:
        return self in (ItemType.NAMES, ItemType.READERS, ItemType.AUTHORS)


def infer_type(value: Any) -> ItemType:
    """Map a plain Python value onto the narrowest item type."""
    if isinstance(value, bool):
        raise ItemError("booleans are not a Notes item type; use 1/0 numbers")
    if isinstance(value, str):
        return ItemType.TEXT
    if isinstance(value, Number):
        return ItemType.NUMBER
    if isinstance(value, (list, tuple)):
        seq = list(value)
        if all(isinstance(element, str) for element in seq):
            return ItemType.TEXT_LIST
        if all(isinstance(element, Number) and not isinstance(element, bool) for element in seq):
            return ItemType.NUMBER_LIST
        raise ItemError(f"mixed or unsupported list value {value!r}")
    raise ItemError(f"unsupported item value {value!r} of type {type(value).__name__}")


# The type code of each item type in a binary note record is its index
# here. The order is frozen and append-only: stored records name their
# items' types by these codes, so a new type goes at the end and no member
# is ever moved or removed.
TYPE_CODES: tuple[ItemType, ...] = (
    ItemType.TEXT,  # 0
    ItemType.TEXT_LIST,  # 1
    ItemType.NUMBER,  # 2
    ItemType.NUMBER_LIST,  # 3
    ItemType.DATETIME,  # 4
    ItemType.NAMES,  # 5
    ItemType.READERS,  # 6
    ItemType.AUTHORS,  # 7
    ItemType.RICH_TEXT,  # 8
    ItemType.ATTACHMENT,  # 9
)
TYPE_CODE: dict[ItemType, int] = {type_: code for code, type_ in enumerate(TYPE_CODES)}


def _is_text(v: Any) -> bool:
    return type(v) is str


def _is_number(v: Any) -> bool:
    # Exact types: a bool is an int subclass, and never a Notes number.
    return type(v) is int or type(v) is float


def _is_text_list(v: Any) -> bool:
    return type(v) is list and all(type(e) is str for e in v)


def _is_number_list(v: Any) -> bool:
    return type(v) is list and all(type(e) is int or type(e) is float for e in v)


def _is_attachment(v: Any) -> bool:
    # Exactly {"name": filename, "data": base64 text}, the shape
    # repro.core.attachments writes.
    return (
        type(v) is dict
        and len(v) == 2
        and type(v.get("name")) is str
        and v["name"] != ""
        and type(v.get("data")) is str
    )


# Checks on plain builtin values only; Item construction turns subclass
# instances into builtins (see ``plain``) before checking.
_VALIDATORS = {
    ItemType.TEXT: _is_text,
    ItemType.RICH_TEXT: _is_text,
    ItemType.TEXT_LIST: _is_text_list,
    ItemType.NUMBER: _is_number,
    ItemType.NUMBER_LIST: _is_number_list,
    ItemType.DATETIME: _is_number,
    ItemType.NAMES: _is_text_list,
    ItemType.READERS: _is_text_list,
    ItemType.AUTHORS: _is_text_list,
    ItemType.ATTACHMENT: _is_attachment,
}
# The same checks indexed by type code, so decoding hashes no Enum.
_VALIDATORS_BY_CODE = tuple(_VALIDATORS[type_] for type_ in TYPE_CODES)


def plain(value: Any) -> Any:
    """``value`` built from plain builtins only.

    Instances of ``str``, ``int`` and ``float`` subclasses become the
    builtin (a ``str``-mixin ``Enum`` member becomes its text, not its
    ``str()``), tuples and list subclasses become lists, dict subclasses
    dicts, recursively. A bool stays a bool, and any other object is
    returned as is for the caller's check to reject. ``marshal`` stores
    only exact builtins, so this is what lets memory and disk agree.
    """
    kind = type(value)
    if kind is str or kind is int or kind is float or kind is bool:
        return value
    if isinstance(value, str):
        return str.__str__(value)
    if isinstance(value, int):
        return int.__int__(value)
    if isinstance(value, float):
        return float.__float__(value)
    if isinstance(value, (list, tuple)):
        return [plain(element) for element in value]
    if isinstance(value, dict):
        return {plain(key): plain(element) for key, element in value.items()}
    return value


@dataclass(frozen=True)
class Item:
    """One named, typed field of a note. Immutable; edits replace the item."""

    name: str
    type: ItemType
    value: Any

    def __post_init__(self) -> None:
        if type(self.name) is not str:
            if not isinstance(self.name, str):
                raise ItemError(f"item name {self.name!r} is not a string")
            object.__setattr__(self, "name", str.__str__(self.name))
        if not self.name:
            raise ItemError("item name must be non-empty")
        check = _VALIDATORS[self.type]
        if check(self.value):
            # A list or dict the caller holds must not alias the item's
            # value: the caller's later edits would change the note
            # without a revision or a write.
            if type(self.value) is list or type(self.value) is dict:
                object.__setattr__(self, "value", self.value.copy())
        else:
            # Tuples, and subclass instances such as str-mixin Enum
            # members, are stored as plain builtins.
            value = plain(self.value)
            if value is self.value or not check(value):
                raise ItemError(
                    f"value {self.value!r} is not a valid {self.type.value} "
                    f"for item {self.name!r}"
                )
            object.__setattr__(self, "value", value)

    @classmethod
    def of(cls, name: str, value: Any, type_: ItemType | None = None) -> "Item":
        """Build an item, inferring the type from the value when not given."""
        if type_ is None:
            if isinstance(value, Item):
                return cls(name, value.type, value.value)
            type_ = infer_type(value)
        return cls(name, type_, value)

    def as_list(self) -> list:
        """The value as a list (scalar values become one-element lists)."""
        if isinstance(self.value, list):
            return list(self.value)
        return [self.value]

    def to_record(self) -> tuple[str, int, Any]:
        """The item as a note record holds it: ``(name, type code, value)``."""
        return (self.name, TYPE_CODE[self.type], self.value)

    @classmethod
    def from_record(cls, record: tuple[str, int, Any]) -> "Item":
        """Read back :meth:`to_record` (see :func:`decode_items`)."""
        return decode_items((record,))[record[0]]


_new_item = object.__new__


def decode_items(records: Iterable[tuple[str, int, Any]]) -> dict[str, Item]:
    """Items by name from their ``(name, type code, value)`` records.

    The decode path of a note record: each item is checked as
    :class:`Item` construction checks it (a non-empty string name, a value
    valid for its type), but is built without the ``Enum`` call and the
    dataclass ``__init__``. The values are used as given, so they must be
    plain builtins — what ``marshal.loads`` returns.
    """
    items: dict[str, Item] = {}
    for name, code, value in records:
        if type(name) is not str or not name:
            raise ItemError(f"item name {name!r} is not a non-empty string")
        if type(code) is not int or not 0 <= code < len(TYPE_CODES):
            raise ItemError(f"item {name!r} has unknown type code {code!r}")
        if not _VALIDATORS_BY_CODE[code](value):
            raise ItemError(
                f"value {value!r} is not a valid {TYPE_CODES[code].value} "
                f"for item {name!r}"
            )
        item = _new_item(Item)
        fields = item.__dict__
        fields["name"] = name
        fields["type"] = TYPE_CODES[code]
        fields["value"] = value
        items[name] = item
    return items
