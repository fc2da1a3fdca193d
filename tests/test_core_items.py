"""Tests for typed items."""

import pytest

from repro.core import Item, ItemType
from repro.core.items import infer_type
from repro.errors import ItemError


class TestInference:
    def test_text(self):
        assert infer_type("hello") == ItemType.TEXT

    def test_number(self):
        assert infer_type(42) == ItemType.NUMBER
        assert infer_type(3.14) == ItemType.NUMBER

    def test_text_list(self):
        assert infer_type(["a", "b"]) == ItemType.TEXT_LIST

    def test_number_list(self):
        assert infer_type([1, 2.5]) == ItemType.NUMBER_LIST

    def test_empty_list_is_text_list(self):
        assert infer_type([]) == ItemType.TEXT_LIST

    def test_bool_rejected(self):
        with pytest.raises(ItemError):
            infer_type(True)

    def test_mixed_list_rejected(self):
        with pytest.raises(ItemError):
            infer_type(["a", 1])

    def test_unsupported_rejected(self):
        with pytest.raises(ItemError):
            infer_type({"a": 1})


class TestItem:
    def test_of_infers(self):
        item = Item.of("Subject", "hi")
        assert item.type == ItemType.TEXT and item.value == "hi"

    def test_explicit_type(self):
        item = Item.of("People", ["a/Acme"], ItemType.READERS)
        assert item.type == ItemType.READERS

    def test_type_mismatch_rejected(self):
        with pytest.raises(ItemError):
            Item("Num", ItemType.NUMBER, "not a number")

    def test_readers_must_be_string_list(self):
        with pytest.raises(ItemError):
            Item("R", ItemType.READERS, [1, 2])

    def test_empty_name_rejected(self):
        with pytest.raises(ItemError):
            Item("", ItemType.TEXT, "x")

    def test_tuple_normalised_to_list(self):
        item = Item("L", ItemType.TEXT_LIST, ("a", "b"))
        assert item.value == ["a", "b"]

    def test_as_list_wraps_scalar(self):
        assert Item.of("N", 5).as_list() == [5]
        assert Item.of("L", ["x"]).as_list() == ["x"]

    def test_as_list_copies(self):
        item = Item.of("L", ["x"])
        copy = item.as_list()
        copy.append("y")
        assert item.value == ["x"]

    def test_record_roundtrip(self):
        for value, type_ in [
            ("text", None),
            (5, None),
            ([1, 2], None),
            (["a/Acme"], ItemType.AUTHORS),
            (99.5, ItemType.DATETIME),
            ("big body", ItemType.RICH_TEXT),
        ]:
            item = Item.of("X", value, type_)
            assert Item.from_record(item.to_record()) == item

    def test_datetime_holds_number(self):
        item = Item("When", ItemType.DATETIME, 86400.0)
        assert item.value == 86400.0

    def test_name_type_flag(self):
        assert ItemType.READERS.is_name_type
        assert ItemType.AUTHORS.is_name_type
        assert ItemType.NAMES.is_name_type
        assert not ItemType.TEXT.is_name_type
