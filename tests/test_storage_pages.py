"""Tests for slotted pages."""

import pytest

from repro.errors import PageError
from repro.storage import PAGE_SIZE, SlottedPage


class TestInsertGet:
    def test_roundtrip(self):
        page = SlottedPage()
        slot = page.insert(b"hello world")
        assert page.get(slot) == b"hello world"

    def test_multiple_records_keep_distinct_slots(self):
        page = SlottedPage()
        slots = [page.insert(f"record {i}".encode()) for i in range(10)]
        assert len(set(slots)) == 10
        for index, slot in enumerate(slots):
            assert page.get(slot) == f"record {index}".encode()

    def test_empty_record_allowed(self):
        page = SlottedPage()
        slot = page.insert(b"")
        assert page.get(slot) == b""

    def test_max_record_fits_exactly(self):
        page = SlottedPage()
        data = b"x" * SlottedPage.max_record_size()
        slot = page.insert(data)
        assert page.get(slot) == data

    def test_oversized_record_rejected(self):
        page = SlottedPage()
        with pytest.raises(PageError):
            page.insert(b"x" * (SlottedPage.max_record_size() + 1))

    def test_full_page_rejects_insert(self):
        page = SlottedPage()
        while page.free_space >= 100:
            page.insert(b"y" * 100)
        with pytest.raises(PageError):
            page.insert(b"z" * (page.free_space + 200))

    def test_bad_slot_rejected(self):
        page = SlottedPage()
        with pytest.raises(PageError):
            page.get(0)

    def test_wrong_size_raw_rejected(self):
        with pytest.raises(PageError):
            SlottedPage(bytearray(100))

    def test_all_zero_page_reads_as_empty(self):
        """A page the file allocated but never had written back (a crash
        before write-back) is all zeros; it must behave as a fresh page."""
        page = SlottedPage(bytearray(PAGE_SIZE))
        assert page.slots() == []
        assert page.reclaimable == SlottedPage().reclaimable
        slot = page.insert(b"abc")
        assert page.get(slot) == b"abc"
        assert SlottedPage(page.raw).get(slot) == b"abc"


class TestDelete:
    def test_deleted_slot_unreadable(self):
        page = SlottedPage()
        slot = page.insert(b"doomed")
        page.delete(slot)
        with pytest.raises(PageError):
            page.get(slot)

    def test_double_delete_rejected(self):
        page = SlottedPage()
        slot = page.insert(b"x")
        page.delete(slot)
        with pytest.raises(PageError):
            page.delete(slot)

    def test_slot_reuse_after_delete(self):
        page = SlottedPage()
        slot_a = page.insert(b"a")
        page.insert(b"b")
        page.delete(slot_a)
        slot_c = page.insert(b"c")
        assert slot_c == slot_a
        assert page.get(slot_c) == b"c"

    def test_delete_does_not_move_other_records(self):
        page = SlottedPage()
        keep = page.insert(b"keeper")
        victim = page.insert(b"victim")
        page.delete(victim)
        assert page.get(keep) == b"keeper"

    def test_slots_lists_live_records_only(self):
        page = SlottedPage()
        a = page.insert(b"a")
        b = page.insert(b"b")
        page.delete(a)
        assert page.slots() == [b]


class TestUpdateCompact:
    def test_shrinking_update_in_place(self):
        page = SlottedPage()
        slot = page.insert(b"long value here")
        page.update(slot, b"tiny")
        assert page.get(slot) == b"tiny"

    def test_growing_update(self):
        page = SlottedPage()
        slot = page.insert(b"small")
        page.update(slot, b"much larger value " * 10)
        assert page.get(slot) == b"much larger value " * 10

    def test_update_of_deleted_slot_rejected(self):
        page = SlottedPage()
        slot = page.insert(b"x")
        page.delete(slot)
        with pytest.raises(PageError):
            page.update(slot, b"y")

    def test_update_too_big_rolls_back(self):
        page = SlottedPage()
        slot = page.insert(b"orig")
        filler = []
        while page.free_space >= 200:
            filler.append(page.insert(b"f" * 180))
        with pytest.raises(PageError):
            page.update(slot, b"g" * (page.free_space + 300))
        assert page.get(slot) == b"orig"  # rollback preserved the record

    def test_compaction_reclaims_space(self):
        page = SlottedPage()
        slots = [page.insert(b"d" * 200) for _ in range(10)]
        free_before = page.free_space
        for slot in slots[:5]:
            page.delete(slot)
        page.compact()
        assert page.free_space >= free_before + 5 * 200

    def test_compaction_preserves_survivors(self):
        page = SlottedPage()
        slots = [page.insert(f"data-{i}".encode() * 10) for i in range(8)]
        for slot in slots[::2]:
            page.delete(slot)
        page.compact()
        for index in range(1, 8, 2):
            assert page.get(slots[index]) == f"data-{index}".encode() * 10

    def test_fits_accounts_for_reclaimable(self):
        page = SlottedPage()
        slot = page.insert(b"x" * 3000)
        page.delete(slot)
        assert page.fits(3000)
        assert page.reclaimable == SlottedPage.max_record_size() - 4

    def test_full_page_has_no_room_for_an_empty_record(self):
        # Data reaching the slot directory leaves no room for another
        # slot entry, even for a zero-length record.
        page = SlottedPage()
        page.insert(b"x" * SlottedPage.max_record_size())
        assert page.reclaimable < 0
        assert not page.fits(0)
        with pytest.raises(PageError):
            page.insert(b"")
        assert page.get(0) == b"x" * SlottedPage.max_record_size()

    def test_insert_triggers_compaction_when_fragmented(self):
        page = SlottedPage()
        slots = [page.insert(b"x" * 500) for _ in range(7)]
        for slot in slots[:4]:
            page.delete(slot)
        # Contiguous free space is small but reclaimable space suffices.
        slot = page.insert(b"y" * 1500)
        assert page.get(slot) == b"y" * 1500
