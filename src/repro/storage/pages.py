"""Slotted pages: variable-length records inside fixed-size byte pages.

Layout (little-endian), after the classic textbook slotted page:

```
+--------------+-------------------------+------------------+
| header (4 B) | record data (grows ->)  | <- slot directory|
+--------------+-------------------------+------------------+
  num_slots u16        free space          4 B per slot
  data_end  u16                            (offset u16, len u16)
```

``data_end`` is the offset one past the last record byte. The slot
directory grows downward from the page tail. A deleted slot keeps its
directory entry (so slot numbers stay stable for record ids) with
``offset == TOMBSTONE``.
"""

from __future__ import annotations

import struct

from repro.errors import PageError

PAGE_SIZE = 4096
_HEADER = struct.Struct("<HH")  # num_slots, data_end
_SLOT = struct.Struct("<HH")  # offset, length
TOMBSTONE = 0xFFFF


class SlottedPage:
    """A mutable slotted page over a ``bytearray`` of ``PAGE_SIZE`` bytes."""

    def __init__(self, raw: bytearray | None = None) -> None:
        if raw is None:
            raw = bytearray(PAGE_SIZE)
        if len(raw) != PAGE_SIZE:
            raise PageError(f"page must be exactly {PAGE_SIZE} bytes, got {len(raw)}")
        if _HEADER.unpack_from(raw, 0)[1] == 0:
            # Only an unformatted (all-zero) page has data_end 0: a fresh
            # one, or one the file allocated but a crash kept from ever
            # being written back. Format it empty.
            _HEADER.pack_into(raw, 0, 0, _HEADER.size)
        self.raw = raw
        # Bytes held by live records: summed over the slot directory on
        # first use, then kept current by every record operation.
        self._live: int | None = None

    # -- header accessors ---------------------------------------------------

    @property
    def num_slots(self) -> int:
        return _HEADER.unpack_from(self.raw, 0)[0]

    def _set_header(self, num_slots: int, data_end: int) -> None:
        _HEADER.pack_into(self.raw, 0, num_slots, data_end)

    def _slot_entry_pos(self, slot: int) -> int:
        return PAGE_SIZE - _SLOT.size * (slot + 1)

    def _read_slot(self, slot: int) -> tuple[int, int]:
        if not 0 <= slot < self.num_slots:
            raise PageError(f"slot {slot} out of range (have {self.num_slots})")
        return _SLOT.unpack_from(self.raw, self._slot_entry_pos(slot))

    def _write_slot(self, slot: int, offset: int, length: int) -> None:
        _SLOT.pack_into(self.raw, self._slot_entry_pos(slot), offset, length)

    # -- space accounting ---------------------------------------------------

    def _gap(self) -> int:
        """Contiguous bytes past the data, less a new slot entry (may be < 0)."""
        num_slots, data_end = _HEADER.unpack_from(self.raw, 0)
        return PAGE_SIZE - _SLOT.size * (num_slots + 1) - data_end

    @property
    def free_space(self) -> int:
        """Contiguous bytes available for a new record *and* its slot entry."""
        return max(0, self._gap())

    @property
    def reclaimable(self) -> int:
        """Largest record :meth:`insert` accepts, compacting if it must.

        Counts tombstoned bytes as free, and is negative on a page whose
        slot directory has no room for another entry. O(1) after the
        first call on a page.
        """
        live = self._live_bytes()
        return PAGE_SIZE - _SLOT.size * (self.num_slots + 1) - _HEADER.size - live

    def _live_bytes(self) -> int:
        if self._live is None:
            self._live = sum(
                length
                for offset, length in (self._read_slot(s) for s in range(self.num_slots))
                if offset != TOMBSTONE
            )
        return self._live

    def fits(self, length: int) -> bool:
        """Whether a record of ``length`` bytes can be inserted (post-compaction)."""
        return length <= self.reclaimable

    @staticmethod
    def max_record_size() -> int:
        """Largest record a completely empty page can hold."""
        return PAGE_SIZE - _HEADER.size - _SLOT.size

    # -- record operations --------------------------------------------------

    def insert(self, data: bytes) -> int:
        """Store ``data`` and return its slot number."""
        if len(data) > self.max_record_size():
            raise PageError(f"record of {len(data)} bytes exceeds page capacity")
        if len(data) > self._gap():
            self.compact()
            if len(data) > self._gap():
                raise PageError(
                    f"page full: need {len(data)} bytes, have {self.free_space}"
                )
        self._live = self._live_bytes() + len(data)
        num_slots, data_end = _HEADER.unpack_from(self.raw, 0)
        # Reuse a tombstoned slot entry if one exists (keeps directory small).
        slot = next(
            (s for s in range(num_slots) if self._read_slot(s)[0] == TOMBSTONE),
            num_slots,
        )
        self.raw[data_end : data_end + len(data)] = data
        if slot == num_slots:
            num_slots += 1
        self._set_header(num_slots, data_end + len(data))
        self._write_slot(slot, data_end, len(data))
        return slot

    def get(self, slot: int) -> bytes:
        """Return the record bytes stored in ``slot``."""
        offset, length = self._read_slot(slot)
        if offset == TOMBSTONE:
            raise PageError(f"slot {slot} is deleted")
        return bytes(self.raw[offset : offset + length])

    def delete(self, slot: int) -> None:
        """Tombstone ``slot``; its bytes are reclaimed at the next compaction."""
        offset, length = self._read_slot(slot)
        if offset == TOMBSTONE:
            raise PageError(f"slot {slot} already deleted")
        self._live = self._live_bytes() - length
        self._write_slot(slot, TOMBSTONE, 0)

    def update(self, slot: int, data: bytes) -> None:
        """Replace the record in ``slot`` with ``data`` (may trigger compaction)."""
        offset, length = self._read_slot(slot)
        if offset == TOMBSTONE:
            raise PageError(f"slot {slot} is deleted")
        others = self._live_bytes() - length
        if len(data) <= length:
            self.raw[offset : offset + len(data)] = data
            self._write_slot(slot, offset, len(data))
            self._live = others + len(data)
            return
        # Grow: tombstone then re-insert into the same slot id.
        self._write_slot(slot, TOMBSTONE, 0)
        self._live = others
        if not self.fits(len(data)):
            self._write_slot(slot, offset, length)  # roll back
            self._live = others + length
            raise PageError(f"updated record of {len(data)} bytes does not fit")
        self.compact()
        num_slots, data_end = _HEADER.unpack_from(self.raw, 0)
        self.raw[data_end : data_end + len(data)] = data
        self._set_header(num_slots, data_end + len(data))
        self._write_slot(slot, data_end, len(data))
        self._live = others + len(data)

    def slots(self) -> list[int]:
        """Slot numbers currently holding live records."""
        return [
            s for s in range(self.num_slots) if self._read_slot(s)[0] != TOMBSTONE
        ]

    def compact(self) -> None:
        """Slide live records together, reclaiming tombstoned byte ranges."""
        records = []
        for slot in range(self.num_slots):
            offset, length = self._read_slot(slot)
            if offset != TOMBSTONE:
                records.append((slot, bytes(self.raw[offset : offset + length])))
        write_at = _HEADER.size
        for slot, data in records:
            self.raw[write_at : write_at + len(data)] = data
            self._write_slot(slot, write_at, len(data))
            write_at += len(data)
        self._set_header(self.num_slots, write_at)
