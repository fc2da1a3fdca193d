"""An order-N B+tree with full delete rebalancing and range scans.

This is the ordered in-memory index structure behind every view and folder
index (collation-key order). It is deliberately a textbook B+tree — leaf
chaining for range scans, borrow/merge on underflow — so the log-N
navigation cost the paper attributes to view indexes is structural, not an
artifact of Python dict behaviour.

Keys must be mutually comparable; values are arbitrary. Keys are unique:
inserting an existing key replaces its value (callers that need duplicate
collation keys append a unique tie-breaker such as the note UNID).

The tree is *counted*: every internal node keeps, beside each child, the
number of entries under that child. Insert, split, delete, borrow, merge
and bulk load keep the counts exact, which makes position an O(log n)
question in both directions: :meth:`BPlusTree.rank` says how many keys
sort before a key, and :meth:`BPlusTree.items_from` starts a scan at a
0-based position. A view uses the pair to read one page of a Domino
``?OpenView&Start=n&Count=m`` request, and ``rank(prefix)`` to place a
category heading's row, without touching the entries before the page.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate
from typing import Any, Iterator

from repro.errors import BTreeError


class _Node:
    __slots__ = ("keys",)

    def __init__(self) -> None:
        self.keys: list[Any] = []


class _Leaf(_Node):
    __slots__ = ("values", "next")

    def __init__(self) -> None:
        super().__init__()
        self.values: list[Any] = []
        self.next: _Leaf | None = None


class _Internal(_Node):
    __slots__ = ("children", "counts")

    def __init__(self) -> None:
        super().__init__()
        # len(children) == len(keys) + 1; keys[i] is the smallest key
        # reachable through children[i + 1].
        self.children: list[_Node] = []
        # counts[i] is the number of entries in the subtree children[i].
        self.counts: list[int] = []


def _size(node: _Node) -> int:
    """Entries under ``node``."""
    if isinstance(node, _Leaf):
        return len(node.keys)
    return sum(node.counts)  # type: ignore[attr-defined]


class BPlusTree:
    """In-memory B+tree mapping unique keys to values."""

    def __init__(self, order: int = 32) -> None:
        if order < 4:
            raise BTreeError(f"order must be >= 4, got {order}")
        self.order = order
        self._root: _Node = _Leaf()
        self._size = 0
        # Structural counters for the E6 experiment (node touches per op).
        self.node_reads = 0
        self.node_splits = 0
        self.node_merges = 0

    # -- basic protocol -------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def __contains__(self, key: Any) -> bool:
        sentinel = object()
        return self.get(key, sentinel) is not sentinel

    def __iter__(self) -> Iterator[Any]:
        return (key for key, _ in self.items())

    # -- lookup ---------------------------------------------------------

    def _find_leaf(self, key: Any) -> _Leaf:
        node = self._root
        while isinstance(node, _Internal):
            self.node_reads += 1
            node = node.children[bisect_right(node.keys, key)]
        self.node_reads += 1
        return node  # type: ignore[return-value]

    def get(self, key: Any, default: Any = None) -> Any:
        """Return the value stored under ``key``, or ``default``."""
        leaf = self._find_leaf(key)
        index = bisect_left(leaf.keys, key)
        if index < len(leaf.keys) and leaf.keys[index] == key:
            return leaf.values[index]
        return default

    def items(self) -> Iterator[tuple[Any, Any]]:
        """All (key, value) pairs in ascending key order."""
        node = self._root
        while isinstance(node, _Internal):
            node = node.children[0]
        leaf: _Leaf | None = node  # type: ignore[assignment]
        while leaf is not None:
            yield from zip(leaf.keys, leaf.values)
            leaf = leaf.next

    def range(
        self,
        lo: Any = None,
        hi: Any = None,
        include_lo: bool = True,
        include_hi: bool = True,
    ) -> Iterator[tuple[Any, Any]]:
        """(key, value) pairs with lo <= key <= hi (bounds optional)."""
        if lo is None:
            node = self._root
            while isinstance(node, _Internal):
                node = node.children[0]
            leaf: _Leaf = node  # type: ignore[assignment]
            index = 0
        else:
            leaf = self._find_leaf(lo)
            index = bisect_left(leaf.keys, lo)
            if not include_lo:
                while index < len(leaf.keys) and leaf.keys[index] == lo:
                    index += 1
        current: _Leaf | None = leaf
        while current is not None:
            while index < len(current.keys):
                key = current.keys[index]
                if hi is not None:
                    if key > hi or (not include_hi and key == hi):
                        return
                yield key, current.values[index]
                index += 1
            current = current.next
            index = 0

    def rank(self, key: Any) -> int:
        """The number of keys strictly less than ``key`` (O(log n)).

        ``key`` need not be present; it may be any value comparable with
        the stored keys, such as a key prefix or a prefix closed by a
        sentinel that sorts above every component.
        """
        node = self._root
        position = 0
        while isinstance(node, _Internal):
            self.node_reads += 1
            index = bisect_right(node.keys, key)
            position += sum(node.counts[:index])
            node = node.children[index]
        self.node_reads += 1
        return position + bisect_left(node.keys, key)

    def items_from(self, position: int) -> Iterator[tuple[Any, Any]]:
        """(key, value) pairs from 0-based ``position`` onward.

        The descent to the starting leaf is O(log n) — subtree counts
        steer it — and the scan then follows the leaf chain.
        """
        if position < 0:
            raise BTreeError(f"position must be >= 0, got {position}")
        node = self._root
        while isinstance(node, _Internal):
            self.node_reads += 1
            ends = list(accumulate(node.counts))
            index = bisect_right(ends, position)
            if index == len(ends):
                return  # past the last entry
            if index:
                position -= ends[index - 1]
            node = node.children[index]
        self.node_reads += 1
        yield from zip(node.keys[position:], node.values[position:])  # type: ignore[attr-defined]
        leaf: _Leaf | None = node.next  # type: ignore[attr-defined]
        while leaf is not None:
            yield from zip(leaf.keys, leaf.values)
            leaf = leaf.next

    def min_key(self) -> Any:
        """Smallest key, or None for an empty tree."""
        for key, _ in self.items():
            return key
        return None

    # -- bulk load --------------------------------------------------------

    def bulk_load(self, pairs: list[tuple[Any, Any]]) -> None:
        """Build the tree from ``pairs`` sorted by unique key.

        O(n): leaves are written directly at a 2/3 fill factor and internal
        levels assembled bottom-up — the classic index bulk load. Only
        valid on an empty tree; ordering and uniqueness are verified.
        """
        if self._size:
            raise BTreeError("bulk_load requires an empty tree")
        if not pairs:
            return
        for (a, _), (b, __) in zip(pairs, pairs[1:]):
            if not a < b:
                raise BTreeError("bulk_load needs strictly ascending keys")
        fill = max((self.order * 2) // 3, self._min_fill, 2)
        chunks = [pairs[i : i + fill] for i in range(0, len(pairs), fill)]
        if len(chunks) > 1 and len(chunks[-1]) < self._min_fill:
            # Fix the underfull tail: merge with its neighbour when the
            # pair fits one node, otherwise split the pair evenly (each
            # half is then >= order//2).
            combined = chunks[-2] + chunks[-1]
            if len(combined) <= self.order:
                chunks[-2:] = [combined]
            else:
                half = (len(combined) + 1) // 2
                chunks[-2:] = [combined[:half], combined[half:]]
        leaves: list[_Leaf] = []
        for chunk in chunks:
            leaf = _Leaf()
            leaf.keys = [key for key, _ in chunk]
            leaf.values = [value for _, value in chunk]
            if leaves:
                leaves[-1].next = leaf
            leaves.append(leaf)
        self._size = len(pairs)
        level: list[_Node] = list(leaves)
        min_keys = [leaf.keys[0] for leaf in leaves]
        while len(level) > 1:
            group = fill + 1  # children per internal node
            next_level: list[_Node] = []
            next_min_keys: list[Any] = []
            groups = [
                (level[i : i + group], min_keys[i : i + group])
                for i in range(0, len(level), group)
            ]
            if len(groups) > 1 and len(groups[-1][0]) < self._min_fill:
                merged_nodes = groups[-2][0] + groups[-1][0]
                merged_mins = groups[-2][1] + groups[-1][1]
                if len(merged_nodes) <= self.order:
                    groups[-2:] = [(merged_nodes, merged_mins)]
                else:
                    half = (len(merged_nodes) + 1) // 2
                    groups[-2:] = [
                        (merged_nodes[:half], merged_mins[:half]),
                        (merged_nodes[half:], merged_mins[half:]),
                    ]
            for children, child_mins in groups:
                node = _Internal()
                node.children = list(children)
                node.counts = [_size(child) for child in children]
                node.keys = list(child_mins[1:])
                next_level.append(node)
                next_min_keys.append(child_mins[0])
            level = next_level
            min_keys = next_min_keys
        self._root = level[0]

    # -- insert ---------------------------------------------------------

    def insert(self, key: Any, value: Any) -> None:
        """Insert or replace ``key``."""
        split = self._insert(self._root, key, value)
        if split is not None:
            middle_key, right = split
            new_root = _Internal()
            new_root.keys = [middle_key]
            new_root.children = [self._root, right]
            new_root.counts = [_size(self._root), _size(right)]
            self._root = new_root

    def _insert(self, node: _Node, key: Any, value: Any):
        if isinstance(node, _Leaf):
            index = bisect_left(node.keys, key)
            if index < len(node.keys) and node.keys[index] == key:
                node.values[index] = value
                return None
            node.keys.insert(index, key)
            node.values.insert(index, value)
            self._size += 1
            if len(node.keys) > self.order:
                return self._split_leaf(node)
            return None
        internal: _Internal = node  # type: ignore[assignment]
        child_index = bisect_right(internal.keys, key)
        before = self._size
        split = self._insert(internal.children[child_index], key, value)
        internal.counts[child_index] += self._size - before  # 0 on replace
        if split is None:
            return None
        middle_key, right = split
        right_size = _size(right)
        internal.keys.insert(child_index, middle_key)
        internal.children.insert(child_index + 1, right)
        internal.counts[child_index] -= right_size
        internal.counts.insert(child_index + 1, right_size)
        if len(internal.children) > self.order:
            return self._split_internal(internal)
        return None

    def _split_leaf(self, leaf: _Leaf):
        self.node_splits += 1
        middle = len(leaf.keys) // 2
        right = _Leaf()
        right.keys = leaf.keys[middle:]
        right.values = leaf.values[middle:]
        leaf.keys = leaf.keys[:middle]
        leaf.values = leaf.values[:middle]
        right.next = leaf.next
        leaf.next = right
        return right.keys[0], right

    def _split_internal(self, node: _Internal):
        self.node_splits += 1
        middle = len(node.keys) // 2
        push_up = node.keys[middle]
        right = _Internal()
        right.keys = node.keys[middle + 1 :]
        right.children = node.children[middle + 1 :]
        right.counts = node.counts[middle + 1 :]
        node.keys = node.keys[:middle]
        node.children = node.children[: middle + 1]
        node.counts = node.counts[: middle + 1]
        return push_up, right

    # -- delete ---------------------------------------------------------

    def delete(self, key: Any) -> Any:
        """Remove ``key`` and return its value; KeyError if absent."""
        value = self._delete(self._root, key)
        if isinstance(self._root, _Internal) and len(self._root.children) == 1:
            self._root = self._root.children[0]
        return value

    @property
    def _min_fill(self) -> int:
        return self.order // 2

    def _delete(self, node: _Node, key: Any) -> Any:
        if isinstance(node, _Leaf):
            index = bisect_left(node.keys, key)
            if index >= len(node.keys) or node.keys[index] != key:
                raise KeyError(key)
            node.keys.pop(index)
            value = node.values.pop(index)
            self._size -= 1
            return value
        internal: _Internal = node  # type: ignore[assignment]
        child_index = bisect_right(internal.keys, key)
        value = self._delete(internal.children[child_index], key)
        internal.counts[child_index] -= 1
        self._rebalance(internal, child_index)
        return value

    def _rebalance(self, parent: _Internal, child_index: int) -> None:
        child = parent.children[child_index]
        if self._fill(child) >= self._min_fill:
            return
        left = parent.children[child_index - 1] if child_index > 0 else None
        right = (
            parent.children[child_index + 1]
            if child_index + 1 < len(parent.children)
            else None
        )
        if left is not None and self._fill(left) > self._min_fill:
            self._borrow_from_left(parent, child_index)
        elif right is not None and self._fill(right) > self._min_fill:
            self._borrow_from_right(parent, child_index)
        elif left is not None:
            self._merge(parent, child_index - 1)
        elif right is not None:
            self._merge(parent, child_index)

    @staticmethod
    def _fill(node: _Node) -> int:
        if isinstance(node, _Leaf):
            return len(node.keys)
        return len(node.children)  # type: ignore[attr-defined]

    def _borrow_from_left(self, parent: _Internal, child_index: int) -> None:
        child = parent.children[child_index]
        left = parent.children[child_index - 1]
        if isinstance(child, _Leaf) and isinstance(left, _Leaf):
            child.keys.insert(0, left.keys.pop())
            child.values.insert(0, left.values.pop())
            parent.keys[child_index - 1] = child.keys[0]
            moved = 1
        else:
            assert isinstance(child, _Internal) and isinstance(left, _Internal)
            child.keys.insert(0, parent.keys[child_index - 1])
            parent.keys[child_index - 1] = left.keys.pop()
            child.children.insert(0, left.children.pop())
            moved = left.counts.pop()
            child.counts.insert(0, moved)
        parent.counts[child_index - 1] -= moved
        parent.counts[child_index] += moved

    def _borrow_from_right(self, parent: _Internal, child_index: int) -> None:
        child = parent.children[child_index]
        right = parent.children[child_index + 1]
        if isinstance(child, _Leaf) and isinstance(right, _Leaf):
            child.keys.append(right.keys.pop(0))
            child.values.append(right.values.pop(0))
            parent.keys[child_index] = right.keys[0]
            moved = 1
        else:
            assert isinstance(child, _Internal) and isinstance(right, _Internal)
            child.keys.append(parent.keys[child_index])
            parent.keys[child_index] = right.keys.pop(0)
            child.children.append(right.children.pop(0))
            moved = right.counts.pop(0)
            child.counts.append(moved)
        parent.counts[child_index + 1] -= moved
        parent.counts[child_index] += moved

    def _merge(self, parent: _Internal, left_index: int) -> None:
        self.node_merges += 1
        left = parent.children[left_index]
        right = parent.children[left_index + 1]
        if isinstance(left, _Leaf) and isinstance(right, _Leaf):
            left.keys.extend(right.keys)
            left.values.extend(right.values)
            left.next = right.next
        else:
            assert isinstance(left, _Internal) and isinstance(right, _Internal)
            left.keys.append(parent.keys[left_index])
            left.keys.extend(right.keys)
            left.children.extend(right.children)
            left.counts.extend(right.counts)
        parent.keys.pop(left_index)
        parent.children.pop(left_index + 1)
        parent.counts[left_index] += parent.counts.pop(left_index + 1)

    # -- diagnostics ------------------------------------------------------

    def height(self) -> int:
        """Number of levels from root to leaf (1 for a leaf-only tree)."""
        node = self._root
        levels = 1
        while isinstance(node, _Internal):
            node = node.children[0]
            levels += 1
        return levels

    def validate(self) -> None:
        """Check structural invariants; raises :class:`BTreeError` on breakage.

        Used by the property-based tests: key ordering within and across
        nodes, separator correctness, fill factors, subtree counts, and
        leaf-chain/size agreement.
        """
        leaf_count = self._validate_node(self._root, None, None, is_root=True)
        if leaf_count != self._size:
            raise BTreeError(f"size mismatch: chain has {leaf_count}, size={self._size}")

    def _validate_node(self, node: _Node, lo: Any, hi: Any, is_root: bool) -> int:
        keys = node.keys
        if any(keys[i] >= keys[i + 1] for i in range(len(keys) - 1)):
            raise BTreeError(f"unsorted keys in node: {keys!r}")
        if lo is not None and keys and keys[0] < lo:
            raise BTreeError(f"key {keys[0]!r} below lower bound {lo!r}")
        if hi is not None and keys and keys[-1] >= hi:
            raise BTreeError(f"key {keys[-1]!r} not below upper bound {hi!r}")
        if isinstance(node, _Leaf):
            if not is_root and len(keys) < self._min_fill:
                raise BTreeError(f"leaf underfull: {len(keys)} < {self._min_fill}")
            if len(keys) != len(node.values):
                raise BTreeError("leaf keys/values length mismatch")
            return len(keys)
        internal: _Internal = node  # type: ignore[assignment]
        if len(internal.children) != len(keys) + 1:
            raise BTreeError("internal children/keys arity mismatch")
        if not is_root and len(internal.children) < self._min_fill:
            raise BTreeError("internal node underfull")
        if len(internal.counts) != len(internal.children):
            raise BTreeError("internal children/counts arity mismatch")
        total = 0
        bounds = [lo, *keys, hi]
        for child, count, (child_lo, child_hi) in zip(
            internal.children, internal.counts, zip(bounds[:-1], bounds[1:])
        ):
            size = self._validate_node(child, child_lo, child_hi, is_root=False)
            if size != count:
                raise BTreeError(f"subtree count {count} != {size} entries")
            total += size
        return total
