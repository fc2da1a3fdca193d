"""Property-based tests: the B+tree behaves exactly like a sorted dict,
and its subtree counts answer positional questions like a sorted list."""

from bisect import bisect_left

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.storage import BPlusTree

keys = st.integers(min_value=-10_000, max_value=10_000)
values = st.integers()


@given(st.dictionaries(keys, values, max_size=300))
def test_items_match_sorted_dict(mapping):
    tree = BPlusTree(order=6)
    for key, value in mapping.items():
        tree.insert(key, value)
    assert list(tree.items()) == sorted(mapping.items())
    tree.validate()


@given(st.lists(st.tuples(keys, values), max_size=300))
def test_last_insert_wins(pairs):
    tree = BPlusTree(order=5)
    shadow = {}
    for key, value in pairs:
        tree.insert(key, value)
        shadow[key] = value
    assert dict(tree.items()) == shadow
    assert len(tree) == len(shadow)


@given(
    st.dictionaries(keys, values, max_size=200),
    st.integers(min_value=-10_000, max_value=10_000),
    st.integers(min_value=-10_000, max_value=10_000),
)
def test_range_matches_filter(mapping, a, b):
    lo, hi = min(a, b), max(a, b)
    tree = BPlusTree(order=8)
    for key, value in mapping.items():
        tree.insert(key, value)
    expected = sorted((k, v) for k, v in mapping.items() if lo <= k <= hi)
    assert list(tree.range(lo, hi)) == expected


@given(st.dictionaries(keys, values, min_size=1, max_size=200), st.data())
def test_delete_subset_keeps_rest(mapping, data):
    tree = BPlusTree(order=5)
    for key, value in mapping.items():
        tree.insert(key, value)
    victims = data.draw(
        st.lists(st.sampled_from(sorted(mapping)), unique=True, max_size=len(mapping))
    )
    for key in victims:
        tree.delete(key)
    survivors = {k: v for k, v in mapping.items() if k not in set(victims)}
    assert dict(tree.items()) == survivors
    tree.validate()


@given(st.dictionaries(keys, values, max_size=400))
def test_bulk_load_equals_sorted_dict(mapping):
    tree = BPlusTree(order=5)
    tree.bulk_load(sorted(mapping.items()))
    assert list(tree.items()) == sorted(mapping.items())
    tree.validate()


@given(
    st.dictionaries(keys, values, min_size=1, max_size=200),
    st.dictionaries(keys, values, max_size=50),
)
def test_bulk_loaded_tree_accepts_mutations(base, extra):
    tree = BPlusTree(order=4)
    tree.bulk_load(sorted(base.items()))
    shadow = dict(base)
    for key, value in extra.items():
        tree.insert(key, value)
        shadow[key] = value
    for key in list(shadow)[: len(shadow) // 2]:
        tree.delete(key)
        del shadow[key]
    assert dict(tree.items()) == shadow
    tree.validate()


@given(st.dictionaries(keys, values, max_size=400), st.data())
def test_rank_and_items_from_after_bulk_load(mapping, data):
    tree = BPlusTree(order=5)
    tree.bulk_load(sorted(mapping.items()))
    model = sorted(mapping)
    probe = data.draw(keys)
    assert tree.rank(probe) == bisect_left(model, probe)
    position = data.draw(st.integers(min_value=0, max_value=len(model) + 2))
    assert [key for key, _ in tree.items_from(position)] == model[position:]


class BTreeMachine(RuleBasedStateMachine):
    """Stateful fuzz: arbitrary interleavings keep tree == dict, and
    rank/items_from agree with the sorted key list."""

    def __init__(self):
        super().__init__()
        self.tree = BPlusTree(order=4)  # small order stresses rebalancing
        self.shadow = {}

    @rule(key=keys, value=values)
    def insert(self, key, value):
        self.tree.insert(key, value)
        self.shadow[key] = value

    @rule(key=keys)
    def delete_if_present(self, key):
        if key in self.shadow:
            assert self.tree.delete(key) == self.shadow.pop(key)
        else:
            assert key not in self.tree

    @rule(key=keys)
    def lookup(self, key):
        assert self.tree.get(key) == self.shadow.get(key)

    @rule()
    def bulk_reload(self):
        self.tree = BPlusTree(order=self.tree.order)
        self.tree.bulk_load(sorted(self.shadow.items()))

    @rule(key=keys)
    def rank(self, key):
        assert self.tree.rank(key) == bisect_left(sorted(self.shadow), key)

    @rule(data=st.data())
    def items_from(self, data):
        model = sorted(self.shadow.items())
        position = data.draw(st.integers(min_value=0, max_value=len(model) + 2))
        assert list(self.tree.items_from(position)) == model[position:]

    @invariant()
    def sizes_agree(self):
        assert len(self.tree) == len(self.shadow)

    @invariant()
    def structure_valid(self):
        self.tree.validate()


TestBTreeMachine = BTreeMachine.TestCase
TestBTreeMachine.settings = settings(max_examples=25, stateful_step_count=60)
