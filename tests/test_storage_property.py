"""Property-based storage tests: pages behave like dicts, the engine's
committed state always survives a crash.

The multi-transaction crash-cycle property runs twice: a reduced-example
fast lane in the default job, and a ``slow``-marked lane with the full
example budget (``pytest -m slow``).
"""

import json
import os
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.storage import SlottedPage, StorageEngine
from repro.storage import engine as engine_mod

small_bytes = st.binary(max_size=300)
keys = st.binary(min_size=1, max_size=24)


class PageMachine(RuleBasedStateMachine):
    """A slotted page is a dict[slot -> bytes] with stable slot numbers."""

    def __init__(self):
        super().__init__()
        self.page = SlottedPage()
        self.shadow: dict[int, bytes] = {}

    @rule(data=small_bytes)
    def insert(self, data):
        if not self.page.fits(len(data)):
            return
        slot = self.page.insert(data)
        assert slot not in self.shadow
        self.shadow[slot] = data

    @rule(data=st.data())
    def delete_one(self, data):
        if not self.shadow:
            return
        slot = data.draw(st.sampled_from(sorted(self.shadow)))
        self.page.delete(slot)
        del self.shadow[slot]

    @rule(data=st.data(), new=small_bytes)
    def update_one(self, data, new):
        if not self.shadow:
            return
        slot = data.draw(st.sampled_from(sorted(self.shadow)))
        grow = len(new) - len(self.shadow[slot])
        if grow > 0 and not self.page.fits(len(new)):
            return
        self.page.update(slot, new)
        self.shadow[slot] = new

    @rule()
    def compact(self):
        self.page.compact()

    @invariant()
    def contents_agree(self):
        assert set(self.page.slots()) == set(self.shadow)
        for slot, data in self.shadow.items():
            assert self.page.get(slot) == data

    @invariant()
    def reclaimable_matches_a_fresh_read(self):
        # The page's running live-byte count equals a recount of its bytes.
        fresh = SlottedPage(bytearray(self.page.raw))
        assert self.page.reclaimable == fresh.reclaimable


TestPageMachine = PageMachine.TestCase
TestPageMachine.settings = settings(max_examples=30, stateful_step_count=50)


@given(
    ops=st.lists(
        st.tuples(keys, st.one_of(st.none(), small_bytes)),
        min_size=1,
        max_size=40,
    ),
    crash_after=st.integers(min_value=0, max_value=40),
)
@settings(max_examples=40, deadline=None)
def test_committed_state_survives_crash_at_any_point(tmp_path_factory, ops, crash_after):
    """Apply ops (value=None means delete), crash after `crash_after` of
    them, recover: the surviving state must equal the committed prefix."""
    base = tmp_path_factory.mktemp("fuzz")
    path = str(base / "db")
    engine = StorageEngine(path)
    shadow: dict[bytes, bytes] = {}
    for index, (key, value) in enumerate(ops):
        if index == crash_after:
            break
        if value is None:
            if key in engine:
                engine.remove(key)
            shadow.pop(key, None)
        else:
            engine.set(key, value)
            shadow[key] = value
    engine.simulate_crash()
    recovered = StorageEngine(path)
    try:
        assert {k: recovered.get(k) for k in recovered.keys()} == shadow
    finally:
        recovered.close()


@given(
    ops=st.lists(st.tuples(keys, small_bytes), min_size=1, max_size=30),
    checkpoint_at=st.integers(min_value=0, max_value=30),
)
@settings(max_examples=30, deadline=None)
def test_checkpoint_position_never_affects_recovery(
    tmp_path_factory, ops, checkpoint_at
):
    base = tmp_path_factory.mktemp("ckpt")
    path = str(base / "db")
    engine = StorageEngine(path)
    shadow: dict[bytes, bytes] = {}
    for index, (key, value) in enumerate(ops):
        if index == checkpoint_at:
            engine.checkpoint()
        engine.set(key, value)
        shadow[key] = value
    engine.simulate_crash()
    recovered = StorageEngine(path)
    try:
        for key, value in shadow.items():
            assert recovered.get(key) == value
        assert len(recovered) == len(shadow)
    finally:
        recovered.close()


class CrashPoint(Exception):
    """Injected failure standing in for the process dying mid-checkpoint."""


def crash(*args, **kwargs):
    raise CrashPoint


def torn_base(path, snapshot):
    """A base rewrite that dies with half its temp file written."""
    data = json.dumps(snapshot).encode()
    with open(path + ".tmp", "wb") as out:
        out.write(data[: len(data) // 2])
    raise CrashPoint


# Where the final checkpoint dies: not at all, after the page flush,
# after the delta is durable but before the log truncates (with the
# delta torn or whole), or halfway through rewriting the base.
CHECKPOINT_STAGES = st.sampled_from(
    ["none", "before_delta", "before_truncate", "torn_delta", "mid_base"]
)


@given(
    ops=st.lists(
        st.one_of(
            st.tuples(keys, st.one_of(st.none(), small_bytes)),
            st.just("checkpoint"),
        ),
        min_size=1,
        max_size=40,
    ),
    stage=CHECKPOINT_STAGES,
    cut=st.integers(min_value=1, max_value=64),
)
@settings(max_examples=40, deadline=None)
def test_checkpoint_chain_survives_a_crash_at_every_stage(
    tmp_path_factory, ops, stage, cut
):
    """Checkpoints append index deltas to the ``.chk`` (and now and then
    fold it into a fresh base); a crash anywhere in the last one reopens
    to the committed state."""
    path = str(tmp_path_factory.mktemp("chain") / "db")
    engine = StorageEngine(path, pool_size=2)
    shadow: dict[bytes, bytes] = {}
    for op in ops:
        if op == "checkpoint":
            engine.checkpoint()
        elif op[1] is None:
            engine.remove(op[0])
            shadow.pop(op[0], None)
        else:
            engine.set(*op)
            shadow[op[0]] = op[1]
    chain_before = engine._delta_bytes
    if stage == "before_delta":
        engine._persist_index = crash
    elif stage in ("before_truncate", "torn_delta"):
        engine._wal.truncate = crash
    with mock.patch.object(
        engine_mod, "write_snapshot",
        torn_base if stage == "mid_base" else engine_mod.write_snapshot,
    ):
        try:
            engine.checkpoint()
        except CrashPoint:
            pass
    appended = engine._delta_bytes - chain_before
    engine.simulate_crash()
    if stage == "torn_delta" and appended > 0:
        os.truncate(path + ".chk", os.path.getsize(path + ".chk") - min(cut, appended))
    recovered = StorageEngine(path, pool_size=2)
    try:
        assert {k: recovered.get(k) for k in recovered.keys()} == shadow
    finally:
        recovered.close()


@given(st.lists(st.tuples(keys, small_bytes), max_size=30))
@settings(max_examples=30, deadline=None)
def test_abort_leaves_no_trace(tmp_path_factory, pairs):
    base = tmp_path_factory.mktemp("abort")
    engine = StorageEngine(str(base / "db"))
    try:
        engine.set(b"anchor", b"stays")
        txn = engine.begin()
        for key, value in pairs:
            engine.put(txn, key, value)
        engine.abort(txn)
        assert len(engine) == 1
        assert engine.get(b"anchor") == b"stays"
    finally:
        engine.close()


# -- multi-key transactions across crash cycles --------------------------

CYCLE_KEYS = [b"k%d" % index for index in range(8)]
# Values big enough that a few fill a page, so a 2-page pool evicts.
big_values = st.builds(
    lambda byte, length: bytes([byte]) * length,
    st.integers(0, 255),
    st.integers(0, 3000),
)
TXN = st.tuples(
    st.lists(  # writes in order; None means delete
        st.tuples(st.sampled_from(CYCLE_KEYS), st.one_of(st.none(), big_values)),
        max_size=4,
    ),
    st.booleans(),  # committed, or left open at the crash
    st.lists(st.sampled_from(CYCLE_KEYS), max_size=5),  # reads inside it
)
# Each cycle runs its transactions, optionally cuts bytes off the final
# log record (0 = no cut), then crashes and reopens.
CRASH_CYCLES = st.lists(
    st.tuples(st.lists(TXN, max_size=6), st.integers(0, 60)),
    min_size=1,
    max_size=3,
)
RELAXED = settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])


def check_crash_cycles(tmp_path_factory, cycles):
    """Committed write-sets survive every crash; open transactions, and a
    commit whose record lost its tail, leave nothing behind."""
    path = str(tmp_path_factory.mktemp("cycles") / "db")
    state: dict[bytes, bytes] = {}
    engine = StorageEngine(path, pool_size=2)
    try:
        for txns, cut in cycles:
            last_record = None  # (state before, length, page writes before)
            for writes, committed, reads in txns:
                txn = engine.begin()
                for key, value in writes:
                    if value is None:
                        engine.delete(txn, key)
                    else:
                        engine.put(txn, key, value)
                view = {**state, **dict(writes)}
                for key in reads:
                    assert engine.get(key, txn) == view.get(key)
                if committed:
                    before, start = state, engine._wal.end_lsn
                    written = engine._pages.page_writes
                    engine.commit(txn)
                    if writes:
                        last_record = (before, engine._wal.end_lsn - start,
                                       written)
                    state = {k: v for k, v in view.items() if v is not None}
            engine.simulate_crash()
            # Only a record no page write has followed can be torn: the
            # pool flushes the log before every write-back, and commit
            # fsyncs its record before applying it.
            if (cut and last_record is not None
                    and last_record[2] == engine._pages.page_writes):
                state, length, _ = last_record
                wal_size = os.path.getsize(path + ".wal")
                os.truncate(path + ".wal", wal_size - min(cut, length))
            engine = StorageEngine(path, pool_size=2)
            assert {key: engine.get(key) for key in engine.keys()} == state
    finally:
        engine.close()


@settings(max_examples=30, parent=RELAXED)
@given(cycles=CRASH_CYCLES)
def test_transactions_survive_crash_cycles(tmp_path_factory, cycles):
    check_crash_cycles(tmp_path_factory, cycles)


@pytest.mark.slow
@settings(max_examples=300, parent=RELAXED)
@given(cycles=CRASH_CYCLES)
def test_transactions_survive_crash_cycles_full(tmp_path_factory, cycles):
    check_crash_cycles(tmp_path_factory, cycles)
