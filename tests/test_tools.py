"""Tests for the admin tools: archiving and compaction."""

import os
import random

import pytest

from repro.core import NotesDatabase
from repro.errors import DatabaseError
from repro.replication import Replicator
from repro.storage import StorageEngine
from repro.storage import engine as engine_mod
from repro.tools import archive_documents, compact_engine


@pytest.fixture
def archive_db(clock):
    return NotesDatabase("archive.nsf", clock=clock, rng=random.Random(99),
                         server="alpha")


class TestArchive:
    def test_old_documents_move(self, db, archive_db, clock):
        old = db.create({"Subject": "ancient"})
        clock.advance(1000)
        fresh = db.create({"Subject": "new"})
        result = archive_documents(db, archive_db, not_modified_since=500.0)
        assert result.archived == 1
        assert old.unid in archive_db and old.unid not in db
        assert fresh.unid in db
        assert archive_db.get(old.unid).get("Subject") == "ancient"

    def test_envelope_preserved(self, db, archive_db, clock):
        doc = db.create({"Subject": "v1"})
        db.update(doc.unid, {"Subject": "v2"})
        clock.advance(1000)
        archive_documents(db, archive_db, not_modified_since=500.0)
        copy = archive_db.get(doc.unid)
        assert copy.seq == doc.seq
        assert copy.revisions == doc.revisions

    def test_selection_formula_restricts(self, db, archive_db, clock):
        db.create({"Form": "Memo", "Subject": "m"})
        keep = db.create({"Form": "Order", "Subject": "o"})
        clock.advance(1000)
        result = archive_documents(
            db, archive_db, not_modified_since=500.0,
            selection='SELECT Form = "Memo"',
        )
        assert result.archived == 1
        assert keep.unid in db

    def test_archiving_leaves_stub_for_replication(self, pair, archive_db, clock):
        a, b = pair
        doc = a.create({"Subject": "x"})
        clock.advance(1)
        Replicator().replicate(a, b)
        clock.advance(1000)
        archive_documents(a, archive_db, not_modified_since=500.0)
        clock.advance(1)
        Replicator().replicate(a, b)
        assert doc.unid not in b  # the archive delete replicated

    def test_archive_must_not_be_replica(self, pair):
        a, b = pair
        with pytest.raises(DatabaseError):
            archive_documents(a, b, not_modified_since=0.0)

    def test_thread_integrity_kept(self, db, archive_db, clock):
        topic = db.create({"Subject": "topic"})
        clock.advance(10)
        response = db.create({"Subject": "re"}, parent=topic.unid)
        clock.advance(1000)
        # keep the topic fresh; the response is old but its parent stays
        db.update(topic.unid, {"Subject": "still active"})
        result = archive_documents(db, archive_db, not_modified_since=500.0)
        assert result.archived == 0
        assert response.unid in db

    def test_whole_thread_archives_together(self, db, archive_db, clock):
        topic = db.create({"Subject": "topic"})
        clock.advance(10)
        db.create({"Subject": "re"}, parent=topic.unid)
        clock.advance(1000)
        result = archive_documents(db, archive_db, not_modified_since=500.0)
        assert result.archived == 2
        assert len(archive_db) == 2

    def test_tear_threads_when_disabled(self, db, archive_db, clock):
        topic = db.create({"Subject": "topic"})
        clock.advance(10)
        old_response = db.create({"Subject": "re"}, parent=topic.unid)
        clock.advance(1000)
        db.update(topic.unid, {"Subject": "active"})
        result = archive_documents(
            db, archive_db, not_modified_since=500.0,
            keep_responses_with_parents=False,
        )
        assert result.archived == 1
        assert old_response.unid in archive_db


class _CompactCases:
    """Compaction cases that hold in every durability mode (the
    subclass's ``durability``)."""

    def _engine(self, tmp_path, name="db"):
        return StorageEngine(str(tmp_path / name), durability=self.durability)

    def test_preserves_all_data(self, tmp_path):
        engine = self._engine(tmp_path)
        expected = {}
        for index in range(200):
            key = f"k{index}".encode()
            value = (f"v{index}" * 20).encode()
            engine.set(key, value)
            expected[key] = value
        for index in range(0, 200, 2):
            engine.remove(f"k{index}".encode())
            del expected[f"k{index}".encode()]
        result = compact_engine(engine)
        assert result.keys == 100
        assert {k: engine.get(k) for k in engine.keys()} == expected
        engine.close()

    def test_reclaims_space(self, tmp_path):
        engine = self._engine(tmp_path)
        for index in range(300):
            engine.set(f"k{index}".encode(), b"x" * 800)
        for index in range(280):
            engine.remove(f"k{index}".encode())
        result = compact_engine(engine)
        assert result.pages_after < result.pages_before
        assert result.reclaimed_bytes > 0
        engine.close()

    def test_placement_uses_the_compacted_free_map(self, tmp_path):
        engine = self._engine(tmp_path)
        for index in range(60):
            engine.set(f"k{index}".encode(), b"x" * 4000)
        for index in range(20, 60):
            engine.remove(f"k{index}".encode())
        compact_engine(engine)
        # The emptied pages 21-60 are gone from the file: the free map
        # placement consults must not offer them.
        engine.set(b"new", b"y" * 4000)
        assert engine.get(b"new") == b"y" * 4000
        assert engine._pages.page_count == 21
        engine.close()

    def test_engine_usable_after_compaction(self, tmp_path):
        engine = self._engine(tmp_path)
        engine.set(b"before", b"1")
        compact_engine(engine)
        engine.set(b"after", b"2")
        assert engine.get(b"before") == b"1"
        assert engine.get(b"after") == b"2"
        engine.close()

    def test_compact_empty_engine(self, tmp_path):
        engine = self._engine(tmp_path)
        result = compact_engine(engine)
        assert result.keys == 0
        engine.set(b"k", b"v")
        assert engine.get(b"k") == b"v"
        engine.close()

    def test_database_survives_compaction(self, tmp_path, clock):
        engine = self._engine(tmp_path, "nsf")
        db = NotesDatabase("c.nsf", clock=clock, rng=random.Random(1),
                          engine=engine)
        doc = db.create({"Subject": "content"})
        for index in range(50):
            trash = db.create({"Subject": f"temp {index}"})
            db.delete(trash.unid)
        compact_engine(engine)
        engine.close()
        engine2 = self._engine(tmp_path, "nsf")
        reloaded = NotesDatabase("c.nsf", clock=clock, rng=random.Random(2),
                                 engine=engine2)
        assert reloaded.get(doc.unid).get("Subject") == "content"
        assert len(reloaded.stubs) == 50
        engine2.close()


class _Crash(Exception):
    """A crash injected at one file operation."""


def _committed_store(engine):
    """Fill ``engine`` with checkpointed writes and, behind them, logged
    ones (a ``force`` store's are its ``.chk`` deltas); returns what it
    holds."""
    expected = {}
    for index in range(24):
        key = b"k%d" % index
        expected[key] = bytes([65 + index % 26]) * (50 + 150 * index)
        engine.set(key, expected[key])
    engine.checkpoint()
    for index in range(0, 24, 3):
        engine.remove(b"k%d" % index)
        del expected[b"k%d" % index]
    for index in range(1, 24, 7):
        expected[b"k%d" % index] = b"updated %d" % index
        engine.set(b"k%d" % index, expected[b"k%d" % index])
    expected[b"late"] = b"L" * 9000
    engine.set(b"late", expected[b"late"])
    return expected


def _file_ops(monkeypatch, action, crash=lambda *_: False):
    """Run ``action`` and return the file operations it made: each
    ``os.replace``, ``os.remove`` and ``os.truncate``, and each ``.chk``
    base write (whose own rename is listed after it).

    ``crash(n, op, when)`` is asked before (``when="before"``) and after
    each operation ``n``; where it answers True, :class:`_Crash` is
    raised there. Before a base write, that crash leaves a torn temp
    file, as a crash during the write would.
    """
    ops = []

    def wrap(name, real):
        def operation(*args):
            op = (name, os.path.basename(args[0]))
            ops.append(op)
            n = len(ops) - 1
            if crash(n, op, "before"):
                if name == "write_snapshot":
                    with open(args[0] + ".tmp", "wb") as out:
                        out.write(b'{"index": {')
                raise _Crash(op)
            result = real(*args)
            if crash(n, op, "after"):
                raise _Crash(op)
            return result
        return operation

    with monkeypatch.context() as patch:
        for name in ("replace", "remove", "truncate"):
            patch.setattr(os, name, wrap(name, getattr(os, name)))
        patch.setattr(engine_mod, "write_snapshot",
                      wrap("write_snapshot", engine_mod.write_snapshot))
        action()
    return ops


def _at(n, when):
    """The :func:`_file_ops` crash rule "at operation ``n``, ``when``"."""
    return lambda at, _, moment: (at, moment) == (n, when)


class _CompactCrashCases(_CompactCases):
    """Cases that crash and reopen: only a durable store keeps what it
    committed."""

    def test_checkpoint_after_compaction_survives_a_crash(self, tmp_path):
        """Compaction leaves a fresh ``.chk`` base and nothing pending, so
        the next checkpoint's delta describes the compacted heap only."""
        engine = self._engine(tmp_path)
        expected = {}
        for index in range(120):
            key = f"k{index}".encode()
            expected[key] = bytes([48 + index % 10]) * (100 + 40 * index)
            engine.set(key, expected[key])
        engine.checkpoint()
        for index in range(0, 120, 3):
            engine.remove(f"k{index}".encode())
            del expected[f"k{index}".encode()]
        compact_engine(engine)
        chk = (tmp_path / "db.chk").read_bytes()
        assert chk.count(b"\n") == 1 and chk.endswith(b"\n")
        for index in range(1, 120, 9):
            key = f"k{index}".encode()
            expected[key] = b"updated %d" % index
            engine.set(key, expected[key])
        engine.set(b"fresh", b"f" * 5000)
        expected[b"fresh"] = b"f" * 5000
        engine.checkpoint()
        engine.simulate_crash()
        recovered = self._engine(tmp_path)
        assert {k: recovered.get(k) for k in recovered.keys()} == expected
        recovered.close()

    def test_durable_across_crash_after_compaction(self, tmp_path):
        engine = self._engine(tmp_path)
        engine.set(b"k", b"v")
        compact_engine(engine)
        engine.set(b"post", b"compact")
        engine.simulate_crash()
        recovered = self._engine(tmp_path)
        assert recovered.get(b"k") == b"v"
        assert recovered.get(b"post") == b"compact"
        recovered.close()

    def _crash_compaction(self, path, monkeypatch, crash):
        """Fill a store at ``path``, crash its compaction where ``crash``
        says, and return what the store had committed."""
        path.mkdir()
        engine = self._engine(path)
        expected = _committed_store(engine)
        with pytest.raises(_Crash):
            _file_ops(monkeypatch, lambda: compact_engine(engine), crash)
        engine.simulate_crash()
        return expected

    @staticmethod
    def _assert_holds(engine, path, expected, where):
        assert {k: engine.get(k) for k in engine.keys()} == expected, where
        assert not list(path.glob("db.compact*")), where
        engine.close()

    def test_crash_at_each_file_operation(self, tmp_path, monkeypatch):
        """Wherever a crash cuts compaction off, and again wherever one
        cuts off the reopen that finishes or clears it, the store reopens
        to exactly what it committed, and no compaction file is left."""
        (tmp_path / "dry").mkdir()
        engine = self._engine(tmp_path / "dry")
        _committed_store(engine)
        ops = _file_ops(monkeypatch, lambda: compact_engine(engine))
        engine.close()
        assert ("write_snapshot", "db.compact.chk") in ops
        # Between the fresh store's commit and the swap, the old store
        # writes no .chk base of the heap the swap replaces.
        commit = ops.index(("write_snapshot", "db.compact.chk"))
        swap = ops.index(("replace", "db.compact.chk"))
        assert ("write_snapshot", "db.chk") not in ops[commit:swap], ops
        for n, op in enumerate(ops):
            for when in ("before", "after"):
                where = f"crash {when} {op}"
                case = tmp_path / f"{n}-{when}"
                expected = self._crash_compaction(case, monkeypatch, _at(n, when))
                opened = []
                reopen_ops = _file_ops(
                    monkeypatch, lambda: opened.append(self._engine(case)))
                self._assert_holds(opened[0], case, expected, where)
                for m, reopen_op in enumerate(reopen_ops):
                    for again in ("before", "after"):
                        inner = tmp_path / f"{n}-{when}-{m}-{again}"
                        self._crash_compaction(inner, monkeypatch, _at(n, when))
                        with pytest.raises(_Crash):
                            _file_ops(monkeypatch, lambda: self._engine(inner),
                                      _at(m, again))
                        self._assert_holds(
                            self._engine(inner), inner, expected,
                            f"{where}, then in the reopen {again} {reopen_op}")

    def test_crash_between_page_swap_and_chk_swap(self, tmp_path, monkeypatch):
        """The compacted page file is in place and the ``.chk`` is not:
        the open must finish the swap, not pair the new pages with the old
        index."""
        expected = self._crash_compaction(
            tmp_path / "store", monkeypatch,
            lambda _, op, moment: moment == "after"
            and op[0] == "replace" and op[1].endswith(".pages"))
        self._assert_holds(self._engine(tmp_path / "store"),
                           tmp_path / "store", expected, "pages swapped")


class TestCompact(_CompactCrashCases):
    durability = "wal"


class TestCompactForce(TestCompact):
    durability = "force"


class TestCompactNone(_CompactCases):
    durability = "none"
