"""Tests for an Application over an engine-backed database.

Such an application persists its views and the database's full-text
index (the NSF kept both): closing it writes their sidecars, and the next
open loads them and tops up from the journal instead of rebuilding. The
web server's ``?SearchView`` runs that same index, and registering an
application builds nothing of its own.
"""

import json
import marshal
import random

import pytest

from repro.core import NotesDatabase
from repro.design import Application
from repro.errors import FullTextError
from repro.fulltext import FullTextIndex
from repro.replication import Replicator
from repro.sim import VirtualClock
from repro.storage import StorageEngine
from repro.views import SortOrder, View, ViewColumn
from repro.web import DominoWebServer

WORDS = ("budget", "widget", "release", "forecast", "review", "summary")


def _columns(categorized):
    columns = [ViewColumn(title="Subject", item="Subject",
                          sort=SortOrder.ASCENDING)]
    if categorized:
        columns.insert(0, ViewColumn(title="Customer", item="Customer",
                                     categorized=True))
    return columns


def _fill(db, rng, count):
    for index in range(count):
        db.clock.advance(0.1)
        db.create({
            "Form": "Order",
            "Customer": f"cust{rng.randrange(4)}",
            "Subject": f"{rng.choice(WORDS)} order {index}",
            "Body": " ".join(rng.choice(WORDS) for _ in range(5)),
        })


@pytest.fixture
def nsf(tmp_path):
    """``open_db(seed)`` over one store; the first call fills it and saves
    two views through an Application, then closes everything."""
    path = str(tmp_path / "app")

    def open_db(seed=1):
        engine = StorageEngine(path)
        return NotesDatabase("app.nsf", clock=VirtualClock(),
                             rng=random.Random(seed), engine=engine)

    db = open_db()
    _fill(db, random.Random(3), 60)
    app = Application(db)
    app.save_view("ByCustomer", 'SELECT Form = "Order"', _columns(True))
    app.save_view("BySubject", 'SELECT Form = "Order"', _columns(False))
    app.close()
    db.close()
    return open_db


def _indexes(app):
    return [*app.views.values(), app.fulltext]


class TestReopen:
    def test_views_and_fulltext_load_without_rebuild(self, nsf):
        db = nsf(seed=2)
        app = Application(db)
        assert app.view_names == ["ByCustomer", "BySubject"]
        for index in _indexes(app):
            assert index.persist
            assert index.loaded_from_disk
            assert index.rebuilds == 0
        app.close()
        db.close()

    def test_reopen_tops_up_edits_made_after_close(self, nsf):
        db = nsf(seed=2)
        db.clock.advance(10)
        db.create({"Form": "Order", "Customer": "cust9",
                   "Subject": "zeppelin order", "Body": "zeppelin"})
        app = Application(db)  # the edit predates this open
        for index in _indexes(app):
            assert index.loaded_from_disk
            assert index.rebuilds == 0
        assert [hit.unid for hit in app.fulltext.search("zeppelin")] == [
            app.view("BySubject").all_unids()[-1]
        ]
        app.close()
        db.close()

    def test_in_memory_application_persists_nothing(self, db):
        app = Application(db)
        app.save_view("All", "SELECT @All")
        assert not any(index.persist for index in _indexes(app))
        app.close()

    def test_second_application_on_one_nsf_is_refused(self, nsf):
        db = nsf(seed=2)
        app = Application(db)
        with pytest.raises(FullTextError, match="live persisted index"):
            Application(db)
        app.close()
        Application(db).close()  # the first one gave its keys up
        db.close()


class TestMatchesInMemory:
    """Pages and hits served from loaded indexes equal those of an
    in-memory Application over the same notes."""

    @pytest.fixture
    def pair(self, nsf):
        db = nsf(seed=2)
        db.clock.advance(10)
        rng = random.Random(8)
        unids = db.unids()
        for unid in rng.sample(unids, 5):  # past the saved checkpoint
            db.clock.advance(0.1)
            db.update(unid, {"Subject": f"{rng.choice(WORDS)} edited"})
        db.delete(unids[0])
        memory = NotesDatabase("app.nsf", clock=db.clock,
                               rng=random.Random(4), replica_id=db.replica_id,
                               server="mirror")
        Replicator().pull(memory, db)
        disk_app, memory_app = Application(db), Application(memory)
        disk_server, memory_server = DominoWebServer(), DominoWebServer()
        disk_server.register("app.nsf", disk_app)
        memory_server.register("app.nsf", memory_app)
        yield disk_app, memory_app, disk_server, memory_server
        disk_app.close()
        memory_app.close()
        db.close()

    def test_view_windows_match(self, pair):
        disk_app, memory_app, _, _ = pair
        assert all(view.loaded_from_disk for view in disk_app.views.values())
        for name in ("ByCustomer", "BySubject"):
            for start, count in ((1, 10), (7, 25), (50, 30), (1, 1000)):
                assert disk_app.view(name).window(start, count) == (
                    memory_app.view(name).window(start, count)
                ), (name, start, count)

    def test_search_view_hits_match(self, pair):
        disk_app, _, disk_server, memory_server = pair
        assert disk_app.fulltext.loaded_from_disk
        for query in (*WORDS, "budget widget", "edited", "order"):
            url = f"/app.nsf/BySubject?SearchView&Query={query}&Count=100"
            disk, memory = disk_server.handle(url), memory_server.handle(url)
            assert disk.status == memory.status == 200
            assert disk.body == memory.body, query


def _old_segment(engine, txn, namespace, seg_id, records):
    """One segment as an older build wrote it: a directory that maps
    each key to its ``(offset, length)`` in the blob."""
    directory, parts, offset = {}, [], 0
    for key in sorted(records):
        data = marshal.dumps(records[key])
        directory[key] = (offset, len(data))
        offset += len(data)
        parts.append(data)
    engine.put(txn, namespace + b":dir:" + str(seg_id).encode(),
               marshal.dumps(directory))
    engine.put(txn, namespace + b":blob:" + str(seg_id).encode(),
               b"".join(parts))


def _write_older_layout(db):
    """Replace the sidecars with the layout an older build wrote: term
    records keyed by UNID, tombstones in the manifest, 4-field view
    records, and no layout version in the meta records. Returns the old
    segment keys."""
    engine = db.engine
    gone = "F" * 32  # a deleted note: tombstoned in the manifest
    checkpoint = db.checkpoint().to_meta()
    txn = engine.begin()
    for key in list(engine.keys()):
        if key.startswith((b"viewidx:", b"ftidx:")):
            engine.delete(txn, key)
    postings = FullTextIndex(db).postings_snapshot()
    later = set(db.unids()[-5:])
    for seg_id, home in ((7, lambda unid: unid not in later),
                         (9, later.__contains__)):
        records = {"D:" + unid: True for unid in db.unids() if home(unid)}
        for term, docs in postings.items():
            held = {unid: fields for unid, fields in docs.items() if home(unid)}
            if held:
                records[term] = held
        if seg_id == 7:
            records["D:" + gone] = True
            records.setdefault("budget", {})[gone] = {"body": [0]}
        _old_segment(engine, txn, b"ftidx", seg_id, records)
    engine.put(txn, b"ftidx:meta", json.dumps({
        **checkpoint,
        "index": {"segments": [7, 9], "tombstones": ["D:" + gone],
                  "next_id": 10},
    }).encode())
    for name, categorized in (("ByCustomer", True), ("BySubject", False)):
        view = View(db, name, selection='SELECT Form = "Order"',
                    columns=_columns(categorized))
        namespace = b"viewidx:" + name.encode()
        _old_segment(engine, txn, namespace, 3, {
            entry.unid: (View._encode_key(view._keys[entry.unid]),
                         list(entry.values), entry.level, None)
            for entry in view.entries()
        })
        engine.put(txn, namespace, json.dumps({
            "design": view._design_fingerprint(), **checkpoint,
            "index": {"segments": [3], "tombstones": [gone], "next_id": 4},
        }).encode())
    engine.commit(txn)
    return {
        key for key in engine.keys()
        if key.startswith((b"viewidx:", b"ftidx:")) and b":meta" not in key
        and key.count(b":") >= 2
    }


class TestOlderLayout:
    PAGES = [f"/app.nsf/{name}?OpenView&Start={start}&Count=25"
             for name in ("ByCustomer", "BySubject") for start in (1, 20)]
    SEARCHES = [f"/app.nsf/BySubject?SearchView&Query={query}&Count=100"
                for query in (*WORDS, "budget widget", "order")]

    @classmethod
    def _bodies(cls, app):
        server = DominoWebServer()
        server.register("app.nsf", app)
        bodies = []
        for url in cls.PAGES + cls.SEARCHES:
            response = server.handle(url)
            assert response.status == 200, url
            bodies.append(response.body)
        return bodies

    def test_older_layout_rebuilds_once_and_its_first_save_deletes_it(
        self, nsf
    ):
        db = nsf(seed=2)
        old_keys = _write_older_layout(db)
        assert len(old_keys) == 8  # 2 full-text + 2 view segments
        db.close()

        db = nsf(seed=3)
        memory = NotesDatabase("app.nsf", clock=db.clock,
                               rng=random.Random(4), replica_id=db.replica_id,
                               server="mirror")
        Replicator().pull(memory, db)
        memory_app = Application(memory)
        expected = self._bodies(memory_app)
        app = Application(db)
        for index in _indexes(app):
            assert not index.loaded_from_disk
            assert index.rebuilds == 1
        assert self._bodies(app) == expected
        app.close()  # the first save
        remaining = set(db.engine.keys())
        assert not old_keys & remaining
        for meta_key in (b"ftidx:meta", b"viewidx:ByCustomer",
                         b"viewidx:BySubject"):
            meta = json.loads(db.engine.get(meta_key))
            assert set(meta["index"]) == {"segments", "next_id"}
            assert meta["index"]["segments"] == [1]
        db.close()

        db = nsf(seed=5)
        app = Application(db)
        for index in _indexes(app):
            assert index.loaded_from_disk
            assert index.rebuilds == 0
        assert self._bodies(app) == expected
        app.close()
        memory_app.close()
        db.close()


class TestDesignChange:
    def test_save_view_rebuilds_only_that_view(self, nsf):
        db = nsf(seed=2)
        app = Application(db)
        kept, index = app.view("ByCustomer"), app.fulltext
        app.save_view("BySubject", 'SELECT Customer = "cust1"', _columns(False))
        changed = app.view("BySubject")
        assert changed.rebuilds == 1
        assert not changed.loaded_from_disk
        assert all(db.get(unid).get("Customer") == "cust1"
                   for unid in changed.all_unids())
        assert app.view("ByCustomer") is kept
        assert kept.rebuilds == 0 and index.rebuilds == 0
        app.close()
        db.close()

        db = nsf(seed=3)
        app = Application(db)  # the new design's sidecar loads
        assert app.view("BySubject").loaded_from_disk
        assert app.view("BySubject").all_unids() == changed.all_unids()
        app.close()
        db.close()

    def test_replaced_view_is_not_saved_on_its_way_out(self, nsf, monkeypatch):
        db = nsf(seed=2)
        app = Application(db)
        for unid in db.unids()[:20]:  # unsaved upkeep in the old view
            db.clock.advance(0.1)
            db.update(unid, {"Subject": "edited order"})
        put, puts = db.engine.put, []

        def recording_put(txn, key, value):
            puts.append(key)
            put(txn, key, value)

        monkeypatch.setattr(db.engine, "put", recording_put)
        segment = (b"viewidx:BySubject:dir:", b"viewidx:BySubject:blob:")
        app.save_view("BySubject", 'SELECT Customer = "cust1"', _columns(False))
        assert not [key for key in puts if key.startswith(segment)]
        assert db.save_checkpoints() >= 1  # the new view's first save
        assert [key for key in puts if key.startswith(segment)]
        app.close()
        db.close()


class TestObservers:
    def test_register_builds_no_index_and_close_detaches_all(self, db):
        before = len(db._observers)
        app = Application(db)
        app.save_view("All", "SELECT @All")
        opened = len(db._observers)
        server = DominoWebServer()
        for path in ("a.nsf", "b.nsf", "a.nsf"):
            server.register(path, app)
        assert len(db._observers) == opened
        app.close()
        assert len(db._observers) == before
