"""web_browse: browsers against an engine-backed application over HTTP-style URLs.

One closed-loop client sends Domino URL commands to ``DominoWebServer.handle``:
paged ``OpenView`` / ``ReadViewEntries`` at random starts, ``OpenDocument``,
``SearchView`` over a Zipf vocabulary and about 10% ``EditDocument`` on a
small Zipf-hot set. Two views (one categorized with an ``Amount`` totals
column, one sorted), the server's full-text index and an ACL (default
Reader, an Editors group) sit over a 2000-memo NSF. Every 4 edits the
server checkpoints its engine. After the loop the server restarts on its
store a few times (``reopen_s``), and an untraced probe has an in-memory
standby replica of the restarted database pull a few rounds of writes
(``converge_p50_ms``, ``wire_bytes_per_change``).
"""

from __future__ import annotations

import os
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from urllib.parse import quote_plus

from common import (
    MEMO_SELECTION,
    Corpus,
    Session,
    Zipf,
    brute_force_search,
    copy_store,
    exact_mix,
    expected_rows,
    memo_columns,
    payload_bytes,
    probe_standby,
    spread_evenly,
    words_of,
)

N_DOCS = 2000
HOT_DOCS = 40
PAGE = 30
HITS = 25
CHECKPOINT_EVERY = 4  # edits
RESTARTS = 9  # reopen_s is the median of this many server restarts
SYNCS = 400  # probe standby pulls
REQUESTS = 1600  # the schedule: about 10 s of requests on a 2-CPU host
DB = "web.nsf"
VIEWS = {"ByCategory": True, "BySubject": False}  # name -> categorized
MIX = {"view": 0.30, "entries": 0.15, "doc": 0.25, "search": 0.20, "edit": 0.10}

_ROW_HTML = re.compile(
    r'<tr class="category"[^>]*><td[^>]*>([^<]*) \((\d+)\)</td></tr>'
    r'|<tr class="doc"><td><a href="/[^/]+/[^/]+/([0-9A-F]+)\?OpenDocument">'
)
_ROW_XML = re.compile(
    r'<viewentry position="\d+" category="true" children="(\d+)">\s*'
    r"<entrydata><text>([^<]*)</text>"
    r'|<viewentry position="\d+" unid="([0-9A-F]+)"'
)
_HIT = re.compile(r'<li><a href="/[^/]+/[^/]+/([0-9A-F]+)\?OpenDocument">')


@dataclass
class _State:
    engine: object
    db: object
    app: object
    server: object
    subject: dict
    body: dict
    words: dict
    payload: int = 0
    counters: dict = field(default_factory=lambda: {"view": 0, "search": 0})

    def checkpoint(self) -> None:
        self.db.save_checkpoints()
        self.engine.checkpoint()


class WebBrowse:
    name = "web_browse"
    replays = 1  # timed passes of the schedule

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = random.Random(seed)
        self.corpus = Corpus(rng, N_DOCS)
        self.op_seed = rng.getrandbits(64)
        self.db_seed = rng.getrandbits(64)
        self.workdir = workdir
        self.readers = [f"reader{i}/Acme" for i in range(50)]
        self.editors = [f"editor{i}/Acme" for i in range(5)]
        self._build_base()
        self.schedule = self.operations()

    # -- input: the NSF every setup opens -----------------------------------------

    def _build_base(self) -> None:
        from repro.core import NotesDatabase
        from repro.design.application import Application
        from repro.security import AccessControlList, AclLevel
        from repro.sim.clock import VirtualClock
        from repro.storage import StorageEngine

        self.base = self.workdir / "base"
        engine = StorageEngine(str(self.base), durability="none")
        db = NotesDatabase(DB, clock=VirtualClock(), rng=random.Random(self.db_seed),
                           engine=engine)
        self.replica_id = db.replica_id
        self.unids = []
        for items in self.corpus.docs:
            db.clock.advance(0.01)
            self.unids.append(db.create(items, author="loader/Acme").unid)
        app = Application(db)
        for name, categorized in VIEWS.items():
            app.save_view(name, MEMO_SELECTION, memo_columns(categorized))
        acl = AccessControlList(default_level=AclLevel.READER,
                                groups={"Editors": self.editors})
        acl.add("designer", AclLevel.MANAGER)
        acl.add("Editors", AclLevel.EDITOR)
        app.save_acl(acl)
        self.clock_start = db.clock.now + 1.0
        self.category = {u: d["Categories"] for u, d in zip(self.unids, self.corpus.docs)}
        self.order = {unid: index for index, unid in enumerate(self.unids)}
        app.close()
        engine.checkpoint()
        engine.close()

    def stage(self, index: int) -> Path:
        path = self.workdir / f"run{index}"
        copy_store(self.base, path)
        return path

    # -- setup (timed) -------------------------------------------------------------

    def setup(self, path: Path) -> _State:
        from repro.core import NotesDatabase
        from repro.design.application import Application
        from repro.sim.clock import VirtualClock
        from repro.storage import StorageEngine
        from repro.web import DominoWebServer

        engine = StorageEngine(str(path), durability="wal")
        db = NotesDatabase(DB, clock=VirtualClock(self.clock_start),
                           rng=random.Random(self.db_seed + 1),
                           replica_id=self.replica_id, engine=engine)
        app = Application(db)
        server = DominoWebServer()
        server.register(DB, app)
        docs = self.corpus.docs
        return _State(
            engine, db, app, server,
            subject={u: d["Subject"] for u, d in zip(self.unids, docs)},
            body={u: d["Body"] for u, d in zip(self.unids, docs)},
            words={u: words_of(d) for u, d in zip(self.unids, docs)},
        )

    def teardown(self, state: _State) -> None:
        state.app.close()
        state.db.close()

    # -- the request schedule ---------------------------------------------------------

    def operations(self) -> list[tuple]:
        """The seeded request schedule: (kind, url, user, detail).

        The request mix, view starts, document and search popularity are
        the exact distributions (see ``Zipf.stratified``), shuffled by the
        seed.
        """
        rng = random.Random(self.op_seed)
        popular = list(self.unids)
        rng.shuffle(popular)
        hot = popular[:HOT_DOCS]
        rng.shuffle(popular)
        kinds = exact_mix(MIX, REQUESTS, rng)
        count = {kind: kinds.count(kind) for kind in MIX}
        pages = count["view"] + count["entries"]
        views = iter(exact_mix({name: 1 / len(VIEWS) for name in VIEWS}, pages, rng))
        starts = iter(spread_evenly(pages, 1, N_DOCS - PAGE, rng))
        docs = iter(Zipf(len(popular)).stratified(count["doc"], rng))
        queries = iter(self.corpus.queries(count["search"], rng))
        edits = iter(Zipf(HOT_DOCS).stratified(count["edit"], rng))
        schedule = []
        for kind in kinds:
            if kind in ("view", "entries"):
                view, start = next(views), next(starts)
                command = "OpenView" if kind == "view" else "ReadViewEntries"
                url = f"/{DB}/{view}?{command}&Start={start}&Count={PAGE}"
                schedule.append((kind, url, rng.choice(self.readers), (view, start)))
            elif kind == "doc":
                unid = popular[next(docs)]
                url = f"/{DB}/BySubject/{unid}?OpenDocument"
                schedule.append((kind, url, rng.choice(self.readers), unid))
            elif kind == "search":
                query = next(queries)
                url = f"/{DB}/BySubject?SearchView&Query={'+'.join(query)}&Count={HITS}"
                schedule.append((kind, url, rng.choice(self.readers), query))
            else:
                unid = hot[next(edits)]
                updates = {"Body": self.corpus.body(rng)}
                if rng.random() < 0.5:
                    updates["Subject"] = self.corpus.subject(rng, self.order[unid])
                query = "&".join(f"{k}={quote_plus(v)}" for k, v in updates.items())
                url = f"/{DB}/BySubject/{unid}?EditDocument&{query}"
                schedule.append((kind, url, rng.choice(self.editors), (unid, updates)))
        return schedule

    # -- the measured loop ---------------------------------------------------------------

    def run(self, state: _State, session: Session) -> None:
        edits = 0
        session.start()
        for kind, url, user, detail in self.schedule:
            if not session.running():
                break
            response = session.op("edit" if kind == "edit" else
                                  "view" if kind == "entries" else kind,
                                  state.server.handle, url, user)
            if response is None or not session.check(
                    response.status == 200, f"{url} -> {response.status}"):
                continue
            getattr(self, f"_check_{kind}")(state, session, url, user, detail, response.body)
            if kind == "edit":
                edits += 1
                state.payload += payload_bytes(detail[1])
                if edits % CHECKPOINT_EVERY == 0:
                    session.measure("checkpoint", state.checkpoint)
        session.stop()

    # -- checks (untimed) -------------------------------------------------------------------

    def _check_view(self, state, session, url, user, detail, html, xml=False):
        view_name, start = detail
        view = state.app.view(view_name)
        unids = view.all_unids()
        state.counters["view"] += 1
        if state.counters["view"] % 25 == 0:
            session.check(unids == self._model_order(state, view_name),
                          f"{view_name} order differs from the model")
        category = self.category if VIEWS[view_name] else None
        expected = expected_rows(unids, category)[start - 1:start - 1 + PAGE]
        got = []
        for match in (_ROW_XML if xml else _ROW_HTML).finditer(html):
            if xml:
                count, value, unid = match.groups()
            else:
                value, count, unid = match.groups()
            got.append(("doc", unid) if unid else ("cat", value, int(count)))
        session.check(got == expected, f"{url} window differs from all_unids()")

    def _check_entries(self, state, session, url, user, detail, html):
        self._check_view(state, session, url, user, detail, html, xml=True)

    def _model_order(self, state, view_name):
        def key(unid):
            subject = state.subject[unid]
            return (subject.lower(), subject, self.order[unid])

        if VIEWS[view_name]:
            return sorted(self.unids, key=lambda u: (self.category[u],) + key(u))
        return sorted(self.unids, key=key)

    def _check_doc(self, state, session, url, user, detail, html):
        session.check(f"<h1>{state.subject[detail]}</h1>" in html, f"{url} shows the wrong memo")

    def _check_search(self, state, session, url, user, detail, html):
        expected = brute_force_search(state.words, detail)
        hits = _HIT.findall(html)
        ok = set(hits) <= expected and len(hits) == min(HITS, len(expected))
        state.counters["search"] += 1
        if ok and state.counters["search"] % 4 == 0:
            every = state.server.handle(url.replace(f"&Count={HITS}", "&Count=1000000"), user)
            ok = set(_HIT.findall(every.body)) == expected
        session.check(ok, f"{url} disagrees with a brute-force scan")

    def _check_edit(self, state, session, url, user, detail, html):
        unid, updates = detail
        session.check(f"<dd>{updates['Body']}</dd>" in html, f"{url} did not apply")
        state.body[unid] = updates["Body"]
        state.subject[unid] = updates.get("Subject", state.subject[unid])
        state.words[unid] = words_of({"Subject": state.subject[unid], "Body": state.body[unid]})

    def _restart(self, session: Session, path: Path, expected: tuple, trace):
        """Time a server restart on the store at ``path``: engine open,
        redo, Application and full-text build; check it holds ``expected``
        (count, fingerprint). Returns the restarted (db, app)."""
        from repro.core import NotesDatabase
        from repro.design.application import Application
        from repro.sim.clock import VirtualClock
        from repro.storage import StorageEngine
        from repro.web import DominoWebServer

        def reopen():
            engine = StorageEngine(str(path), durability="wal")
            db = NotesDatabase(DB, clock=VirtualClock(self.clock_start),
                               rng=random.Random(self.db_seed + 2),
                               replica_id=self.replica_id, engine=engine)
            app = Application(db)
            DominoWebServer().register(DB, app)
            return db, app

        reopened = session.measure("reopen", reopen, trace=trace)
        if reopened is None:
            raise RuntimeError(f"the server did not restart on {path.name}")
        db, app = reopened
        session.check((len(db), db.state_fingerprint()) == expected,
                      f"the server restarted on {path.name} lost edits")
        return db, app

    # -- end of run: restart the server, then the standby probe ------------------------

    def finish(self, state: _State, session: Session, path: Path) -> dict[str, float]:
        expected = len(state.db), state.db.state_fingerprint()
        self.teardown(state)
        for attempt in range(RESTARTS):
            # Each close writes the store: let the kernel write it back
            # before the timed restart reads it.
            os.sync()
            db, app = self._restart(session, path, expected,
                                    trace=None if attempt else "reopen")
            if attempt < RESTARTS - 1:
                app.close()
                db.close()
        # The restarted clock begins where the set-up's did: move it past
        # every edit of the loop before the standby's rounds write.
        db.clock.advance(len(self.schedule) + 1.0)
        metrics = probe_standby(session, db, SYNCS, self.editors[0])
        app.close()
        db.close()
        return {
            **metrics,
            "view_p50_ms": session.p50("view"),
            "search_p50_ms": session.p50("search"),
            "edit_p50_ms": session.p50("edit"),
            "checkpoint_p50_ms": session.p50("checkpoint"),
            "reopen_s": session.median_s("reopen"),
            "write_amp": session.bytes_written / max(state.payload, 1),
        }
