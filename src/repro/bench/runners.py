"""Deployment builders shared by benchmarks and integration tests."""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.database import NotesDatabase
from repro.replication.network import SimulatedNetwork
from repro.sim.clock import VirtualClock


@dataclass
class Deployment:
    """A network of servers all carrying replicas of one database."""

    clock: VirtualClock
    network: SimulatedNetwork
    databases: list[NotesDatabase]
    rng: random.Random

    @property
    def origin(self) -> NotesDatabase:
        return self.databases[0]


def build_deployment(
    n_servers: int,
    seed: int = 1234,
    title: str = "bench.nsf",
    server_prefix: str = "srv",
) -> Deployment:
    """A fresh clock + network + one replica per server."""
    clock = VirtualClock()
    network = SimulatedNetwork(clock)
    rng = random.Random(seed)
    databases: list[NotesDatabase] = []
    origin: NotesDatabase | None = None
    for index in range(n_servers):
        name = f"{server_prefix}{index}"
        server = network.add_server(name)
        if origin is None:
            origin = NotesDatabase(
                title, clock=clock, rng=random.Random(rng.getrandbits(64)),
                server=name,
            )
            server.add_database(origin)
            databases.append(origin)
        else:
            replica = origin.new_replica(name)
            server.add_database(replica)
            databases.append(replica)
    return Deployment(clock=clock, network=network, databases=databases, rng=rng)


def populate(
    db: NotesDatabase,
    n_docs: int,
    rng: random.Random,
    body_bytes: int = 400,
    advance: float = 0.25,
) -> list[str]:
    """Create ``n_docs`` memo-like documents; returns their UNIDs."""
    unids = []
    words = ("budget", "meeting", "release", "replica", "schedule", "review",
             "forecast", "inventory", "proposal", "summary")
    for index in range(n_docs):
        db.clock.advance(advance)
        body = " ".join(rng.choice(words) for _ in range(max(body_bytes // 8, 1)))
        doc = db.create(
            {
                "Form": "Memo",
                "Subject": f"{rng.choice(words)} {index}",
                "Body": body,
                "Categories": rng.choice(["eng", "sales", "ops", "hr"]),
                "Amount": rng.randrange(0, 10_000),
            },
            author=f"user{rng.randrange(16)}/Acme",
        )
        unids.append(doc.unid)
    return unids


def build_changefeed_db(
    n_docs: int,
    n_changes: int,
    seed: int = 7,
    body_bytes: int = 64,
) -> tuple[NotesDatabase, int, float]:
    """A database with ``n_docs`` documents of which ``n_changes`` were
    modified after the returned cutoff marks.

    Returns ``(db, mark_seq, mark_time)`` — the seq and timestamp cutoffs
    a change-feed consumer would hold from its previous pass, so callers
    can compare ``changed_since_seq(mark_seq)`` against the full-scan
    ablation ``changed_since_scan(mark_time)`` on identical state.
    """
    clock = VirtualClock()
    rng = random.Random(seed)
    db = NotesDatabase(
        "feed.nsf", clock=clock, rng=random.Random(rng.getrandbits(64)),
        server="hub",
    )
    populate(db, n_docs, rng, body_bytes=body_bytes, advance=0.001)
    clock.advance(1)
    mark_seq = db.update_seq
    mark_time = clock.now
    clock.advance(1)
    for unid in rng.sample(db.unids(), n_changes):
        db.update(unid, {"Status": f"edited {rng.random():.4f}"})
    clock.advance(1)
    return db, mark_seq, mark_time


def catchup_view(db, mode: str = "auto", persist: bool = True):
    """The standard E14 view over a catch-up corpus.

    One definition shared by the save and reopen sides so the design
    fingerprint matches and a saved sidecar is eligible for loading.
    """
    from repro.views import SortOrder, View, ViewColumn

    return View(
        db, "E14",
        selection='SELECT Form = "Memo"',
        columns=[
            ViewColumn(title="Categories", item="Categories",
                       categorized=True),
            ViewColumn(title="Subject", item="Subject",
                       sort=SortOrder.ASCENDING),
            ViewColumn(title="Amount", item="Amount"),
        ],
        mode=mode, persist=persist,
    )


def build_catchup_corpus(
    path: str,
    n_docs: int,
    n_changes: int,
    seed: int = 21,
    body_bytes: int = 120,
):
    """The E14 scenario: a persisted database with saved view + full-text
    checkpoints, reopened and then moved ``n_changes`` past them.

    Builds ``n_docs`` documents through a storage engine at ``path``,
    saves a persisted view sidecar (:func:`catchup_view`) and a full-text
    checkpoint, closes everything, reopens the file, and applies
    ``n_changes`` random updates. Returns ``(engine, db)`` — every
    checkpoint on disk now trails the live state by exactly the delta,
    which is what the seq catch-up paths are measured against.
    """
    from repro.fulltext import FullTextIndex
    from repro.storage import StorageEngine

    rng = random.Random(seed)
    engine = StorageEngine(path)
    db = NotesDatabase(
        "catchup.nsf", clock=VirtualClock(),
        rng=random.Random(rng.getrandbits(64)), server="hub", engine=engine,
    )
    populate(db, n_docs, rng, body_bytes=body_bytes, advance=0.0)
    view = catchup_view(db)
    view.close()  # saves the sidecar
    index = FullTextIndex(db, persist=True)
    index.close()  # saves the checkpoint
    engine.close()

    engine = StorageEngine(path)
    db = NotesDatabase(
        "catchup.nsf", clock=VirtualClock(),
        rng=random.Random(rng.getrandbits(64)), server="hub", engine=engine,
    )
    db.clock.advance(1)
    for unid in rng.sample(db.unids(), n_changes):
        db.update(unid, {"Subject": f"edited {rng.random():.4f}"})
    return engine, db
