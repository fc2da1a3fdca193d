"""hub_sync: a hub and six spokes converging by field-level replication.

In-memory replicas (no storage engine) of a 600-memo database. Each epoch
every spoke applies a burst of local edits; a small shared hot set makes a
few percent of them collide across spokes and become conflicts. The hub
then runs ``Replicator(field_level=True).replicate`` with each spoke in
topology order, round after round, until ``converged()``. One operation is
one hub-spoke exchange. Views, full-text and storage do no work in the
loop. So that every end-to-end metric is defined here too, untraced probes
after the loop page a view and search a full-text index built on the hub,
and fill, checkpoint and reopen a durable replica of it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from common import (
    MEMO_SELECTION,
    Corpus,
    Session,
    Zipf,
    memo_columns,
    probe_durable_copy,
    probe_reads,
    read_plan,
    words_of,
)

N_DOCS = 600
SPOKES = 6
BURST = 5  # local edits per spoke per epoch
HOT_DOCS = 12
HOT_SHARE = 0.08
MAX_ROUNDS = 6
REFERENCE_EPOCHS = 20
EPOCHS = 1000  # the schedule: about 10 s on a 2-CPU host
# Probe sizes: a few seconds each, so that a probe's median spans more than
# one phase of a shared host.
READS = 1600  # probe page reads and searches of the hub
CHECKPOINTS = 40  # probe checkpoints of the hub's durable replica
REOPENS = 21  # probe reopens of it
TITLE = "hub.nsf"


@dataclass
class _State:
    clock: object
    hub: object
    spokes: list
    replicator: object
    unids: list
    schedule: object
    wire_bytes: int = 0
    changes: int = 0
    # Conflict documents on the hub after each epoch.
    conflicts: list = field(default_factory=list)


class HubSync:
    name = "hub_sync"
    replays = 1  # timed passes of the schedule

    def __init__(self, seed: int, workdir) -> None:
        rng = random.Random(seed)
        self.corpus = Corpus(rng, N_DOCS)
        self.op_seed = rng.getrandbits(64)
        self.db_seed = rng.getrandbits(64)
        self.workdir = workdir
        # A reference: a set-up played for its first epochs, untimed. Its
        # conflict counts must repeat in the measured run (same seed, same
        # conflicts).
        reference = self.setup(None)
        self._loop(reference, Session(float("inf")), epochs=REFERENCE_EPOCHS)
        self.reference_conflicts = reference.conflicts

    def stage(self, index: int) -> int:
        return index

    def setup(self, _index: int) -> _State:
        from repro.core import NotesDatabase
        from repro.replication import Replicator, SimulatedNetwork
        from repro.sim.clock import VirtualClock

        clock = VirtualClock()
        network = SimulatedNetwork(clock)
        hub = NotesDatabase(TITLE, clock=clock, rng=random.Random(self.db_seed), server="hub")
        network.add_server("hub").add_database(hub)
        unids = []
        for items in self.corpus.docs:
            clock.advance(0.01)
            unids.append(hub.create(items, author="loader").unid)
        replicator = Replicator(network=network, field_level=True)
        spokes = []
        for index in range(SPOKES):
            spoke = hub.new_replica(f"spoke{index}")
            network.add_server(spoke.server).add_database(spoke)
            replicator.replicate(hub, spoke)
            spokes.append(spoke)
        return _State(clock, hub, spokes, replicator, unids, self.epochs())

    def teardown(self, state: _State) -> None:
        """In-memory replicas: nothing to close."""

    # -- the edit schedule -----------------------------------------------------------

    def epochs(self):
        """Per epoch: every spoke's burst of (spoke, doc index, items)."""
        rng = random.Random(self.op_seed)
        hot = rng.sample(range(N_DOCS), HOT_DOCS)
        hot_zipf = Zipf(HOT_DOCS)
        for _ in range(EPOCHS):
            edits = []
            for spoke in range(SPOKES):
                for _ in range(BURST):
                    if rng.random() < HOT_SHARE:
                        index = hot[hot_zipf.draw(rng)]
                    else:
                        index = rng.randrange(N_DOCS)
                    if rng.random() < 0.7:
                        items = {"Body": self.corpus.body(rng)}
                    else:
                        items = {"Subject": self.corpus.subject(rng, index)}
                    edits.append((spoke, index, items))
            yield edits

    # -- the measured loop --------------------------------------------------------------

    def run(self, state: _State, session: Session) -> None:
        session.start()
        self._loop(state, session)
        session.stop()

    def _loop(self, state: _State, session: Session, epochs: int | None = None) -> None:
        from repro.replication import converged

        replicas = [state.hub, *state.spokes]
        for edits in state.schedule:
            epoch = len(state.conflicts)
            for spoke, index, items in edits:
                state.clock.advance(0.5)
                doc = session.measure("edit", state.spokes[spoke].update,
                                      state.unids[index], items, author=f"user{spoke}")
                session.check(doc is not None, "local edit failed")
                state.changes += 1
            mark = session.started()
            done = False
            for _ in range(MAX_ROUNDS):
                for spoke in state.spokes:
                    state.clock.advance(1.0)
                    stats = session.op("exchange", state.replicator.replicate,
                                       state.hub, spoke)
                    if stats is not None:
                        state.wire_bytes += stats.bytes_transferred
                if converged(replicas):
                    done = True
                    break
            session.record("converge", mark)
            session.check(done, f"epoch {epoch} did not converge")
            state.conflicts.append(
                sum(1 for doc in state.hub.all_documents() if doc.is_conflict))
            if len(state.conflicts) == epochs or not session.running():
                break

    # -- end of run -----------------------------------------------------------------------

    def finish(self, state: _State, session: Session, _path) -> dict[str, float]:
        from repro.fulltext import FullTextIndex
        from repro.views import View

        prefix = self.reference_conflicts[:len(state.conflicts)]
        session.check(state.conflicts[:len(prefix)] == prefix,
                      f"conflict counts {state.conflicts[:len(prefix)]} do not repeat {prefix}")
        hub = state.hub
        view = View(hub, "ByCategory", selection=MEMO_SELECTION, columns=memo_columns(True))
        index = FullTextIndex(hub)
        # Conflict documents are memos too, and searchable.
        words = {doc.unid: words_of({"Subject": doc.get("Subject"), "Body": doc.get("Body")})
                 for doc in hub.all_documents()}
        probe_reads(session, view, index,
                    read_plan(self.corpus, words, READS, len(view), random.Random(self.op_seed + 1)))
        metrics = {"view_p50_ms": session.p50("view"), "search_p50_ms": session.p50("search")}
        view.close()
        index.close()
        metrics.update(probe_durable_copy(session, hub, self.workdir / f"vault{id(state)}",
                                          CHECKPOINTS, REOPENS))
        return {
            **metrics,
            "edit_p50_ms": session.p50("edit"),
            "converge_p50_ms": session.p50("converge"),
            "wire_bytes_per_change": state.wire_bytes / max(state.changes, 1),
        }
