"""Cluster membership, availability-index load balancing, and failover.

``open_database`` is the client entry point: it returns a replica on the
preferred server when that server is up, otherwise fails over to the
cluster member with the best availability index. The availability index is
a 0–100 score derived from a simple load model (open sessions), matching
the workload-probe heuristic Domino clusters used.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import ClusterError
from repro.core.database import NotesDatabase
from repro.replication.conflicts import ConflictPolicy
from repro.replication.network import SimulatedNetwork
from repro.cluster.replicator import ClusterReplicator


@dataclass(frozen=True)
class OpenResult:
    """Outcome of a client open: which replica served it, and how."""

    db: NotesDatabase
    server: str
    failed_over: bool


class Cluster:
    """A named cluster of servers holding common database replicas."""

    MAX_MEMBERS = 6  # Domino's documented cluster size limit

    def __init__(
        self,
        name: str,
        network: SimulatedNetwork,
        conflict_policy: ConflictPolicy = ConflictPolicy.CONFLICT_DOC,
    ) -> None:
        self.name = name
        self.network = network
        self.members: list[str] = []
        self.replicators: dict[str, ClusterReplicator] = {}  # per replica id
        self._load: dict[str, int] = {}
        self.opens = 0
        self.failovers = 0
        self.conflict_policy = conflict_policy

    # -- membership -----------------------------------------------------

    def add_member(self, server_name: str) -> None:
        if server_name in self.members:
            raise ClusterError(f"{server_name} already in cluster {self.name}")
        if len(self.members) >= self.MAX_MEMBERS:
            raise ClusterError(
                f"cluster {self.name} is full ({self.MAX_MEMBERS} members)"
            )
        self.network.server(server_name)  # must exist
        self.members.append(server_name)
        self._load.setdefault(server_name, 0)

    def cluster_database(self, db: NotesDatabase) -> list[NotesDatabase]:
        """Ensure every member holds a replica of ``db``; wire the cluster
        replicator; returns all member replicas (including ``db``)."""
        if db.server not in self.members:
            raise ClusterError(
                f"database lives on {db.server}, not a member of {self.name}"
            )
        replicator = self.replicators.get(db.replica_id)
        if replicator is None:
            replicator = ClusterReplicator(
                self.network, conflict_policy=self.conflict_policy
            )
            self.replicators[db.replica_id] = replicator
        replicas = [db]
        for member in self.members:
            server = self.network.server(member)
            existing = server.replica_of(db.replica_id)
            if existing is None:
                existing = db.new_replica(member)
                server.add_database(existing)
            if existing is not db:
                replicas.append(existing)
        for replica in replicas:
            replicator.attach(replica)
        # Seed through the shared replication rule: whole-journal replays
        # into the origin and back out, so a member that already held
        # some of the content (at any revision) converges too.
        replicator.seed(db)
        return replicas

    # -- load model ---------------------------------------------------------

    def availability_index(self, server_name: str) -> int:
        """0 (saturated) … 100 (idle), from the member's open-session count."""
        load = self._load.get(server_name, 0)
        return max(0, 100 - 5 * load)

    def close_session(self, server_name: str) -> None:
        if self._load.get(server_name, 0) > 0:
            self._load[server_name] -= 1

    # -- client opens -------------------------------------------------------

    def open_database(
        self,
        replica_id: str,
        preferred: str | None = None,
        rng: random.Random | None = None,
    ) -> OpenResult:
        """Open a replica, failing over when the preferred member is down.

        Among the available members, the one with the best availability
        index wins (ties broken at random to spread load).
        """
        self.opens += 1
        candidates = []
        for member in self.members:
            server = self.network.server(member)
            if not server.up:
                continue
            db = server.replica_of(replica_id)
            if db is not None:
                candidates.append((member, db))
        if not candidates:
            raise ClusterError(
                f"no available replica of {replica_id} in cluster {self.name}"
            )
        if preferred is not None:
            for member, db in candidates:
                if member == preferred:
                    self._load[member] = self._load.get(member, 0) + 1
                    return OpenResult(db=db, server=member, failed_over=False)
        # Failover / balance: best availability index.
        best = max(self.availability_index(member) for member, _ in candidates)
        top = [
            (member, db)
            for member, db in candidates
            if self.availability_index(member) == best
        ]
        member, db = (rng or random).choice(top)
        self._load[member] = self._load.get(member, 0) + 1
        failed_over = preferred is not None and member != preferred
        if failed_over:
            self.failovers += 1
        return OpenResult(db=db, server=member, failed_over=failed_over)

    # -- failure injection ----------------------------------------------

    def fail(self, server_name: str) -> None:
        """Take a member down (crash)."""
        self.network.server(server_name).up = False

    def restore(self, server_name: str) -> int:
        """Bring a member back and drain cluster-replication backlogs.

        Returns the number of queued changes applied during catch-up.
        """
        self.network.server(server_name).up = True
        drained = 0
        for replicator in self.replicators.values():
            drained += replicator.catch_up()
        return drained
