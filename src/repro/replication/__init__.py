"""Multi-master replication: the signature mechanism of Notes/Domino.

Replicas of a database (same replica id, different servers) accept
independent updates and converge through pairwise, incremental replication:

* the **replication history** records, per partner, a cursor into its
  update-sequence journal, bounding each pass to the notes changed there
  since the last exchange;
* **sequence numbers + sequence times** (originator ids) decide which side
  holds the newer revision, with ``$Revisions`` ancestry telling *updates*
  apart from *divergence*;
* **deletion stubs** carry deletes between replicas and are purged after a
  configurable interval;
* genuine divergence produces **conflict documents** — the loser is
  preserved as a ``$Conflict`` response to the winner — or a **field-level
  merge** when the two sides touched disjoint items.

The network is simulated (latency/bandwidth/partitions) so convergence and
traffic experiments are deterministic.
"""

from repro.replication.conflicts import ConflictPolicy, merge_documents
from repro.replication.network import NetworkStats, Server, SimulatedNetwork
from repro.replication.replicator import ReplicationStats, Replicator
from repro.replication.selective import SelectiveReplication
from repro.replication.scheduler import ReplicationScheduler, converged
from repro.replication.topology import ReplicationTopology

__all__ = [
    "ConflictPolicy",
    "NetworkStats",
    "ReplicationScheduler",
    "ReplicationStats",
    "ReplicationTopology",
    "Replicator",
    "SelectiveReplication",
    "Server",
    "SimulatedNetwork",
    "converged",
    "merge_documents",
]
