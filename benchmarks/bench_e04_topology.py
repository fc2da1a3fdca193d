"""E4 — Replication topology: rounds to convergence and traffic.

Claim: a mesh converges in the fewest rounds (every pair talks directly) but
costs O(n²) connections; hub-and-spoke needs ~2 rounds (spoke→hub,
hub→spokes) with O(n) connections; a chain needs rounds proportional to its
diameter. Connection count is the administrative cost the paper highlights
for hub topologies.

To make rounds comparable, each round fires the edges in an adversarial
order (against the direction of propagation), so a chain cannot converge in
one lucky sequential sweep.
"""

from __future__ import annotations

import zlib

from repro.bench.runners import build_deployment, populate
from repro.bench.tables import print_table
from repro.replication import (
    ReplicationScheduler,
    ReplicationTopology,
    converged,
)


def build_topology(shape: str, names: list[str]) -> ReplicationTopology:
    if shape == "mesh":
        return ReplicationTopology.mesh(names)
    if shape == "hub":
        return ReplicationTopology.hub_spoke(names[0], names[1:])
    if shape == "ring":
        return ReplicationTopology.ring(names)
    return ReplicationTopology.chain(names)


def run_cell(shape: str, n_servers: int):
    seed = zlib.crc32(shape.encode()) % 1000 + n_servers
    deployment = build_deployment(n_servers, seed=seed)
    # seed content on the LAST server so edge order works against the chain
    populate(deployment.databases[-1], 30, deployment.rng, advance=0.0)
    names = [f"srv{i}" for i in range(n_servers)]
    topology = build_topology(shape, names)
    # adversarial edge order: earliest-named pairs first
    topology.connections.sort(key=lambda c: (c.server_a, c.server_b))
    scheduler = ReplicationScheduler(deployment.network, topology)
    rounds = 0
    while not converged(deployment.databases):
        deployment.clock.advance(1)
        scheduler.run_round()
        rounds += 1
        if rounds > 64:
            raise AssertionError(f"{shape} did not converge")
    return (rounds, len(topology.connections),
            deployment.network.stats.bytes_sent, scheduler.total.echoes_skipped)


def test_e04_table(benchmark):
    rows = []

    def sweep():
        rows.clear()
        for shape in ("mesh", "hub", "ring", "chain"):
            for n_servers in (4, 8):
                rounds, connections, traffic, echoes = run_cell(shape, n_servers)
                rows.append([shape, n_servers, connections, rounds, traffic,
                             echoes])
        return rows

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table(
        "E4  topology vs rounds-to-convergence (30 docs seeded on last server)",
        ["topology", "servers", "connections", "rounds", "bytes",
         "echoes skipped"],
        rows,
        note="mesh: most connections, fewest rounds; chain: the reverse; "
             "echoes skipped: journal entries a pull left out because the "
             "puller itself had sent them",
    )

    def cell(shape, n):
        return next(r for r in rows if r[0] == shape and r[1] == n)

    assert cell("mesh", 8)[3] <= cell("hub", 8)[3] <= cell("chain", 8)[3]
    assert cell("mesh", 8)[2] > cell("hub", 8)[2]
    assert cell("hub", 8)[3] <= 3
    assert cell("chain", 8)[3] >= 4  # ~diameter rounds against the grain


def test_e04_round_cost(benchmark):
    """Timed: one full scheduler round over an 8-server hub."""
    deployment = build_deployment(8, seed=404)
    populate(deployment.databases[0], 50, deployment.rng, advance=0.0)
    names = [f"srv{i}" for i in range(8)]
    scheduler = ReplicationScheduler(
        deployment.network, ReplicationTopology.hub_spoke(names[0], names[1:])
    )

    def one_round():
        deployment.clock.advance(1)
        return scheduler.run_round()

    benchmark(one_round)
