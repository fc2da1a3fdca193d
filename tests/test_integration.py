"""End-to-end integration: the subsystems composed as a real application.

A discussion application with views, agents, full-text search and security,
deployed on a replicated three-server network — the paper's archetypal
groupware deployment — exercised through a full lifecycle.
"""

import random

import pytest

from repro.agents import Agent, AgentRunner, AgentTrigger
from repro.bench.runners import build_deployment
from repro.core import Item, ItemType, NotesDatabase
from repro.fulltext import FullTextIndex
from repro.replication import (
    ReplicationScheduler,
    ReplicationTopology,
    Replicator,
    converged,
)
from repro.security import AccessControlList, AclLevel
from repro.sim import DiscussionWorkload
from repro.storage import StorageEngine
from repro.views import SortOrder, View, ViewColumn


class TestDiscussionApplication:
    def test_full_lifecycle(self):
        deployment = build_deployment(3, seed=2024, title="disc.nsf")
        hub, spoke1, spoke2 = deployment.databases
        clock = deployment.clock

        # Views + FT + agent live on the hub replica.
        threads = View(
            hub,
            "Threads",
            selection='SELECT Form = "MainTopic" | @AllDescendants',
            columns=[
                ViewColumn(title="Subject", item="Subject",
                           sort=SortOrder.ASCENDING)
            ],
            hierarchical=True,
        )
        by_category = View(
            hub,
            "ByCategory",
            selection='SELECT Form = "MainTopic"',
            columns=[
                ViewColumn(title="Categories", item="Categories",
                           categorized=True),
                ViewColumn(title="Subject", item="Subject",
                           sort=SortOrder.ASCENDING),
            ],
        )
        index = FullTextIndex(hub)
        runner = AgentRunner(hub)
        runner.add(Agent(
            name="greeter", trigger=AgentTrigger.ON_CREATE,
            selection='SELECT Form = "MainTopic"',
            formula='FIELD Status := "open"',
        ))

        # Users post on the spokes; replication brings it all together.
        workload1 = DiscussionWorkload(spoke1, random.Random(1), author="bob/Acme")
        workload2 = DiscussionWorkload(spoke2, random.Random(2), author="eve/Acme")
        for _ in range(20):
            clock.advance(60)
            workload1.step()
            workload2.step()
        hub_topic = hub.create(
            {"Form": "MainTopic", "Subject": "welcome thread",
             "Categories": "general", "Body": "please be excellent"},
            author="alice/Acme",
        )

        topology = ReplicationTopology.hub_spoke("srv0", ["srv1", "srv2"])
        scheduler = ReplicationScheduler(deployment.network, topology)
        rounds = scheduler.rounds_to_convergence(deployment.databases)
        assert rounds <= 3
        assert converged(deployment.databases)

        # Views tracked replicated content incrementally.
        assert len(threads) == len(hub)
        assert hub_topic.unid in threads
        # Agent stamped only topics created locally on the hub
        assert hub.get(hub_topic.unid).get("Status") == "open"
        # FT search finds replicated posts.
        assert index.search("excellent")
        # Categorized view counts match the database.
        total_topics = sum(
            1 for doc in hub.all_documents() if doc.form == "MainTopic"
        )
        assert len(by_category) == total_topics

    def test_edit_war_resolves_everywhere(self):
        deployment = build_deployment(3, seed=5)
        a, b, c = deployment.databases
        clock = deployment.clock
        doc = a.create({"Form": "Page", "Body": "v0"}, author="alice")
        topology = ReplicationTopology.mesh(["srv0", "srv1", "srv2"])
        scheduler = ReplicationScheduler(deployment.network, topology)
        scheduler.rounds_to_convergence(deployment.databases)
        for round_number in range(3):
            clock.advance(10)
            a.update(doc.unid, {"Body": f"a{round_number}"}, author="alice")
            b.update(doc.unid, {"Body": f"b{round_number}"}, author="bob")
            c.update(doc.unid, {"Body": f"c{round_number}"}, author="carl")
            clock.advance(10)
            scheduler.rounds_to_convergence(deployment.databases, max_rounds=20)
        assert converged(deployment.databases)
        bodies = {db.get(doc.unid).get("Body") for db in deployment.databases}
        assert len(bodies) == 1
        conflicts = [d for d in a.all_documents() if d.is_conflict]
        assert conflicts  # losers preserved

    def test_secure_replicated_database(self, tmp_path):
        """ACL + readers fields + persistence + replication together."""
        acl = AccessControlList(default_level=AclLevel.AUTHOR)
        acl.add("hr-admin/Acme", AclLevel.MANAGER)
        clock_seed = random.Random(11)
        engine = StorageEngine(str(tmp_path / "hr"))
        hr = NotesDatabase("hr.nsf", rng=clock_seed, engine=engine, acl=acl)
        review = hr.create(
            {"Form": "Review", "Subject": "annual review", "Rating": 4},
            author="hr-admin/Acme",
        )
        hr.update(
            review.unid,
            {"SecretReaders": Item("SecretReaders", ItemType.READERS,
                                   ["hr-admin/Acme"])},
            author="hr-admin/Acme",
        )
        laptop = hr.new_replica("laptop")
        hr.clock.advance(1)
        Replicator().replicate(hr, laptop)
        # readers restriction survived replication
        copy = laptop.get(review.unid)
        assert copy.readers == ["hr-admin/Acme"]
        from repro.errors import AccessDenied

        with pytest.raises(AccessDenied):
            laptop.get(review.unid, as_user="rando/Acme")
        # and persistence survives a crash
        engine.simulate_crash()
        engine2 = StorageEngine(str(tmp_path / "hr"))
        reloaded = NotesDatabase("hr.nsf", rng=random.Random(12),
                                 engine=engine2, acl=acl)
        assert reloaded.get(review.unid).get("Rating") == 4

    def test_view_consistency_across_replicas(self):
        """The same view definition over converged replicas shows the same
        rows — the property that makes replicated applications coherent."""
        deployment = build_deployment(2, seed=31)
        a, b = deployment.databases
        workload = DiscussionWorkload(a, random.Random(3))
        for _ in range(25):
            deployment.clock.advance(30)
            workload.step()
        deployment.clock.advance(1)
        Replicator().replicate(a, b)
        assert converged([a, b])

        def snapshot(db):
            view = View(
                db, "S",
                selection="SELECT @All",
                columns=[ViewColumn(title="Subject", item="Subject",
                                    sort=SortOrder.ASCENDING)],
            )
            return [entry.values for entry in view.entries()]

        assert snapshot(a) == snapshot(b)

    def test_mail_plus_agent_workflow(self):
        """Expense approval: memo arrives, agent routes it, approver edits."""
        from repro.mail import Directory, MailRouter, make_memo
        from repro.replication import SimulatedNetwork
        from repro.sim import VirtualClock

        clock = VirtualClock()
        network = SimulatedNetwork(clock)
        network.add_server("hq")
        directory = Directory(clock=clock)
        directory.register_person("approver/Acme", "hq")
        directory.register_person("employee/Acme", "hq")
        router = MailRouter(network, directory)
        inbox = router.mail_file("approver/Acme")
        runner = AgentRunner(inbox)
        runner.add(Agent(
            name="triage", trigger=AgentTrigger.ON_CREATE,
            selection='SELECT @Contains(Subject; "expense")',
            formula='FIELD Status := @If(Amount > 500; "needs-vp"; "auto-ok")',
        ))
        router.submit(
            make_memo("employee/Acme", "approver/Acme", "expense: travel",
                      extra_items={"Amount": 1200}),
            "hq",
        )
        router.submit(
            make_memo("employee/Acme", "approver/Acme", "expense: books",
                      extra_items={"Amount": 60}),
            "hq",
        )
        router.deliver_all()
        statuses = sorted(
            doc.get("Status") for doc in inbox.all_documents()
        )
        assert statuses == ["auto-ok", "needs-vp"]
