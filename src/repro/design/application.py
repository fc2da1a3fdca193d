"""The Application: live views/agents instantiated from design notes.

Opening an application over a database scans its ``$Design*`` notes and
builds the corresponding :class:`View` and :class:`Agent` objects. Because
design notes are ordinary documents, they replicate: when a replica
receives a new or revised design note, the application *refreshes* — the
replicated database carries its own application, exactly the property the
paper highlights.

The application also owns the database's one :class:`FullTextIndex`, the
index the web server's ``?SearchView`` runs. Over an engine-backed
database the views and the full-text index are persisted, as the NSF kept
its view and full-text indexes: :meth:`Application.close` writes their
sidecars, and the next open loads them and tops up from the journal
instead of rebuilding.
"""

from __future__ import annotations

from repro.errors import ViewError
from repro.agents.agent import Agent, AgentTrigger
from repro.agents.runner import AgentRunner
from repro.core.database import ChangeKind, NotesDatabase
from repro.core.document import Document
from repro.design.elements import (
    DESIGN_ACL_FORM,
    DESIGN_AGENT_FORM,
    DESIGN_VIEW_FORM,
    acl_from_doc,
    acl_to_items,
    agent_from_doc,
    agent_to_items,
    view_params_from_doc,
    view_to_items,
)
from repro.fulltext.index import FullTextIndex
from repro.sim.events import EventScheduler
from repro.views.column import ViewColumn
from repro.views.view import View


class Application:
    """Live design elements over one database replica."""

    def __init__(
        self,
        db: NotesDatabase,
        events: EventScheduler | None = None,
        designer: str = "designer",
    ) -> None:
        self.db = db
        self.events = events
        self.designer = designer
        self.views: dict[str, View] = {}
        # Views and the full-text index keep sidecars when the database
        # has a storage engine to keep them in.
        self._persist = db.engine is not None
        self.fulltext = FullTextIndex(db, persist=self._persist)
        self.runner = AgentRunner(db)
        self.design_refreshes = 0
        # design-note unid -> oid applied, to skip no-op refreshes
        self._applied: dict[str, tuple] = {}
        db.subscribe(self._on_change)
        self.refresh_design()

    def close(self) -> None:
        self.db.unsubscribe(self._on_change)
        self.runner.close()
        for view in self.views.values():
            view.close()
        self.fulltext.close()

    # -- authoring ----------------------------------------------------------

    def save_view(
        self,
        name: str,
        selection: str = "SELECT @All",
        columns: list[ViewColumn] | None = None,
        hierarchical: bool = False,
    ) -> View:
        """Create or replace a view design note (and its live view)."""
        items = view_to_items(
            name, selection,
            columns or [ViewColumn(title="Subject", item="Subject")],
            hierarchical,
        )
        existing = self._find_design(DESIGN_VIEW_FORM, name)
        if existing is not None:
            self.db.update(existing.unid, items, author=self.designer)
        else:
            self.db.create(items, author=self.designer)
        return self.views[name]

    def save_agent(self, agent: Agent) -> Agent:
        """Create or replace an agent design note (and register it live)."""
        items = agent_to_items(agent)
        existing = self._find_design(DESIGN_AGENT_FORM, agent.name)
        if existing is not None:
            self.db.update(existing.unid, items, author=self.designer)
        else:
            self.db.create(items, author=self.designer)
        return self.runner.agent(agent.name)

    def save_acl(self, acl) -> None:
        """Store the ACL as a design note and activate it on this replica.

        Because it is a note, the ACL replicates with the database and
        takes effect on every replica at design refresh — Manager-level
        protection comes from the existing update checks on the note
        itself (the designer must be able to edit design documents).
        """
        from repro.security.acl import AclLevel

        # The Notes safeguard: you cannot save an ACL that locks you out,
        # and every ACL must retain at least one Manager.
        if acl.level_of(self.designer) < AclLevel.DESIGNER:
            raise ViewError(
                f"saving this ACL would lock designer {self.designer!r} out"
            )
        if not any(entry.level >= AclLevel.MANAGER for entry in acl.entries()):
            raise ViewError("an ACL must contain at least one Manager entry")
        items = acl_to_items(acl)
        existing = self._find_design(DESIGN_ACL_FORM, "$ACL")
        if existing is not None:
            self.db.update(existing.unid, items, author=self.designer)
        else:
            self.db.create(items, author=self.designer)

    # -- access -----------------------------------------------------------

    def view(self, name: str) -> View:
        try:
            return self.views[name]
        except KeyError:
            raise ViewError(f"application has no view {name!r}") from None

    @property
    def view_names(self) -> list[str]:
        return sorted(self.views)

    @property
    def agent_names(self) -> list[str]:
        return sorted(agent.name for agent in self.runner.agents)

    # -- design refresh ------------------------------------------------------

    def refresh_design(self) -> int:
        """Scan design notes, (re)instantiating changed elements.

        Returns how many elements were built or rebuilt.
        """
        rebuilt = 0
        for doc in list(self.db.all_documents()):
            form = doc.get("Form")
            if form == DESIGN_VIEW_FORM:
                rebuilt += self._apply_view_design(doc)
            elif form == DESIGN_AGENT_FORM:
                rebuilt += self._apply_agent_design(doc)
            elif form == DESIGN_ACL_FORM:
                rebuilt += self._apply_acl_design(doc)
        if rebuilt:
            self.design_refreshes += 1
        return rebuilt

    def _apply_acl_design(self, doc: Document) -> int:
        stamp = (doc.seq, tuple(doc.seq_time))
        if self._applied.get(doc.unid) == stamp:
            return 0
        self.db.acl = acl_from_doc(doc)
        self._applied[doc.unid] = stamp
        return 1

    def _apply_view_design(self, doc: Document) -> int:
        stamp = (doc.seq, tuple(doc.seq_time))
        if self._applied.get(doc.unid) == stamp:
            return 0
        params = view_params_from_doc(doc)
        name = params["name"]
        old = self.views.pop(name, None)
        if old is not None:
            old.detach()  # the new design's view rewrites the sidecar
        self.views[name] = View(self.db, persist=self._persist, **params)
        self._applied[doc.unid] = stamp
        return 1

    def _apply_agent_design(self, doc: Document) -> int:
        stamp = (doc.seq, tuple(doc.seq_time))
        if self._applied.get(doc.unid) == stamp:
            return 0
        agent = agent_from_doc(doc)
        try:
            self.runner.remove(agent.name)
        except Exception:
            pass
        if agent.trigger == AgentTrigger.SCHEDULED and self.events is None:
            raise ViewError(
                f"scheduled agent {agent.name!r} needs an application "
                "opened with an EventScheduler"
            )
        self.runner.add(agent, self.events)
        self._applied[doc.unid] = stamp
        return 1

    # -- change tracking ----------------------------------------------------

    def _on_change(self, kind: ChangeKind, payload, old) -> None:
        if kind == ChangeKind.DELETE:
            return  # live elements outlive deleted design notes until refresh
        doc: Document = payload
        form = doc.get("Form")
        if form == DESIGN_VIEW_FORM:
            self._apply_view_design(doc)
            self.design_refreshes += 1
        elif form == DESIGN_AGENT_FORM:
            self._apply_agent_design(doc)
            self.design_refreshes += 1
        elif form == DESIGN_ACL_FORM:
            self._apply_acl_design(doc)
            self.design_refreshes += 1

    def _find_design(self, form: str, title: str) -> Document | None:
        for doc in self.db.all_documents():
            if doc.get("Form") == form and doc.get("$Title") == title:
                return doc
        return None
