"""The web request handler over registered databases.

``handle(url, user)`` does what the Domino HTTP task did: parse the URL
command, resolve the database and design element, enforce the ACL (including
document reader fields), and return rendered HTML with an HTTP-ish status
code. ``EditDocument``/``DeleteDocument`` mutate through the normal database
API, so agents and views react exactly as for a Notes client.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.design.application import Application
from repro.errors import AccessDenied, DocumentNotFound
from repro.security.acl import AclLevel
from repro.web.render import (
    render_database,
    render_document,
    render_search_results,
    render_view,
    render_view_entries_xml,
)
from repro.web.urls import WebError, parse_url


class BadRequest(WebError):
    """A request parameter the server cannot use (answered with 400)."""


@dataclass(frozen=True)
class WebResponse:
    status: int
    body: str

    @property
    def ok(self) -> bool:
        return self.status == 200


class DominoWebServer:
    """Serves registered applications to "browsers" (the test suite)."""

    def __init__(self, default_user: str = "Anonymous") -> None:
        self.default_user = default_user
        self._apps: dict[str, Application] = {}
        self.requests = 0

    # -- registration -----------------------------------------------------

    def register(self, path: str, app: Application) -> None:
        """Mount an application at ``/path`` (e.g. ``"sales.nsf"``);
        ``?SearchView`` runs the application's full-text index."""
        self._apps[path.lower()] = app

    # -- request handling ---------------------------------------------------

    def handle(self, url: str, user: str | None = None) -> WebResponse:
        """Process one request; returns (status, rendered HTML)."""
        self.requests += 1
        user = user or self.default_user
        try:
            parsed = parse_url(url)
        except WebError as exc:
            return WebResponse(400, f"<h1>400 Bad Request</h1><p>{exc}</p>")
        app = self._apps.get(parsed.database.lower())
        if app is None:
            return WebResponse(404, f"<h1>404</h1><p>no database {parsed.database}</p>")
        db = app.db
        if db.acl is not None and db.acl.level_of(user) < AclLevel.READER:
            return WebResponse(
                401, f"<h1>401</h1><p>{user} has no access to {db.title}</p>"
            )
        try:
            return self._dispatch(parsed, app, user)
        except AccessDenied as exc:
            return WebResponse(401, f"<h1>401</h1><p>{exc}</p>")
        except DocumentNotFound as exc:
            return WebResponse(404, f"<h1>404</h1><p>{exc}</p>")
        except BadRequest as exc:
            return WebResponse(400, f"<h1>400 Bad Request</h1><p>{exc}</p>")
        except WebError as exc:
            return WebResponse(404, f"<h1>404</h1><p>{exc}</p>")

    def _dispatch(self, parsed, app: Application, user: str) -> WebResponse:
        db = app.db
        path = parsed.database
        command = parsed.command
        if command == "opendatabase":
            return WebResponse(200, render_database(db, path, app.view_names))
        if command == "openview":
            view = self._resolve_view(app, parsed.view)
            start, count = self._page(parsed, 30)
            return WebResponse(
                200, render_view(view, path, start=start, count=count,
                                 as_user=user if db.acl else None)
            )
        if command == "readviewentries":
            view = self._resolve_view(app, parsed.view)
            start, count = self._page(parsed, 30)
            return WebResponse(
                200,
                render_view_entries_xml(
                    view, start=start, count=count,
                    as_user=user if db.acl else None,
                ),
            )
        if command == "searchview":
            query = (parsed.param("query") or "").strip()
            if not query:
                raise WebError("SearchView needs a Query parameter")
            start, count = self._page(parsed, 25)
            # The page is the readable hits start .. start + count - 1:
            # reader checks stop at its last hit.
            hits = app.fulltext.search(query, limit=start - 1 + count,
                                       as_user=user if db.acl else None)
            del hits[:start - 1]
            return WebResponse(
                200,
                render_search_results(db, path, parsed.view, query, hits,
                                      start=start, count=count),
            )
        if command == "opendocument":
            doc = db.get(parsed.unid, as_user=user if db.acl else None)
            return WebResponse(
                200, render_document(doc, path, parsed.view or "0")
            )
        if command == "editdocument":
            updates = {
                key: value
                for key, value in parsed.params.items()
                if not key.startswith("$")
                and key.lower() not in ("start", "count")
            }
            db.update(parsed.unid, updates, author=user)
            doc = db.get(parsed.unid)
            return WebResponse(200, render_document(doc, path, parsed.view or "0"))
        if command == "deletedocument":
            db.delete(parsed.unid, author=user)
            return WebResponse(200, "<h1>Document deleted</h1>")
        raise WebError(f"unhandled command {command}")  # pragma: no cover

    @staticmethod
    def _page(parsed, default_count: int) -> tuple[int, int]:
        """The ``Start``/``Count`` parameters: integers, ``Count`` not
        negative (else 400); a ``Start`` below 1 means the first row."""
        try:
            start = int(parsed.param("start", "1"))
            count = int(parsed.param("count", str(default_count)))
        except ValueError:
            raise BadRequest("Start and Count must be integers") from None
        if count < 0:
            raise BadRequest(f"Count must not be negative, got {count}")
        return max(start, 1), count

    def _resolve_view(self, app: Application, name: str):
        if name == "$defaultview":
            if not app.view_names:
                raise WebError("database has no views")
            return app.view(app.view_names[0])
        try:
            return app.view(name)
        except Exception:
            raise WebError(f"no view {name!r}") from None
