"""Domino URL-command parsing.

Grammar (the classic Domino URL syntax)::

    /<database>?OpenDatabase
    /<database>/<view>?OpenView[&Start=n][&Count=n][&ExpandView]
    /<database>/<view>/<unid>?OpenDocument
    /<database>/<view>?SearchView&Query=<text>[&Start=n][&Count=n]
    /<database>/$defaultview?OpenView

The command defaults follow Domino: a bare database URL opens the database,
a view path defaults to OpenView, a document path to OpenDocument.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from urllib.parse import parse_qsl, unquote

from repro.errors import ReproError


class WebError(ReproError):
    """Bad URL or unknown target."""


_KNOWN_COMMANDS = {
    "opendatabase",
    "openview",
    "opendocument",
    "searchview",
    "editdocument",
    "deletedocument",
    "readviewentries",
}


@dataclass(frozen=True)
class ParsedUrl:
    """A decoded Domino URL."""

    database: str
    view: str | None = None
    unid: str | None = None
    command: str = "opendatabase"
    params: dict = field(default_factory=dict)

    def param(self, name: str, default: str | None = None) -> str | None:
        """Case-insensitive parameter lookup (URL params are case-free)."""
        wanted = name.lower()
        for key, value in self.params.items():
            if key.lower() == wanted:
                return value
        return default


def parse_url(url: str) -> ParsedUrl:
    """Parse a Domino-style URL into its parts.

    Raises :class:`WebError` on malformed input or unknown commands.
    """
    if not url.startswith("/"):
        raise WebError(f"URL must start with '/': {url!r}")
    path, _, query = url.partition("?")
    segments = [unquote(part) for part in path.strip("/").split("/") if part]
    if not segments:
        raise WebError("URL names no database")
    if len(segments) > 3:
        raise WebError(f"too many path segments in {url!r}")

    command = ""
    params: dict = {}
    if query:
        pieces = query.split("&")
        first = pieces[0]
        if "=" not in first and first:
            command = first.lower()
            pieces = pieces[1:]
        # Keys keep their original case (EditDocument writes them as item
        # names); lookups for Start/Count/Query are case-insensitive.
        for key, value in parse_qsl("&".join(pieces), keep_blank_values=True):
            params[key] = value
        # bare flags like &ExpandView arrive as keys with empty values via
        # parse_qsl(keep_blank_values) only when written as ExpandView=;
        # handle the flag-only form too:
        for piece in pieces:
            if piece and "=" not in piece:
                params[piece] = "1"

    database = segments[0]
    view = segments[1] if len(segments) >= 2 else None
    unid = segments[2] if len(segments) == 3 else None

    if not command:
        if unid is not None:
            command = "opendocument"
        elif view is not None:
            command = "openview"
        else:
            command = "opendatabase"
    if command not in _KNOWN_COMMANDS:
        raise WebError(f"unknown URL command {command!r}")
    if command in ("opendocument", "editdocument", "deletedocument") and unid is None:
        raise WebError(f"{command} needs a document UNID in {url!r}")
    if command in ("openview", "searchview", "readviewentries") and view is None:
        raise WebError(f"{command} needs a view name in {url!r}")
    return ParsedUrl(
        database=database, view=view, unid=unid, command=command, params=params
    )
