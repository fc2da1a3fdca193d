"""File attachments: binary payloads carried inside documents.

Notes stores attachments as ``$FILE`` items; here each attachment is one
``$FILE.<name>`` item of type ATTACHMENT whose value is exactly
``{"name": …, "data": <base64>}``, both strings, so attachments persist and
replicate exactly like any other item — including field-level replication,
which ships an attachment only when it actually changed.
"""

from __future__ import annotations

import base64

from repro.errors import DocumentError
from repro.core.document import Document
from repro.core.items import ItemType

ATTACHMENT_PREFIX = "$FILE."


def attach(doc: Document, filename: str, data: bytes) -> str:
    """Store ``data`` as attachment ``filename``; returns the item name.

    Re-attaching an existing filename replaces its content.
    """
    if not filename:
        raise DocumentError("attachment needs a filename")
    item_name = ATTACHMENT_PREFIX + filename
    doc.set(
        item_name,
        {"name": filename, "data": base64.b64encode(data).decode("ascii")},
        ItemType.ATTACHMENT,
    )
    return item_name


def detach(doc: Document, filename: str) -> bytes:
    """Return the attachment's bytes; raises if absent."""
    item = doc.item(ATTACHMENT_PREFIX + filename)
    if item is None or item.type != ItemType.ATTACHMENT:
        raise DocumentError(f"document has no attachment {filename!r}")
    return base64.b64decode(item.value["data"])


def remove_attachment(doc: Document, filename: str) -> None:
    """Delete an attachment item."""
    item_name = ATTACHMENT_PREFIX + filename
    if item_name not in doc:
        raise DocumentError(f"document has no attachment {filename!r}")
    doc.remove_item(item_name)


def attachment_names(doc: Document) -> list[str]:
    """Filenames of every attachment on the document."""
    return sorted(
        item.value["name"]
        for item in doc
        if item.type == ItemType.ATTACHMENT
    )


def attachment_bytes(doc: Document) -> int:
    """Total decoded size of all attachments (for quota accounting)."""
    total = 0
    for item in doc:
        if item.type == ItemType.ATTACHMENT:
            total += len(base64.b64decode(item.value["data"]))
    return total
