"""Tests for signing and sealing."""

import marshal

import pytest

from repro.core import Document, ItemType
from repro.errors import SecurityError
from repro.security import (
    IdVault,
    seal_items,
    sign_document,
    unseal_items,
    verify_document,
)
from repro.security.sealing import sealed_item_names


@pytest.fixture
def vault():
    vault = IdVault()
    vault.register("alice/Acme")
    vault.register("bob/Acme")
    return vault


@pytest.fixture
def doc():
    document = Document("S" * 32)
    document.set_all({"Subject": "contract", "Amount": 1000})
    return document


class TestSigning:
    def test_sign_verify_roundtrip(self, doc, vault):
        sign_document(doc, "alice/Acme", vault)
        assert verify_document(doc, vault)
        assert doc.get("$Signer") == "alice/Acme"

    def test_item_tamper_detected(self, doc, vault):
        sign_document(doc, "alice/Acme", vault)
        doc.set("Amount", 9_999_999)
        assert not verify_document(doc, vault)

    def test_added_item_detected(self, doc, vault):
        sign_document(doc, "alice/Acme", vault)
        doc.set("Sneaky", "addition")
        assert not verify_document(doc, vault)

    def test_signer_spoof_detected(self, doc, vault):
        sign_document(doc, "alice/Acme", vault)
        doc.set("$Signer", "bob/Acme")
        assert not verify_document(doc, vault)

    def test_unsigned_fails_verification(self, doc, vault):
        assert not verify_document(doc, vault)

    def test_unregistered_signer_fails(self, doc, vault):
        sign_document(doc, "alice/Acme", vault)
        doc.set("$Signer", "stranger/Evil")
        assert not verify_document(doc, vault)

    def test_unknown_user_cannot_sign(self, doc, vault):
        with pytest.raises(SecurityError):
            sign_document(doc, "ghost/Acme", vault)

    def test_resigning_after_edit_is_valid(self, doc, vault):
        sign_document(doc, "alice/Acme", vault)
        doc.set("Amount", 2000)
        sign_document(doc, "bob/Acme", vault)
        assert verify_document(doc, vault)
        assert doc.get("$Signer") == "bob/Acme"

    def test_signature_survives_serialization(self, doc, vault):
        sign_document(doc, "alice/Acme", vault)
        clone = Document.from_record(marshal.loads(marshal.dumps(doc.to_record())))
        assert verify_document(clone, vault)


class TestSealing:
    def test_seal_hides_value(self, doc):
        seal_items(doc, ["Amount"], key="k1")
        assert doc.get("Amount") is None
        assert sealed_item_names(doc) == ["Amount"]

    def test_unseal_restores_value_and_type(self, doc):
        doc.set("Tags", ["a", "b"], ItemType.TEXT_LIST)
        seal_items(doc, ["Amount", "Tags"], key="k1")
        restored = unseal_items(doc, "k1")
        assert set(restored) == {"Amount", "Tags"}
        assert doc.get("Amount") == 1000
        assert doc.item("Tags").type == ItemType.TEXT_LIST

    def test_wrong_key_rejected(self, doc):
        seal_items(doc, ["Amount"], key="right")
        with pytest.raises(SecurityError):
            unseal_items(doc, "wrong")
        assert doc.get("Amount") is None  # still sealed

    def test_seal_missing_item_rejected(self, doc):
        with pytest.raises(SecurityError):
            seal_items(doc, ["Ghost"], key="k")

    def test_unseal_unsealed_rejected(self, doc):
        with pytest.raises(SecurityError):
            unseal_items(doc, "k", names=["Subject"])

    def test_sealed_items_replicate_opaquely(self, pair, clock):
        from repro.replication import Replicator

        a, b = pair
        doc = a.create({"Secret": "payroll data", "Public": "memo"})
        seal_items(a.get(doc.unid), ["Secret"], key="hr-key")
        clock.advance(1)
        Replicator().replicate(a, b)
        remote = b.get(doc.unid)
        assert remote.get("Secret") is None
        assert remote.get("Public") == "memo"
        unseal_items(remote, "hr-key")
        assert remote.get("Secret") == "payroll data"

    def test_ciphertext_differs_from_plaintext(self, doc):
        seal_items(doc, ["Subject"], key="k")
        cipher = doc.get("$Sealed.Subject")
        assert "contract" not in cipher
