"""Tests for the Domino web engine: URLs, rendering, request handling."""

import re
from html import escape
from urllib.parse import quote_plus

import pytest

from repro.design import Application
from repro.fulltext import FullTextIndex
from repro.security import AccessControlList, AclLevel
from repro.views import SortOrder, ViewColumn
from repro.web import DominoWebServer, parse_url
from repro.web.urls import WebError
from repro.core import Item, ItemType


class TestUrlParsing:
    def test_database_only(self):
        parsed = parse_url("/sales.nsf")
        assert parsed.database == "sales.nsf"
        assert parsed.command == "opendatabase"

    def test_view_defaults_to_openview(self):
        parsed = parse_url("/sales.nsf/ByCustomer")
        assert parsed.command == "openview"
        assert parsed.view == "ByCustomer"

    def test_document_defaults_to_opendocument(self):
        parsed = parse_url("/db.nsf/v/ABC123")
        assert parsed.command == "opendocument"
        assert parsed.unid == "ABC123"

    def test_explicit_command_and_params(self):
        parsed = parse_url("/db.nsf/v?OpenView&Start=5&Count=10")
        assert parsed.command == "openview"
        assert parsed.param("start") == "5"
        assert parsed.param("COUNT") == "10"  # case-insensitive lookup

    def test_params_keep_case_for_item_names(self):
        parsed = parse_url("/db.nsf/v/U1?EditDocument&Status=done")
        assert parsed.params["Status"] == "done"

    def test_command_case_insensitive(self):
        assert parse_url("/db.nsf/v?openview").command == "openview"
        assert parse_url("/db.nsf/v?OPENVIEW").command == "openview"

    def test_url_decoding(self):
        parsed = parse_url("/db.nsf/By%20Customer?OpenView")
        assert parsed.view == "By Customer"

    def test_search_query(self):
        parsed = parse_url("/db.nsf/v?SearchView&Query=budget+cuts")
        assert parsed.command == "searchview"
        assert parsed.param("query") == "budget cuts"

    def test_bad_urls_rejected(self):
        for bad in ("nope", "/", "/db/v/u/extra", "/db.nsf?MakeCoffee",
                    "/db.nsf?OpenDocument"):
            with pytest.raises(WebError):
                parse_url(bad)


@pytest.fixture
def site(db):
    app = Application(db)
    app.save_view(
        "ByCustomer", 'SELECT Form = "Order"',
        [
            ViewColumn(title="Customer", item="Customer", categorized=True),
            ViewColumn(title="Subject", item="Subject",
                       sort=SortOrder.ASCENDING),
        ],
    )
    docs = [
        db.create({"Form": "Order", "Customer": f"cust{i % 2}",
                   "Subject": f"order {i}", "Body": f"needs widget {i}"})
        for i in range(6)
    ]
    server = DominoWebServer()
    server.register("sales.nsf", app)
    return db, server, docs


class TestRequests:
    def test_open_database_lists_views(self, site):
        db, server, _ = site
        response = server.handle("/sales.nsf")
        assert response.ok
        assert "ByCustomer" in response.body
        assert "test.nsf" in response.body  # the db title

    def test_open_view_renders_rows_and_categories(self, site):
        db, server, _ = site
        response = server.handle("/sales.nsf/ByCustomer?OpenView")
        assert response.ok
        assert response.body.count('class="doc"') == 6
        assert response.body.count('class="category"') == 2
        assert "OpenDocument" in response.body

    def test_view_paging(self, site):
        db, server, _ = site
        first = server.handle("/sales.nsf/ByCustomer?OpenView&Count=3")
        assert first.body.count('class="doc"') <= 3
        assert 'class="next"' in first.body
        # following the Next link terminates
        second = server.handle(
            "/sales.nsf/ByCustomer?OpenView&Start=4&Count=30"
        )
        assert 'class="next"' not in second.body

    def test_open_document(self, site):
        db, server, docs = site
        response = server.handle(
            f"/sales.nsf/ByCustomer/{docs[0].unid}?OpenDocument"
        )
        assert response.ok
        assert "order 0" in response.body
        assert "$" not in response.body.split("<dl>")[1]  # hidden items hidden

    def test_search_view(self, site):
        db, server, docs = site
        response = server.handle(
            "/sales.nsf/ByCustomer?SearchView&Query=widget+3"
        )
        assert response.ok
        assert docs[3].unid in response.body

    def test_edit_document_writes_items(self, site):
        db, server, docs = site
        response = server.handle(
            f"/sales.nsf/ByCustomer/{docs[0].unid}?EditDocument&Status=shipped",
            user="web/Acme",
        )
        assert response.ok
        doc = db.get(docs[0].unid)
        assert doc.get("Status") == "shipped"
        assert doc.updated_by[-1] == "web/Acme"
        assert doc.seq == 2

    def test_delete_document(self, site):
        db, server, docs = site
        response = server.handle(
            f"/sales.nsf/ByCustomer/{docs[5].unid}?DeleteDocument"
        )
        assert response.ok
        assert docs[5].unid not in db
        # and the view no longer shows it
        view_response = server.handle("/sales.nsf/ByCustomer?OpenView")
        assert view_response.body.count('class="doc"') == 5

    def test_default_view(self, site):
        db, server, _ = site
        response = server.handle("/sales.nsf/$defaultview?OpenView")
        assert response.ok and "ByCustomer" in response.body

    def test_unknown_database_404(self, site):
        _, server, _ = site
        assert server.handle("/ghost.nsf").status == 404

    def test_unknown_view_404(self, site):
        _, server, _ = site
        assert server.handle("/sales.nsf/Nope?OpenView").status == 404

    def test_unknown_document_404(self, site):
        _, server, _ = site
        response = server.handle("/sales.nsf/ByCustomer/" + "0" * 32)
        assert response.status == 404

    def test_malformed_url_400(self, site):
        _, server, _ = site
        assert server.handle("/sales.nsf?BrewCoffee").status == 400

    def test_html_is_escaped(self, site):
        db, server, _ = site
        doc = db.create({"Form": "Order", "Customer": "cust0",
                         "Subject": "<script>alert(1)</script>"})
        response = server.handle(
            f"/sales.nsf/ByCustomer/{doc.unid}?OpenDocument"
        )
        assert "<script>" not in response.body
        assert "&lt;script&gt;" in response.body


def _result_unids(body):
    return re.findall(r'<li><a href="/sales.nsf/ByCustomer/([^?"]+)\?OpenDocument">', body)


class TestSearchPaging:
    """``?SearchView`` pages readable hits by ``Start``/``Count``."""

    @pytest.fixture
    def many(self, site):
        db, server, _ = site
        hidden = set()
        for number in range(70):
            items = {"Form": "Order", "Customer": "cust9",
                     "Subject": f"lot {number}",
                     "Body": " ".join(["gadget"] * (number % 7 + 1))}
            if number % 5 == 0:
                items["Hidden"] = Item.of("Hidden", ["boss/Acme"], ItemType.READERS)
            doc = db.create(items)
            if number % 5 == 0:
                hidden.add(doc.unid)
        acl = AccessControlList(default_level=AclLevel.READER)
        db.acl = acl
        return db, server, acl, hidden

    def _page(self, server, start, count):
        response = server.handle(
            f"/sales.nsf/ByCustomer?SearchView&Query=gadget&Start={start}&Count={count}",
            user="peon/Acme",
        )
        assert response.ok
        return _result_unids(response.body)

    def test_pages_are_disjoint_and_join_to_the_double_page(self, many):
        _, server, _, hidden = many
        first, second = self._page(server, 1, 25), self._page(server, 26, 25)
        both = self._page(server, 1, 50)
        assert len(first) == len(second) == 25
        assert not set(first) & set(second)
        assert first + second == both
        assert not hidden & set(both)
        assert self._page(server, 51, 25) == self._page(server, 1, 75)[50:]

    def test_reader_checks_stop_at_the_last_hit_shown(self, many):
        db, server, acl, hidden = many
        ranking = [hit.unid for hit in FullTextIndex(db).search("gadget")]
        readable = [unid for unid in ranking if unid not in hidden]
        checked = []
        can_read = acl.can_read
        acl.can_read = lambda user, doc: checked.append(doc.unid) or can_read(user, doc)
        assert self._page(server, 26, 10) == readable[25:35]
        assert checked == ranking[:ranking.index(readable[34]) + 1]

    def test_titles_follow_item_changes(self, many):
        db, server, _, _ = many
        top = FullTextIndex(db).search("gadget", limit=1)[0]
        url = "/sales.nsf/ByCustomer?SearchView&Query=gadget&Count=1"

        def expected(title):
            return (
                "<h1>Search: gadget</h1>\n<ol class=\"results\">\n"
                f'<li><a href="/sales.nsf/ByCustomer/{top.unid}?OpenDocument">'
                f"{title}</a> "
                f'<span class="score">{top.score:.2f}</span></li>\n</ol>\n'
                '<a class="next" href="/sales.nsf/ByCustomer?SearchView'
                '&Query=gadget&Start=2&Count=1">Next</a>'
            )

        before = db.get(top.unid).get("Subject")
        assert server.handle(url).body == expected(before)
        assert server.handle(url).body == expected(before)  # the kept title
        # An in-place item change, with no database write, resets it.
        db.get(top.unid).set("Subject", "<b>renamed</b>")
        assert server.handle(url).body == expected("&lt;b&gt;renamed&lt;/b&gt;")
        db.get(top.unid).remove_item("Subject")
        assert server.handle(url).body == expected(top.unid)

    def _next(self, body):
        links = re.findall(r'<a class="next" href="([^"]+)">Next</a>', body)
        return links[0] if links else None

    def test_next_link_leads_to_the_following_page(self, many):
        _, server, _, _ = many
        page = server.handle("/sales.nsf/ByCustomer?SearchView&Query=gadget",
                             user="peon/Acme").body
        assert len(_result_unids(page)) == 25
        link = self._next(page)
        assert link == (
            "/sales.nsf/ByCustomer?SearchView&Query=gadget&Start=26&Count=25"
        )
        second = server.handle(link, user="peon/Acme").body
        assert _result_unids(second) == self._page(server, 26, 25)
        assert second == server.handle(
            "/sales.nsf/ByCustomer?SearchView&Query=gadget&Start=26&Count=25",
            user="peon/Acme",
        ).body

    def test_short_page_has_no_next_link(self, many):
        _, server, _, _ = many
        # 56 readable hits: a 100-hit page and the third 25-hit page are short.
        for paging, shown in (("Start=1&Count=100", 56), ("Start=51&Count=25", 6)):
            body = server.handle(
                f"/sales.nsf/ByCustomer?SearchView&Query=gadget&{paging}",
                user="peon/Acme",
            ).body
            assert len(_result_unids(body)) == shown
            assert self._next(body) is None
        body = server.handle(
            "/sales.nsf/ByCustomer?SearchView&Query=nothing&Count=5"
        ).body
        assert _result_unids(body) == [] and self._next(body) is None

    def test_query_with_space_quote_and_ampersand_round_trips(self, many):
        _, server, _, _ = many
        query = '"gadget gadget" OR R&D'
        first = server.handle(
            f"/sales.nsf/ByCustomer?SearchView&Query={quote_plus(query)}&Count=5",
            user="peon/Acme",
        ).body
        assert len(_result_unids(first)) == 5
        link = self._next(first)
        assert link == (
            f"/sales.nsf/ByCustomer?SearchView&Query={quote_plus(query)}"
            "&Start=6&Count=5"
        )
        second = server.handle(link, user="peon/Acme").body
        assert f"<h1>Search: {escape(query)}</h1>" in second
        both = _result_unids(server.handle(
            f"/sales.nsf/ByCustomer?SearchView&Query={quote_plus(query)}&Count=10",
            user="peon/Acme",
        ).body)
        assert _result_unids(first) + _result_unids(second) == both


class TestReadViewEntries:
    def test_xml_shape(self, site):
        db, server, docs = site
        response = server.handle("/sales.nsf/ByCustomer?ReadViewEntries")
        assert response.ok
        body = response.body
        assert body.startswith('<?xml version="1.0"')
        assert 'toplevelentries="6"' in body
        assert body.count('category="true"') == 2
        assert body.count('unid="') == 6
        import xml.etree.ElementTree as ET

        root = ET.fromstring(body)
        entries = root.findall("viewentry")
        assert len(entries) == 8  # 2 categories + 6 documents
        doc_entry = next(e for e in entries if e.get("unid"))
        names = [e.get("name") for e in doc_entry.findall("entrydata")]
        assert names == ["Customer", "Subject"]

    def test_paging(self, site):
        db, server, _ = site
        response = server.handle(
            "/sales.nsf/ByCustomer?ReadViewEntries&Start=2&Count=3"
        )
        import xml.etree.ElementTree as ET

        root = ET.fromstring(response.body)
        assert root.get("start") == "2"
        assert len(root.findall("viewentry")) == 3

    def test_respects_reader_fields(self, site):
        db, server, docs = site
        from repro.security import AccessControlList, AclLevel

        db.acl = AccessControlList(default_level=AclLevel.EDITOR)
        db.get(docs[0].unid).set("Hidden", ["boss/Acme"], ItemType.READERS)
        response = server.handle(
            "/sales.nsf/ByCustomer?ReadViewEntries", user="peon/Acme"
        )
        assert response.body.count('unid="') == 5
        assert docs[0].unid not in response.body

    def test_xml_escaping(self, site):
        db, server, _ = site
        db.create({"Form": "Order", "Customer": "cust0",
                   "Subject": "<&> weird"})
        response = server.handle("/sales.nsf/ByCustomer?ReadViewEntries")
        import xml.etree.ElementTree as ET

        ET.fromstring(response.body)  # must stay well-formed

    def test_cells_escape_once(self, site):
        """A category value and a document cell both parse back as the
        text they hold."""
        db, server, _ = site
        db.create({"Form": "Order", "Customer": "R&D", "Subject": "R&D plan"})
        response = server.handle("/sales.nsf/ByCustomer?ReadViewEntries")
        import xml.etree.ElementTree as ET

        entries = ET.fromstring(response.body).findall("viewentry")
        categories = [e.findtext("entrydata/text") for e in entries
                      if e.get("category") == "true"]
        assert "R&D" in categories
        cells = [{d.get("name"): d.findtext("text")
                  for d in e.findall("entrydata")}
                 for e in entries if e.get("unid")]
        assert {"Customer": "R&D", "Subject": "R&D plan"} in cells


class TestWebSecurity:
    def test_acl_gates_database(self, site):
        db, server, _ = site
        acl = AccessControlList(default_level=AclLevel.NO_ACCESS)
        acl.add("web/Acme", AclLevel.EDITOR)
        db.acl = acl
        assert server.handle("/sales.nsf", user="stranger").status == 401
        assert server.handle("/sales.nsf", user="web/Acme").ok

    def test_reader_fields_hide_documents_from_views(self, site):
        db, server, docs = site
        acl = AccessControlList(default_level=AclLevel.EDITOR)
        db.acl = acl
        db.get(docs[0].unid).set("Hidden", ["boss/Acme"], ItemType.READERS)
        response = server.handle("/sales.nsf/ByCustomer?OpenView",
                                 user="peon/Acme")
        assert response.body.count('class="doc"') == 5
        direct = server.handle(
            f"/sales.nsf/ByCustomer/{docs[0].unid}?OpenDocument",
            user="peon/Acme",
        )
        assert direct.status == 401

    def test_search_respects_reader_fields(self, site):
        db, server, docs = site
        acl = AccessControlList(default_level=AclLevel.EDITOR)
        db.acl = acl
        db.get(docs[2].unid).set("Hidden", ["boss/Acme"], ItemType.READERS)
        response = server.handle(
            "/sales.nsf/ByCustomer?SearchView&Query=widget+2",
            user="peon/Acme",
        )
        assert docs[2].unid not in response.body

    def test_edit_denied_for_reader(self, site):
        db, server, docs = site
        acl = AccessControlList(default_level=AclLevel.READER)
        db.acl = acl
        response = server.handle(
            f"/sales.nsf/ByCustomer/{docs[0].unid}?EditDocument&Status=nope",
            user="reader/Acme",
        )
        assert response.status == 401
        assert db.get(docs[0].unid).get("Status") is None


class TestPageParameters:
    """``Start``/``Count`` are validated before a view is read."""

    @pytest.mark.parametrize("url", [
        "/sales.nsf/ByCustomer?OpenView&Start=abc",
        "/sales.nsf/ByCustomer?OpenView&Count=1.5",
        "/sales.nsf/ByCustomer?ReadViewEntries&Start=",
        "/sales.nsf/ByCustomer?SearchView&Query=x&Count=x",
    ])
    def test_non_integer_is_400(self, site, url):
        _, server, _ = site
        response = server.handle(url)
        assert response.status == 400
        assert "integers" in response.body

    @pytest.mark.parametrize("command", [
        "OpenView", "ReadViewEntries", "SearchView&Query=widget",
    ])
    def test_negative_count_is_400(self, site, command):
        _, server, _ = site
        response = server.handle(f"/sales.nsf/ByCustomer?{command}&Count=-3")
        assert response.status == 400

    def test_zero_count_renders_no_rows(self, site):
        _, server, _ = site
        response = server.handle("/sales.nsf/ByCustomer?OpenView&Count=0")
        assert response.ok
        assert 'class="doc"' not in response.body
        assert 'class="next"' not in response.body  # not a link to itself

    def test_zero_count_search_returns_no_hits(self, site):
        _, server, _ = site
        response = server.handle(
            "/sales.nsf/ByCustomer?SearchView&Query=widget&Count=0")
        assert response.status == 200
        assert "<li>" not in response.body

    @pytest.mark.parametrize("start", ["0", "-7"])
    def test_start_below_one_reads_from_the_top(self, site, start):
        _, server, _ = site
        first = server.handle("/sales.nsf/ByCustomer?OpenView&Count=3")
        low = server.handle(f"/sales.nsf/ByCustomer?OpenView&Start={start}&Count=3")
        assert low.ok and low.body == first.body

    def test_entries_start_zero_numbers_from_one(self, site):
        _, server, _ = site
        import xml.etree.ElementTree as ET

        response = server.handle(
            "/sales.nsf/ByCustomer?ReadViewEntries&Start=0&Count=2")
        root = ET.fromstring(response.body)
        positions = [e.get("position") for e in root.findall("viewentry")]
        assert root.get("start") == "1"
        assert positions == ["1", "2"]

    def test_next_link_follows_total_rows(self, site):
        _, server, _ = site
        # 6 documents under 2 category rows: 8 rows in all.
        assert 'class="next"' in server.handle(
            "/sales.nsf/ByCustomer?OpenView&Start=5&Count=3").body
        assert 'class="next"' not in server.handle(
            "/sales.nsf/ByCustomer?OpenView&Start=6&Count=3").body
