"""Robustness fuzzing: parsers fail *closed* with library exceptions.

Whatever bytes arrive — user-typed formulas, URLs, search queries — the
parsers must either succeed or raise the documented error type; any other
exception is a crash bug.
"""

import marshal

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    FormulaEvalError,
    FormulaSyntaxError,
    FullTextError,
    ItemError,
)
from repro.formula import compile_formula
from repro.fulltext import parse_query
from repro.web.urls import WebError, parse_url

printable = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=60
)


@given(source=printable)
@settings(max_examples=300, deadline=None)
def test_formula_parser_fails_closed(source):
    try:
        compile_formula(source)
    except FormulaSyntaxError:
        pass


@given(source=printable)
@settings(max_examples=200, deadline=None)
def test_formula_evaluation_fails_closed(source):
    """Even formulas that parse must evaluate or raise a formula error."""
    try:
        formula = compile_formula(source)
    except FormulaSyntaxError:
        return
    try:
        formula.evaluate()
    except (FormulaEvalError, FormulaSyntaxError):
        pass


@given(source=printable)
@settings(max_examples=300, deadline=None)
def test_query_parser_fails_closed(source):
    try:
        parse_query(source)
    except FullTextError:
        pass


@given(url=printable)
@settings(max_examples=300, deadline=None)
def test_url_parser_fails_closed(url):
    try:
        parse_url(url)
    except WebError:
        pass


@given(url=printable)
@settings(max_examples=150, deadline=None)
def test_web_server_never_raises(url):
    """The request handler turns every malformed input into a status code."""
    import random

    from repro.core import NotesDatabase
    from repro.design import Application
    from repro.web import DominoWebServer

    db = NotesDatabase("fuzz.nsf", rng=random.Random(1))
    server = DominoWebServer()
    server.register("fuzz.nsf", Application(db))
    response = server.handle("/" + url)
    assert response.status in (200, 400, 401, 404)


@given(
    name=st.text(min_size=0, max_size=10),
    value=st.one_of(
        st.none(),
        st.booleans(),
        st.text(max_size=10),
        st.integers(),
        st.floats(allow_nan=False, allow_infinity=False),
        st.lists(st.one_of(st.text(max_size=5), st.integers()), max_size=4),
        st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
    ),
)
@settings(max_examples=300, deadline=None)
def test_item_construction_fails_closed(name, value):
    from repro.core import Item

    try:
        item = Item.of(name or "X", value)
    except ItemError:
        return
    # accepted values must round-trip through the stored note record
    assert Item.from_record(marshal.loads(marshal.dumps(item.to_record()))) == item
