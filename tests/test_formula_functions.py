"""Tests for the @function library."""

import random

import pytest

from repro.core import Document, NotesDatabase
from repro.errors import FormulaEvalError
from repro.formula import compile_formula, register_function
from repro.sim import VirtualClock


def ev(source, doc=None, **kw):
    return compile_formula(source).evaluate(doc, **kw)


@pytest.fixture
def doc():
    document = Document("B" * 32, seq=3, seq_time=(20.0, 5), created=2.0,
                        modified=20.0, updated_by=["alice/Acme", "bob/Acme"],
                        note_id=7)
    document.set_all({"Subject": "Quarterly Report", "Nums": [4, 8, 15]})
    return document


class TestControlFlow:
    def test_if_two_way(self):
        assert ev('@If(1; "yes"; "no")') == ["yes"]
        assert ev('@If(0; "yes"; "no")') == ["no"]

    def test_if_multiway(self):
        f = '@If(x = 1; "one"; x = 2; "two"; "many")'
        assert compile_formula(f"x := 2; {f}").evaluate() == ["two"]
        assert compile_formula(f"x := 9; {f}").evaluate() == ["many"]

    def test_if_lazy(self):
        assert ev('@If(1; "safe"; 1/0)') == ["safe"]

    def test_if_without_else_gives_empty(self):
        assert ev('@If(0; "x")') == [""]

    def test_select_picks_by_index(self):
        assert ev('@Select(2; "a"; "b"; "c")') == ["b"]
        assert ev('@Select(9; "a"; "b")') == ["b"]  # clamps to last

    def test_select_zero_rejected(self):
        with pytest.raises(FormulaEvalError):
            ev('@Select(0; "a")')

    def test_do_returns_last(self):
        assert ev("@Do(1; 2; 3)") == [3]

    def test_success_failure(self):
        assert ev("@Success") == [1]
        with pytest.raises(FormulaEvalError):
            ev('@Failure("bad input")')

    def test_unknown_function_rejected(self):
        with pytest.raises(FormulaEvalError):
            ev("@TotallyMadeUp(1)")

    def test_arity_checked(self):
        with pytest.raises(FormulaEvalError):
            ev("@Left(1)")
        with pytest.raises(FormulaEvalError):
            ev('@Abs(1; 2)')


class TestDocumentFunctions:
    def test_unid_and_noteid(self, doc):
        assert ev("@DocumentUniqueID", doc) == ["B" * 32]
        assert ev("@NoteID", doc) == [7]

    def test_created_modified(self, doc):
        assert ev("@Created", doc) == [2.0]
        assert ev("@Modified", doc) == [20.0]

    def test_author_and_updatedby(self, doc):
        assert ev("@Author", doc) == ["alice/Acme"]
        assert ev("@UpdatedBy", doc) == ["alice/Acme", "bob/Acme"]

    def test_isnewdoc(self, doc):
        assert ev("@IsNewDoc", doc) == [0]
        fresh = Document("C" * 32)
        assert ev("@IsNewDoc", fresh) == [1]

    def test_doc_functions_need_doc(self):
        with pytest.raises(FormulaEvalError):
            ev("@Created")

    def test_now_uses_clock(self, doc):
        clock = VirtualClock(start=77.0)
        assert ev("@Now", doc, clock=clock) == [77.0]

    def test_today_floors_to_day(self, doc):
        clock = VirtualClock(start=86400 * 3 + 5000)
        assert ev("@Today", doc, clock=clock) == [86400.0 * 3]

    def test_username(self):
        assert ev("@UserName", user="carol/Acme") == ["carol/Acme"]

    def test_isavailable(self, doc):
        assert ev("@IsAvailable(Subject)", doc) == [1]
        assert ev("@IsAvailable(Ghost)", doc) == [0]
        assert ev("@IsUnavailable(Ghost)", doc) == [1]

    def test_getfield_setfield(self, doc):
        assert ev('@GetField("Subject")', doc) == ["Quarterly Report"]
        assert ev('@SetField("Tmp"; 5); @GetField("Tmp")', doc) == [5]

    def test_getprofilefield(self):
        db = NotesDatabase("p.nsf")
        profile = db.profile("settings")
        db.update(profile.unid, {"Theme": "dark"})
        assert ev('@GetProfileField("settings"; "Theme")', db=db) == ["dark"]


class TestTextFunctions:
    def test_text_conversion(self):
        assert ev("@Text(5)") == ["5"]
        assert ev("@Text(2.5)") == ["2.5"]
        assert ev('@TextToNumber("42")') == [42]
        with pytest.raises(FormulaEvalError):
            ev('@TextToNumber("nope")')

    def test_length(self):
        assert ev('@Length("hello")') == [5]
        assert ev('@Length("a":"abc")') == [1, 3]

    def test_left_right_middle(self):
        assert ev('@Left("notes"; 2)') == ["no"]
        assert ev('@Left("a-b"; "-")') == ["a"]
        assert ev('@Right("notes"; 2)') == ["es"]
        assert ev('@Right("a-b"; "-")') == ["b"]
        assert ev('@Middle("abcdef"; 1; 3)') == ["bcd"]

    def test_contains_begins_ends(self):
        assert ev('@Contains("Lotus Notes"; "note")') == [1]
        assert ev('@Begins("Lotus"; "Lo")') == [1]
        assert ev('@Ends("Lotus"; "us")') == [1]
        assert ev('@Contains("abc"; "z")') == [0]

    def test_case_functions(self):
        assert ev('@UpperCase("mix")') == ["MIX"]
        assert ev('@LowerCase("MIX")') == ["mix"]
        assert ev('@ProperCase("big deal")') == ["Big Deal"]

    def test_trim(self):
        assert ev('@Trim("  a   b  ")') == ["a b"]
        assert ev('@Trim(""no"" : "x")'.replace('""no""', '""')) == ["x"]

    def test_word(self):
        assert ev('@Word("a,b,c"; ","; 3)') == ["c"]
        assert ev('@Word("a,b"; ","; 9)') == [""]

    def test_replacesubstring(self):
        assert ev('@ReplaceSubstring("a-b-c"; "-"; "_")') == ["a_b_c"]

    def test_repeat(self):
        assert ev('@Repeat("ab"; 3)') == ["ababab"]

    def test_matches_wildcards(self):
        assert ev('@Matches("report-7"; "report-?")') == [1]
        assert ev('@Matches("summary"; "report*")') == [0]


class TestListFunctions:
    def test_elements(self):
        assert ev("@Elements(1:2:3)") == [3]
        assert ev('@Elements("")') == [0]

    def test_subset(self):
        assert ev("@Subset(1:2:3:4; 2)") == [1, 2]
        assert ev("@Subset(1:2:3:4; -1)") == [4]
        with pytest.raises(FormulaEvalError):
            ev("@Subset(1:2; 0)")

    def test_explode_implode(self):
        assert ev('@Explode("a,b,c"; ",")') == ["a", "b", "c"]
        assert ev('@Implode("a":"b"; "+")') == ["a+b"]
        assert ev('@Implode(1:2)') == ["1 2"]

    def test_unique(self):
        assert ev('@Unique("a":"b":"a":"c")') == ["a", "b", "c"]

    def test_sort(self):
        assert ev('@Sort("b":"a":"c")') == ["a", "b", "c"]
        assert ev('@Sort(3:1:2; "[DESCENDING]")') == [3, 2, 1]

    def test_member_ismember(self):
        assert ev('@Member("b"; "a":"b")') == [2]
        assert ev('@Member("z"; "a":"b")') == [0]
        assert ev('@IsMember("a"; "a":"b")') == [1]

    def test_replace(self):
        assert ev('@Replace("a":"b":"c"; "b"; "B")') == ["a", "B", "c"]

    def test_keywords(self):
        assert ev('@Keywords("the budget review"; "budget":"staff")') == ["budget"]


class TestNumberFunctions:
    def test_sum_min_max(self, doc):
        assert ev("@Sum(Nums)", doc) == [27]
        assert ev("@Min(Nums)", doc) == [4]
        assert ev("@Max(Nums; 99)", doc) == [99]

    def test_abs_round_integer(self):
        assert ev("@Abs(-4:4)") == [4, 4]
        assert ev("@Round(2.6)") == [3]
        assert ev("@Round(2.345; 2)") == [2.35] or ev("@Round(2.345; 2)") == [2.34]
        assert ev("@Integer(2.9)") == [2]

    def test_modulo(self):
        assert ev("@Modulo(10; 3)") == [1]
        with pytest.raises(FormulaEvalError):
            ev("@Modulo(10; 0)")

    def test_sqrt_power(self):
        assert ev("@Sqrt(16)") == [4.0]
        assert ev("@Power(2; 10)") == [1024]
        with pytest.raises(FormulaEvalError):
            ev("@Sqrt(-1)")

    def test_sum_rejects_text(self):
        with pytest.raises(FormulaEvalError):
            ev('@Sum("a")')


class TestRandom:
    def test_draws_from_a_generator_seeded_with_zero(self):
        assert ev("@Random") == [random.Random(0).random()]
        twice = ev("x := @Random; y := @Random; x : y")
        draws = random.Random(0)
        assert twice == [draws.random(), draws.random()]

    def test_a_given_generator_is_used(self):
        assert ev("@Random", rng=random.Random(5)) == [random.Random(5).random()]

    def test_selection_without_random_seeds_no_generator(self, doc, monkeypatch):
        built = []
        real = random.Random

        class Counting(real):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(random, "Random", Counting)
        formula = compile_formula('SELECT Subject = "Quarterly Report"')
        assert formula.select_ex(doc)[0]
        assert built == []
        compile_formula("SELECT @Random < 2").select_ex(doc)
        assert built == [(0,)]


class TestExtensibility:
    def test_register_custom_function(self):
        @register_function("@double", min_args=1, max_args=1)
        def _double(ctx, value):
            return [element * 2 for element in value]

        assert ev("@Double(21)") == [42]

    def test_custom_name_must_start_with_at(self):
        with pytest.raises(FormulaEvalError):
            register_function("nope")(lambda ctx: [1])
