import random
import re

import pytest

from dlgx import parser as parser_module
from dlgx.model import Atom, Variable
from dlgx.parser import (
    ParseError,
    load_facts_csv,
    parse_program,
    parse_query,
    print_program,
    print_query,
)


def test_parse_fact_and_rule():
    program = parse_program("e1(c).\ni1(X, Y) :- e1(X).\n")
    assert program.facts == (Atom("e1", ["c"]),)
    (rule,) = program.rules
    assert rule.body == (Atom("e1", [Variable("X")]),)
    assert rule.head == (Atom("i1", [Variable("X"), Variable("Y")]),)
    assert rule.existential_vars == frozenset({"Y"})


def test_arrow_form_is_an_alias():
    a = parse_program("i1(X, Y) :- e1(X).")
    b = parse_program("e1(X) -> i1(X, Y).")
    assert a.rules[0].body == b.rules[0].body
    assert a.rules[0].head == b.rules[0].head


def test_conjunctive_heads_and_bodies():
    program = parse_program("i1(X, Y), i2(Y) :- e1(X), e2(X).")
    (rule,) = program.rules
    assert len(rule.body) == 2
    assert len(rule.head) == 2


def test_comments_and_whitespace():
    program = parse_program("% leading comment\n e1(c). % trailing\n\n")
    assert len(program.facts) == 1


def test_a_comment_holding_fact_text_is_not_read():
    for text in ("% e(a).", "% e(a).\n", "e(b). % e(a).", "% x\n  % e(a). f(c).\ne(b)."):
        program = parse_program(text)
        assert Atom("e", ["a"]) not in program.facts
    assert parse_program("% x\n  % e(a). f(c).\ne(b).").facts == (Atom("e", ["b"]),)


def test_fact_scan_pattern_needs_no_python_3_11_syntax():
    # the package supports Python 3.10, whose re has no possessive
    # quantifiers and no atomic groups
    assert not re.search(r"[*+?}]\+|\(\?>", parser_module._FACT.pattern)


def test_quoted_constants():
    program = parse_program('e1("New York", "say \\"hi\\"").')
    (fact,) = program.facts
    assert fact.terms[0] == "New York"
    assert fact.terms[1] == 'say "hi"'


def test_rule_ids_are_ordinal():
    program = parse_program("a(X) :- b(X).\nc(X) :- a(X).\n")
    assert [r.id for r in program.rules] == [0, 1]


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_program("e1(c", filename="bad.dlgx")
    diag = exc.value.diagnostics[0]
    assert diag.span.file == "bad.dlgx"
    assert diag.span.line == 1
    assert diag.span.column == 5
    assert diag.severity == "error"


def test_arity_clash_reports_first_use():
    with pytest.raises(ParseError) as exc:
        parse_program("e1(a).\ne1(a, b).\n")
    (diag,) = exc.value.diagnostics
    assert "e1" in diag.message
    assert "1" in diag.message and "2" in diag.message
    assert "(first used at <input>:1:1)" in diag.message
    assert (diag.span.line, diag.span.column) == (2, 1)


def test_end_of_input_after_a_comment_is_at_the_end():
    with pytest.raises(ParseError) as exc:
        parse_program("e(a) % note")
    assert str(exc.value.diagnostics[0]) == (
        "<input>:1:12: error: expected '.', ':-' or '->', found 'end of input'"
    )


def test_escaped_newline_in_a_quoted_constant_counts_as_a_line():
    with pytest.raises(ParseError) as exc:
        parse_program('e(a).\ne("x\\\ny").\nf(b, c).\nf(d).')
    (diag,) = exc.value.diagnostics
    assert (diag.span.line, diag.span.column) == (5, 1)
    assert "(first used at <input>:4:1)" in diag.message


def test_identifier_may_not_start_with_a_numeric_character():
    with pytest.raises(ParseError) as exc:
        parse_program("e(½).")
    assert str(exc.value.diagnostics[0]) == "<input>:1:3: error: unexpected character '½'"


def test_identifier_characters():
    (fact,) = parse_program("e(a½, é, _x, 12).").facts
    assert [t for t in fact.terms] == ["a½", "é", "_x", "12"]


def test_every_arity_clash_is_reported_on_its_line():
    text = "e(a).\n" + "e(a, b).\n" * 5000
    with pytest.raises(ParseError) as exc:
        parse_program(text)
    diags = exc.value.diagnostics
    assert len(diags) == 5000
    assert [(d.span.line, d.span.column) for d in diags] == [(n, 1) for n in range(2, 5002)]


def test_nonground_fact_rejected():
    with pytest.raises(ParseError):
        parse_program("e1(X).")


def test_query_not_allowed_in_program_file():
    with pytest.raises(ParseError):
        parse_program("?- e1(X).")


def test_parse_query():
    q = parse_query("?- e(X, Y), e(Y, Z).")
    assert len(q.atoms) == 2
    assert q.is_boolean


def test_parse_query_unknown_predicate_warns():
    diags = []
    q = parse_query("?- nosuch(X).", schema={"e": 2}, diagnostics=diags)
    assert q.atoms[0].predicate == "nosuch"
    assert diags and diags[0].severity == "warning"


def test_parse_query_arity_mismatch_is_error():
    with pytest.raises(ParseError):
        parse_query("?- e(X).", schema={"e": 2})


def test_print_round_trip_examples():
    text = 'i1(X, Y) :- e1(X).\ni3(X, Y, Z) :- i1(X, Y), i2(Z, X).\ne1(c).\ne2("two words").\n'
    program = parse_program(text)
    reparsed = parse_program(print_program(program))
    assert reparsed.rules == program.rules
    assert reparsed.facts == program.facts


def test_print_query_round_trip():
    q = parse_query("?- e(X, Y), e(Y, c).")
    assert parse_query(print_query(q)).atoms == q.atoms
    assert parse_query(print_query(q)) == q


def test_query_output_variables_round_trip():
    q = parse_query("?- e(X, Y), e(Y, c).\nY, X\n")
    assert q.output_vars == ("Y", "X")
    assert print_query(q) == "?- e(X, Y), e(Y, c).\nY, X\n"
    assert parse_query(print_query(q)) == q


def test_query_output_variable_must_occur_in_query():
    with pytest.raises(ParseError) as err:
        parse_query("?- e(X, Y).\nX, Z\n")
    (diag,) = err.value.diagnostics
    assert "Z" in diag.message and diag.span.line == 2
    with pytest.raises(ParseError):
        parse_query("?- e(X, Y).\nX,\n")


# plain identifier characters plus everything a quoted constant must survive
_CONSTANT_CHARS = "abz09_AZ" + '"\\\n\r\t' + "% .,;:()?-'" + "éßλж"


def _random_constant(rng: random.Random) -> str:
    return "".join(rng.choice(_CONSTANT_CHARS) for _ in range(rng.randint(1, 5)))


def _quoted(value: str) -> str:
    return '"' + "".join("\\" + ch if ch in '"\\\n' else ch for ch in value) + '"'


def test_print_round_trip_random_programs():
    # seeded structural fuzz over the grammar's term/atom shapes, with
    # constants drawn over the characters that need quoting or escaping
    rng = random.Random(7)
    names = ["p", "q", "r"]
    for _ in range(200):
        lines = []
        drawn = []
        arity = {n: rng.randint(1, 3) for n in names}
        for pred in names:
            consts = [_random_constant(rng) for _ in range(arity[pred])]
            drawn.append(Atom(pred, consts))
            lines.append(f"{pred}({', '.join(map(_quoted, consts))}).")
        body_pred, head_pred = rng.sample(names, 2)
        body_vars = [f"V{i}" for i in range(arity[body_pred])]
        head_terms = [
            rng.choice(body_vars + [f"W{i}"]) for i in range(arity[head_pred])
        ]
        lines.append(
            f"{head_pred}({', '.join(head_terms)}) :- {body_pred}({', '.join(body_vars)})."
        )
        text = "\n".join(lines) + "\n"
        program = parse_program(text)
        assert program.facts == tuple(drawn)
        again = parse_program(print_program(program))
        assert again.rules == program.rules
        assert again.facts == program.facts


def test_load_facts_csv(tmp_path):
    path = tmp_path / "owns.csv"
    path.write_text("alice,acme\nbob,initech\n", encoding="utf-8")
    facts = load_facts_csv("owns", str(path))
    assert facts == [
        Atom("owns", ["alice", "acme"]),
        Atom("owns", ["bob", "initech"]),
    ]


def test_load_facts_csv_skips_a_byte_order_mark(tmp_path):
    path = tmp_path / "owns.csv"
    path.write_text("\ufeffalice,acme\n", encoding="utf-8")
    assert load_facts_csv("owns", str(path)) == [Atom("owns", ["alice", "acme"])]


def first_error(parse, text):
    with pytest.raises(ParseError) as exc:
        parse(text)
    return exc.value.diagnostics[0]


def test_parse_program_skips_one_byte_order_mark():
    assert parse_program("\ufeffe(a).\nr(X) :- e(X).") == parse_program("e(a).\nr(X) :- e(X).")
    # line-1 columns read as if the mark were absent
    assert first_error(parse_program, "\ufeffe(a) x") == first_error(parse_program, "e(a) x")
    assert first_error(parse_program, "\ufeffE(a).").span.column == 1
    # only one mark is skipped
    assert "'\\ufeff'" in first_error(parse_program, "\ufeff\ufeffe(a).").message


def test_parse_query_skips_one_byte_order_mark():
    assert parse_query("\ufeff?- e(X).\nX") == parse_query("?- e(X).\nX")
    assert first_error(parse_query, "\ufeff?- e(X) x") == first_error(parse_query, "?- e(X) x")
    assert "'\\ufeff'" in first_error(parse_query, "\ufeff\ufeff?- e(X).").message


def test_load_facts_csv_newline_cell_round_trips(tmp_path):
    path = tmp_path / "owns.csv"
    path.write_text('"line one\nline two",acme\n', encoding="utf-8")
    facts = load_facts_csv("owns", str(path))
    assert facts == [Atom("owns", ["line one\nline two", "acme"])]
    program = parse_program("").with_facts(facts)
    assert parse_program(print_program(program)) == program


def test_load_facts_csv_header_flag(tmp_path):
    path = tmp_path / "owns.csv"
    path.write_text("person,company\nalice,acme\n", encoding="utf-8")
    facts = load_facts_csv("owns", str(path), header=True)
    assert len(facts) == 1


def test_load_facts_csv_empty_file(tmp_path):
    path = tmp_path / "owns.csv"
    path.write_text("", encoding="utf-8")
    assert load_facts_csv("owns", str(path)) == []


def test_load_facts_csv_ragged_rows_rejected(tmp_path):
    path = tmp_path / "owns.csv"
    path.write_text("a,b\nc\n", encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        load_facts_csv("owns", str(path))
    assert "2" in exc.value.diagnostics[0].message


def test_load_facts_csv_arity_check(tmp_path):
    path = tmp_path / "owns.csv"
    path.write_text("a,b\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_facts_csv("owns", str(path), arity=3)
