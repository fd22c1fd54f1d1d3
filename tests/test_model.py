import pytest

from dlgx.model import (
    Atom,
    Instance,
    Null,
    Position,
    Program,
    Rule,
    SchemaError,
    Variable,
    format_instance,
    format_term,
    freeze_nulls,
    term_sort_key,
)
from dlgx.parser import load_facts_csv, parse_program, parse_query


def test_term_namespaces_are_disjoint():
    assert "a" != Variable("a")
    assert "a" != Null(1)
    assert Variable("X") != Null(1)
    assert len({"a", Variable("a"), Null(1)}) == 3


def test_constant_interning(tmp_path):
    # a one-character symbol is shared by CPython anyway, so use longer ones;
    # e(alice) is read by the fact scan, the quoted fact and the rule by tokens
    program = parse_program('e(alice).\nf("alice").\nr(X) :- e(X), f(alice).\ne(bob).')
    e, f, _ = program.facts
    alice = e.terms[0]
    assert f.terms[0] is alice
    assert program.rules[0].body[1].terms[0] is alice
    assert parse_query("?- f(alice).").atoms[0].terms[0] is alice
    path = tmp_path / "rows.csv"
    path.write_text("New York,x\nNew York,y\n", encoding="utf-8")
    first, second = load_facts_csv("city", str(path))
    assert first.terms[0] is second.terms[0]


def test_null_identity_includes_epoch():
    assert Null(1, 0) != Null(1, 1)
    assert Null(1, 0) == Null(1, 0)


def test_term_formatting():
    assert format_term("abc") == "abc"
    assert format_term("New York") == '"New York"'
    assert format_term('say "hi"') == '"say \\"hi\\""'
    assert format_term("42") == "42"
    assert format_term(Variable("X")) == "X"
    assert format_term(Null(3)) == "_:e0n3"
    assert format_term(Null(3, 2)) == "_:e2n3"


def test_term_sort_key_orders_constants_nulls_variables():
    terms = [Variable("A"), Null(1), "z", "a", Null(2, 1)]
    ordered = sorted(terms, key=term_sort_key)
    assert ordered == ["a", "z", Null(1), Null(2, 1), Variable("A")]


def test_atom_basics():
    a = Atom("p", ["a", Variable("X")])
    assert a.predicate == "p"
    assert a.arity == 2
    assert set(a.variables()) == {Variable("X")}
    assert Atom("p", ["a", Variable("X")]) == a
    assert hash(Atom("p", ["a", Variable("X")])) == hash(a)


def test_atom_requires_terms():
    with pytest.raises(ValueError):
        Atom("p", [])


def test_position_is_one_based():
    assert str(Position("p", 2)) == "p[2]"


def test_rule_existentials():
    body = [Atom("e", [Variable("X")])]
    head = [Atom("i", [Variable("X"), Variable("Y")])]
    rule = Rule.make(0, body, head)
    assert rule.existential_vars == frozenset({"Y"})


def test_rule_rejects_empty_parts_and_nulls():
    with pytest.raises(ValueError):
        Rule.make(0, [], [Atom("p", [Variable("X")])])
    with pytest.raises(ValueError):
        Rule.make(0, [Atom("p", [Variable("X")])], [])
    with pytest.raises(ValueError):
        Rule.make(0, [Atom("p", [Null(1)])], [Atom("q", [Null(1)])])


def test_program_schema_consistency():
    rule = Rule.make(0, [Atom("e", [Variable("X")])], [Atom("i", [Variable("X")])])
    program = Program(rules=(rule,), facts=(Atom("e", ["a"]),))
    assert program.schema == {"e": 1, "i": 1}
    with pytest.raises(SchemaError):
        bad = Program(
            rules=(rule,),
            facts=(Atom("e", ["a", "b"]),),
        )
        bad.schema  # noqa: B018 - arity clash surfaces on schema access


def test_program_schema_is_computed_once():
    rule = Rule.make(0, [Atom("e", [Variable("X")])], [Atom("i", [Variable("X")])])
    program = Program(rules=(rule,))
    assert program.schema is program.schema


def test_program_facts_must_be_ground():
    with pytest.raises(ValueError):
        Program(rules=(), facts=(Atom("e", [Variable("X")]),))


def test_instance_set_semantics():
    inst = Instance()
    f = Atom("p", ["a"])
    assert inst.add(f)
    assert not inst.add(f)
    assert len(inst) == 1


def test_freeze_nulls_marks_prior_epochs():
    inst = Instance()
    inst.add(Atom("p", [Null(1, 0)]))
    assert inst.active_epoch == 0
    freeze_nulls(inst)
    assert inst.active_epoch == 1


def test_format_instance_is_sorted_and_stable():
    inst = Instance()
    inst.add(Atom("q", ["b"]))
    inst.add(Atom("p", ["a", Null(1)]))
    assert format_instance(inst) == "p(a, _:e0n1).\nq(b).\n"
