import tracemalloc
from pathlib import Path

import pytest

from dlgx.benchgen import ScenarioSpec, generate_psc, generate_scenario
from dlgx.chase import ichase, oblivious, pchase_r, run_chase
from dlgx.generator import generate_random_program
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


def e(*terms):
    return Atom("e", terms)


def assert_index_consistent(inst):
    """Each row of ``inst.index`` holds the facts of its predicate with its
    term at its position, in insertion order, and is a tuple exactly when
    it holds one fact.  The instance iterates predicate by predicate."""
    predicates = list(dict.fromkeys(f.predicate for f in inst))
    assert list(inst.index) == predicates
    assert list(inst) == [f for p in predicates for f in inst.facts_for(p)]
    for predicate in predicates:
        facts = [f for f in inst if f.predicate == predicate]
        assert list(inst.facts_for(predicate)) == facts
        columns = inst.index[predicate]
        assert len(columns) == facts[0].arity
        for pos, column in enumerate(columns):
            expected = {}
            for f in facts:
                expected.setdefault(f.terms[pos], []).append(f)
            assert list(column) == list(expected)
            for term, row in column.items():
                assert list(row) == expected[term]
                assert isinstance(row, tuple) == (len(row) == 1)
                assert isinstance(row, (tuple, list))


class TestFork:
    def test_a_forks_writes_never_show_in_the_base_nor_the_bases_in_the_fork(self):
        base = Instance.from_facts([e("a", "b"), e("a", "c"), Atom("f", ["a"])])
        fork = base.fork()
        assert fork.add(e("b", "c"))
        assert fork.add(Atom("g", ["x"]))
        assert base.add(e("a", "d"))
        assert base.add(Atom("f", ["b"]))
        # each instance iterates predicate by predicate, in insertion order
        f_a, f_b, g_x = Atom("f", ["a"]), Atom("f", ["b"]), Atom("g", ["x"])
        assert list(base) == [e("a", "b"), e("a", "c"), e("a", "d"), f_a, f_b]
        assert list(fork) == [e("a", "b"), e("a", "c"), e("b", "c"), f_a, g_x]
        assert e("b", "c") not in base and e("a", "d") not in fork
        assert list(base.facts_for("e")) == [e("a", "b"), e("a", "c"), e("a", "d")]
        assert list(fork.facts_for("e")) == [e("a", "b"), e("a", "c"), e("b", "c")]
        assert base.index["e"][0]["a"] == [e("a", "b"), e("a", "c"), e("a", "d")]
        assert fork.index["e"][0]["a"] == [e("a", "b"), e("a", "c")]
        assert "b" not in base.index["e"][0] and "d" not in fork.index["e"][1]
        assert "g" not in base.index and list(fork.facts_for("g")) == [g_x]
        assert list(fork.facts_for("f")) == [f_a]
        for inst in (base, fork):
            assert_index_consistent(inst)

    def test_a_shared_single_fact_row_promoted_by_the_fork_stays_single_in_the_base(self):
        base = Instance.from_facts([e("a", "b")])
        fork = base.fork()
        assert base.index["e"][0]["a"] is fork.index["e"][0]["a"] == (e("a", "b"),)
        fork.add(e("a", "c"))
        assert fork.index["e"][0]["a"] == [e("a", "b"), e("a", "c")]
        assert base.index["e"][0]["a"] == (e("a", "b"),)
        base.add(e("a", "d"))
        assert base.index["e"][0]["a"] == [e("a", "b"), e("a", "d")]
        assert fork.index["e"][0]["a"] == [e("a", "b"), e("a", "c")]
        assert base.index["e"][1] == {"b": (e("a", "b"),), "d": (e("a", "d"),)}
        assert fork.index["e"][1] == {"b": (e("a", "b"),), "c": (e("a", "c"),)}
        for inst in (base, fork):
            assert_index_consistent(inst)

    def test_forks_of_one_base_and_of_a_fork_are_independent(self):
        base = Instance.from_facts([e("a", "a"), e("a", "b")])
        first, second = base.fork(), base.fork()
        third = first.fork()
        first.add(e("a", "c"))
        second.add(e("b", "a"))
        third.add(e("c", "a"))
        assert [len(i) for i in (base, first, second, third)] == [2, 3, 3, 3]
        assert base.index["e"][0]["a"] == [e("a", "a"), e("a", "b")]
        assert second.index["e"][1]["a"] == [e("a", "a"), e("b", "a")]
        assert third.index["e"][1]["a"] == [e("a", "a"), e("c", "a")]
        assert "c" not in third.index["e"][1]
        for inst in (base, first, second, third):
            assert_index_consistent(inst)

    def test_rows_keep_insertion_order(self):
        facts = [e(x, y) for x in "cab" for y in "bca"]
        inst = Instance.from_facts(facts)
        fork = inst.fork()
        fork.add(e("a", "d"))
        assert list(inst.facts_for("e")) == facts
        assert list(fork.facts_for("e")) == facts + [e("a", "d")]
        assert list(inst.index["e"][0]) == ["c", "a", "b"]
        assert fork.index["e"][0]["a"] == [e("a", "b"), e("a", "c"), e("a", "a"), e("a", "d")]
        assert inst.index["e"][1]["b"] == [e("c", "b"), e("a", "b"), e("b", "b")]
        assert_index_consistent(inst)
        assert_index_consistent(fork)


RUN_SEEDS = range(200)
RUN_VARIANTS = (pchase_r(1), ichase(), oblivious())
PSC_CHAIN = Path(__file__).parent / "golden" / "psc_chain.dlgx"
# benchgen's seed-0 psc and doctors-like programs at 40 entities
SCENARIOS = (
    ScenarioSpec(name="psc", persons=40, companies=40),
    ScenarioSpec(name="doctors-like", patients=40, doctors=4),
)


def test_run_indexes_are_consistent_and_leave_the_base_unchanged():
    # the generated programs hold few multi-fact rows (39 over their 600
    # runs); psc_chain adds some, and a pchase_r(1) run of the scenarios
    # holds 52 and 64
    programs = [(seed, generate_random_program(seed)) for seed in RUN_SEEDS]
    programs.append(("psc_chain", parse_program(PSC_CHAIN.read_text(encoding="utf-8"))))
    programs += [(spec.name, generate_scenario(spec).program) for spec in SCENARIOS]
    for name, program in programs:
        for variant in RUN_VARIANTS:
            run = run_chase(program, variant, max_steps=300)
            assert_index_consistent(run.result)
            base = program.compiled.base
            fresh = Instance.from_facts(program.facts)
            assert list(base) == list(fresh), (name, str(variant))
            assert base.index == fresh.index, (name, str(variant))
            assert base.active_epoch == 0


def test_a_base_instance_holds_at_most_220_bytes_per_fact():
    # psc-1k: 2,879 facts over three predicates; a fact's one-fact rows
    # share one 1-tuple, so it costs its dict entries and few lists
    spec = ScenarioSpec(name="psc", persons=1000, companies=1000, seed=0)
    facts = generate_psc(spec).program.facts
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        inst = Instance.from_facts(facts)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(inst) == len(facts)
    assert held / len(facts) <= 220


def test_a_fork_of_a_psc_1k_base_allocates_under_4_kb():
    # a fork copies one table and one index entry per predicate and no
    # fact, so its cost does not grow with the instance; copying a
    # whole-instance fact dict took 148,224 bytes here (Python 3.11)
    spec = ScenarioSpec(name="psc", persons=1000, companies=1000, seed=0)
    base = Instance.from_facts(generate_psc(spec).program.facts)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fork = base.fork()
        allocated = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(fork) == len(base) == 2879
    assert allocated < 4096
