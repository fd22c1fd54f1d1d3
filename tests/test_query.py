import json
import time
import tracemalloc
from importlib import resources

import jsonschema
import pytest

import dlgx.chase
from dlgx.benchgen import ScenarioSpec, generate_doctors_like, generate_psc
from dlgx.chase import (
    compile_body,
    compile_query,
    ichase,
    oblivious,
    pchase,
    pchase_r,
    query_core,
    run_chase,
)
from dlgx.generator import generate_random_program, generate_random_query
from dlgx.model import Atom, Instance, Null, Variable
from dlgx.parser import parse_program, parse_query
from dlgx.query import (
    CHAIN_WARNING,
    Query,
    answer_with_variant,
    default_resumptions,
    differential_bcqa,
    evaluate_query,
)

import reference_matcher as reference
from test_query_answers import protected_pairs

TWO_PATH = """\
n(a).
e(X, Y) :- n(X).
n(Y) :- e(X, Y).
"""

# TWO_PATH from two roots: every level of the chain fires two triggers, so
# a step budget can run out inside the level where a query turns true
TWO_ROOTS = "n(b).\n" + TWO_PATH

# protected, recursive existentials: the renaming-based blocker folds the
# second derivation chain onto the first, so deep anchored chain queries
# come back false under plain ichase; resumptions keep extending the chains
DEEP_CHAIN = """\
src1(e).
src1(a).
mid2(X, Y) :- src1(X).
mid2(Y, Z) :- mid2(X, Y).
"""


# psc's five rules on one chain: a person controls c1, which controls c2,
# which controls c3; every control relation is filed under a null N
PSC_CHAIN = """\
person(p1).
company(c1).
company(c2).
company(c3).
controls(p1, c1).
controls(c1, c2).
controls(c2, c3).
ctrl(X, Y) :- controls(X, Y).
ctrl(X, Z) :- ctrl(X, Y), controls(Y, Z).
psc(P, C) :- ctrl(P, C), person(P), company(C).
filing(P, N, C) :- psc(P, C).
filing(P, N, D) :- filing(P, N, C), controls(C, D).
"""


def q(text: str, program=None) -> Query:
    schema = program.schema if program is not None else None
    return parse_query(text, schema=schema)


class TestEvaluateQuery:
    def test_boolean_true_with_witness(self):
        inst = Instance.from_facts(
            [Atom("q", ("a", "b"))]
        )
        ans = evaluate_query(q("?- q(X, Y)."), inst)
        assert ans.verdict is True
        assert ans.witness == {"X": "a", "Y": "b"}

    def test_boolean_false(self):
        inst = Instance.from_facts([Atom("p", ("a",))])
        ans = evaluate_query(q("?- p(b)."), inst)
        assert ans.verdict is False
        assert ans.witness is None

    def test_witness_actually_satisfies_the_query(self):
        program = parse_program(TWO_PATH)
        run = run_chase(program, ichase())
        # the second query runs as its core e(X, Y): Z is bound through the
        # retraction onto the core, not by a match of its own atom
        folded = q("?- e(X, Y), e(X, Z).", program)
        assert query_core(folded.atoms, ()) == folded.atoms[:1]
        for query in (q("?- e(X, Y), n(Y).", program), folded):
            ans = evaluate_query(query, run.result)
            assert ans.verdict
            assert set(ans.witness) == {v.name for a in query.atoms for v in a.variables()}
            for atom in query.atoms:
                image = tuple(
                    ans.witness[t.name] if isinstance(t, Variable) else t
                    for t in atom.terms
                )
                assert Atom(atom.predicate, image) in run.result

    def test_unknown_predicate_warns_and_answers_false(self):
        # parse_query warns about the unknown predicate, once, with its
        # position; evaluate_query answers false and adds no second warning
        program = parse_program("p(a).")
        inst = Instance.from_facts(program.facts)
        diags = []
        query = parse_query("?- ghost(X).", schema=program.schema, diagnostics=diags)
        assert len(diags) == 1 and diags[0].severity == "warning"
        assert "ghost" in diags[0].message
        ans = evaluate_query(query, inst)
        assert ans.verdict is False
        assert ans.warnings == []

    def test_empty_predicate_is_false_without_warning(self):
        program = parse_program("p(a).\nr(X) :- p(X), q(X).\nq(b).")
        inst = Instance.from_facts(program.facts)
        ans = evaluate_query(q("?- r(X).", program), inst)
        assert ans.verdict is False
        assert ans.warnings == []

    def test_output_tuples_sorted_and_deduplicated(self):
        inst = Instance.from_facts(
            [
                Atom("e", ("b", "c")),
                Atom("e", ("a", "c")),
                Atom("e", ("a", "b")),
            ]
        )
        query = Query(
            atoms=(Atom("e", (Variable("X"), Variable("Y"))),),
            output_vars=("X",),
        )
        ans = evaluate_query(query, inst)
        assert ans.tuples == [("a",), ("b",)]

    def test_output_tuples_sort_by_term_order_across_kinds(self):
        # constants before nulls, nulls by epoch then counter, row by row
        terms = ["b", "a", Null(2, 1), Null(10, 0), Null(3, 0)]
        inst = Instance.from_facts(Atom("e", (x, y)) for x in terms for y in terms)
        query = Query(atoms=(Atom("e", (Variable("X"), Variable("Y"))),), output_vars=("X", "Y"))
        order = ["a", "b", Null(3, 0), Null(10, 0), Null(2, 1)]
        expected = [(x, y) for x in order for y in order]
        assert evaluate_query(query, inst).tuples == expected

    def test_a_column_of_nulls_sorts_by_term_order(self):
        # Null is a named tuple (counter, epoch), so tuple order would put
        # Null(2, 1) first and a wrong sort key would raise no error
        nulls = [Null(2, 1), Null(10, 0), Null(3, 0)]
        order = [Null(3, 0), Null(10, 0), Null(2, 1)]
        inst = Instance.from_facts(
            [*(Atom("e", ("b", n)) for n in nulls), *(Atom("e", ("a", n)) for n in nulls)]
        )
        e = q("?- e(X, Y).").atoms
        assert evaluate_query(Query(e, ("Y",)), inst).tuples == [(n,) for n in order]
        assert evaluate_query(Query(e, ("X", "Y")), inst).tuples == [
            (x, n) for x in "ab" for n in order
        ]
        assert evaluate_query(Query(e, ("Y", "X")), inst).tuples == [
            (n, x) for n in order for x in "ab"
        ]
        one = Instance.from_facts([Atom("e", ("a", Null(2, 1)))])
        assert evaluate_query(Query(e, ("Y",)), one).tuples == [(Null(2, 1),)]
        none = evaluate_query(Query(q("?- e(c, Y).").atoms, ("Y",)), inst)
        assert none.tuples == [] and none.verdict is False

    def test_a_match_stops_once_its_outputs_are_bound(self, monkeypatch):
        # one specialist at 30 hospitals with 900 cases: the outputs D, S
        # are bound by spec alone, so works and case need one match, not 900
        facts = [Atom("spec", ("d", "s"))]
        for i in range(30):
            facts.append(Atom("works", ("d", f"h{i}")))
            facts.extend(Atom("case", (f"p{j}", "d", f"h{i}")) for j in range(30))
        inst = Instance.from_facts(facts)
        query = Query(q("?- spec(D, S), works(D, H), case(P, D, H).").atoms, ("D", "S"))
        calls = []

        def counted(step, values, instance):
            calls.append(step[0])
            return rows(step, values, instance)

        rows = dlgx.chase._rows
        monkeypatch.setattr(dlgx.chase, "_rows", counted)
        assert evaluate_query(query, inst).tuples == [("d", "s")]
        # one row per atom to pick the pivot, then works once and case
        # once; a full join reads case's row once per works fact
        assert len(calls) <= 6, calls

    def test_output_vars_must_occur_in_atoms(self):
        with pytest.raises(ValueError):
            Query(atoms=(Atom("p", (Variable("X"),)),), output_vars=("Z",))

    def test_answers_are_monotone_under_fact_growth(self):
        for seed in range(40):
            program = generate_random_program(seed)
            query = generate_random_query(program, seed + 1)
            small = run_chase(program, pchase(), max_steps=10_000).result
            big = run_chase(program, pchase_r(2), max_steps=10_000).result
            before = evaluate_query(query, small)
            after = evaluate_query(query, big)
            if before.verdict:
                assert after.verdict

    def test_answers_match_the_reference_on_generated_pairs(self):
        """Verdicts, witnesses and answer sets of criterion 4's queries,
        against the naive reference matcher, on final chase instances."""
        checked = true = projected = 0
        for seed in range(200):
            program = generate_random_program(seed)
            query = generate_random_query(program, (seed + 1) * 31 + 7)
            names = tuple(dict.fromkeys(v.name for a in query.atoms for v in a.variables()))
            for variant in (pchase_r(2), ichase()):
                instance = run_chase(program, variant, max_steps=2000).result
                context = (seed, str(variant))
                boolean = evaluate_query(query, instance)
                assert boolean.verdict == reference.holds(query.atoms, instance), context
                if boolean.verdict:
                    assert set(boolean.witness) == set(names), context
                    mapping = {Variable(n): t for n, t in boolean.witness.items()}
                    image = reference.image(query.atoms, mapping)
                    assert all(fact in instance for fact in image), context
                    true += 1
                if names:
                    rows = evaluate_query(Query(query.atoms, names), instance)
                    expected = reference.answers(query.atoms, names, instance)
                    assert rows.tuples == expected, context
                    assert rows.verdict == bool(expected), context
                # every proper prefix and suffix of the variables as outputs:
                # a match stops once its outputs are bound, so the atoms that
                # bind only later variables are merely checked for a match
                for k in range(1, len(names)):
                    for outputs in (names[:k], names[k:]):
                        rows = evaluate_query(Query(query.atoms, outputs), instance)
                        expected = reference.answers(query.atoms, outputs, instance)
                        assert rows.tuples == expected, (*context, outputs)
                        projected += 1
                checked += 1
        assert checked == 400 and true > 100 and projected > 400


def variable_names(query: Query) -> tuple[str, ...]:
    """The query's variables in the order they first occur."""
    return tuple(dict.fromkeys(v.name for a in query.atoms for v in a.variables()))


def mobile_except(outputs):
    """The reference matcher's mobile terms for a core: every variable
    but the outputs."""
    return lambda t: isinstance(t, Variable) and t.name not in outputs


class TestQueryCore:
    def test_the_core_is_minimal_idempotent_and_keeps_every_predicate(self):
        """Generator seeds 0-199 and criterion 4's queries, each as a Boolean
        query, with every variable as an output and with each proper prefix
        of the variables, checked against the naive reference matcher."""
        queries = [
            generate_random_query(generate_random_program(seed), (seed + 1) * 31 + 7)
            for seed in range(200)
        ]
        queries += [query for _, _, query in protected_pairs()]
        checked = folded = 0
        for query in queries:
            names = variable_names(query)
            for outputs in dict.fromkeys(((), names, *(names[:k] for k in range(1, len(names))))):
                core = query_core(query.atoms, outputs)
                mobile = mobile_except(outputs)
                context = (str(Query(query.atoms)), outputs)
                assert set(core) <= set(query.atoms), context
                # the query maps into its core, so the two are equivalent
                assert reference.homomorphisms(query.atoms, core, mobile), context
                # and no atom of the core can be dropped
                for atom in core:
                    rest = [a for a in core if a != atom]
                    assert not reference.homomorphisms(core, rest, mobile), (*context, atom)
                assert query_core(core, outputs) == core, context
                # the retraction sends the query onto its core; it names only
                # the variables the core dropped, and fixes the others
                plan, retraction = compile_query(query.atoms, outputs)
                assert plan is compile_body(core), context
                mapping = {Variable(name): t for name, t in retraction}
                assert set(reference.image(query.atoms, mapping)) <= set(core), context
                dropped = set(variable_names(query)) - set(plan.slots)
                assert {v.name for v in mapping} == dropped, context
                assert {a.predicate for a in core} == {a.predicate for a in query.atoms}, context
                checked += 1
                folded += len(core) < len(query.atoms)
        assert checked > 1900 and folded > 340

    def test_named_queries_fold_as_expected(self):
        # doctors' batch query: Q folds onto P and E onto D
        doctors = q("?- case_at(P, D, H), case_at(Q, E, H).").atoms
        assert query_core(doctors, ("P", "D")) == doctors[:1]
        plan, retraction = compile_query(doctors, ("P", "D"))
        assert plan is compile_body(doctors[:1])
        assert retraction == (("E", Variable("D")), ("Q", Variable("P")))
        # psc's batch query: the second filing folds onto the first
        psc = q("?- person(p69), filing(p69, N, C), filing(p69, N, D).").atoms
        assert query_core(psc, ("C",)) == psc[:2]
        assert dict(compile_query(psc, ("C",))[1])["D"] == Variable("C")
        # with both persons as outputs, neither filing folds
        whole = q("?- filing(P, N, C), filing(Q, N, D).").atoms
        assert query_core(whole, ("P", "Q")) == whole
        assert compile_query(whole, ("P", "Q"))[0] is compile_body(whole)
        # an atom may fold onto a constant: X goes to a
        constant = q("?- e(X), e(a).").atoms
        assert query_core(constant, ()) == constant[1:]
        assert compile_query(constant, ())[1] == (("X", "a"),)

    def test_a_query_over_eight_atoms_runs_as_written(self):
        # a path of seven edges is its own core; a repeated edge folds away
        # in an 8-atom query and is kept in a 9-atom one
        path = q("?- " + ", ".join(f"e(V{i}, V{i + 1})" for i in range(8)) + ".").atoms
        eight = path[:7] + path[:1]
        assert query_core(eight, ()) == path[:7]
        nine = path + path[:1]
        assert query_core(nine, ()) == nine
        plan, retraction = compile_query(nine, ())
        assert plan is compile_body(nine) and len(plan.joins) == 9
        assert retraction == ()
        instance = Instance.from_facts(Atom("e", (f"c{i}", f"c{i + 1}")) for i in range(10))
        names = variable_names(Query(nine))
        for outputs in ((), names, names[:3]):
            answer = evaluate_query(Query(nine, outputs), instance)
            if outputs:
                assert answer.tuples == reference.answers(nine, outputs, instance)
            else:
                mapping = {Variable(n): t for n, t in answer.witness.items()}
                assert set(reference.image(nine, mapping)) <= set(instance)

    def test_answers_on_benchgen_scenarios_match_the_reference(self):
        """Seed-0 psc and doctors programs with 40 entities: every stock
        query, and the named queries that repeat a predicate (two of them
        fold), by rows and order."""
        psc = generate_psc(ScenarioSpec("psc", persons=40, companies=40, seed=0))
        doctors = generate_doctors_like(
            ScenarioSpec("doctors-like", patients=40, doctors=8, seed=0)
        )
        repeated = {
            "psc": [
                Query(q("?- person(p1), filing(p1, N, C), filing(p1, N, D).").atoms, ("C",)),
                Query(q("?- filing(P, N, C), filing(Q, N, D).").atoms, ("P", "Q")),
            ],
            "doctors-like": [
                Query(q("?- case_at(P, D, H), case_at(Q, E, H).").atoms, ("P", "D")),
            ],
        }
        checked = 0
        for scenario in (psc, doctors):
            queries = [*scenario.queries, *repeated[scenario.spec.name]]
            for variant in (pchase_r(1), ichase()):
                instance = run_chase(scenario.program, variant).result
                for query in queries:
                    names = variable_names(query)
                    for outputs in dict.fromkeys((query.output_vars, names)):
                        context = (scenario.spec.name, str(variant), outputs)
                        answer = evaluate_query(Query(query.atoms, outputs), instance)
                        expected = reference.answers(query.atoms, outputs, instance)
                        assert expected, context
                        if outputs:
                            assert answer.tuples == expected, context
                        else:
                            mapping = {Variable(n): t for n, t in answer.witness.items()}
                            image = reference.image(query.atoms, mapping)
                            assert all(fact in instance for fact in image), context
                        checked += 1
        assert checked == 2 * (5 + 16)  # two variants; psc 5 output sets, doctors 16


def test_default_resumptions_is_atom_count():
    program = parse_program(TWO_PATH)
    assert default_resumptions(q("?- e(X, Y).", program)) == 1
    assert default_resumptions(q("?- e(X, Y), e(Y, Z).", program)) == 2


class TestAnswerWithVariant:
    def test_answer_carries_run_metadata(self):
        program = parse_program(TWO_PATH)
        ans, run = answer_with_variant(program, q("?- e(X, Y).", program), pchase())
        assert ans.verdict is True
        assert ans.variant == "pchase"
        # e(a, n1), the first step, makes the query true
        assert ans.chase_status == "query-satisfied"
        assert ans.chase_steps == run.fired_steps == 1

    def test_pchase_r_short_circuits_once_true(self):
        program = parse_program(TWO_PATH)
        query = q("?- e(X, Y), e(Y, Z).", program)
        ans, run = answer_with_variant(program, query, pchase_r(5))
        assert ans.verdict is True
        # true after the first resumption; the other four never run
        assert run.resumptions_used == 1

    def test_budget_spent_in_a_resumption_reevaluates_the_query(self):
        # epoch 0 adds e(a, n1) and e(b, n2) and ends false; epoch 1's first
        # level adds n(n1) on the third step, which makes the query true, and
        # runs out of budget before n(n2), so no level ends after the query
        # turns true and the answer must come from the final instance
        program = parse_program(TWO_ROOTS)
        query = q("?- n(X), e(X, Y), n(Y).", program)
        ans, run = answer_with_variant(program, query, pchase_r(1), max_steps=3)
        assert run.status == "step-limit-reached" and run.resumptions_used == 1
        assert ans.verdict is True

    def test_two_path_variants_disagree_below_resumption(self):
        program = parse_program(TWO_PATH)
        query = q("?- e(X, Y), e(Y, Z).", program)
        plain, _ = answer_with_variant(program, query, pchase())
        resumed, _ = answer_with_variant(program, query, pchase_r(1))
        renaming, _ = answer_with_variant(program, query, ichase())
        # the fifth oblivious step, e(n1, n3), makes the query true inside a
        # level whose second trigger, e(n2, n4), finds the budget spent
        bounded, _ = answer_with_variant(
            parse_program(TWO_ROOTS), query, oblivious(), max_steps=5
        )
        assert plain.verdict is False
        assert resumed.verdict is True
        assert renaming.verdict is True
        assert bounded.verdict is True
        assert bounded.chase_status == "step-limit-reached"

    def test_answer_json_matches_schema(self):
        schema = json.loads(
            resources.files("dlgx.schemas").joinpath("answer.schema.json").read_text()
        )
        program = parse_program(TWO_PATH)
        ans, _ = answer_with_variant(program, q("?- e(X, Y).", program), ichase())
        jsonschema.validate(ans.to_json_dict(), schema)

    def test_answer_set_queries_chase_every_resumption(self):
        # ichase(3) has a row, a, once its first resumption ends; e needs the
        # later ones, so the run must not stop at the first epoch with a row
        program = parse_program(DEEP_CHAIN)
        query = q("?- mid2(Q1, Q2), mid2(Q3, Q1), mid2(X, Q3).\nX", program)
        for variant in (ichase(3), pchase_r(3)):
            ans, _ = answer_with_variant(program, query, variant)
            assert {"a", "e"} <= {row[0] for row in ans.tuples}
            full = evaluate_query(query, run_chase(program, variant).result)
            assert ans.tuples == full.tuples, variant


class TestEarlyStop:
    def test_boolean_query_true_on_the_input_facts_fires_nothing(self):
        program = parse_program(TWO_PATH)
        query = q("?- n(a).", program)
        for variant in (pchase(), pchase_r(2), ichase(), ichase(2), oblivious()):
            ans, run = answer_with_variant(program, query, variant, max_steps=50)
            assert ans.verdict is True
            assert ans.chase_status == "query-satisfied"
            assert ans.chase_steps == run.fired_steps == 0
            assert run.resumptions_used == 0 and len(run.result) == 1

    def test_traced_run_stops_at_the_first_satisfying_level(self):
        # ctrl(p1, c3) comes at level 2 and psc(p1, c3) at level 3; filing
        # facts follow at level 4
        program = parse_program(PSC_CHAIN)
        query = q("?- psc(p1, c3).", program)
        full = run_chase(program, pchase(), trace=True)
        assert max(r.level for r in full.trace) == 4
        ans, run = answer_with_variant(program, query, pchase(), trace=True)
        assert ans.verdict is True and ans.chase_status == "query-satisfied"
        assert max(r.level for r in run.trace) == 3
        last = [r for r in run.trace if r.fired and r.level == 3]
        assert any(r.subst == {"C": "c3", "P": "p1"} for r in last)
        assert run.fired_steps < full.fired_steps

    def test_answer_set_queries_never_end_query_satisfied(self):
        checked = satisfied = 0
        for seed in range(60):
            program = generate_random_program(seed)
            query = generate_random_query(program, (seed + 1) * 31 + 7)
            names = tuple(dict.fromkeys(v.name for a in query.atoms for v in a.variables()))
            if not names:
                continue
            k = default_resumptions(query)
            for variant in (pchase(), pchase_r(k), ichase(), ichase(k), oblivious()):
                boolean, _ = answer_with_variant(program, query, variant, max_steps=2000)
                rows, _ = answer_with_variant(
                    program, Query(query.atoms, names), variant, max_steps=2000
                )
                assert rows.chase_status in ("fixpoint", "step-limit-reached"), (seed, variant)
                # one pass: the answer is the full run's, evaluated once
                run = run_chase(program, variant, max_steps=2000)
                full = evaluate_query(Query(query.atoms, names), run.result)
                assert (rows.tuples, rows.chase_status, rows.chase_steps, rows.resumptions_used) == (
                    full.tuples, run.status, run.fired_steps, run.resumptions_used
                ), (seed, variant)
                assert rows.verdict == boolean.verdict or rows.chase_status != "fixpoint"
                satisfied += boolean.chase_status == "query-satisfied"
                checked += 1
        assert checked > 200 and satisfied > 50

    def test_delta_check_matches_the_reference_on_generated_pairs(self, monkeypatch):
        """On every level, the query holds on the level's new facts iff some
        match found by the naive reference matcher maps an atom onto one."""
        import dlgx.query

        levels = []

        def checked_run_chase(program, variant, *, on_level, **kwargs):
            def level(instance, new_facts):
                holds = on_level(instance, new_facts)
                new = {fact for facts in new_facts.values() for fact in facts}
                expected = any(
                    fact in new
                    for mapping in reference.homomorphisms(query.atoms, instance)
                    for fact in reference.image(query.atoms, mapping)
                )
                assert holds == expected, (seed, sorted(map(str, new)))
                levels.append(holds)
                return False  # keep chasing, so every later level is checked too

            return run_chase(program, variant, on_level=level, **kwargs)

        monkeypatch.setattr(dlgx.query, "run_chase", checked_run_chase)
        for seed in range(200):
            program = generate_random_program(seed)
            query = generate_random_query(program, (seed + 1) * 31 + 7)
            for variant in (pchase_r(2), ichase(2)):
                answer_with_variant(program, query, variant, max_steps=2000)
        assert len(levels) > 800 and sum(levels) > 100

    def test_a_folded_query_stops_where_its_written_plan_stops(self):
        """On criterion 4's pairs whose Boolean query folds, the level check
        on the core ends every run as the written query's check would:
        ``on_level`` sees the input facts and then every level that added a
        fact, so both first hold at the first level where the query holds."""
        checked = 0
        for seed, program, query in protected_pairs():
            if len(query_core(query.atoms, ())) == len(query.atoms):
                continue
            written = compile_body(query.atoms)

            def on_level(instance, new_facts):
                return bool(written.matches(instance, new_facts, limit=1))

            k = default_resumptions(query)
            for variant in (pchase(), pchase_r(k), ichase(), ichase(k), oblivious()):
                answer, _ = answer_with_variant(program, query, variant, max_steps=10_000)
                run = run_chase(program, variant, max_steps=10_000, on_level=on_level)
                verdict = run.status == "query-satisfied" or (
                    run.status != "fixpoint" and bool(written.evaluate(run.result, limit=1))
                )
                assert (
                    answer.verdict, answer.chase_status, answer.chase_steps, answer.resumptions_used
                ) == (verdict, run.status, run.fired_steps, run.resumptions_used), (seed, str(variant))
                checked += 1
        assert checked == 5 * 120


class TestDifferentialBcqa:
    def test_agreement_on_protected_program(self):
        program = parse_program(TWO_PATH)
        report = differential_bcqa(program, q("?- e(X, Y), e(Y, Z).", program), budget=50)
        assert report.status == "agreement"
        names = [a.name for a in report.assertions]
        assert "protected: pchase-r == ichase" in names
        assert all(a.result == "holds" for a in report.assertions)
        assert set(report.runs) == {"pchase-r", "ichase", "oblivious"}

    def test_truncated_true_still_counts(self):
        # the oblivious oracle turns true on its fifth step, inside a level
        # that then runs out of budget (see the test above)
        program = parse_program(TWO_ROOTS)
        report = differential_bcqa(program, q("?- e(X, Y), e(Y, Z).", program), budget=5)
        ob = report.answers["oblivious"]
        assert ob.verdict is True and ob.chase_status == "step-limit-reached"
        protected = [a for a in report.assertions if a.name.startswith("protected")]
        assert protected[0].result == "holds"

    def test_oblivious_oracle_on_a_cube_stays_within_its_budget(self):
        # the oracle's level 3 has 738**3 - 9**3 matches; it enumerates
        # only one past the steps left in the default budget
        program = parse_program("p(a).\np(N) :- p(X), p(Z), p(Y).")
        query = q("?- p(b).", program)
        tracemalloc.start()
        try:
            start = time.process_time()
            report = differential_bcqa(program, query)
            elapsed = time.process_time() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        steps = {
            name: (a.verdict, a.chase_status, a.chase_steps) for name, a in report.answers.items()
        }
        assert steps == {
            "pchase-r": (False, "fixpoint", 0),
            "ichase": (False, "fixpoint", 1),
            "oblivious": (False, "step-limit-reached", 10_000),
        }
        assert report.status == "agreement"
        assert peak < 32 * 2**20 and elapsed < 5

    def test_budget_too_small_is_inconclusive(self):
        program = parse_program(TWO_PATH)
        report = differential_bcqa(program, q("?- e(X, Y), e(Y, Z).", program), budget=1)
        assert report.status == "inconclusive"
        assert all(a.result == "skipped" for a in report.assertions)
        assert "step budget" in report.assertions[0].detail

    def test_unprotected_program_gets_a_note(self):
        program = parse_program(
            "i1(X, Y) :- e1(X).\n"
            "i2(X, Z) :- i1(X, Y), i1(Z, Y).\n"
            "e1(a).\n"
        )
        report = differential_bcqa(program, q("?- i2(X, Z).", program), budget=100)
        assert any("not protected" in n for n in report.notes)
        names = [a.name for a in report.assertions]
        assert names == ["warded: oblivious == ichase"]

    def test_no_fragment_no_checks(self):
        # one rule set violating wardedness, another violating shyness
        program = parse_program(
            "i1(X, Y) :- e1(X).\n"
            "i2(Z, X) :- e2(X).\n"
            "i3(X, Y, Z) :- i1(X, Y), i2(Z, X).\n"
            "j1(X, Y) :- e1(X).\n"
            "j2(X, Z) :- j1(X, Y), j1(Z, Y).\n"
            "e1(a).\ne2(a).\n"
        )
        from dlgx.analysis import analyze

        verdicts = analyze(program).verdicts
        assert not verdicts.shy and not verdicts.warded
        report = differential_bcqa(program, q("?- i1(X, Y).", program), budget=100)
        assert report.assertions == []
        assert report.status == "inconclusive"
        assert any("neither shy nor warded" in n for n in report.notes)

    def test_report_json_matches_schema(self):
        schema = json.loads(
            resources.files("dlgx.schemas").joinpath("diff_report.schema.json").read_text()
        )
        program = parse_program(TWO_PATH)
        report = differential_bcqa(program, q("?- e(X, Y).", program), budget=50)
        jsonschema.validate(report.to_json_dict(), schema)

    def test_agreement_across_generated_protected_pairs(self):
        checked = 0
        for seed in range(120):
            if checked >= 25:
                break
            program = generate_random_program(seed)
            from dlgx.analysis import analyze

            if not analyze(program).verdicts.protected:
                continue
            query = generate_random_query(program, (seed + 1) * 31 + 7, max_atoms=2)
            report = differential_bcqa(program, query, budget=10_000)
            assert report.status != "disagreement", (seed, report.assertions)
            checked += 1
        assert checked >= 25


def test_known_divergence_on_anchored_chain_query():
    """Regression pin for the renaming blocker's chain-folding gap.

    The renaming-based blocker checks the candidate head on its own, with
    unfrozen frontier nulls free to rename, so the second null chain grown
    from a second anchor folds onto the first chain and stops early.  An
    anchored three-link chain query then comes back false under plain
    ichase although the certain answer (reachable by resumption, or by a
    longer oblivious run) is true.  Freezing makes frontier nulls rigid,
    so each resumption epoch extends every chain by at least one link:
    ichase with one resumption per query atom answers true, and the
    differential harness, which gives ichase that budget, agrees.
    """
    program = parse_program(DEEP_CHAIN)
    query = q("?- mid2(Q1, Q2), mid2(Q3, Q1), mid2(e, Q3).", program)

    from dlgx.analysis import analyze

    assert analyze(program).verdicts.protected

    renaming, run = answer_with_variant(program, query, ichase(), max_steps=10_000)
    assert run.status == "fixpoint"
    assert renaming.verdict is False

    resumed, _ = answer_with_variant(
        program, query, pchase_r(default_resumptions(query)), max_steps=10_000
    )
    assert resumed.verdict is True

    # long oblivious prefix confirms the certain answer is true
    oracle, _ = answer_with_variant(program, query, oblivious(), max_steps=200)
    assert oracle.verdict is True

    resumed_renaming, _ = answer_with_variant(
        program, query, ichase(default_resumptions(query)), max_steps=10_000
    )
    assert resumed_renaming.verdict is True

    report = differential_bcqa(program, query)
    assert report.status == "agreement"
    assert not [a for a in report.assertions if a.result == "violated"]


def test_plain_ichase_false_on_recursive_program_warns():
    program = parse_program(DEEP_CHAIN)
    query = q("?- mid2(Q1, Q2), mid2(Q3, Q1), mid2(e, Q3).", program)
    plain, _ = answer_with_variant(program, query, ichase())
    assert plain.verdict is False
    assert plain.warnings == [CHAIN_WARNING.format(k=3)]
    assert "dlgx diff" in plain.warnings[0]
    assert "pchase-r --resumptions 3" in plain.warnings[0]
    # no warning once the answer is true, or under a variant with resumptions
    true_answer, _ = answer_with_variant(program, q("?- mid2(e, Q).", program), ichase())
    assert true_answer.verdict is True and true_answer.warnings == []
    resumed, _ = answer_with_variant(program, query, ichase(1))
    assert resumed.warnings == []
    # an unknown predicate is false under every variant, and only
    # parse_query warns about it
    ghost, _ = answer_with_variant(
        program, Query(atoms=(Atom("ghost", (Variable("X"),)),)), ichase()
    )
    assert ghost.verdict is False and ghost.warnings == []


def test_plain_ichase_false_on_terminating_program_does_not_warn():
    program = parse_program("p(a).\nq(X, Z) :- p(X).")
    ans, _ = answer_with_variant(program, q("?- q(b, Z).", program), ichase())
    assert ans.verdict is False
    assert ans.warnings == []


def test_plain_ichase_false_on_harmful_query_join_warns():
    """psc has no existential rule on a cycle, but the query joins two
    filings on the null N; plain ichase folds the c1 filing's null chain
    onto another one and answers false, so the answer must warn."""
    from dlgx.analysis import harmful_joins

    program = parse_program(PSC_CHAIN)
    query = q("?- filing(P, N, c1), filing(P, N, c3).", program)
    assert harmful_joins(program) == []
    assert harmful_joins(program, query) == [(None, "N")]
    plain, run = answer_with_variant(program, query, ichase())
    assert run.status == "fixpoint"
    assert plain.verdict is False
    assert plain.warnings == [CHAIN_WARNING.format(k=2)]
    resumed, _ = answer_with_variant(program, query, ichase(default_resumptions(query)))
    assert resumed.verdict is True and resumed.warnings == []
    certain, _ = answer_with_variant(program, query, pchase_r(default_resumptions(query)))
    assert certain.verdict is True
