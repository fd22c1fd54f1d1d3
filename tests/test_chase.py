import json
import time
import tracemalloc
from collections import Counter
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlgx.benchgen import ScenarioSpec, generate_scenario
from dlgx.chase import (
    ChaseVariant,
    NonTerminationRiskError,
    TermRank,
    _bind,
    _Head,
    _level_triggers,
    compare_chase_containment,
    compile_rule,
    exists_homomorphism,
    exists_isomorphic_embedding,
    has_nontermination_risk,
    ichase,
    oblivious,
    parse_variant,
    pchase,
    pchase_r,
    run_chase,
)
from dlgx.generator import generate_random_program
from dlgx.model import (
    Atom,
    Instance,
    Null,
    Variable,
    format_instance,
    freeze_nulls,
    term_sort_key,
)
from dlgx.parser import parse_program, parse_query
from dlgx.query import answer_with_variant

import reference_matcher as reference


PSC_CHAIN = Path(__file__).parent / "golden" / "psc_chain.dlgx"
# benchgen's seed-0 psc and doctors-like programs at 40 entities: a
# pchase_r(1) run of each holds 52 and 64 multi-fact index rows, where
# the generated programs' 600 runs in test_model.py hold 39 between them
SCENARIOS = (
    ScenarioSpec(name="psc", persons=40, companies=40),
    ScenarioSpec(name="doctors-like", patients=40, doctors=4),
)


def swept_programs():
    """The generated programs of seeds 0-199, then the SCENARIOS programs."""
    programs = [generate_random_program(seed) for seed in range(200)]
    return programs + [generate_scenario(spec).program for spec in SCENARIOS]


def atom(pred: str, *terms) -> Atom:
    return Atom(pred, terms)


# ---------------------------------------------------------------------------
# Matching primitives


class TestFindHomomorphisms:
    def test_variables_map_anywhere(self):
        target = Instance.from_facts([atom("q", "a", "b"), atom("q", "b", "c")])
        pattern = [Atom("q", (Variable("X"), Variable("Y")))]
        assert exists_homomorphism(pattern, target) == {
            Variable("X"): "a",
            Variable("Y"): "b",
        }
        assert exists_homomorphism([Atom("q", (Variable("X"), Variable("X")))], target) is None

    def test_join_respects_shared_variable(self):
        target = Instance.from_facts([atom("q", "a", "b"), atom("q", "b", "c")])
        pattern = [
            Atom("q", (Variable("X"), Variable("Y"))),
            Atom("q", (Variable("Y"), Variable("Z"))),
        ]
        subst = exists_homomorphism(pattern, target)
        assert subst is not None
        assert subst[Variable("Y")] == "b"

    def test_unfrozen_null_is_free_when_asked(self):
        nu = Null(0, 1)
        target = Instance.from_facts([atom("q", "a", "b")])
        pattern = [atom("q", "a", nu)]
        assert exists_homomorphism(pattern, target) is not None

    def test_frozen_null_is_rigid_even_with_free_nulls(self):
        nu = Null(1, 0)  # epoch 0, so freezing the instance catches it
        instance = Instance.from_facts([atom("q", "a", nu), atom("q", "c", "d")])
        pattern = [atom("q", "c", nu)]
        # mobile, the null would land on d; frozen, it stays itself
        assert exists_homomorphism(pattern, instance) is not None
        freeze_nulls(instance)
        assert exists_homomorphism(pattern, instance) is None
        assert exists_homomorphism([atom("q", "a", nu)], instance) is not None

    def test_constants_are_rigid(self):
        target = Instance.from_facts([atom("q", "a", "b")])
        assert exists_homomorphism([atom("q", "a", "c")], target) is None


class TestIsomorphicEmbedding:
    def test_null_renaming_is_found(self):
        n1, n2 = Null(0, 1), Null(0, 2)
        target = Instance.from_facts([atom("q", "a", n1)])
        assert exists_isomorphic_embedding([atom("q", "a", n2)], target)

    def test_null_cannot_land_on_constant(self):
        n2 = Null(0, 2)
        target = Instance.from_facts([atom("q", "a", "b")])
        assert not exists_isomorphic_embedding([atom("q", "a", n2)], target)

    def test_injectivity_two_nulls_one_target(self):
        n1, n2, n3 = Null(0, 1), Null(0, 2), Null(0, 3)
        target = Instance.from_facts([atom("e", n1, n1)])
        # pattern needs two distinct nulls but the target has only one
        assert not exists_isomorphic_embedding([atom("e", n2, n3)], target)
        assert exists_isomorphic_embedding([atom("e", n2, n2)], target)

    def test_frozen_nulls_must_match_identically(self):
        n1, n2 = Null(1, 0), Null(2, 0)
        instance = Instance.from_facts([atom("q", "a", n1), atom("q", "b", n2)])
        assert exists_isomorphic_embedding([atom("q", "a", n2)], instance)
        freeze_nulls(instance)
        assert exists_isomorphic_embedding([atom("q", "a", n1)], instance)
        # once frozen the two nulls are distinct rigid symbols, not
        # interchangeable renaming targets
        assert not exists_isomorphic_embedding([atom("q", "a", n2)], instance)


class TestCompiledBlockers:
    """Blocker plans are cached by the head's shape, so heads that differ
    only in their rigid terms share one plan."""

    def blocks(self, head, instance):
        homomorphism = exists_homomorphism(head, instance) is not None
        isomorphism = exists_isomorphic_embedding(head, instance)
        assert homomorphism == reference.maps_homomorphically(head, instance)
        assert isomorphism == reference.embeds_isomorphically(head, instance)
        return homomorphism, isomorphism

    def test_mobile_null_repeated_across_head_atoms(self):
        n, m1, m2 = Null(9, 0), Null(1, 0), Null(2, 0)
        head = [atom("q", "a", n), atom("s", n, "b")]
        joined = Instance.from_facts([atom("q", "a", m1), atom("s", m1, "b")])
        split = Instance.from_facts([atom("q", "a", m1), atom("s", m2, "b")])
        assert self.blocks(head, joined) == (True, True)
        assert self.blocks(head, split) == (False, False)

    def test_frozen_null_stays_rigid(self):
        f1, f2 = Null(1, 0), Null(2, 0)
        instance = Instance.from_facts([atom("q", f1, "a"), atom("q", f2, "b")])
        # unfrozen, f1 maps onto f2
        assert self.blocks([atom("q", f1, "b")], instance) == (True, True)
        freeze_nulls(instance)
        # frozen, it is a rigid term: the same shape finds q(f2, b), whose
        # plan must not answer for q(f1, b)
        assert self.blocks([atom("q", f2, "b")], instance) == (True, True)
        assert self.blocks([atom("q", f1, "b")], instance) == (False, False)
        assert self.blocks([atom("q", f1, "a")], instance) == (True, True)
        # an unfrozen null of the next epoch may land on a frozen one
        assert self.blocks([atom("q", Null(3, 1), "b")], instance) == (True, True)

    def test_isomorphism_rejected_for_injectivity(self):
        n1, n2, m = Null(8, 0), Null(9, 0), Null(1, 0)
        head = [atom("q", n1), atom("r", n2)]
        shared = Instance.from_facts([atom("q", m), atom("r", m)])
        assert self.blocks(head, shared) == (True, False)
        apart = Instance.from_facts([atom("q", m), atom("r", Null(2, 0))])
        assert self.blocks(head, apart) == (True, True)

    def test_isomorphism_rejected_for_a_constant_image(self):
        n = Null(9, 0)
        head = [atom("q", n), atom("r", n)]
        constant_image = Instance.from_facts([atom("q", "c"), atom("r", "c")])
        assert self.blocks(head, constant_image) == (True, False)

    # A trigger's head goes to the blockers unbuilt; its search is compiled
    # per rule and signature, and must agree with the atoms it stands for.

    def compiled(self, rule, subst, instance, mobile):
        """The compiled blockers' verdicts on the one rule of ``rule`` for
        the trigger ``subst``, checked against its built atoms and the
        reference; the search has ``mobile`` free slots."""
        plan = compile_rule(parse_program(rule).rules[0])
        head = _Head(plan, tuple(subst[name] for name in plan.body.slots), 4, instance.active_epoch)
        atoms = list(head)
        # each rule here has one existential: its null is the next to mint
        fresh = {n for a in atoms for n in a.nulls()} - set(subst.values())
        assert fresh == {Null(5, instance.active_epoch)}
        assert _bind(head, instance.active_epoch)[2] == mobile
        assert exists_homomorphism(head, instance) == exists_homomorphism(atoms, instance)
        assert exists_isomorphic_embedding(head, instance) == exists_isomorphic_embedding(atoms, instance)
        return self.blocks(atoms, instance)

    def test_compiled_frontier_with_no_null(self):
        rule, subst = "q(X, Y, Z) :- p(X, Y).", {"X": "a", "Y": "b"}
        for facts, verdicts in (
            ([atom("q", "a", "b", Null(1, 0))], (True, True)),
            ([atom("q", "a", "c", Null(1, 0))], (False, False)),
            ([atom("q", "a", "b", "c")], (True, False)),
        ):
            assert self.compiled(rule, subst, Instance.from_facts(facts), 1) == verdicts

    def test_compiled_one_unfrozen_null(self):
        rule, subst = "q(X, Z) :- p(X, Y).", {"X": Null(1, 0), "Y": "b"}
        for facts, verdicts in (
            ([atom("q", "c", "d")], (True, False)),
            ([atom("q", Null(2, 0), Null(3, 0))], (True, True)),
            ([atom("q", Null(2, 0), Null(2, 0))], (True, False)),
        ):
            assert self.compiled(rule, subst, Instance.from_facts(facts), 2) == verdicts

    def test_compiled_null_in_two_frontier_slots_is_one_free_slot(self):
        rule, n = "q(X, Y, Z) :- p(X, Y).", Null(1, 0)
        for facts, verdicts in (
            ([atom("q", Null(2, 0), Null(2, 0), Null(3, 0))], (True, True)),
            ([atom("q", Null(2, 0), Null(4, 0), Null(3, 0))], (False, False)),
            ([atom("q", "c", "c", "d")], (True, False)),
        ):
            # n and the existential: two free slots, not three
            assert self.compiled(rule, {"X": n, "Y": n}, Instance.from_facts(facts), 2) == verdicts
        # two distinct nulls in those slots are two free slots
        split = Instance.from_facts([atom("q", Null(2, 0), Null(4, 0), Null(3, 0))])
        assert self.compiled(rule, {"X": n, "Y": Null(6, 0)}, split, 3) == (True, True)

    def test_compiled_frozen_null(self):
        rule, f = "q(X, Z) :- p(X).", Null(1, 0)
        instance = Instance.from_facts([atom("q", f, Null(2, 0)), atom("q", Null(3, 0), "c")])
        freeze_nulls(instance)
        assert self.compiled(rule, {"X": f}, instance, 1) == (True, True)
        assert self.compiled(rule, {"X": Null(3, 0)}, instance, 1) == (True, False)
        assert self.compiled(rule, {"X": Null(2, 0)}, instance, 1) == (False, False)
        # an unfrozen null of the new epoch is free again
        assert self.compiled(rule, {"X": Null(9, 1)}, instance, 2) == (True, True)

    def test_compiled_head_constant(self):
        rule, subst = "q(X, c, Z) :- p(X).", {"X": "a"}
        for facts, verdicts in (
            ([atom("q", "a", "c", Null(1, 0))], (True, True)),
            ([atom("q", "a", "d", Null(1, 0))], (False, False)),
            ([atom("q", "b", "c", Null(1, 0))], (False, False)),
        ):
            assert self.compiled(rule, subst, Instance.from_facts(facts), 1) == verdicts

    def test_compiled_existential_repeated_across_head_atoms(self):
        rule, subst = "q(X, Z), s(Z, X) :- p(X).", {"X": "a"}
        m1, m2 = Null(1, 0), Null(2, 0)
        for facts, verdicts in (
            ([atom("q", "a", m1), atom("s", m1, "a")], (True, True)),
            ([atom("q", "a", m1), atom("s", m2, "a")], (False, False)),
            ([atom("q", "a", "b"), atom("s", "b", "a")], (True, False)),
        ):
            assert self.compiled(rule, subst, Instance.from_facts(facts), 1) == verdicts


def test_heads_are_built_only_for_triggers_that_fire(monkeypatch):
    program = parse_program(
        (Path(__file__).parent / "golden" / "psc_chain.dlgx").read_text(encoding="utf-8")
    )
    built = []
    build = _Head.__iter__

    def counting(head):
        built.append(head.plan.fresh)
        return build(head)

    monkeypatch.setattr(_Head, "__iter__", counting)
    for variant in (pchase_r(1), ichase(1)):
        built.clear()
        run = run_chase(program, variant, trace=True)
        assert any(not r.fired for r in run.trace)
        assert len(built) == run.fired_steps
        # the nulls built with those heads are exactly the nulls minted
        assert sum(built) == max(n.counter for f in run.result for n in f.nulls()) > 0


def test_blockers_match_the_reference_on_generated_programs(monkeypatch):
    import dlgx.chase as chase

    verdicts = Counter()

    def homomorphism(head, instance):
        found = exists_homomorphism(head, instance)
        assert (found is not None) == reference.maps_homomorphically(list(head), instance)
        if found is not None:
            assert all(fact in instance for fact in reference.image(head, found))
        verdicts["homomorphism", found is not None] += 1
        return found

    def isomorphism(head, instance):
        found = exists_isomorphic_embedding(head, instance)
        assert found == reference.embeds_isomorphically(list(head), instance)
        verdicts["isomorphism", found] += 1
        return found

    monkeypatch.setattr(chase, "exists_homomorphism", homomorphism)
    monkeypatch.setattr(chase, "exists_isomorphic_embedding", isomorphism)
    for program in swept_programs():
        for variant in (pchase_r(2), ichase(2)):
            run_chase(program, variant, max_steps=2000)
    assert min(verdicts.values()) > 100, verdicts


def test_run_chase_calls_every_traced_boundary_through_the_module(monkeypatch):
    # the benchmark's tracer replaces these module attributes with wrappers,
    # which a run that bound them once at import would skip, and labels
    # their spans with ChaseVariant.kind; it counts the triggers that
    # _level_triggers returns and the loads of Instance.from_facts
    import dlgx.chase as chase

    text = PSC_CHAIN.read_text(encoding="utf-8")
    variants = (pchase_r(1), ichase(1), pchase_r(2))
    expected = [list(run_chase(parse_program(text), v).result) for v in variants]
    calls = Counter()

    def counting(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            result = function(*args, **kwargs)
            if name == "_level_triggers":
                calls["triggers"] += len(result)
            return result

        return wrapper

    names = (
        "_level_triggers",
        "exists_homomorphism",
        "exists_isomorphic_embedding",
        "fire_trigger",
        "freeze_nulls",
    )
    for name in names:
        monkeypatch.setattr(chase, name, counting(name, getattr(chase, name)))
    monkeypatch.setattr(Instance, "from_facts", staticmethod(counting("load", Instance.from_facts)))
    program = parse_program(text)
    for variant, facts in zip(variants, expected):
        before = calls["triggers"]
        run = run_chase(program, variant, trace=True)
        assert list(run.result) == facts
        assert calls["triggers"] - before == len(run.trace), variant
    assert all(calls[name] > 0 for name in names), calls
    assert [v.kind for v in variants] == ["pchase-r", "ichase", "pchase-r"]
    # the base instance is built once per program object, not once per run
    assert calls["load"] == 1
    run_chase(parse_program(text), pchase_r(1))
    assert calls["load"] == 2


def test_runs_never_walk_the_whole_instance(monkeypatch):
    # each level reads the facts the level before added, filed by
    # predicate, and the first level reads the instance's own rows
    program = parse_program(PSC_CHAIN.read_text(encoding="utf-8"))
    query = parse_query("?- psc(P, C).")
    walks = []
    walk = Instance.__iter__

    def counting(instance):
        walks.append(None)
        return walk(instance)

    monkeypatch.setattr(Instance, "__iter__", counting)
    runs = [run_chase(program, v, max_steps=100) for v in (pchase_r(1), ichase(1), oblivious())]
    answer, run = answer_with_variant(program, query, ichase())
    assert walks == []
    assert all(r.fired_steps > 0 for r in runs)
    assert answer.verdict and run.status == "query-satisfied"


REUSE_VARIANTS = (pchase_r(1), ichase(), pchase_r(2), oblivious())


def in_instance_order(facts):
    """``facts`` without repeats, in the order an instance of them
    iterates: predicate by predicate, in the order of their first facts,
    each predicate's facts in the order given."""
    facts = list(dict.fromkeys(facts))
    predicates = list(dict.fromkeys(f.predicate for f in facts))
    return sorted(facts, key=lambda f: predicates.index(f.predicate))


@pytest.mark.parametrize(
    "text",
    [
        PSC_CHAIN.read_text(encoding="utf-8"),
        # a head predicate that also has base facts
        "e(a, b).\ne(b, c).\ne(c, d).\ne(X, Z) :- e(X, Y), e(Y, Z).",
    ],
    ids=["psc_chain", "shared-head-predicate"],
)
def test_runs_of_one_program_are_runs_of_a_fresh_parse(text):
    def outcome(program, variant):
        run = run_chase(program, variant, max_steps=None if variant.blocker else 40, trace=True)
        trace = [r.to_json_dict() for r in run.trace]
        return run, (list(run.result), run.status, run.fired_steps, run.resumptions_used, trace)

    program = parse_program(text)
    first = program.facts[0]
    runs = []
    for variant in REUSE_VARIANTS:
        run, seen = outcome(program, variant)
        assert seen == outcome(parse_program(text), variant)[1], variant
        # a user's write to one result reaches neither the base nor the
        # next run: the fact joins the base facts of its predicate
        extra = Atom(first.predicate, (*first.terms[1:], "zz"))
        assert run.result.add(extra)
        assert extra in run.result.facts_for(extra.predicate)
        runs.append((run, in_instance_order(seen[0] + [extra])))
    assert extra not in program.compiled.base
    assert list(program.compiled.base) == in_instance_order(program.facts)
    # and no later run wrote into an earlier run's result
    for run, facts in runs:
        assert list(run.result) == facts
        for predicate in {f.predicate for f in facts}:
            assert list(run.result.facts_for(predicate)) == [
                f for f in facts if f.predicate == predicate
            ]


def test_a_resumption_re_decides_exactly_the_triggers_blocked_on_a_null(monkeypatch):
    # every other trigger either fired in an earlier epoch, so its own
    # output blocks it again, or holds no null and keeps its witness
    import dlgx.chase as chase

    levels, starts = [], []  # a None per level run; per resumption, the levels before it

    def freezing(instance):
        starts.append(len(levels))
        freeze_nulls(instance)

    def listing(*args, **kwargs):
        levels.append(None)
        return _level_triggers(*args, **kwargs)

    def key(record):
        values = tuple(record.subst[name] for name in sorted(record.subst))
        return record.rule, values

    monkeypatch.setattr(chase, "freeze_nulls", freezing)
    monkeypatch.setattr(chase, "_level_triggers", listing)
    retried = 0
    for seed in range(200):
        program = generate_random_program(seed)
        for variant in (pchase_r(3), ichase(3)):
            levels.clear()
            starts.clear()
            run = run_chase(program, variant, max_steps=3000, trace=True)
            assert run.status == "fixpoint"
            bounds = [0, *starts, len(levels)]
            epochs = [[r for r in run.trace if lo <= r.level < hi] for lo, hi in zip(bounds, bounds[1:])]
            for before, epoch, start in zip(epochs, epochs[1:], starts):
                blocked = [key(r) for r in before if not r.fired]
                expected = sorted(
                    (t for t in blocked if any(isinstance(v, Null) for v in t[1])),
                    key=lambda t: (t[0], tuple(map(term_sort_key, t[1]))),
                )
                assert [key(r) for r in epoch if r.level == start] == expected, (seed, variant)
                retried += len(expected)
    assert retried > 100, retried


# ---------------------------------------------------------------------------
# Variant plumbing


def test_parse_variant_round_trip():
    assert str(parse_variant("oblivious")) == "oblivious"
    assert str(parse_variant("pchase")) == "pchase"
    assert str(parse_variant("ichase")) == "ichase"
    v = parse_variant("pchase-r", 3)
    assert v.resumptions == 3
    assert str(v) == "pchase-r(3)"


def test_parse_variant_rejects_unknown():
    with pytest.raises(ValueError):
        parse_variant("zchase")


def test_resumptions_only_for_pchase_r():
    assert parse_variant("ichase", 2) == ichase(2)
    with pytest.raises(ValueError):
        parse_variant("oblivious", 1)
    with pytest.raises(ValueError):
        pchase_r(-1)


def test_chase_variant_resumptions_for_pchase_r_and_ichase_only():
    assert str(ichase(2)) == "ichase(2)"
    assert ichase(0) == ichase()
    assert parse_variant("pchase", 2) == pchase_r(2)
    assert str(pchase_r(0)) == "pchase"
    with pytest.raises(ValueError):
        ChaseVariant(None, 1)


# ---------------------------------------------------------------------------
# Fixed programs with known chase results

BLOCKED_PAIR = """\
p(a).
q(a, b).
q(X, Z) :- p(X).
"""

TWO_PATH = """\
n(a).
e(X, Y) :- n(X).
n(Y) :- e(X, Y).
"""


def test_pchase_blocks_on_existing_witness():
    run = run_chase(parse_program(BLOCKED_PAIR), pchase())
    assert run.status == "fixpoint"
    assert len(run.result) == 2
    assert run.fired_steps == 0


def test_ichase_fires_despite_witness():
    run = run_chase(parse_program(BLOCKED_PAIR), ichase())
    assert run.status == "fixpoint"
    assert len(run.result) == 3
    fresh = [f for f in run.result if any(isinstance(t, Null) for t in f.terms)]
    assert len(fresh) == 1
    assert fresh[0].predicate == "q"
    assert fresh[0].terms[0] == "a"


def test_two_path_pchase_stops_after_one_hop():
    program = parse_program(TWO_PATH)
    run = run_chase(program, pchase())
    assert run.status == "fixpoint"
    # n(a), e(a, n1); the derived n(n1) maps onto n(a) with n1 free
    assert len(run.result) == 2
    assert run.fired_steps == 1
    assert sorted(f.predicate for f in run.result) == ["e", "n"]


def test_two_path_resumption_extends_the_frontier():
    program = parse_program(TWO_PATH)
    run = run_chase(program, pchase_r(1))
    preds = sorted(f.predicate for f in run.result)
    assert preds.count("e") == 2
    assert run.resumptions_used == 1


def test_two_path_ichase_builds_two_links():
    program = parse_program(TWO_PATH)
    run = run_chase(program, ichase())
    assert run.status == "fixpoint"
    assert sorted(f.predicate for f in run.result).count("e") == 2


def test_oblivious_needs_budget_on_recursive_existentials():
    program = parse_program(TWO_PATH)
    assert has_nontermination_risk(program)
    with pytest.raises(NonTerminationRiskError):
        run_chase(program, oblivious())
    run = run_chase(program, oblivious(), max_steps=10)
    assert run.status == "step-limit-reached"
    assert run.fired_steps == 10


# a cross-product body: level 3 alone has 738**3 - 9**3 matches
CUBE = "p(a).\np(N) :- p(X), p(Z), p(Y)."


def traced(call):
    """``call()``'s result, CPU seconds and peak traced memory in bytes."""
    tracemalloc.start()
    try:
        start = time.process_time()
        result = call()
        elapsed = time.process_time() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, elapsed, peak


def test_oblivious_step_budget_bounds_enumeration():
    # 1 + 7 + 721 steps fill levels 0-2; level 3 enumerates only one
    # trigger past the 71 steps left, not its whole cube
    run, elapsed, peak = traced(
        lambda: run_chase(parse_program(CUBE), oblivious(), max_steps=800)
    )
    assert run.status == "step-limit-reached"
    assert run.fired_steps == 800 and len(run.result) == 801
    assert peak < 16 * 2**20 and elapsed < 5


def test_roadmap_item_1_a_blocking_level_is_enumerated_whole_past_the_step_budget(monkeypatch):
    """ROADMAP item 1, its open half, pinned: a blocked trigger costs no
    budget, so a blocking run enumerates its whole level however few
    steps are left.  Here the first level has 20**3 = 8,000 triggers and
    the run fires 10 of them.  Item 1's fix, a cap on a level's
    enumeration tied to the budget left, is meant to change the 8,000;
    the oblivious run already stops one trigger past the budget."""
    import dlgx.chase as chase

    returned = []

    def counting(*args, **kwargs):
        triggers = _level_triggers(*args, **kwargs)
        returned.append(len(triggers))
        return triggers

    monkeypatch.setattr(chase, "_level_triggers", counting)
    text = "".join(f"p(c{i}).\n" for i in range(20)) + "q(X, Y, Z) :- p(X), p(Y), p(Z)."
    program = parse_program(text)
    for variant, enumerated in ((pchase(), [8000]), (ichase(), [8000]), (oblivious(), [11])):
        returned.clear()
        run = run_chase(program, variant, max_steps=10)
        assert (run.status, run.fired_steps) == ("step-limit-reached", 10), variant
        assert returned == enumerated, variant


def test_oblivious_no_risk_on_plain_datalog():
    program = parse_program("e(a, b).\ne(b, c).\nt(X, Y) :- e(X, Y).\nt(X, Z) :- t(X, Y), e(Y, Z).")
    assert not has_nontermination_risk(program)
    run = run_chase(program, oblivious())
    assert run.status == "fixpoint"
    assert atom("t", "a", "c") in run.result


def test_oblivious_fires_each_trigger_once():
    program = parse_program("p(a).\nq(X, Z) :- p(X).")
    run = run_chase(program, oblivious(), max_steps=50)
    assert run.status == "fixpoint"
    assert run.fired_steps == 1
    assert len(run.result) == 2


def test_max_steps_zero_fires_nothing():
    program = parse_program(TWO_PATH)
    run = run_chase(program, pchase(), max_steps=0)
    assert run.status == "step-limit-reached"
    assert run.fired_steps == 0
    assert len(run.result) == 1


def test_exact_budget_still_reports_fixpoint():
    program = parse_program(TWO_PATH)
    free = run_chase(program, pchase())
    budgeted = run_chase(program, pchase(), max_steps=free.fired_steps)
    assert budgeted.status == "fixpoint"
    assert format_instance(budgeted.result) == format_instance(free.result)


def test_runs_are_deterministic():
    for seed in (1, 17, 40):
        program = generate_random_program(seed)
        for variant in (pchase(), ichase(), pchase_r(2)):
            a = run_chase(program, variant, max_steps=2000)
            b = run_chase(program, variant, max_steps=2000)
            assert format_instance(a.result) == format_instance(b.result)
            assert a.fired_steps == b.fired_steps
            assert a.status == b.status


def test_trigger_enumeration_is_sorted_and_complete():
    program = parse_program(
        "e(a, b).\ne(b, c).\nt(X, Y) :- e(X, Y)."
    )
    instance = Instance.from_facts(program.facts)
    triggers = _level_triggers(rule_plans(program), instance, by_predicate(instance), rank_of(program))
    assert len(triggers) == 2
    keys = [(plan.rule_id, tuple(map(term_sort_key, values))) for plan, values in triggers]
    assert keys == sorted(keys)


# ---------------------------------------------------------------------------
# Trigger order

_CONSTANTS = st.one_of(
    st.text(alphabet='a zAZ09_"\\\n\t%,.()', min_size=1, max_size=4),  # some need quotes
    st.integers(0, 10**6).map(str),  # digit constants sort as strings
    st.text(alphabet="éßЖ中a", min_size=1, max_size=3),  # non-ASCII
)
_NULLS = st.builds(Null, st.integers(0, 2**64 - 1), st.integers(0, 3))
_ROWS = st.lists(st.lists(st.one_of(_CONSTANTS, _NULLS), min_size=1, max_size=4).map(tuple))


@settings(max_examples=300, deadline=None, database=None)
@given(_ROWS, st.lists(_CONSTANTS))
def test_term_rank_orders_rows_as_term_sort_key(rows, extra):
    constants = [t for row in rows for t in row if isinstance(t, str)]
    rank = TermRank(constants + extra)
    by_rank = sorted(rows, key=lambda row: tuple(map(rank.__getitem__, row)))
    assert by_rank == sorted(rows, key=lambda row: tuple(map(term_sort_key, row)))
    for a in rows:
        for b in rows:
            key_a, key_b = tuple(map(rank.__getitem__, a)), tuple(map(rank.__getitem__, b))
            assert (key_a < key_b) == (tuple(map(term_sort_key, a)) < tuple(map(term_sort_key, b)))
            assert (key_a == key_b) == (a == b)


def test_term_rank_pins_nulls_past_two_to_the_32():
    rank = TermRank(["b", "a", "b"])
    assert [rank["a"], rank["b"]] == [0, 1]
    ordered = [Null(7, 0), Null(2**32, 0), Null(2**63, 0), Null(0, 1), Null(1, 1), Null(5, 2)]
    assert sorted(reversed(ordered), key=rank.__getitem__) == ordered
    assert sorted(reversed(ordered), key=term_sort_key) == ordered
    assert len(rank) == 2  # a null's rank is not stored


def test_term_rank_raises_on_an_unknown_constant():
    rank = TermRank(["a", "c"])
    with pytest.raises(KeyError, match="b"):
        rank["b"]
    with pytest.raises(KeyError):
        rank[Variable("X")]
    assert "b" not in rank


# ---------------------------------------------------------------------------
# Compiled join plans against a naive reference


def rule_plans(program):
    return sorted(map(compile_rule, program.rules), key=lambda plan: plan.rule_id)


def by_predicate(facts):
    """A delta table, as the chase hands each level: facts by predicate."""
    table = {}
    for fact in facts:
        table.setdefault(fact.predicate, []).append(fact)
    return table


def flat(table):
    return [fact for facts in table.values() for fact in facts]


def rank_of(program):
    return TermRank(
        [t for f in program.facts for t in f.terms]
        + [t for rule in program.rules for a in rule.head for t in a.terms if isinstance(t, str)]
    )


def checked_run(monkeypatch, program, variant, levels, **kwargs):
    """Run the chase with every level's triggers compared with the naive
    reference matcher; appends each level's trigger count to ``levels``."""
    import dlgx.chase as chase

    def checked(plans, instance, delta, rank, limit, retry=None):
        triggers = _level_triggers(plans, instance, delta, rank, limit, retry)
        assert all(f.predicate == p for p, facts in delta.items() for f in facts)
        if retry is None:
            expected = reference.triggers(program.rules, instance, flat(delta))
        else:  # a resumption's first level: the body matches on a null it re-decides
            held = [f for f in instance if any(isinstance(t, Null) for t in f.terms)]
            expected = [
                (rule_id, values)
                for rule_id, values in reference.triggers(program.rules, instance, held)
                if values in retry.get(rule_id, ())
            ]
            assert len(expected) == sum(map(len, retry.values()))
        assert [(plan.rule_id, values) for plan, values in triggers] == expected
        levels.append(len(triggers))
        return triggers

    monkeypatch.setattr(chase, "_level_triggers", checked)
    return run_chase(program, variant, **kwargs)


def test_join_plans_match_the_reference_on_generated_programs(monkeypatch):
    levels = []
    for program in swept_programs():
        checked_run(monkeypatch, program, pchase_r(2), levels, max_steps=2000)
    assert len(levels) > 600 and sum(levels) > 1000


@pytest.mark.parametrize(
    "text",
    [
        # a variable repeated inside one atom, in the pivot and in a join step
        "p(a, a).\np(a, b).\nq(b).\nq(c).\nr(X) :- p(X, X).\nt(Y, X) :- q(Y), p(X, X).",
        # a join step with two bound positions: the row scanned fixes only one
        "p(a, b).\np(b, b).\np(c, a).\ne(a, a).\ne(b, c).\ns(X, Y) :- e(X, Y), p(X, Y).",
        # constants in body atoms, in the pivot and in a join step
        "p(a, b).\np(b, c).\nq(c).\nr(X) :- p(a, X).\ns(Y) :- q(Y), p(b, Y).",
        # a body atom sharing no variable with the pivot: a cross product
        "p(a).\np(b).\nq(c).\nq(d).\nr(X, Y) :- p(X), q(Y).",
        # a body predicate with no facts
        "p(a).\nr(X) :- p(X), ghost(X).\ns(X) :- ghost(X).",
    ],
)
def test_join_plan_fixtures_match_the_reference(monkeypatch, text):
    levels = []
    checked_run(monkeypatch, parse_program(text), pchase_r(1), levels)
    assert levels


def test_join_plan_fixture_results():
    program = parse_program(
        "p(a, a).\np(a, b).\nq(b).\nq(c).\nr(X) :- p(X, X).\nt(Y, X) :- q(Y), p(X, X)."
    )
    run = run_chase(program, pchase())
    assert sorted(str(f) for f in run.result if f.predicate in "rt") == [
        "r(a)", "t(b, a)", "t(c, a)"
    ]
    program = parse_program(
        "p(a, b).\np(b, b).\np(c, a).\ne(a, a).\ne(b, c).\ns(X, Y) :- e(X, Y), p(X, Y)."
    )
    assert not [f for f in run_chase(program, pchase()).result if f.predicate == "s"]
    run = run_chase(parse_program("p(a).\np(b).\nq(c).\nr(X, Y) :- p(X), q(Y)."), pchase())
    assert sorted(str(f) for f in run.result if f.predicate == "r") == ["r(a, c)", "r(b, c)"]
    run = run_chase(parse_program("p(a).\nr(X) :- p(X), ghost(X)."), pchase())
    assert len(run.result) == 1


def test_multi_atom_head_shares_its_existential():
    program = parse_program("p(a).\np(b).\nq(X, N), s(N, X, c) :- p(X).")
    run = run_chase(program, pchase())
    facts = {(f.predicate, f.terms[0]): f for f in run.result}
    for x in ("a", "b"):
        q_fact, s_fact = facts[("q", x)], facts[("s", facts[("q", x)].terms[1])]
        assert isinstance(q_fact.terms[1], Null)
        assert s_fact.terms == (q_fact.terms[1], x, "c")
    assert facts[("q", "a")].terms[1] != facts[("q", "b")].terms[1]


def test_resumption_freezes_then_extends():
    program = parse_program(TWO_PATH)
    run0 = run_chase(program, pchase_r(0))
    run2 = run_chase(program, pchase_r(2))
    assert len(run0.result) < len(run2.result)
    assert run2.resumptions_used == 2
    # frozen chain facts survive in the final result
    assert format_instance(run0.result) != format_instance(run2.result)


def test_resumption_stops_after_an_epoch_that_blocks_nothing():
    # q(a, n1) is the only trigger's output and nothing blocks it; a second
    # epoch would block that trigger on its own output and add nothing
    program = parse_program("p(a).\nq(X, Z) :- p(X).")
    for resumed, plain in ((pchase_r(3), pchase_r(0)), (ichase(3), ichase())):
        run = run_chase(program, resumed, trace=True)
        assert not [r for r in run.trace if r.block_reason in ("homomorphism", "isomorphism")]
        assert run.resumptions_used == 0
        assert format_instance(run.result) == format_instance(run_chase(program, plain).result)


@pytest.mark.parametrize(
    "text",
    [
        # null-free Datalog: the second derivation of r(a) is blocked
        "p(a).\np2(a).\nr(X) :- p(X).\nr(X) :- p2(X).",
        # q(a, n1) carries a null, but no rule body reads q: every trigger a
        # resumption blocks is null-free
        "p(a).\np2(a).\nq(X, Z) :- p(X).\nr(X) :- p(X).\nr(X) :- p2(X).",
    ],
)
def test_resumptions_that_block_only_null_free_triggers_still_count(text, monkeypatch):
    # each resumption re-blocks the null-free triggers, so none ends the run
    import dlgx.chase as chase

    freezes = []

    def counting_freeze(instance):
        freezes.append(instance.active_epoch)
        return freeze_nulls(instance)

    monkeypatch.setattr(chase, "freeze_nulls", counting_freeze)
    program = parse_program(text)
    for variant in (pchase_r(3), ichase(3)):
        freezes.clear()
        run = run_chase(program, variant)
        assert run.status == "fixpoint"
        assert run.resumptions_used == 3
        assert freezes == [0, 1, 2]


def test_null_free_triggers_stay_blocked_after_a_freeze():
    # the lemma behind seeding resumptions from null-carrying facts only:
    # at an epoch-0 fixpoint, every trigger whose values hold no null is
    # blocked again once the nulls are frozen
    def blocked(blocker, head, inst):
        if blocker == "isomorphism":
            return exists_isomorphic_embedding(head, inst)
        return exists_homomorphism(head, inst) is not None

    checked = 0
    for seed in range(200):
        program = generate_random_program(seed)
        plans = rule_plans(program)
        for variant in (pchase(), ichase()):
            run = run_chase(program, variant, max_steps=3000)
            if run.status != "fixpoint":
                continue
            inst = run.result
            freeze_nulls(inst)
            for plan, values in _level_triggers(plans, inst, by_predicate(inst), rank_of(program)):
                if any(isinstance(t, Null) for t in values):
                    continue
                head = list(_Head(plan, values, 10**9 - 1, inst.active_epoch))
                assert blocked(variant.blocker, head, inst), (seed, str(variant), plan.rule_id)
                checked += 1
    assert checked > 1000


def test_on_level_sees_the_input_facts_then_each_adding_level():
    program = parse_program(TWO_PATH)
    calls = []

    def record(instance, new_facts):
        calls.append([str(f) for f in flat(new_facts)])
        return False

    run = run_chase(program, pchase_r(5), on_level=record)
    assert run.status == "fixpoint" and run.resumptions_used == 5
    # each resumption adds n(null), then e(null, fresh null); an epoch's
    # fixpoint, where a level adds nothing, gets no call
    assert calls == [
        ["n(a)"],
        ["e(a, _:e0n1)"],
        ["n(_:e0n1)"],
        ["e(_:e0n1, _:e1n2)"],
        ["n(_:e1n2)"],
        ["e(_:e1n2, _:e2n3)"],
        ["n(_:e2n3)"],
        ["e(_:e2n3, _:e3n4)"],
        ["n(_:e3n4)"],
        ["e(_:e3n4, _:e4n5)"],
        ["n(_:e4n5)"],
        ["e(_:e4n5, _:e5n6)"],
    ]


def test_on_level_can_stop_after_a_level():
    program = parse_program(TWO_PATH)
    levels = []

    def stop(instance, new_facts):
        levels.append(len(flat(new_facts)))
        return len(levels) == 2

    run = run_chase(program, pchase_r(5), on_level=stop, trace=True)
    assert run.status == "query-satisfied"
    assert levels == [1, 1]
    assert run.fired_steps == 1 and [r.level for r in run.trace] == [0]
    # True on the input facts: no trigger is considered
    run = run_chase(program, pchase_r(5), on_level=lambda instance, new_facts: True)
    assert run.status == "query-satisfied" and run.fired_steps == 0


def test_trace_records_match_schema():
    schema = json.loads(
        resources.files("dlgx.schemas").joinpath("trace_record.schema.json").read_text()
    )
    program = parse_program(BLOCKED_PAIR)
    run = run_chase(program, pchase(), trace=True)
    assert run.trace is not None and run.trace
    for record in run.trace:
        jsonschema.validate(record.to_json_dict(), schema)
    blocked = [r for r in run.trace if not r.fired]
    assert blocked and blocked[0].block_reason == "homomorphism"


def test_oblivious_trace_blocks_nothing():
    program = parse_program("p(a).\nq(X, Z) :- p(X).")
    run = run_chase(program, oblivious(), max_steps=50, trace=True)
    reasons = {r.block_reason for r in run.trace if not r.fired}
    assert reasons == set()
    assert len(run.trace) == run.fired_steps


def test_ichase_blocks_with_isomorphism_reason():
    program = parse_program(TWO_PATH)
    run = run_chase(program, ichase(), trace=True)
    reasons = {r.block_reason for r in run.trace if not r.fired}
    assert "isomorphism" in reasons


# ---------------------------------------------------------------------------
# Containment checking


def test_containment_holds_on_two_path():
    report = compare_chase_containment(parse_program(TWO_PATH))
    assert report.status == "holds"
    assert report.witness is None


def test_containment_holds_across_generated_programs():
    for seed in range(60):
        program = generate_random_program(seed)
        report = compare_chase_containment(program, max_steps=10_000)
        assert report.status in ("holds", "inconclusive")
        assert report.status != "violated"


def test_containment_inconclusive_when_budget_too_small():
    report = compare_chase_containment(parse_program(TWO_PATH), max_steps=1)
    assert report.status == "inconclusive"


def test_dump_instance_is_sorted_text():
    program = parse_program(BLOCKED_PAIR)
    run = run_chase(program, ichase())
    text = format_instance(run.result)
    lines = text.strip().splitlines()
    assert lines == sorted(lines)
    assert all(line.endswith(".") for line in lines)
