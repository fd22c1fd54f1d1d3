import pytest

from dlgx.analysis import analyze
from dlgx.benchgen import (
    GeneratorConstraintViolation,
    ScenarioSpec,
    _require_protected,
    generate_doctors_like,
    generate_psc,
    generate_scenario,
    run_bench,
    write_scenario,
)
from dlgx.chase import ichase, pchase_r, run_chase
from dlgx.parser import parse_program, print_program
from dlgx.query import evaluate_query


class TestScenarioSpec:
    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpec(name="warehouse", persons=1, companies=1)

    def test_psc_needs_both_populations(self):
        with pytest.raises(ValueError):
            ScenarioSpec(name="psc", persons=0, companies=5)
        with pytest.raises(ValueError):
            ScenarioSpec(name="psc", persons=5, companies=0)

    def test_doctors_needs_both_populations(self):
        with pytest.raises(ValueError):
            ScenarioSpec(name="doctors-like", patients=10, doctors=0)

    def test_density_bounds(self):
        with pytest.raises(ValueError):
            ScenarioSpec(name="psc", persons=1, companies=1, density=0.0)
        with pytest.raises(ValueError):
            ScenarioSpec(name="psc", persons=1, companies=1, density=1.5)
        ScenarioSpec(name="psc", persons=1, companies=1, density=1.0)

    def test_primary_count_axis(self):
        assert ScenarioSpec(name="psc", persons=7, companies=3).primary_count == 7
        assert (
            ScenarioSpec(name="doctors-like", patients=9, doctors=2).primary_count == 9
        )


def test_both_scenario_programs_are_protected():
    for spec in (
        ScenarioSpec(name="psc", persons=30, companies=30, seed=1),
        ScenarioSpec(name="doctors-like", patients=30, doctors=5, seed=1),
    ):
        scenario = generate_scenario(spec)
        assert analyze(scenario.program).verdicts.protected


def test_generation_is_deterministic_per_seed():
    spec = ScenarioSpec(name="psc", persons=50, companies=50, seed=9)
    a = generate_psc(spec)
    b = generate_psc(spec)
    assert print_program(a.program) == print_program(b.program)
    other = generate_psc(ScenarioSpec(name="psc", persons=50, companies=50, seed=10))
    assert print_program(a.program) != print_program(other.program)


def test_wrong_spec_kind_rejected():
    with pytest.raises(ValueError):
        generate_psc(ScenarioSpec(name="doctors-like", patients=1, doctors=1))
    with pytest.raises(ValueError):
        generate_doctors_like(ScenarioSpec(name="psc", persons=1, companies=1))


def test_constraint_gate_fires_on_unprotected_program():
    bad = parse_program(
        "i1(X, Y) :- e1(X).\n"
        "i2(X, Z) :- i1(X, Y), i1(Z, Y).\n"
        "e1(a).\n"
    )
    with pytest.raises(GeneratorConstraintViolation):
        _require_protected(bad, "psc")


def test_psc_fact_arithmetic():
    spec = ScenarioSpec(name="psc", persons=20, companies=10, seed=3, density=1.0)
    scenario = generate_psc(spec)
    by_pred = {}
    for f in scenario.program.facts:
        by_pred.setdefault(f.predicate, []).append(f)
    assert len(by_pred["company"]) == 10
    assert len(by_pred["person"]) == 20
    # density 1.0: every person controls a company, every in-group
    # company edge present (group boundaries drop one edge in four)
    chain_edges = [
        f for f in by_pred["controls"] if f.terms[0].startswith("c")
    ]
    person_edges = [
        f for f in by_pred["controls"] if f.terms[0].startswith("p")
    ]
    assert len(person_edges) == 20
    assert len(chain_edges) == sum(1 for j in range(9) if j % 4 != 3)


def test_psc_three_node_chain_derives_transitive_control():
    # density 1.0 gives the full chain c0 -> c1 -> c2, so whichever
    # company the person controls, every later one follows transitively
    spec = ScenarioSpec(name="psc", persons=1, companies=3, seed=0, density=1.0)
    scenario = generate_psc(spec)
    entry = next(
        f
        for f in scenario.program.facts
        if f.predicate == "controls" and f.terms[0] == "p0"
    )
    start = int(entry.terms[1][1:])
    run = run_chase(scenario.program, ichase(), max_steps=50_000)
    assert run.status == "fixpoint"
    answer = evaluate_query(scenario.queries[0], run.result)
    rows = {tuple(t for t in row) for row in answer.tuples}
    assert rows == {("p0", f"c{j}") for j in range(start, 3)}


def test_psc_variants_agree_on_answer_sets():
    spec = ScenarioSpec(name="psc", persons=60, companies=60, seed=2)
    scenario = generate_psc(spec)
    runs = {
        "pchase-r": run_chase(scenario.program, pchase_r(1), max_steps=200_000),
        "ichase": run_chase(scenario.program, ichase(), max_steps=200_000),
    }
    answers = {}
    for name, run in runs.items():
        assert run.status == "fixpoint"
        result = evaluate_query(scenario.queries[0], run.result)
        answers[name] = set(result.tuples)
    assert answers["pchase-r"] == answers["ichase"]


def test_doctors_population_shape():
    spec = ScenarioSpec(name="doctors-like", patients=25, doctors=5, seed=4)
    scenario = generate_doctors_like(spec)
    by_pred = {}
    for f in scenario.program.facts:
        by_pred.setdefault(f.predicate, []).append(f)
    assert len(by_pred["doctor"]) == 5
    assert len(by_pred["specialty"]) == 5
    assert len(by_pred["patient"]) == 25
    # one guaranteed edge per patient plus optional seconds, deduplicated
    assert 25 <= len(by_pred["treated"]) <= 50
    assert len(set(scenario.program.facts)) == len(scenario.program.facts)
    assert len(scenario.queries) == 7


def test_run_bench_rows_and_medians():
    spec = ScenarioSpec(name="doctors-like", patients=10, doctors=3, seed=1)
    scenario = generate_scenario(spec)
    results = run_bench(scenario, [pchase_r(1), ichase()], repetitions=2)
    assert [r.variant for r in results] == ["pchase-r(1)", "ichase"]
    for r in results:
        assert r.status == "fixpoint"
        assert r.facts > len(scenario.program.facts)
        assert r.answers == len(scenario.queries)
        assert r.wall_ms >= 0


def test_run_bench_raises_on_a_negative_step_budget():
    spec = ScenarioSpec(name="psc", persons=2, companies=2, seed=1)
    with pytest.raises(ValueError, match="step budget"):
        run_bench(generate_scenario(spec), [ichase()], repetitions=1, max_steps=-1)


def test_run_bench_rejects_zero_repetitions():
    spec = ScenarioSpec(name="psc", persons=2, companies=2)
    with pytest.raises(ValueError):
        run_bench(generate_scenario(spec), [ichase()], repetitions=0)


def test_write_scenario_is_byte_stable(tmp_path):
    spec = ScenarioSpec(name="doctors-like", patients=8, doctors=2, seed=5)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    files_a = write_scenario(generate_scenario(spec), out_a)
    files_b = write_scenario(generate_scenario(spec), out_b)
    assert set(files_a) == set(files_b)
    for key in files_a:
        assert files_a[key].read_bytes() == files_b[key].read_bytes()


def test_write_scenario_round_trips_through_the_parser(tmp_path):
    from dlgx.parser import load_facts_csv, parse_program as parse

    spec = ScenarioSpec(name="psc", persons=12, companies=8, seed=7)
    scenario = generate_scenario(spec)
    files = write_scenario(scenario, tmp_path)
    program_text = files["program"].read_text()
    rules_only = parse(program_text)
    assert len(rules_only.rules) == len(scenario.program.rules)
    assert not rules_only.facts  # facts travel in the CSVs

    loaded = []
    for key, path in files.items():
        if path.suffix == ".csv":
            assert key == f"facts:{path.stem}"
            loaded.extend(load_facts_csv(path.stem, path))
    assert set(loaded) == set(scenario.program.facts)


@pytest.mark.parametrize(
    "spec",
    [
        ScenarioSpec(name="psc", persons=2000, companies=2000, seed=11),
        ScenarioSpec(name="doctors-like", patients=2000, doctors=40, seed=11),
    ],
    ids=["psc", "doctors-like"],
)
def test_inline_program_text_round_trips_through_the_parser(spec):
    # every fact written inline, as a benchmark's program file holds them
    program = generate_scenario(spec).program
    text = print_program(program)
    assert len(program.facts) > 2000
    assert parse_program(text) == program
