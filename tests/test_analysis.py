import hashlib
import json
from importlib import resources
from pathlib import Path

import jsonschema

from dlgx.analysis import (
    ATTACKED_HARMFUL,
    HARMLESS,
    PROTECTED_HARMFUL,
    analyze,
    compute_affected,
    compute_invaded,
    harmful_joins,
)
from dlgx.generator import generate_random_program
from dlgx.model import Position, Program
from dlgx.parser import parse_program

# Two existential sources plus a harmless join that propagates both
# harmful variables to the head: shy holds, wardedness fails on W1.
SPLIT_SOURCES = """\
i1(X, Y) :- e1(X).
i2(Z, X) :- e2(X).
i3(X, Y, Z) :- i1(X, Y), i2(Z, X).
"""

# One existential source plus a harmful self-join: warded holds (nothing
# dangerous), shyness fails on the attacked join variable.
HARMFUL_SELF_JOIN = """\
i1(X, Y) :- e1(X).
i2(X, Z) :- i1(X, Y), i1(Z, Y).
"""

# Two dangerous head variables in different body atoms, both attacked by
# the one existential N: the only fixture that reaches S2.
SHARED_ATTACKER = """\
s(a).
p(X, N) :- s(X).
h(Y, W) :- p(A, Y), p(B, W).
"""

# One SHA-256 per program of its analysis report's JSON: generator seeds
# 0-999, then SHARED_ATTACKER.  Regenerate (only when a report is meant
# to change) with ``PYTHONPATH=src python tests/test_analysis.py``.
REPORT_DIGESTS = Path(__file__).parent / "golden" / "analysis_reports.sha256"
REPORT_SEEDS = range(1000)


def pos(p: str, i: int) -> Position:
    return Position(p, i)


class TestSplitSourcesFixture:
    def test_verdicts(self):
        report = analyze(parse_program(SPLIT_SOURCES))
        assert report.verdicts.shy is True
        assert report.verdicts.warded is False
        assert report.verdicts.protected is False

    def test_w1_violation_names_both_dangerous_variables(self):
        report = analyze(parse_program(SPLIT_SOURCES))
        w1 = [v for v in report.verdicts.violations if v.condition == "W1"]
        assert len(w1) == 1
        assert w1[0].rule_id == 2
        assert tuple(w1[0].variables) == ("Y", "Z")

    def test_affected_positions(self):
        program = parse_program(SPLIT_SOURCES)
        assert compute_affected(program) == {
            pos("i1", 2),
            pos("i2", 1),
            pos("i3", 2),
            pos("i3", 3),
        }

    def test_invasion_map(self):
        program = parse_program(SPLIT_SOURCES)
        invaded = compute_invaded(program)
        as_names = {
            str(p): sorted(str(e) for e in invaders)
            for p, invaders in invaded.items()
        }
        assert as_names == {
            "i1[2]": ["r0.Y"],
            "i2[1]": ["r1.Z"],
            "i3[2]": ["r0.Y"],
            "i3[3]": ["r1.Z"],
        }

    def test_variable_classes_in_join_rule(self):
        report = analyze(parse_program(SPLIT_SOURCES))
        join_rule = report.rules[2]
        x, y, z = (join_rule.variables[n] for n in ("X", "Y", "Z"))
        assert x.cls == HARMLESS and not x.dangerous
        assert y.cls == ATTACKED_HARMFUL and y.dangerous
        assert sorted(str(a) for a in y.attackers) == ["r0.Y"]
        assert z.cls == ATTACKED_HARMFUL and z.dangerous
        assert sorted(str(a) for a in z.attackers) == ["r1.Z"]


class TestHarmfulSelfJoinFixture:
    def test_verdicts(self):
        report = analyze(parse_program(HARMFUL_SELF_JOIN))
        assert report.verdicts.shy is False
        assert report.verdicts.warded is True
        assert report.verdicts.protected is False

    def test_s1_violation_names_the_join_variable(self):
        report = analyze(parse_program(HARMFUL_SELF_JOIN))
        s1 = [v for v in report.verdicts.violations if v.condition == "S1"]
        assert len(s1) == 1
        assert s1[0].rule_id == 1
        assert tuple(s1[0].variables) == ("Y",)

    def test_p1_violation_mirrors_s1(self):
        report = analyze(parse_program(HARMFUL_SELF_JOIN))
        p1 = [v for v in report.verdicts.violations if v.condition == "P1"]
        assert len(p1) == 1
        assert p1[0].rule_id == 1
        assert tuple(p1[0].variables) == ("Y",)

    def test_join_variable_not_dangerous(self):
        report = analyze(parse_program(HARMFUL_SELF_JOIN))
        y = report.rules[1].variables["Y"]
        assert y.cls == ATTACKED_HARMFUL
        assert not y.dangerous  # it never reaches the head


def test_shared_attacker_across_body_atoms_fails_s2():
    report = analyze(parse_program(SHARED_ATTACKER))
    assert (report.verdicts.shy, report.verdicts.warded, report.verdicts.protected) == (
        False,
        False,
        False,
    )
    assert [(v.rule_id, v.condition, v.variables) for v in report.verdicts.violations] == [
        (1, "P2", ("W", "Y")),
        (1, "S2", ("W", "Y")),
        (1, "W1", ("W", "Y")),
    ]
    s2 = report.verdicts.violations[1]
    assert s2.explanation.endswith("share attacker r0.N")


def test_plain_datalog_is_in_every_fragment():
    report = analyze(parse_program("p(X, Y) :- e(X, Y).\np(X, Z) :- p(X, Y), e(Y, Z)."))
    assert report.verdicts.shy
    assert report.verdicts.warded
    assert report.verdicts.protected
    assert report.affected == frozenset()
    assert list(report.verdicts.violations) == []


def test_single_existential_rule_is_protected():
    report = analyze(parse_program("i1(X, Y) :- e1(X)."))
    assert report.verdicts.protected


def test_protected_harmful_join_is_allowed():
    # the two join occurrences are invaded by distinct variables, so the
    # join variable is protected-harmful and the program stays protected
    program = parse_program(
        "a1(X, H) :- e1(X).\n"
        "b1(X, H) :- e2(X).\n"
        "c1(X) :- a1(X, H), b1(X, H).\n"
    )
    report = analyze(program)
    h = report.rules[2].variables["H"]
    assert h.cls == PROTECTED_HARMFUL
    assert h.attackers == frozenset()
    assert report.verdicts.protected


def test_dangerous_variable_with_ward_is_warded_and_shy():
    program = parse_program(
        "i1(X, Y) :- e1(X).\n"
        "i2(Y) :- i1(X, Y).\n"
    )
    report = analyze(program)
    y = report.rules[1].variables["Y"]
    assert y.cls == ATTACKED_HARMFUL
    assert y.dangerous
    assert report.verdicts.protected


def test_ward_sharing_harmful_variable_fails_w2():
    # ward candidate holds the dangerous variable but shares the harmful
    # join variable with its companion atom
    program = parse_program(
        "i1(X, Y) :- e1(X).\n"
        "i2(Y, Z) :- i1(X, Y), i1(Z, Y).\n"
    )
    report = analyze(program)
    assert not report.verdicts.warded
    conditions = {v.condition for v in report.verdicts.violations}
    assert "W2" in conditions or "W1" in conditions


def test_affected_monotone_under_rule_addition():
    for seed in range(60):
        program = generate_random_program(seed)
        if len(program.rules) < 2:
            continue
        smaller = Program(rules=program.rules[:-1], facts=program.facts)
        assert compute_affected(smaller) <= compute_affected(program)


def test_invaded_implies_affected():
    for seed in range(120):
        program = generate_random_program(seed)
        affected = compute_affected(program)
        for position, invaders in compute_invaded(program).items():
            if invaders:
                assert position in affected


def test_intersection_equals_both_verdicts():
    # cross-check is also enforced inside analyze(); this pins the
    # equality at the API surface over a seed sweep
    for seed in range(200):
        report = analyze(generate_random_program(seed))
        assert report.verdicts.protected == (
            report.verdicts.shy and report.verdicts.warded
        )


def test_classification_is_total():
    for seed in range(40):
        program = generate_random_program(seed)
        report = analyze(program)
        for rule, rc in zip(program.rules, report.rules):
            body_vars = {v.name for a in rule.body for v in a.variables()}
            assert set(rc.variables) == body_vars


def test_report_json_matches_schema():
    schema = json.loads(
        resources.files("dlgx.schemas").joinpath("analysis_report.schema.json").read_text()
    )
    for text in (SPLIT_SOURCES, HARMFUL_SELF_JOIN):
        payload = analyze(parse_program(text)).to_json_dict()
        jsonschema.validate(payload, schema)


def test_report_json_is_deterministic():
    a = json.dumps(analyze(parse_program(SPLIT_SOURCES)).to_json_dict(), sort_keys=True)
    b = json.dumps(analyze(parse_program(SPLIT_SOURCES)).to_json_dict(), sort_keys=True)
    assert a == b


def test_analyze_runs_shy_and_warded_once(monkeypatch):
    import dlgx.analysis as analysis

    calls = {"check_shy": 0, "check_warded": 0}
    for name in calls:
        real = getattr(analysis, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(analysis, name, counted)
    for text in (SPLIT_SOURCES, HARMFUL_SELF_JOIN):
        calls.update(check_shy=0, check_warded=0)
        analyze(parse_program(text))
        assert calls == {"check_shy": 1, "check_warded": 1}


def test_harmful_joins_in_rules_and_query():
    from dlgx.parser import parse_query

    # Y joins the two i1 atoms and sits only at the affected i1[2]
    program = parse_program(HARMFUL_SELF_JOIN)
    assert harmful_joins(program) == [(1, "Y")]
    # X also joins them, but i1[1] is not affected
    assert (1, "X") not in harmful_joins(program)
    query = parse_query("?- i1(A, N), i1(B, N).", schema=program.schema)
    assert harmful_joins(program, query) == [(1, "Y"), (None, "N")]
    # a join on an unaffected position is harmless
    query = parse_query("?- i1(A, N), i2(A, B).", schema=program.schema)
    assert harmful_joins(program, query) == [(1, "Y")]
    assert harmful_joins(parse_program(SPLIT_SOURCES)) == []


def report_digest(program: Program) -> str:
    payload = json.dumps(analyze(program).to_json_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def compute_report_digests() -> list[str]:
    """One ``label digest`` line per program, seeds ascending."""
    lines = [
        f"{seed} {report_digest(generate_random_program(seed))}" for seed in REPORT_SEEDS
    ]
    lines.append(f"shared-attacker {report_digest(parse_program(SHARED_ATTACKER))}")
    return lines


def test_analysis_reports_match_their_digests():
    expected = REPORT_DIGESTS.read_text().splitlines()
    actual = compute_report_digests()
    assert len(actual) == len(expected) == len(REPORT_SEEDS) + 1
    changed = [a.split(" ", 1)[0] for a, e in zip(actual, expected) if a != e]
    assert not changed, f"{len(changed)} reports changed, first: {changed[:5]}"


if __name__ == "__main__":
    REPORT_DIGESTS.write_text("\n".join(compute_report_digests()) + "\n")
