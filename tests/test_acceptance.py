"""Acceptance gate: one test and one printed pass/fail line per criterion.

Criterion 4 runs the differential harness, which gives ichase the same
resumption budget as pchase-r (one epoch per query atom).  Plain ichase
folds parallel null chains together and misses deep chain answers on
two of the generated pairs; with resumptions frontier nulls are frozen,
every chain keeps growing, and the variants agree.  See the
known-limitation section of the README and the regression test in
test_query.py.
"""

import collections
import io
import json
import statistics
import time
from contextlib import redirect_stdout

from dlgx.analysis import analyze
from dlgx.benchgen import ScenarioSpec, generate_psc
from dlgx.chase import (
    compare_chase_containment,
    ichase,
    oblivious,
    pchase,
    pchase_r,
    run_chase,
)
from dlgx.cli import main
from dlgx.generator import classify_outcome, generate_random_program, generate_random_query
from dlgx.model import Null
from dlgx.parser import parse_program, parse_query
from dlgx.query import answer_with_variant, differential_bcqa, evaluate_query

SPLIT_SOURCES = """\
i1(X, Y) :- e1(X).
i2(Z, X) :- e2(X).
i3(X, Y, Z) :- i1(X, Y), i2(Z, X).
"""

HARMFUL_SELF_JOIN = """\
i1(X, Y) :- e1(X).
i2(X, Z) :- i1(X, Y), i1(Z, Y).
"""

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


ACCEPTANCE_LINES: list[str] = []


def report(criterion: int, ok: bool, detail: str) -> None:
    line = f"[PRIMARY] criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line, flush=True)  # also lands in the captured output on failure
    assert ok, line


def test_criterion_1_fixture_classification():
    first = analyze(parse_program(SPLIT_SOURCES)).verdicts
    second = analyze(parse_program(HARMFUL_SELF_JOIN)).verdicts

    ok = (
        first.shy is True
        and first.warded is False
        and first.protected is False
        and second.warded is True
        and second.shy is False
    )
    w1 = [v for v in first.violations if v.condition == "W1"]
    ok = ok and len(w1) == 1 and tuple(w1[0].variables) == ("Y", "Z")
    s1 = [v for v in second.violations if v.condition == "S1"]
    ok = ok and len(s1) == 1 and tuple(s1[0].variables) == ("Y",)
    report(
        1,
        ok,
        "fixture verdicts exact, W1 names (Y, Z), S1 names (Y,)",
    )


def test_criterion_2_classifier_cross_check_and_coverage():
    start = time.monotonic()
    counts = collections.Counter()
    for seed in range(1000):
        rep = analyze(generate_random_program(seed))
        assert rep.verdicts.protected == (rep.verdicts.shy and rep.verdicts.warded)
        counts[classify_outcome(rep)] += 1
    elapsed = time.monotonic() - start
    quotas_ok = all(
        counts[label] >= 50
        for label in ("protected", "shy-only", "warded-only", "neither")
    )
    ok = quotas_ok and elapsed < 60
    report(
        2,
        ok,
        f"1000 programs, zero cross-check violations, coverage {dict(counts)}, "
        f"{elapsed:.1f}s < 60s",
    )


def test_criterion_3_containment_sweep():
    start = time.monotonic()
    violated = 0
    inconclusive = 0
    total = 500
    for seed in range(total):
        program = generate_random_program(seed)
        assert len(program.facts) <= 20
        outcome = compare_chase_containment(program, max_steps=10_000)
        if outcome.status == "violated":
            violated += 1
        elif outcome.status == "inconclusive":
            inconclusive += 1
    elapsed = time.monotonic() - start
    ok = violated == 0 and inconclusive / total < 0.10 and elapsed < 300
    report(
        3,
        ok,
        f"{total} programs, {violated} violations, {inconclusive} inconclusive "
        f"({inconclusive / total:.1%} < 10%), {elapsed:.1f}s < 5min",
    )


def test_criterion_4_differential_agreement_on_protected_pairs():
    start = time.monotonic()
    target = 500
    checked = 0
    violations = []
    seed = 0
    while checked < target:
        program = generate_random_program(seed)
        if analyze(program).verdicts.protected:
            query = generate_random_query(program, (seed + 1) * 31 + 7)
            outcome = differential_bcqa(program, query, budget=10_000)
            if outcome.status == "disagreement":
                violations.append(seed)
            checked += 1
        seed += 1
    elapsed = time.monotonic() - start
    ok = not violations and elapsed < 300
    report(
        4,
        ok,
        f"{checked} protected pairs, {len(violations)} disagreements "
        f"(program seeds {violations}), {elapsed:.1f}s < 5min",
    )


def test_criterion_5_blocking_fixture():
    program = parse_program(BLOCKED_PAIR)
    p_run = run_chase(program, pchase())
    i_run = run_chase(program, ichase())
    extras = [
        f
        for f in i_run.result
        if any(isinstance(t, Null) for t in f.terms)
    ]
    ok = (
        p_run.status == "fixpoint"
        and len(p_run.result) == 2
        and i_run.status == "fixpoint"
        and len(i_run.result) == 3
        and len(extras) == 1
        and extras[0].predicate == "q"
        and extras[0].terms[0] == "a"
    )
    report(
        5,
        ok,
        "pchase fixpoint keeps 2 facts, renaming blocker adds q(a, null) for 3",
    )


def test_criterion_6_resumption_fixture():
    program = parse_program(TWO_PATH)
    query = parse_query("?- e(X, Y), e(Y, Z).", schema=program.schema)
    plain, plain_run = answer_with_variant(program, query, pchase())
    resumed, _ = answer_with_variant(program, query, pchase_r(1))
    renaming, _ = answer_with_variant(program, query, ichase())
    bounded, bounded_run = answer_with_variant(program, query, oblivious(), max_steps=4)
    ok = (
        plain.verdict is False
        and plain_run.status == "fixpoint"
        and resumed.verdict is True
        and renaming.verdict is True
        and bounded.verdict is True
    )
    report(
        6,
        ok,
        "two-link query: pchase false, pchase-r(1) true, ichase true, "
        "oblivious within 4 steps true",
    )


# Each size is timed as the median of this many runs of each variant, so
# one run slowed by the shared machine moves neither side of the scale
# ratio.  (The best of the runs would favour the small size: its runs are
# short enough to fit between bursts of load, the 10k runs are not.)
PSC_ROUNDS = 3


def _timed_answers(scenario, variant) -> tuple[frozenset, float]:
    """The answers to the scenario's first query under ``variant``, and
    the seconds the chase and the query took."""
    t0 = time.monotonic()
    run = run_chase(scenario.program, variant)
    result = evaluate_query(scenario.queries[0], run.result)
    elapsed = time.monotonic() - t0
    assert run.status == "fixpoint"
    return frozenset(result.tuples), elapsed


def _psc_answer_set(persons: int, companies: int):
    spec = ScenarioSpec(name="psc", persons=persons, companies=companies, seed=0)
    scenario = generate_psc(spec)
    timings = {"pchase-r": [], "ichase": []}
    for _ in range(PSC_ROUNDS):
        answers = {}
        for name, variant in (("pchase-r", pchase_r(1)), ("ichase", ichase())):
            answers[name], elapsed = _timed_answers(scenario, variant)
            timings[name].append(elapsed)
        assert answers["pchase-r"] == answers["ichase"]
    return answers["pchase-r"], timings


def test_criterion_7_psc_scaling():
    small_answers, small_t = _psc_answer_set(1_000, 1_000)
    big_answers, big_t = _psc_answer_set(10_000, 10_000)
    median_small = {name: statistics.median(ts) for name, ts in small_t.items()}
    median_big = {name: statistics.median(ts) for name, ts in big_t.items()}
    under_minute = all(t < 60 for ts in big_t.values() for t in ts)
    ratio = sum(median_big.values()) / sum(median_small.values())
    ok = under_minute and ratio <= 20
    report(
        7,
        ok,
        f"10k psc, median of {PSC_ROUNDS}: pchase-r {median_big['pchase-r']:.1f}s, "
        f"ichase {median_big['ichase']:.1f}s, "
        f"answer sets identical ({len(big_answers)} rows), "
        f"scale ratio {ratio:.1f}x <= 20x",
    )


def _capture(argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        rc = main(argv)
    return rc, buffer.getvalue()


def test_criterion_8_byte_stable_outputs(tmp_path):
    program = tmp_path / "prog.dlgx"
    program.write_text(SPLIT_SOURCES + "e1(a).\ne2(a).\n")
    chain = tmp_path / "chain.dlgx"
    chain.write_text(TWO_PATH)
    query = tmp_path / "q.query"
    query.write_text("?- e(X, Y), e(Y, Z).")

    commands = [
        ["classify", "--program", str(program), "--format", "json"],
        ["chase", "--program", str(chain), "--variant", "ichase"],
        ["chase", "--program", str(chain), "--variant", "pchase-r", "--resumptions", "2"],
        ["query", "--program", str(chain), "--query", str(query), "--variant", "ichase", "--format", "json"],
        ["diff", "--program", str(chain), "--query", str(query), "--format", "json"],
    ]
    stable = True
    for argv in commands:
        rc1, out1 = _capture(argv)
        rc2, out2 = _capture(argv)
        stable = stable and rc1 == rc2 and out1 == out2

    bench_argv = [
        "bench",
        "--scenario",
        "psc",
        "--persons",
        "30",
        "--companies",
        "30",
        "--repetitions",
        "1",
        "--format",
        "json",
    ]
    runs = []
    for _ in range(2):
        _, out = _capture(bench_argv)
        payload = json.loads(out)
        for row in payload:
            row["ms"] = 0
        runs.append(json.dumps(payload, sort_keys=True))
    stable = stable and runs[0] == runs[1]

    gen_dirs = [tmp_path / "g1", tmp_path / "g2"]
    for d in gen_dirs:
        rc, _ = _capture(
            ["generate", "--scenario", "psc", "--persons", "20", "--companies", "20", "--out", str(d)]
        )
        stable = stable and rc == 0
    names = sorted(p.name for p in gen_dirs[0].iterdir())
    stable = stable and names == sorted(p.name for p in gen_dirs[1].iterdir())
    for name in names:
        stable = stable and (gen_dirs[0] / name).read_bytes() == (gen_dirs[1] / name).read_bytes()

    report(
        8,
        stable,
        "classify/chase/query/diff/bench/generate outputs byte-identical "
        "across repeated runs (timings zeroed)",
    )
