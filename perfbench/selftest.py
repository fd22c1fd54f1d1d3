"""Quick self-test of the benchmark at tiny scale.  From the repository root:

    python3 perfbench/selftest.py

It checks that the answers computed apart from dlgx agree with the engine
on every workload (the psc query-file round trip being the one expected
failure), that the independent matcher and the answer checks reject wrong
answers, that two traced runs give identical counts, and that the metric
names printed match BENCHMARK.json.  It exits 1 on the first failed check.
"""
from __future__ import annotations

import json
from pathlib import Path

import inputs
import run
import workloads
from reference import answers
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        raise SystemExit(1)


def main() -> None:
    run.load_engine(Path.cwd())
    tiny = workloads.TINY
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check(tuple(e2e) == run.E2E, "BENCHMARK.json lists the end-to-end metrics run.py prints")
    check([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
          "BENCHMARK.json lists the three workloads")

    facts = [("e", ("b", "_:e0n1")), ("e", ("_:e0n1", "a")), ("e", ("a", "a"))]
    check(answers("?- e(X, Y), e(Y, a).", facts) == {("b", "_:e0n1"), ("_:e0n1", "a"), ("a", "a")},
          "matcher finds every two-atom path, through a null too")
    check(answers("?- e(X, Y), e(Y, X), e(X, b).", facts) == set(),
          "matcher rejects a cycle that is not there")
    sc = inputs.psc(tiny.entities, tiny.entities, 1, 1)
    wrong = inputs.QuerySpec(sc.queries[0].text, sc.queries[0].outputs,
                             sc.queries[0].expected | {("p0", "nowhere")})
    eng = workloads.engine()
    program = eng.parser.parse_program(sc.program_text)
    result = eng.chase.run_chase(program, eng.chase.ichase()).result
    query = eng.query.Query(eng.parser.parse_query(wrong.text).atoms, wrong.outputs)
    answer = eng.query.evaluate_query(query, result)
    check(workloads._answer_ok(sc.queries[0], answer) and not workloads._answer_ok(wrong, answer),
          "answer check accepts psc(P, C) and rejects it with one row too many")

    for name in workloads.WORKLOADS:
        for seed in (1, 2):
            rec, metrics = run.measure(name, seed, 0, trace=False, sizes=tiny)
            check(not rec.errors, f"{name} seed {seed}: engine agrees with the reference "
                  f"({rec.attempted} operations) {rec.errors[:3]}")
            expected_failures = rec.rounds if name == "psc" else 0
            check(rec.failed == rec.known_failed == expected_failures,
                  f"{name} seed {seed}: {rec.failed} failed, all of them the known round trip")
            check({k: u for k, (_, u) in metrics.items()} == e2e,
                  f"{name} seed {seed}: printed metric names and units match BENCHMARK.json")
            check(all(v > 0 for v, _ in metrics.values()), f"{name} seed {seed}: no metric reads 0")
            line = json.loads(run.result_line(rec, metrics))
            check(set(line) == {"correct", "attempted", "failed", "metrics"}, "result line keys")

        counts = []
        for _ in range(2):
            rec, metrics = run.measure(name, 1, 0, trace=True, sizes=tiny)
            check({k: u for k, (_, u) in metrics.items()} == layers,
                  f"{name}: traced metric names and units match BENCHMARK.json")
            counts.append({k: v for k, (v, u) in metrics.items() if u != "s"})
        check(counts[0] == counts[1], f"{name}: two traced runs give identical counts")
        check(counts[0]["analysis.analyze_calls"] > 0 and counts[0]["model.probes"] > 0,
              f"{name}: traced run saw the layers")

    tracer = Tracer()
    check(tracer._find("dlgx.chase", "no_such_boundary") is None
          and tracer.missing == ["dlgx.chase.no_such_boundary"],
          "a boundary that does not exist is reported as missing")
    print("self-test passed")


if __name__ == "__main__":
    main()
