"""The three workloads: rounds of engine calls, timed and checked.

Every engine call goes through its module attribute (``dlgx.chase.run_chase``
and so on), so the traced run sees the same calls through its wrappers.
Each timed operation is the process's CPU time after a ``gc.collect()``;
dlgx is single-threaded, so on an idle machine CPU time is what a user
waits for, and on a shared machine it leaves out descheduling.

A run repeats whole rounds until ``seconds`` of wall time have passed.
Every round makes the same operations, so the share of failed operations
does not depend on the seed or on how many rounds fit.
"""
from __future__ import annotations

import gc
import resource
import statistics
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import inputs
from reference import answers, printed_facts, query_atoms, query_variables

BUDGET = 10_000  # oracle step budget of the differential harness
OUT = Path(__file__).parent / "out"
cpu = time.process_time


@dataclass(frozen=True)
class Sizes:
    entities: int  # psc persons and companies; doctors patients
    doctors: int
    point_queries: int  # seeded constant draws per scenario, a few queries each
    pairs: int  # differential pairs per round in psc and doctors
    pair_scale: int  # entities in each of those pairs' programs
    sweep_pairs: int  # criterion-4 pairs per round in diff-sweep


FULL = Sizes(entities=10_000, doctors=200, point_queries=40, pairs=200, pair_scale=6, sweep_pairs=200)
TINY = Sizes(entities=60, doctors=6, point_queries=3, pairs=8, pair_scale=4, sweep_pairs=10)
WORKLOADS = ("psc", "doctors", "diff-sweep")
# psc and doctors rounds set up SETUPS times and materialize and query
# REPEATS times; each metric is the median of its samples
SETUPS = 3
REPEATS = 2


def engine() -> SimpleNamespace:
    """dlgx's modules, imported once ``run.load_engine`` has put ``./src``
    on the path.  Calls go through these module attributes."""
    from dlgx import analysis, benchgen, chase, parser, query

    return SimpleNamespace(
        analysis=analysis, benchgen=benchgen, chase=chase, parser=parser, query=query
    )


class Recorder:
    """Per-round samples, per-pair times and operation counts of one run."""

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.pair_times: list[float] = []
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.known_failed = 0
        self.errors: list[str] = []

    def op(self, ok: bool, what: str, known: bool = False) -> None:
        """Count one operation; a known failure does not make the run wrong."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if known:
                self.known_failed += 1
            else:
                self.errors.append(what)

    def metrics(self) -> dict[str, tuple[float, str]]:
        times = self.pair_times
        out = {
            name: (statistics.median(values), "s") for name, values in self.samples.items()
        }
        out["pairs_per_s"] = (len(times) / sum(times), "1/s")
        out["diff_p50_ms"] = (statistics.median(times) * 1000, "ms")
        out["diff_p95_ms"] = (statistics.quantiles(times, n=20)[18] * 1000, "ms")
        out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        return out


def _rows(answer) -> frozenset:
    """Answer rows as printed terms; a true Boolean answer is one empty row."""
    if answer.tuples is None:
        return frozenset({()}) if answer.verdict else frozenset()
    return frozenset(tuple(str(t) for t in row) for row in answer.tuples)


def _answer_ok(spec: inputs.QuerySpec, answer) -> bool:
    if spec.outputs:
        return answer.tuples is not None and _rows(answer) == spec.expected
    return answer.verdict == spec.expected


def query_roundtrip(eng: SimpleNamespace, out_dir: Path) -> bool:
    """Write psc's query with ``write_scenario`` and read it back as
    ``dlgx query`` does.  The input is fixed, whatever the seed."""
    spec = eng.benchgen.ScenarioSpec("psc", persons=4, companies=4, seed=0)
    scenario = eng.benchgen.generate_scenario(spec)
    written = eng.benchgen.write_scenario(scenario, out_dir)
    text = written["query:1"].read_text(encoding="utf-8")
    back = eng.parser.parse_query(text, str(written["query:1"]), schema=scenario.program.schema)
    return back == scenario.queries[0]


def scenario_round(eng, rec: Recorder, path: Path, scenario: inputs.Scenario, roundtrip: bool) -> None:
    """Set up ``SETUPS`` times, then ``REPEATS`` times materialize under both
    variants and answer the query batch over each instance."""
    text = path.read_text(encoding="utf-8")
    for _ in range(SETUPS):
        program = parsed = report = None  # every parse starts from the same heap
        gc.collect()
        t0 = cpu()
        program = eng.parser.parse_program(text, path.name)
        schema = program.schema
        parsed = [eng.parser.parse_query(q.text, schema=schema) for q in scenario.queries]
        report = eng.analysis.analyze(program)
        rec.samples["setup_s"].append(cpu() - t0)
        rec.op(
            len(program.facts) == scenario.facts and report.verdicts.protected,
            f"{scenario.name}: {len(program.facts)} facts parsed, protected={report.verdicts.protected}",
        )
    # parse_query cannot read output variables, so answer-set queries get
    # theirs attached here
    queries = [eng.query.Query(p.atoms, q.outputs) for p, q in zip(parsed, scenario.queries)]
    if roundtrip:
        rec.op(query_roundtrip(eng, path.parent / "roundtrip"), "psc query file round trip", known=True)
    for _ in range(REPEATS):
        query_time = 0.0
        for label, variant in (("pchase-r", eng.chase.pchase_r(1)), ("ichase", eng.chase.ichase())):
            gc.collect()
            t0 = cpu()
            run = eng.chase.run_chase(program, variant)
            rec.samples[f"materialize_s.{label}"].append(cpu() - t0)
            rec.op(run.status == "fixpoint", f"{label}: chase status {run.status}")
            gc.collect()
            t0 = cpu()
            answers = [eng.query.evaluate_query(q, run.result) for q in queries]
            query_time += cpu() - t0
            for spec, answer in zip(scenario.queries, answers):
                rec.op(_answer_ok(spec, answer), f"{label}: {spec.text} {spec.outputs}")
            del run, answers
        rec.samples["query_s"].append(query_time)


def diff_round(eng, rec: Recorder, pairs: list[inputs.Pair], each_variant: bool) -> None:
    """Every pair through ``differential_bcqa``, checked for disagreement
    and against the independent matcher on each variant's final instance.

    With ``each_variant`` (diff-sweep), the round's samples are the pairs'
    set-up, a chase of each pair under pchase-r and ichase alone, and an
    answer-set evaluation of each query (all its variables as outputs) over
    the three final instances of its differential run.
    """
    totals: dict[str, float] = defaultdict(float)
    for pair in pairs:
        gc.collect()
        diff_pair(eng, rec, pair, totals, each_variant)
    if each_variant:
        for name, value in totals.items():
            rec.samples[name].append(value)


def diff_pair(eng, rec: Recorder, pair: inputs.Pair, totals: dict[str, float], each_variant: bool) -> None:
    t0 = cpu()
    program = eng.parser.parse_program(pair.program_text, pair.label)
    query = eng.parser.parse_query(pair.query_text, schema=program.schema)
    protected = eng.analysis.analyze(program).verdicts.protected
    totals["setup_s"] += cpu() - t0
    rec.op(protected, f"{pair.label}: not protected")
    t0 = cpu()
    report = eng.query.differential_bcqa(program, query, budget=BUDGET)
    rec.pair_times.append(cpu() - t0)
    preds = [pred for pred, _ in query_atoms(pair.query_text)]
    expected = {
        name: answers(pair.query_text, printed_facts(run.result, preds))
        for name, run in report.runs.items()
    }
    rec.op(
        report.status != "disagreement"
        and all(report.answers[name].verdict == bool(rows) for name, rows in expected.items()),
        f"{pair.label}: differential {report.status}",
    )
    if not each_variant:
        return
    full = eng.query.Query(query.atoms, query_variables(pair.query_text))
    for name, run in report.runs.items():
        t0 = cpu()
        answer = eng.query.evaluate_query(full, run.result)
        totals["query_s"] += cpu() - t0
        rec.op(_rows(answer) == expected[name], f"{pair.label}: {name} answer set")
    k = eng.query.default_resumptions(query)
    for label, variant in (("pchase-r", eng.chase.pchase_r(k)), ("ichase", eng.chase.ichase(k))):
        t0 = cpu()
        run = eng.chase.run_chase(program, variant, max_steps=BUDGET)
        totals[f"materialize_s.{label}"] += cpu() - t0
        # the differential run may stop resuming once the query holds, which
        # leaves its verdict unchanged
        holds = bool(answers(pair.query_text, printed_facts(run.result, preds)))
        rec.op(holds == report.answers[label].verdict, f"{pair.label}: {label} chase")


def run(name: str, seed: int, seconds: float, sizes: Sizes = FULL, traced: bool = False) -> Recorder:
    """Run whole rounds of one workload; a traced run makes exactly one."""
    eng = engine()
    rec = Recorder()
    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        if name == "diff-sweep":
            pairs = inputs.criterion4_pairs(seed)[: sizes.sweep_pairs]

            def one_round() -> None:
                diff_round(eng, rec, pairs, each_variant=True)
        else:
            if name == "psc":
                scenario = inputs.psc(sizes.entities, sizes.entities, seed, sizes.point_queries)
            else:
                scenario = inputs.doctors(sizes.entities, sizes.doctors, seed, sizes.point_queries)
            path = Path(scratch) / f"{name}.dlgx"
            path.write_text(scenario.program_text, encoding="utf-8")
            pairs = inputs.scenario_pairs(name, seed, sizes.pairs, sizes.pair_scale)

            # half the small pairs run before the scenario and half after,
            # so their times sample both ends of the round
            def one_round() -> None:
                diff_round(eng, rec, pairs[::2], each_variant=False)
                scenario_round(eng, rec, path, scenario, roundtrip=name == "psc")
                diff_round(eng, rec, pairs[1::2], each_variant=False)

        start = time.perf_counter()
        while True:
            one_round()
            rec.rounds += 1
            if traced or time.perf_counter() - start >= seconds:
                return rec
