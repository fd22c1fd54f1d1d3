"""Command-line front end.

Commands: classify, chase, query, diff, bench, generate.  Exit codes
are a stable contract:

  0  success (classify ok, query true, diff agreement or inconclusive)
  1  query answered false / no certain answers
  2  parse or IO error (diagnostics on stderr)
  3  --require fragment not satisfied
  4  non-terminating chase refused (oblivious without --max-steps)
  5  differential disagreement detected

All randomized commands take --seed and default to seed 0, never the
wall clock, so identical invocations give byte-identical output
(timings excepted).
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from .analysis import AnalysisReport, analyze, harmful_joins
from .chase import (
    FIXPOINT,
    ISOMORPHISM,
    VARIANT_NAMES,
    NonTerminationRiskError,
    parse_variant,
    run_chase,
)
from .model import Null, Program, Query, format_instance, format_term
from .parser import (
    ParseError,
    load_facts_csv,
    parse_program,
    parse_query,
    print_program,
    print_query,
)
from .query import DIFF_BUDGET, answer_with_variant, default_resumptions, differential_bcqa

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_REQUIRE = 3
EXIT_NONTERMINATION = 4
EXIT_DISAGREEMENT = 5


def _json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


def _print_diagnostics(err: ParseError) -> None:
    for d in err.diagnostics:
        print(d, file=sys.stderr)


def _load_program(args: argparse.Namespace) -> Program:
    text = Path(args.program).read_text(encoding="utf-8")
    program = parse_program(text, args.program)
    extra = []
    for binding in args.facts or []:
        pred, sep, path = binding.partition("=")
        if not sep or not pred or not path:
            raise ValueError(f"--facts expects pred=path, got {binding!r}")
        arity = program.schema.get(pred)
        if arity is None:
            raise ValueError(
                f"--facts predicate {pred!r} does not occur in the program"
            )
        extra.extend(
            load_facts_csv(pred, path, header=args.header, arity=arity)
        )
    return program.with_facts(extra) if extra else program


def _load_query(args: argparse.Namespace, program: Program) -> tuple[Query, list[str]]:
    """The query and its parse warnings, as ``file:line:col: message``."""
    text = Path(args.query).read_text(encoding="utf-8")
    diags = []
    query = parse_query(text, args.query, schema=program.schema, diagnostics=diags)
    return query, [f"{d.span}: {d.message}" for d in diags]


def _classify_text(report: AnalysisReport) -> str:
    v = report.verdicts
    lines = [
        f"shy: {str(v.shy).lower()}",
        f"warded: {str(v.warded).lower()}",
        f"protected: {str(v.protected).lower()}",
    ]
    if v.violations:
        lines.append("violations:")
        for viol in v.violations:
            names = ", ".join(viol.variables)
            lines.append(f"  rule {viol.rule_id} {viol.condition} ({names}): {viol.explanation}")
    lines.append("affected: " + (", ".join(str(p) for p in sorted(report.affected, key=str)) or "(none)"))
    inv = report.invaded
    if inv:
        lines.append("invaded:")
        for pos in sorted(inv, key=str):
            invaders = ", ".join(sorted(str(e) for e in inv[pos]))
            lines.append(f"  {pos}: {invaders}")
    return "\n".join(lines) + "\n"


def cmd_classify(args: argparse.Namespace) -> int:
    program = _load_program(args)
    report = analyze(program)
    if args.format == "json":
        print(_json(report.to_json_dict()))
    else:
        print(_classify_text(report), end="")
    if args.require:
        passed = getattr(report.verdicts, args.require)
        return EXIT_OK if passed else EXIT_REQUIRE
    return EXIT_OK


def cmd_chase(args: argparse.Namespace) -> int:
    program = _load_program(args)
    variant = parse_variant(args.variant, args.resumptions)
    run = run_chase(program, variant, max_steps=args.max_steps, trace=bool(args.trace))
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            for record in run.trace:
                fh.write(json.dumps(record.to_json_dict(), sort_keys=True) + "\n")
    print(format_instance(run.result), end="")
    if run.status != FIXPOINT:
        print(
            f"status: {run.status} after {run.fired_steps} fired steps",
            file=sys.stderr,
        )
    return EXIT_OK


def _answer_text(answer) -> str:
    lines = [f"verdict: {str(answer.verdict).lower()}"]
    if answer.witness:
        pairs = " ".join(
            f"{k}={format_term(v)}" for k, v in sorted(answer.witness.items())
        )
        lines.append(f"witness: {pairs}")
    for row in answer.tuples or ():
        lines.append("row: " + ", ".join(map(format_term, row)))
    for w in answer.warnings:
        lines.append(f"warning: {w}")
    lines.append(f"chase: {answer.chase_status} ({answer.chase_steps} steps)")
    return "\n".join(lines) + "\n"


def cmd_query(args: argparse.Namespace) -> int:
    program = _load_program(args)
    query, warnings = _load_query(args, program)
    if args.certain and not query.output_vars:
        names = dict.fromkeys(v.name for atom in query.atoms for v in atom.variables())
        query = Query(query.atoms, tuple(names))
    variant = parse_variant(args.variant, args.resumptions)
    if args.resumptions is None and (
        variant.resumptions
        or (variant.blocker == ISOMORPHISM and harmful_joins(program, query))
    ):
        # a variant that resumes by default, and ichase where a harmful join
        # can make plain ichase miss answers, get the differential harness's budget
        variant = parse_variant(args.variant, default_resumptions(query))
    answer, _ = answer_with_variant(
        program, query, variant, max_steps=args.max_steps
    )
    answer.warnings = warnings + answer.warnings
    if args.certain and answer.tuples is not None:
        answer.tuples = [t for t in answer.tuples if not any(isinstance(x, Null) for x in t)]
        answer.verdict = bool(answer.tuples)
    if args.format == "json":
        print(_json(answer.to_json_dict()))
    else:
        print(_answer_text(answer), end="")
    return EXIT_OK if answer.verdict else EXIT_FALSE


def cmd_diff(args: argparse.Namespace) -> int:
    program = _load_program(args)
    query, warnings = _load_query(args, program)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    report = differential_bcqa(
        program, query, budget=args.max_steps, resumptions=args.resumptions
    )
    if args.format == "json":
        print(_json(report.to_json_dict()))
    else:
        print(f"status: {report.status}")
        for a in report.assertions:
            print(f"  {a.name}: {a.result} ({a.detail})")
        for note in report.notes:
            print(f"note: {note}")
    if report.status == "disagreement":
        print("disagreement witness:", file=sys.stderr)
        print("program:", file=sys.stderr)
        print(print_program(program), end="", file=sys.stderr)
        print("query:", file=sys.stderr)
        print(print_query(query), end="", file=sys.stderr)
        for name in sorted(report.runs):
            run = report.runs[name]
            print(f"instance under {name} ({run.status}):", file=sys.stderr)
            print(format_instance(run.result), end="", file=sys.stderr)
        return EXIT_DISAGREEMENT
    return EXIT_OK


def _spec_from_args(args: argparse.Namespace):
    from .benchgen import ScenarioSpec

    if args.scenario == "psc":
        return ScenarioSpec(
            name="psc",
            persons=args.persons,
            companies=args.companies,
            seed=args.seed,
            density=args.density,
        )
    return ScenarioSpec(
        name="doctors-like",
        patients=args.patients,
        doctors=args.doctors,
        seed=args.seed,
        density=args.density,
    )


def cmd_bench(args: argparse.Namespace) -> int:
    from .benchgen import generate_scenario, run_bench

    spec = _spec_from_args(args)
    scenario = generate_scenario(spec)
    variants = [parse_variant(name.strip()) for name in args.variants.split(",") if name.strip()]
    results = run_bench(
        scenario, variants, repetitions=args.repetitions, max_steps=args.max_steps
    )
    if args.format == "json":
        print(_json([r.to_json_dict() for r in results]))
    else:
        print("scenario,scale,variant,ms,facts")
        for r in results:
            print(",".join(str(x) for x in r.to_row()))
    return EXIT_OK


def cmd_generate(args: argparse.Namespace) -> int:
    from .benchgen import generate_scenario, write_scenario

    spec = _spec_from_args(args)
    scenario = generate_scenario(spec)
    written = write_scenario(scenario, args.out)
    for name in sorted(written):
        print(f"{name}: {written[name]}")
    return EXIT_OK


def _add_program_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--program", required=True, help="program file (.dlgx)")
    p.add_argument(
        "--facts",
        action="append",
        metavar="PRED=PATH",
        help="bind a CSV fact file to a predicate (repeatable)",
    )
    p.add_argument("--header", action="store_true", help="fact CSVs have a header row")


def _add_scenario_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", choices=["psc", "doctors-like"], default="psc")
    p.add_argument("--persons", type=int, default=1000)
    p.add_argument("--companies", type=int, default=1000)
    p.add_argument("--patients", type=int, default=1000)
    p.add_argument("--doctors", type=int, default=100)
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dlgx",
        description="Existential Datalog: fragment classification and chase-based query answering",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="fragment classification report")
    _add_program_flags(p)
    p.add_argument("--require", choices=["shy", "warded", "protected"])
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("chase", help="run a chase variant and dump the instance")
    _add_program_flags(p)
    p.add_argument("--variant", default="pchase", choices=VARIANT_NAMES)
    p.add_argument("--max-steps", type=int)
    p.add_argument("--resumptions", type=int)
    p.add_argument("--trace", metavar="PATH", help="write a JSON-lines trigger trace")
    p.set_defaults(func=cmd_chase)

    p = sub.add_parser("query", help="answer a conjunctive query")
    _add_program_flags(p)
    p.add_argument("--query", required=True, help="query file (?- ... .)")
    p.add_argument("--variant", default="pchase", choices=VARIANT_NAMES)
    p.add_argument("--max-steps", type=int)
    p.add_argument("--resumptions", type=int)
    p.add_argument(
        "--certain",
        action="store_true",
        help="keep only null-free answer tuples and answer by them; a query "
        "without an output line outputs every variable",
    )
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("diff", help="cross-variant differential query answering")
    _add_program_flags(p)
    p.add_argument("--query", required=True)
    p.add_argument(
        "--max-steps", type=int, default=DIFF_BUDGET, help="per-variant step budget (default %(default)s)"
    )
    p.add_argument("--resumptions", type=int)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser("bench", help="time chase variants on synthetic scenarios")
    _add_scenario_flags(p)
    p.add_argument("--variants", default="pchase-r,ichase", help="comma-separated variant names")
    p.add_argument("--repetitions", type=int, default=3)
    p.add_argument("--max-steps", type=int)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("generate", help="write a synthetic scenario to disk")
    _add_scenario_flags(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_generate)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as err:
        _print_diagnostics(err)
        return EXIT_INPUT
    except NonTerminationRiskError as err:
        print(f"refusing to run: {err}", file=sys.stderr)
        print("hint: pass --max-steps to bound the run", file=sys.stderr)
        return EXIT_NONTERMINATION
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
