"""Existential Datalog engine: fragment classification and chase-based
query answering.

The public surface groups into:

* ``model``: terms, atoms, rules, programs, instances.
* ``parser``: the ``.dlgx`` text format, query files, CSV fact files.
* ``analysis``: affected/invaded position fixpoints and the shy /
  warded / protected classifiers.
* ``chase``: chase variants (a blocker plus a resumption count) with
  deterministic trigger ordering.
* ``query``: conjunctive query evaluation over chased instances and the
  cross-variant differential harness.
* ``generator`` / ``benchgen``: seeded random programs and synthetic
  benchmark scenarios.
"""
from .analysis import (
    AnalysisReport,
    FragmentVerdicts,
    InternalInconsistencyError,
    Violation,
    analyze,
    check_protected,
    check_shy,
    check_warded,
    classify_variables,
    compute_affected,
    compute_invaded,
    harmful_joins,
)
from .benchgen import (
    BenchResult,
    GeneratorConstraintViolation,
    Scenario,
    ScenarioSpec,
    generate_doctors_like,
    generate_psc,
    generate_scenario,
    run_bench,
    write_scenario,
)
from .chase import (
    ChaseRun,
    ChaseVariant,
    NonTerminationRiskError,
    compare_chase_containment,
    exists_homomorphism,
    exists_isomorphic_embedding,
    ichase,
    oblivious,
    parse_variant,
    pchase,
    pchase_r,
    run_chase,
)
from .generator import (
    GeneratorProfile,
    classify_outcome,
    generate_random_program,
    generate_random_query,
)
from .model import (
    Atom,
    Instance,
    Null,
    Position,
    Program,
    Rule,
    SchemaError,
    Variable,
    format_instance,
    freeze_nulls,
)
from .parser import (
    ParseDiagnostic,
    ParseError,
    load_facts_csv,
    parse_program,
    parse_query,
    print_program,
    print_query,
)
from .query import (
    Answer,
    DifferentialReport,
    Query,
    answer_with_variant,
    default_resumptions,
    differential_bcqa,
    evaluate_query,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "Answer",
    "Atom",
    "BenchResult",
    "ChaseRun",
    "ChaseVariant",
    "DifferentialReport",
    "FragmentVerdicts",
    "GeneratorConstraintViolation",
    "GeneratorProfile",
    "Instance",
    "InternalInconsistencyError",
    "NonTerminationRiskError",
    "Null",
    "ParseDiagnostic",
    "ParseError",
    "Position",
    "Program",
    "Query",
    "Rule",
    "Scenario",
    "ScenarioSpec",
    "SchemaError",
    "Variable",
    "Violation",
    "analyze",
    "answer_with_variant",
    "check_protected",
    "check_shy",
    "check_warded",
    "classify_outcome",
    "classify_variables",
    "compare_chase_containment",
    "compute_affected",
    "compute_invaded",
    "default_resumptions",
    "differential_bcqa",
    "evaluate_query",
    "exists_homomorphism",
    "exists_isomorphic_embedding",
    "format_instance",
    "freeze_nulls",
    "generate_doctors_like",
    "generate_psc",
    "generate_random_program",
    "generate_random_query",
    "generate_scenario",
    "harmful_joins",
    "ichase",
    "load_facts_csv",
    "oblivious",
    "parse_program",
    "parse_query",
    "parse_variant",
    "pchase",
    "pchase_r",
    "print_program",
    "print_query",
    "run_bench",
    "run_chase",
    "write_scenario",
]
