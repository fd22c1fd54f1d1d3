"""Existential Datalog engine: fragment classification and chase-based
query answering.

The public surface groups into:

* ``model``: terms, atoms, rules, programs, queries, instances.
* ``parser``: the ``.dlgx`` text format, query files, CSV fact files.
* ``analysis``: affected/invaded position fixpoints and the shy /
  warded / protected classifiers.
* ``chase``: chase variants (a blocker plus a resumption count) with
  deterministic trigger ordering.
* ``query``: conjunctive query evaluation over chased instances and the
  cross-variant differential harness.
* ``generator`` / ``benchgen``: seeded random programs and synthetic
  benchmark scenarios.

``import dlgx`` loads none of these modules: each public name is imported
from its module on first access and then kept here (PEP 562).  Any other
name raises AttributeError, so ``from dlgx import chase`` loads the module.
"""
from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "model": (
        "Atom",
        "Instance",
        "Null",
        "Position",
        "Program",
        "Query",
        "Rule",
        "SchemaError",
        "Variable",
        "format_instance",
        "freeze_nulls",
    ),
    "parser": (
        "ParseDiagnostic",
        "ParseError",
        "load_facts_csv",
        "parse_program",
        "parse_query",
        "print_program",
        "print_query",
    ),
    "analysis": (
        "AnalysisReport",
        "FragmentVerdicts",
        "InternalInconsistencyError",
        "Violation",
        "analyze",
        "check_protected",
        "check_shy",
        "check_warded",
        "classify_variables",
        "compute_affected",
        "compute_invaded",
        "harmful_joins",
    ),
    "chase": (
        "ChaseRun",
        "ChaseVariant",
        "NonTerminationRiskError",
        "compare_chase_containment",
        "exists_homomorphism",
        "exists_isomorphic_embedding",
        "ichase",
        "oblivious",
        "parse_variant",
        "pchase",
        "pchase_r",
        "run_chase",
    ),
    "query": (
        "Answer",
        "DifferentialReport",
        "answer_with_variant",
        "default_resumptions",
        "differential_bcqa",
        "evaluate_query",
    ),
    "generator": (
        "GeneratorProfile",
        "classify_outcome",
        "generate_random_program",
        "generate_random_query",
    ),
    "benchgen": (
        "BenchResult",
        "GeneratorConstraintViolation",
        "Scenario",
        "ScenarioSpec",
        "generate_doctors_like",
        "generate_psc",
        "generate_scenario",
        "run_bench",
        "write_scenario",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _MODULE_OF.keys())
