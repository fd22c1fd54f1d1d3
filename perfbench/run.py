"""Benchmark entry point.  From the repository root:

    python3 perfbench/run.py --workload psc --seed 1 --seconds 10 --trace 0

runs one workload (psc, doctors or diff-sweep) against the dlgx sources in
``./src`` and prints, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` times the
end-to-end metrics with nothing wrapped; ``--trace 1`` makes one round
with every layer boundary wrapped, prints the per-layer metrics, and
writes the spans to ``perfbench/out/trace-<workload>-<seed>.tsv``.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import workloads
from tracing import Tracer

E2E = (
    "setup_s",
    "materialize_s.pchase-r",
    "materialize_s.ichase",
    "query_s",
    "pairs_per_s",
    "diff_p50_ms",
    "diff_p95_ms",
    "peak_rss_mb",
)


def load_engine(root: Path) -> None:
    """Import dlgx from ``root/src`` and nowhere else."""
    src = root / "src"
    if not (src / "dlgx" / "__init__.py").is_file():
        raise SystemExit(f"no dlgx sources under {src}; run from the repository root")
    sys.path.insert(0, str(src))
    import dlgx

    if src.resolve() not in Path(dlgx.__file__).resolve().parents:
        raise SystemExit(f"dlgx was imported from {dlgx.__file__}, not from {src}")


def result_line(rec, metrics: dict[str, tuple[float, str]]) -> str:
    return json.dumps(
        {
            "correct": not rec.errors,
            "attempted": rec.attempted,
            "failed": rec.failed,
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        }
    )


def measure(workload: str, seed: int, seconds: float, trace: bool, sizes: workloads.Sizes = workloads.FULL):
    """Run one workload; return its recorder and the metrics to print."""
    if not trace:
        rec = workloads.run(workload, seed, seconds, sizes)
        measured = rec.metrics()
        return rec, {name: measured[name] for name in E2E}
    tracer = Tracer()
    tracer.install()
    try:
        rec = workloads.run(workload, seed, seconds, sizes, traced=True)
    finally:
        tracer.uninstall()
    tracer.write(workloads.OUT / f"trace-{workload}-{seed}.tsv")
    if tracer.missing:
        print(f"missing boundaries: {', '.join(tracer.missing)}", file=sys.stderr)
    traced = {name: v for name, (v, _) in rec.metrics().items()}
    print(f"end-to-end under tracing: {json.dumps(traced)}", file=sys.stderr)
    return rec, tracer.metrics()


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("psc", "doctors", "diff-sweep"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    load_engine(Path.cwd())
    rec, metrics = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"rounds: {rec.rounds}; samples: {json.dumps(rec.samples)}", file=sys.stderr)
    for error in rec.errors[:10]:
        print(f"wrong: {error}", file=sys.stderr)
    print(result_line(rec, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
