"""Regression digests for chase runs over generated programs.

``golden/generated_runs.sha256`` holds one SHA-256 per (generator seed,
variant) over the run's canonical instance dump, status, fired steps and
resumptions used.  A change that keeps every run's outcome keeps every
digest; a change that alters one names the seed and the variant.

Regenerate the file (only when a run's outcome is meant to change) with

    PYTHONPATH=src python tests/test_generated_runs.py
"""
import hashlib
from pathlib import Path

from dlgx.chase import ichase, oblivious, pchase, pchase_r, run_chase
from dlgx.generator import generate_random_program
from dlgx.model import format_instance

DIGESTS = Path(__file__).parent / "golden" / "generated_runs.sha256"
SEEDS = range(400)
MAX_STEPS = 3000
VARIANTS = (pchase(), pchase_r(1), pchase_r(3), ichase(), ichase(3), oblivious())


def run_digest(program, variant) -> str:
    run = run_chase(program, variant, max_steps=MAX_STEPS)
    text = "\n".join(
        [run.status, str(run.fired_steps), str(run.resumptions_used), format_instance(run.result)]
    )
    return hashlib.sha256(text.encode()).hexdigest()


def compute_digests() -> list[str]:
    """One ``seed variant digest`` line per run, seeds ascending."""
    lines = []
    for seed in SEEDS:
        program = generate_random_program(seed)
        for variant in VARIANTS:
            lines.append(f"{seed} {variant} {run_digest(program, variant)}")
    return lines


def test_generated_runs_match_their_digests():
    expected = DIGESTS.read_text().splitlines()
    actual = compute_digests()
    assert len(actual) == len(expected) == len(SEEDS) * len(VARIANTS)
    changed = [a.rsplit(" ", 1)[0] for a, e in zip(actual, expected) if a != e]
    assert not changed, f"{len(changed)} runs changed, first: {changed[:5]}"


if __name__ == "__main__":
    DIGESTS.write_text("\n".join(compute_digests()) + "\n")
