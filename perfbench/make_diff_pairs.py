"""Regenerate ``data/diff_pairs.jsonl``: the first 200 protected pairs of the
sequence that acceptance criterion 4 sweeps.

Program seeds run 0, 1, 2, ...; a seed is kept when ``analyze`` calls its
program protected, and its query comes from ``generate_random_query`` with
seed ``(seed + 1) * 31 + 7``.  Each pair is stored as the text the
benchmark hands to the parser, so the benchmark's input stays fixed when
the generator changes.

Run from the repository root:  python3 perfbench/make_diff_pairs.py
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

PAIRS = 200


def main() -> None:
    sys.path.insert(0, str(Path("src").resolve()))
    from dlgx.analysis import analyze
    from dlgx.generator import generate_random_program, generate_random_query
    from dlgx.parser import parse_program, parse_query, print_program, print_query

    lines = []
    seed = 0
    while len(lines) < PAIRS:
        program = generate_random_program(seed)
        if analyze(program).verdicts.protected:
            query = generate_random_query(program, (seed + 1) * 31 + 7)
            program_text, query_text = print_program(program), print_query(query)
            if parse_program(program_text) != program or parse_query(query_text) != query:
                raise SystemExit(f"program seed {seed} does not survive a text round trip")
            lines.append(json.dumps({"seed": seed, "program": program_text, "query": query_text}))
        seed += 1
    out = Path(__file__).parent / "data" / "diff_pairs.jsonl"
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(lines)} pairs (program seeds 0..{seed - 1}) to {out}")


if __name__ == "__main__":
    main()
