import csv
import json
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from dlgx.cli import main

SPLIT_SOURCES = """\
i1(X, Y) :- e1(X).
i2(Z, X) :- e2(X).
i3(X, Y, Z) :- i1(X, Y), i2(Z, X).
e1(a).
e2(a).
"""

TWO_PATH = """\
n(a).
e(X, Y) :- n(X).
n(Y) :- e(X, Y).
"""

BLOCKED_PAIR = """\
p(a).
q(a, b).
q(X, Z) :- p(X).
"""

# protected program with recursive existentials; an anchored three-link
# chain query over it is false under plain ichase (see test_query.py)
DEEP_CHAIN = """\
src1(e).
src1(a).
mid2(X, Y) :- src1(X).
mid2(Y, Z) :- mid2(X, Y).
"""

PSC_CHAIN = """\
person(p1).
company(c1).
company(c2).
company(c3).
controls(p1, c1).
controls(c1, c2).
controls(c2, c3).
ctrl(X, Y) :- controls(X, Y).
ctrl(X, Z) :- ctrl(X, Y), controls(Y, Z).
psc(P, C) :- ctrl(P, C), person(P), company(C).
filing(P, N, C) :- psc(P, C).
filing(P, N, D) :- filing(P, N, C), controls(C, D).
"""

# golden traces pin trigger order and every record; the ichase trace was
# written before trigger enumeration was compiled into join plans
GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def split_sources(tmp_path):
    path = tmp_path / "split.dlgx"
    path.write_text(SPLIT_SOURCES)
    return str(path)


@pytest.fixture
def two_path(tmp_path):
    path = tmp_path / "two_path.dlgx"
    path.write_text(TWO_PATH)
    return str(path)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def load_schema(name):
    return json.loads(
        resources.files("dlgx.schemas").joinpath(name).read_text()
    )


class TestClassify:
    def test_text_report(self, split_sources, capsys):
        assert main(["classify", "--program", split_sources]) == 0
        out = capsys.readouterr().out
        assert "shy: true" in out
        assert "warded: false" in out
        assert "protected: false" in out
        assert "W1" in out
        assert "affected: i1[2], i2[1], i3[2], i3[3]" in out

    def test_json_report_matches_schema(self, split_sources, capsys):
        assert main(["classify", "--program", split_sources, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        jsonschema.validate(payload, load_schema("analysis_report.schema.json"))
        assert payload["verdicts"]["shy"] is True
        assert payload["verdicts"]["warded"] is False

    def test_json_output_is_byte_stable(self, split_sources, capsys):
        main(["classify", "--program", split_sources, "--format", "json"])
        first = capsys.readouterr().out
        main(["classify", "--program", split_sources, "--format", "json"])
        second = capsys.readouterr().out
        assert first == second

    def test_require_met_and_unmet(self, split_sources):
        assert main(["classify", "--program", split_sources, "--require", "shy"]) == 0
        assert main(["classify", "--program", split_sources, "--require", "warded"]) == 3
        assert main(["classify", "--program", split_sources, "--require", "protected"]) == 3

    def test_parse_error_exits_2(self, tmp_path, capsys):
        bad = write(tmp_path, "bad.dlgx", "p(a) :-\n")
        assert main(["classify", "--program", bad]) == 2
        assert "bad.dlgx" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["classify", "--program", str(tmp_path / "nope.dlgx")]) == 2


class TestChase:
    def test_dump_is_sorted_and_deterministic(self, two_path, capsys):
        assert main(["chase", "--program", two_path, "--variant", "ichase"]) == 0
        first = capsys.readouterr().out
        main(["chase", "--program", two_path, "--variant", "ichase"])
        second = capsys.readouterr().out
        assert first == second
        lines = first.strip().splitlines()
        assert lines == sorted(lines)
        assert "e(a, _:e0n1)." in lines

    def test_nontermination_refusal_exits_4(self, two_path, capsys):
        assert main(["chase", "--program", two_path, "--variant", "oblivious"]) == 4
        err = capsys.readouterr().err
        assert "--max-steps" in err

    def test_bounded_oblivious_notes_truncation(self, two_path, capsys):
        rc = main(
            ["chase", "--program", two_path, "--variant", "oblivious", "--max-steps", "4"]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert "step-limit-reached" in captured.err
        assert len(captured.out.strip().splitlines()) == 5  # n(a) + 4 fired

    def test_trace_file_is_json_lines(self, two_path, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        rc = main(
            [
                "chase",
                "--program",
                two_path,
                "--variant",
                "pchase-r",
                "--resumptions",
                "1",
                "--trace",
                str(trace_path),
            ]
        )
        assert rc == 0
        capsys.readouterr()
        schema = load_schema("trace_record.schema.json")
        records = [json.loads(line) for line in trace_path.read_text().splitlines()]
        assert records
        for record in records:
            jsonschema.validate(record, schema)
        assert any(r["fired"] for r in records)

    @pytest.mark.parametrize(
        "variant, golden",
        [
            (["pchase-r", "--resumptions", "2"], "psc_chain.pchase-r-2.jsonl"),
            (["ichase"], "psc_chain.ichase.jsonl"),
        ],
    )
    def test_trace_matches_golden_byte_for_byte(self, tmp_path, capsys, variant, golden):
        trace_path = tmp_path / "trace.jsonl"
        program = str(GOLDEN / "psc_chain.dlgx")
        argv = ["chase", "--program", program, "--variant", *variant, "--trace", str(trace_path)]
        assert main(argv) == 0
        capsys.readouterr()
        assert trace_path.read_bytes() == (GOLDEN / golden).read_bytes()

    def test_facts_from_csv(self, tmp_path, capsys):
        program = write(tmp_path, "prog.dlgx", "t(X, Y) :- e(X, Y).")
        facts = tmp_path / "e.csv"
        facts.write_text("a,b\nb,c\n")
        rc = main(
            [
                "chase",
                "--program",
                program,
                "--facts",
                f"e={facts}",
                "--variant",
                "pchase",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "t(a, b)." in out and "t(b, c)." in out

    def test_facts_for_unknown_predicate_exit_2(self, tmp_path, capsys):
        program = write(tmp_path, "prog.dlgx", "t(X, Y) :- e(X, Y).")
        facts = tmp_path / "zzz.csv"
        facts.write_text("a,b\n")
        rc = main(
            ["chase", "--program", program, "--facts", f"zzz={facts}", "--variant", "pchase"]
        )
        assert rc == 2

    def test_negative_step_budget_exits_2(self, two_path, capsys):
        rc = main(["chase", "--program", two_path, "--variant", "pchase", "--max-steps", "-3"])
        assert rc == 2
        assert "error: the step budget must be >= 0" in capsys.readouterr().err


class TestQuery:
    def test_true_query_exits_0_with_witness(self, tmp_path, two_path, capsys):
        query = write(tmp_path, "q.query", "?- e(X, Y).")
        rc = main(
            [
                "query",
                "--program",
                two_path,
                "--query",
                query,
                "--variant",
                "ichase",
                "--format",
                "json",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        jsonschema.validate(payload, load_schema("answer.schema.json"))
        assert payload["verdict"] is True
        assert payload["witness"]["X"] == "a"

    def test_false_query_exits_1(self, tmp_path, two_path):
        query = write(tmp_path, "q.query", "?- e(X, Y), e(Y, Z).")
        rc = main(["query", "--program", two_path, "--query", query, "--variant", "pchase"])
        assert rc == 1

    def test_resumption_flips_the_answer(self, tmp_path, two_path):
        query = write(tmp_path, "q.query", "?- e(X, Y), e(Y, Z).")
        rc = main(
            [
                "query",
                "--program",
                two_path,
                "--query",
                query,
                "--variant",
                "pchase-r",
                "--resumptions",
                "1",
            ]
        )
        assert rc == 0

    def test_pchase_r_resumes_once_per_query_atom_by_default(self, tmp_path, capsys):
        program = write(tmp_path, "chain.dlgx", DEEP_CHAIN)
        query = write(tmp_path, "q.query", "?- mid2(Q1, Q2), mid2(Q3, Q1), mid2(e, Q3).")
        for variant in (["pchase-r"], ["ichase", "--resumptions", "3"]):
            argv = ["query", "--program", program, "--query", query, "--format", "json"]
            assert main(argv + ["--variant", *variant]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["verdict"] is True
            assert payload["variant"] == f"{variant[0]}(3)"

    def test_ichase_resumes_once_per_query_atom_on_a_harmful_join(self, tmp_path, capsys):
        # psc on one chain; the query joins two filings on their null N
        program = write(tmp_path, "psc.dlgx", PSC_CHAIN)
        query = write(tmp_path, "q.query", "?- filing(P, N, c1), filing(P, N, c3).")
        argv = ["query", "--program", program, "--query", query, "--format", "json"]
        assert main(argv + ["--variant", "ichase"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] is True
        assert payload["variant"] == "ichase(2)"
        # plain ichase is still there on request, and it warns
        assert main(argv + ["--variant", "ichase", "--resumptions", "0"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["variant"] == "ichase"
        assert "dlgx diff" in payload["warnings"][0]
        # no harmful join, no resumption
        plain = write(tmp_path, "plain.query", "?- filing(P, N, c3).")
        assert main(["query", "--program", program, "--query", plain, "--format", "json", "--variant", "ichase"]) == 0
        assert json.loads(capsys.readouterr().out)["variant"] == "ichase"

    def test_certain_enumerates_null_free_rows(self, tmp_path, capsys):
        program = write(tmp_path, "prog.dlgx", "e(a, b).\ne(b, c).\nt(X, Y) :- e(X, Y).")
        query = write(tmp_path, "q.query", "?- t(X, Y).")
        rc = main(
            [
                "query",
                "--program",
                program,
                "--query",
                query,
                "--variant",
                "pchase",
                "--certain",
                "--format",
                "json",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tuples"] == [["a", "b"], ["b", "c"]]

    def test_certain_tuples_drop_rows_with_nulls(self, tmp_path, two_path, capsys):
        query = write(tmp_path, "q.query", "?- e(X, Y).")
        argv = ["query", "--program", two_path, "--query", query, "--variant", "ichase"]
        assert main(argv + ["--certain", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] is False  # rows exist, all null-bearing in Y
        assert payload["tuples"] == []

    def test_certain_verdict_is_the_certain_rows(self, tmp_path, two_path, capsys):
        # the query holds, but no row is null-free: verdict and exit code agree
        query = write(tmp_path, "q.query", "?- e(X, Y).")
        argv = ["query", "--program", two_path, "--query", query, "--variant", "ichase"]
        assert main(argv + ["--certain"]) == 1
        out = capsys.readouterr().out
        assert "verdict: false\n" in out and "row:" not in out

    def test_certain_keeps_the_query_files_outputs(self, tmp_path, capsys):
        # X = a is certain though the dropped Y binds to a null
        program = write(tmp_path, "prog.dlgx", "p(a).\nq(X, N) :- p(X).")
        query = write(tmp_path, "q.query", "?- q(X, Y).\nX")
        rc = main(["query", "--program", program, "--query", query, "--certain"])
        assert "row: a\n" in capsys.readouterr().out
        assert rc == 0

    def test_answer_set_query_chases_every_resumption(self, tmp_path, capsys):
        # ichase resumes once per query atom here; e comes from a later epoch
        # than a, so a run that stopped at the first epoch with a row lost it
        program = write(tmp_path, "chain.dlgx", DEEP_CHAIN)
        query = write(tmp_path, "q.query", "?- mid2(Q1, Q2), mid2(Q3, Q1), mid2(X, Q3).\nX")
        rc = main(["query", "--program", program, "--query", query, "--variant", "ichase"])
        out = capsys.readouterr().out
        assert "row: a\n" in out and "row: e\n" in out
        assert rc == 0

    def test_certain_without_variables_exits_by_verdict(self, tmp_path, capsys):
        program = write(tmp_path, "prog.dlgx", "p(a).")
        for text, verdict, code in (("?- p(a).", "true", 0), ("?- p(b).", "false", 1)):
            query = write(tmp_path, "q.query", text)
            rc = main(["query", "--program", program, "--query", query, "--certain"])
            assert f"verdict: {verdict}" in capsys.readouterr().out
            assert rc == code

    def test_byte_order_marks_are_skipped(self, tmp_path, capsys):
        paths = []
        for name, text in (("prog.dlgx", "r(X, Y) :- e(X, Y)."), ("q.query", "?- r(a, b)."), ("e.csv", "a,b\n")):
            (tmp_path / name).write_text("\ufeff" + text, encoding="utf-8")
            paths.append(str(tmp_path / name))
        program, query, facts = paths
        rc = main(["query", "--program", program, "--query", query, "--facts", f"e={facts}"])
        assert "verdict: true" in capsys.readouterr().out
        assert rc == 0

    def test_unknown_predicate_warns_false(self, tmp_path, two_path, capsys):
        query = write(tmp_path, "q.query", "?- ghost(X).")
        rc = main(["query", "--program", two_path, "--query", query])
        assert rc == 1
        out = capsys.readouterr().out
        assert "verdict: false" in out
        assert "ghost" in out and "warning" in out

    def test_unknown_predicate_warns_once_with_its_position(self, tmp_path, two_path, capsys):
        query = write(tmp_path, "q.query", "?- r(X).")
        argv = ["query", "--program", two_path, "--query", query]
        assert main(argv) == 1
        warnings = [line for line in capsys.readouterr().out.splitlines() if line.startswith("warning:")]
        assert len(warnings) == 1 and "q.query:1:4" in warnings[0]
        assert main(argv + ["--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["warnings"]) == 1 and "q.query:1:4" in payload["warnings"][0]

    def test_negative_step_budget_exits_2(self, tmp_path, two_path, capsys):
        query = write(tmp_path, "q.query", "?- e(X, Y).")
        rc = main(["query", "--program", two_path, "--query", query, "--max-steps", "-3"])
        assert rc == 2
        assert "error: the step budget must be >= 0" in capsys.readouterr().err


class TestDiff:
    def test_agreement_exits_0(self, tmp_path, two_path, capsys):
        query = write(tmp_path, "q.query", "?- e(X, Y), e(Y, Z).")
        rc = main(["diff", "--program", two_path, "--query", query, "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        jsonschema.validate(payload, load_schema("diff_report.schema.json"))
        assert payload["status"] == "agreement"

    def test_unprotected_program_notes_and_exits_0(self, tmp_path, capsys):
        program = write(
            tmp_path,
            "warded_only.dlgx",
            "i1(X, Y) :- e1(X).\ni2(X, Z) :- i1(X, Y), i1(Z, Y).\ne1(a).\n",
        )
        query = write(tmp_path, "q.query", "?- i2(X, Z).")
        rc = main(["diff", "--program", program, "--query", query])
        assert rc == 0
        out = capsys.readouterr().out
        assert "not protected" in out

    def test_disagreement_exits_5_with_evidence(self, tmp_path, capsys, monkeypatch):
        # a faulty renaming blocker that blocks every trigger: ichase stays
        # at the input facts, so it contradicts pchase-r on the chain query
        monkeypatch.setattr(
            "dlgx.chase.exists_isomorphic_embedding", lambda fact_set, target: True
        )
        program = write(tmp_path, "chain.dlgx", DEEP_CHAIN)
        query = write(tmp_path, "q.query", "?- mid2(Q1, Q2), mid2(Q3, Q1), mid2(e, Q3).")
        rc = main(["diff", "--program", program, "--query", query])
        assert rc == 5
        captured = capsys.readouterr()
        assert "violated" in captured.out
        # the witnessing instances land on stderr for inspection
        assert "pchase-r" in captured.err and "ichase" in captured.err
        assert "mid2(" in captured.err

    def test_negative_step_budget_exits_2(self, tmp_path, two_path, capsys):
        query = write(tmp_path, "q.query", "?- e(X, Y).")
        rc = main(["diff", "--program", two_path, "--query", query, "--max-steps", "-3"])
        assert rc == 2
        assert "error: the step budget must be >= 0" in capsys.readouterr().err

    def test_unknown_predicate_warns_on_stderr(self, tmp_path, two_path, capsys):
        query = write(tmp_path, "q.query", "?- r(X).")
        for fmt in ("text", "json"):
            argv = ["diff", "--program", two_path, "--query", query, "--max-steps", "100"]
            assert main(argv + ["--format", fmt]) == 0
            captured = capsys.readouterr()
            warnings = [line for line in captured.err.splitlines() if line.startswith("warning:")]
            assert len(warnings) == 1 and "q.query:1:4" in warnings[0]
            assert "warning" not in captured.out


class TestBench:
    def test_bench_text_and_csv(self, capsys):
        rc = main(
            [
                "bench",
                "--scenario",
                "psc",
                "--persons",
                "20",
                "--companies",
                "20",
                "--repetitions",
                "1",
            ]
        )
        assert rc == 0
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert rows[0] == ["scenario", "scale", "variant", "ms", "facts"]
        assert len(rows) == 3
        assert [row[:3] for row in rows[1:]] == [["psc", "20", "pchase-r(1)"], ["psc", "20", "ichase"]]

    def test_bench_json_matches_schema(self, capsys):
        rc = main(
            [
                "bench",
                "--scenario",
                "doctors-like",
                "--patients",
                "15",
                "--doctors",
                "3",
                "--repetitions",
                "1",
                "--variants",
                "ichase",
                "--format",
                "json",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        jsonschema.validate(payload, load_schema("bench_result.schema.json"))
        assert len(payload) == 1
        assert payload[0]["scenario"] == "doctors-like"
        assert payload[0]["scale"] == 15
        assert payload[0]["variant"] == "ichase"
        assert payload[0]["status"] == "fixpoint"

    def test_negative_step_budget_exits_2(self, capsys):
        rc = main(["bench", "--persons", "5", "--companies", "5", "--repetitions", "1", "--max-steps", "-1"])
        assert rc == 2
        assert "error: the step budget must be >= 0" in capsys.readouterr().err


class TestGenerate:
    def test_generate_writes_parseable_scenario(self, tmp_path, capsys):
        out_dir = tmp_path / "scenario"
        rc = main(
            [
                "generate",
                "--scenario",
                "psc",
                "--persons",
                "10",
                "--companies",
                "10",
                "--out",
                str(out_dir),
            ]
        )
        assert rc == 0
        listing = capsys.readouterr().out
        assert "psc.dlgx" in listing
        program_path = out_dir / "psc.dlgx"
        assert program_path.exists()
        facts_args = []
        for csv_file in sorted(out_dir.glob("*.csv")):
            facts_args += ["--facts", f"{csv_file.stem}={csv_file}"]
        rc = main(
            ["query", "--program", str(program_path), *facts_args]
            + ["--query", str(out_dir / "q1.query"), "--variant", "ichase"]
        )
        assert rc == 0

    def test_generated_query_keeps_its_output_variables(self, tmp_path, capsys):
        out_dir = tmp_path / "scenario"
        argv = ["generate", "--scenario", "psc", "--persons", "10", "--companies", "10"]
        assert main(argv + ["--out", str(out_dir)]) == 0
        capsys.readouterr()
        facts_args = []
        for csv_file in sorted(out_dir.glob("*.csv")):
            facts_args += ["--facts", f"{csv_file.stem}={csv_file}"]
        rc = main(
            ["query", "--program", str(out_dir / "psc.dlgx"), *facts_args]
            + ["--query", str(out_dir / "q1.query"), "--format", "json"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tuples"]
        assert all(len(row) == 2 for row in payload["tuples"])

    def test_generate_is_deterministic(self, tmp_path):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            rc = main(
                [
                    "generate",
                    "--scenario",
                    "doctors-like",
                    "--patients",
                    "6",
                    "--doctors",
                    "2",
                    "--seed",
                    "3",
                    "--out",
                    str(d),
                ]
            )
            assert rc == 0
        files_a = sorted(p.name for p in dirs[0].iterdir())
        files_b = sorted(p.name for p in dirs[1].iterdir())
        assert files_a == files_b
        for name in files_a:
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "dlgx.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "classify" in proc.stdout


def test_unknown_subcommand_exits_2():
    proc = subprocess.run(
        [sys.executable, "-m", "dlgx.cli", "frobnicate"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
