"""End-to-end command-line runs over temp files."""

from __future__ import annotations

import json
import sys

import pytest

from conftest import (
    ALMA_GOLD_GRAPH,
    ALMA_QUESTION,
    ALMA_TRIPLES,
    DBO,
    FORD_BEAM_1,
    FORD_ONTOLOGY,
    FORD_QUESTION,
    FORD_TRIPLES,
    OBAMA_QUESTION,
    OBAMA_TRIPLES,
    RDFS_SUBCLASS,
    nt,
)
from rellink.cli import _generator_config, build_parser, main


@pytest.fixture()
def ford_files(tmp_path):
    kb = tmp_path / "kb.nt"
    kb.write_text(FORD_TRIPLES + "\n")
    ontology = tmp_path / "onto.tsv"
    ontology.write_text(FORD_ONTOLOGY + "\n")

    question = {
        "question_id": "q1",
        "question": FORD_QUESTION,
        "entities": [
            {
                "mention": "Ford Kansas City Assembly Plant",
                "start": FORD_QUESTION.index("Ford Kansas City"),
                "end": FORD_QUESTION.index("Ford Kansas City") + 31,
                "iri": "http://dbpedia.org/resource/Kansas_City_Assembly",
            },
            {
                "mention": "Ford Y-block engine",
                "start": FORD_QUESTION.index("Ford Y-block"),
                "end": FORD_QUESTION.index("Ford Y-block") + 19,
                "iri": "http://dbpedia.org/resource/Ford_Y-block_engine",
            },
        ],
    }
    questions = tmp_path / "questions.jsonl"
    questions.write_text(json.dumps(question) + "\n")

    beams = tmp_path / "beams.jsonl"
    beams.write_text(
        json.dumps(
            {
                "question_id": "q1",
                "beams": [
                    {"text": FORD_BEAM_1, "score": -0.05},
                    {"text": "[Ford Y-block engine | manufacturer]", "score": -0.2},
                ],
            }
        )
        + "\n"
    )
    return tmp_path, kb, ontology, questions, beams


def run_link(tmp_path, kb, ontology, questions, beams, *extra):
    out = tmp_path / "results.jsonl"
    status = main(
        [
            "link",
            "--kb",
            str(kb),
            "--ontology",
            str(ontology),
            "--generator",
            "fixture",
            "--fixtures",
            str(beams),
            "-o",
            str(out),
            str(questions),
            *extra,
        ]
    )
    return status, out


class TestIngest:
    def test_deep_hierarchy(self, tmp_path, capsys):
        depth = sys.getrecursionlimit() + 100
        kb = tmp_path / "deep.nt"
        kb.write_text(
            "\n".join(
                nt(f"{DBO}C{i}", RDFS_SUBCLASS, f"{DBO}C{i + 1}") for i in range(depth)
            )
            + "\n"
        )
        assert main(["ingest", "--kb", str(kb)]) == 0
        assert f"triples:        {depth}" in capsys.readouterr().out

    def test_counts_printed(self, ford_files, capsys):
        _, kb, ontology, _, _ = ford_files
        status = main(["ingest", "--kb", str(kb), "--ontology", str(ontology)])
        assert status == 0
        output = capsys.readouterr().out
        assert "triples:" in output and "8" in output

    def test_malformed_kb_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.nt"
        bad.write_text("this is not a triple\n")
        assert main(["ingest", "--kb", str(bad)]) == 1
        assert "line 1" in capsys.readouterr().err

    def test_empty_kb(self, tmp_path, capsys):
        empty = tmp_path / "empty.nt"
        empty.write_text("")
        assert main(["ingest", "--kb", str(empty)]) == 0


class TestLink:
    def test_fixture_run(self, ford_files):
        status, out = run_link(*ford_files)
        assert status == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(records) == 1
        assert records[0]["question_id"] == "q1"
        assert records[0]["relations"] == [
            "dbo:owningOrganisation",
            "dbo:manufacturer",
        ]
        assert records[0]["validated"] is True
        assert records[0]["source_rank"] == 1
        assert records[0]["ask_answer"] is None

    def test_deterministic_reruns(self, ford_files, tmp_path):
        _, out1 = run_link(*ford_files)
        first = out1.read_bytes()
        _, out2 = run_link(*ford_files)
        assert first == out2.read_bytes()

    def test_wo_kb_skips_validation(self, ford_files):
        status, out = run_link(*ford_files, "--wo-kb")
        assert status == 0
        record = json.loads(out.read_text())
        assert record["validated"] is False
        # Labels still map to URIs best-effort.
        assert record["relations"] == ["dbo:owningOrganisation", "dbo:manufacturer"]

    def test_empty_question_file(self, ford_files, tmp_path):
        tmp, kb, ontology, _, beams = ford_files
        empty = tmp_path / "none.jsonl"
        empty.write_text("")
        status, out = run_link(tmp, kb, ontology, empty, beams)
        assert status == 0
        assert out.read_text() == ""

    def test_baseline_generator_runs(self, ford_files):
        tmp, kb, ontology, questions, _ = ford_files
        out = tmp / "baseline.jsonl"
        status = main(
            ["link", "--kb", str(kb), "--ontology", str(ontology), "-o", str(out), str(questions)]
        )
        assert status == 0
        record = json.loads(out.read_text())
        assert record["validated"] is True

    def test_budget_failure_is_per_question(self, ford_files):
        tmp, kb, ontology, questions, beams = ford_files
        status, out = run_link(tmp, kb, ontology, questions, beams, "--budget", "5")
        assert status == 0
        record = json.loads(out.read_text())
        assert "error" in record
        assert record["relations"] == []
        assert record["validated"] is False

    def test_wo_kb_budget_failure_is_per_question(self, ford_files):
        tmp, kb, ontology, questions, beams = ford_files
        tokens = len(FORD_QUESTION.split())
        status, out = run_link(
            tmp, kb, ontology, questions, beams, "--wo-kb", "--budget", str(tokens - 1)
        )
        assert status == 0
        record = json.loads(out.read_text())
        assert record["error"] == f"question alone is {tokens} tokens, budget {tokens - 1}"
        assert record["relations"] == []
        assert record["validated"] is False

    def test_ask_question_flow(self, tmp_path):
        kb = tmp_path / "kb.nt"
        kb.write_text(OBAMA_TRIPLES + "\n")
        questions = tmp_path / "q.jsonl"
        questions.write_text(
            json.dumps(
                {
                    "question_id": "ask1",
                    "question": OBAMA_QUESTION,
                    "entities": [
                        {
                            "mention": "Barack Obama",
                            "start": OBAMA_QUESTION.index("Barack"),
                            "end": OBAMA_QUESTION.index("Barack") + 12,
                            "iri": "http://dbpedia.org/resource/Barack_Obama",
                        },
                        {
                            "mention": "Canada",
                            "start": OBAMA_QUESTION.index("Canada"),
                            "end": OBAMA_QUESTION.index("Canada") + 6,
                            "iri": "http://dbpedia.org/resource/Canada",
                        },
                    ],
                }
            )
            + "\n"
        )
        beams = tmp_path / "beams.jsonl"
        beams.write_text(
            json.dumps(
                {
                    "question_id": "ask1",
                    "beams": [
                        {
                            "text": "[Barack Obama | president], [Canada | president]",
                            "score": -0.1,
                        }
                    ],
                }
            )
            + "\n"
        )
        out = tmp_path / "results.jsonl"
        status = main(
            [
                "link",
                "--kb",
                str(kb),
                "--generator",
                "fixture",
                "--fixtures",
                str(beams),
                "-o",
                str(out),
                str(questions),
            ]
        )
        assert status == 0
        record = json.loads(out.read_text())
        assert record["ask_answer"] is False

    def test_remote_flags_ignore_environment(self, monkeypatch):
        monkeypatch.setenv("RELLINK_ENDPOINT", "http://env.example/generate")
        monkeypatch.setenv("RELLINK_TIMEOUT", "99")
        args = build_parser().parse_args(
            ["link", "--kb", "kb.nt", "--endpoint", "http://flag.example/generate", "--timeout", "5", "q.jsonl"]
        )
        config = _generator_config(args)
        assert config.endpoint == "http://flag.example/generate"
        assert config.timeout == 5.0


class TestEval:
    def write_eval_files(self, tmp_path, pred_relations, with_graph=False):
        gold = {
            "question_id": "q1",
            "question": ALMA_QUESTION,
            "relations": ["dbp:almaMater", "dbo:state"],
        }
        if with_graph:
            gold["graph"] = ALMA_GOLD_GRAPH
        gold_path = tmp_path / "gold.jsonl"
        gold_path.write_text(json.dumps(gold) + "\n")
        pred_path = tmp_path / "pred.jsonl"
        pred_path.write_text(
            json.dumps({"question_id": "q1", "relations": pred_relations}) + "\n"
        )
        return gold_path, pred_path

    def test_strict_perfect(self, tmp_path, capsys):
        gold, pred = self.write_eval_files(tmp_path, ["dbp:almaMater", "dbo:state"])
        status = main(["eval", "--gold", str(gold), "--pred", str(pred)])
        assert status == 0
        assert "1.000" in capsys.readouterr().out

    def test_strict_half(self, tmp_path, capsys):
        gold, pred = self.write_eval_files(tmp_path, ["dbo:almaMater", "dbo:state"])
        main(["eval", "--gold", str(gold), "--pred", str(pred)])
        assert "0.500" in capsys.readouterr().out

    def test_label_level(self, tmp_path, capsys):
        gold, pred = self.write_eval_files(tmp_path, ["dbo:almaMater", "dbp:state"])
        main(["eval", "--gold", str(gold), "--pred", str(pred), "--eval-mode", "label-level"])
        assert "1.000" in capsys.readouterr().out

    def test_relaxed_uses_kb(self, tmp_path, capsys):
        kb = tmp_path / "kb.nt"
        kb.write_text(ALMA_TRIPLES + "\n")
        gold, pred = self.write_eval_files(
            tmp_path, ["dbo:almaMater", "dbo:state"], with_graph=True
        )
        status = main(
            [
                "eval",
                "--gold",
                str(gold),
                "--pred",
                str(pred),
                "--eval-mode",
                "relaxed",
                "--kb",
                str(kb),
            ]
        )
        assert status == 0
        assert "1.000" in capsys.readouterr().out

    def test_relaxed_without_kb_fails(self, tmp_path, capsys):
        gold, pred = self.write_eval_files(tmp_path, ["dbo:state"], with_graph=True)
        status = main(["eval", "--gold", str(gold), "--pred", str(pred), "--eval-mode", "relaxed"])
        assert status == 2

    def test_id_mismatch_exit_code(self, tmp_path, capsys):
        gold, _ = self.write_eval_files(tmp_path, ["dbo:state"])
        other = tmp_path / "other.jsonl"
        other.write_text(json.dumps({"question_id": "zz", "relations": []}) + "\n")
        status = main(["eval", "--gold", str(gold), "--pred", str(other)])
        assert status == 2
        err = capsys.readouterr().err
        assert "q1" in err and "zz" in err

    def test_json_report(self, tmp_path, capsys):
        gold, pred = self.write_eval_files(tmp_path, ["dbp:almaMater", "dbo:state"])
        main(["eval", "--gold", str(gold), "--pred", str(pred), "--json"])
        data = json.loads(capsys.readouterr().out)
        assert data["f1"] == 1.0
