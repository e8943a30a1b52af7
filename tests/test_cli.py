"""End-to-end command-line runs over temp files."""

from __future__ import annotations

import gc
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import threading
import warnings
from collections import Counter
from pathlib import Path

import pytest

from conftest import (
    ALMA_GOLD_GRAPH,
    ALMA_QUESTION,
    ALMA_TRIPLES,
    DBO,
    DBP,
    DBR,
    FORD_BEAM_1,
    FORD_ONTOLOGY,
    FORD_QUESTION,
    FORD_TRIPLES,
    OBAMA_QUESTION,
    OBAMA_TRIPLES,
    PQ,
    PS,
    RDFS_SUBCLASS,
    WD,
    WDS,
    WDT,
    P,
    nt,
)
from rellink import knowledge_integration
from rellink.cli import _generator_config, build_parser, main
from rellink.kb_store import KbStore
from rellink.terms import WIKIDATA


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

    def test_long_beam_keeps_the_questions_after_it(self, tmp_path):
        # A 1,000-group beam, every prefix of which holds, is followed by an
        # ordinary question; both are linked and written.
        kb = tmp_path / "kb.nt"
        kb.write_text(
            nt(DBR + "Ada", DBO + "owner", DBR + "Hub") + "\n"
            + nt(DBR + "Hub", DBO + "founder", DBR + "Ada") + "\n"
        )
        question = "What did Ada own?"
        entities = [{"mention": "Ada", "start": 9, "end": 12, "iri": DBR + "Ada"}]
        long_text = ", ".join(["[Ada | owner], [Ada | founder]"] * 500)
        questions = tmp_path / "q.jsonl"
        beams = tmp_path / "beams.jsonl"
        questions.write_text("".join(
            json.dumps({"question_id": qid, "question": question, "entities": entities}) + "\n"
            for qid in ("long", "short")
        ))
        beams.write_text("".join(
            json.dumps({"question_id": qid, "beams": [{"text": text, "score": -0.1}]}) + "\n"
            for qid, text in (("long", long_text), ("short", "[Ada | owner]"))
        ))
        out = tmp_path / "results.jsonl"
        argv = ["link", "--kb", str(kb), "--generator", "fixture", "--fixtures", str(beams),
                "-o", str(out), str(questions)]
        assert main(argv) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert [(r["question_id"], r["relations"], r["validated"]) for r in records] == [
            ("long", ["dbo:owner", "dbo:founder"], True),
            ("short", ["dbo:owner"], True),
        ]

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

    def test_unopenable_output_closes_the_questions_file(self, ford_files, capsys):
        tmp, kb, ontology, questions, beams = ford_files
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            status, _ = run_link(tmp / "missing", kb, ontology, questions, beams)
            gc.collect()
        assert status == 1
        assert "missing" in capsys.readouterr().err
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_dash_streams_stay_open(self, ford_files, monkeypatch, capsys):
        tmp, kb, ontology, questions, beams = ford_files
        monkeypatch.setattr(sys, "stdin", io.StringIO(questions.read_text()))
        status, _ = run_link(tmp, kb, ontology, "-", beams, "-o", "-")
        assert status == 0
        assert not sys.stdin.closed and not sys.stdout.closed
        assert json.loads(capsys.readouterr().out)["question_id"] == "q1"

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--budget", "0"], "--budget must be >= 1"),
            (["--budget", "-5"], "--budget must be >= 1"),
            (["--timeout", "0"], "timeout must be > 0"),
            (["--timeout", "nan"], "timeout must be > 0"),
            (
                ["--timeout", "-1", "--generator", "remote", "--endpoint", "http://127.0.0.1:9/"],
                "timeout must be > 0",
            ),
        ],
        ids=["budget-0", "budget-negative", "timeout-0", "timeout-nan", "timeout-remote"],
    )
    def test_bad_run_settings_fail_before_output(self, ford_files, capsys, flags, message):
        # Each would otherwise fail every question alike and still exit 0.
        status, out = run_link(*ford_files, *flags)
        assert status == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

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

    def test_ask_beams_limit(self, tmp_path, capsys):
        # Only the second beam holds in the KB.
        kb = tmp_path / "kb.nt"
        held = nt(DBR + "Barack_Obama", DBO + "president", DBR + "Canada")
        kb.write_text(OBAMA_TRIPLES + "\n" + held + "\n")
        entities = [
            {"mention": mention, "start": OBAMA_QUESTION.index(mention),
             "end": OBAMA_QUESTION.index(mention) + len(mention), "iri": DBR + iri}
            for mention, iri in (("Barack Obama", "Barack_Obama"), ("Canada", "Canada"))
        ]
        questions = tmp_path / "q.jsonl"
        questions.write_text(json.dumps(
            {"question_id": "ask1", "question": OBAMA_QUESTION, "entities": entities}) + "\n")
        beams = tmp_path / "beams.jsonl"
        beams.write_text(json.dumps({"question_id": "ask1", "beams": [
            {"text": "[Barack Obama | birth place], [Canada | birth place]", "score": -0.1},
            {"text": "[Barack Obama | president], [Canada | president]", "score": -0.2},
        ]}) + "\n")
        out = tmp_path / "results.jsonl"
        argv = ["link", "--kb", str(kb), "--generator", "fixture", "--fixtures", str(beams),
                "-o", str(out), str(questions), "--ask-beams"]
        for limit, answer in (("10", True), ("1", False)):
            assert main(argv + [limit]) == 0
            assert json.loads(out.read_text())["ask_answer"] is answer
        out.unlink()
        assert main(argv + ["-1"]) == 1
        assert capsys.readouterr().err == "error: ask_limit must not be negative, got -1\n"
        assert not out.exists()

    def test_bad_ask_beams_fail_before_the_kb_loads(self, tmp_path, capsys):
        # A --kb that does not exist shows the flag is checked first.
        questions = tmp_path / "q.jsonl"
        questions.write_text("")
        out = tmp_path / "results.jsonl"
        argv = ["link", "--kb", str(tmp_path / "missing.nt"), "--ask-beams", "-1",
                "-o", str(out), str(questions)]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: ask_limit must not be negative, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "other, ontology",
        [
            (nt(DBR + "A", "http://example.org/rel/", DBR + "C"), ""),
            (nt(DBR + "A", DBO + "child", DBR + "C"), f"label\t{DBO}child\t "),
        ],
        ids=["blank-local-name", "blank-ontology-label"],
    )
    def test_empty_relation_label(self, tmp_path, capsys, other, ontology):
        kb = tmp_path / "kb.nt"
        kb.write_text(nt(DBR + "A", DBO + "spouse", DBR + "B") + "\n" + other + "\n")
        onto = tmp_path / "onto.tsv"
        onto.write_text(ontology + "\n")
        question = "Who is the spouse of A?"
        entities = [{"mention": "A", "start": 21, "end": 22, "iri": DBR + "A"}]
        questions = tmp_path / "q.jsonl"
        questions.write_text("".join(
            json.dumps({"question_id": qid, "question": question, "entities": entities}) + "\n"
            for qid in ("q1", "q2")
        ))
        out = tmp_path / "results.jsonl"
        status = main(
            ["link", "--kb", str(kb), "--ontology", str(onto), "-o", str(out), str(questions)]
        )
        if ontology:
            # A blank label row is a load error that names its line.
            assert status == 1
            assert capsys.readouterr().err == "error: ontology line 1: label rows take a non-empty label\n"
            return
        assert status == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["question_id"] for r in records] == ["q1", "q2"]
        assert all(r["relations"] == ["dbo:spouse"] and r["validated"] for r in records)

    def test_remote_flags_ignore_environment(self, monkeypatch):
        monkeypatch.setenv("RELLINK_ENDPOINT", "http://env.example/generate")
        monkeypatch.setenv("RELLINK_TIMEOUT", "99")
        args = build_parser().parse_args(
            ["link", "--kb", "kb.nt", "--endpoint", "http://flag.example/generate", "--timeout", "5", "q.jsonl"]
        )
        config = _generator_config(args)
        assert config.endpoint == "http://flag.example/generate"
        assert config.timeout == 5.0


class TestFixtureReplayRanksNothing:
    """Fixture replay never reads the encoder input, so no relation is
    ranked, yet each over-budget question keeps its error record."""

    SHORT = "What company built the Ford Y-block engine?"
    LONG = "Which " + "very " * 26 + "old company built the Ford Y-block engine?"

    @pytest.fixture()
    def calls(self, monkeypatch):
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            knowledge_integration, "rank_candidate_relations",
            counted("rank", knowledge_integration.rank_candidate_relations),
        )
        monkeypatch.setattr(KbStore, "relations_of", counted("relations_of", KbStore.relations_of))
        return calls

    def _inputs(self, ford_files):
        tmp, kb, ontology, questions, beams = ford_files
        records = [json.loads(questions.read_text())]
        for qid, text in (("q2", self.SHORT), ("q3", self.LONG)):
            start = text.index("Ford Y-block engine")
            records.append({"question_id": qid, "question": text, "entities": [
                {"mention": "Ford Y-block engine", "start": start, "end": start + 19,
                 "iri": DBR + "Ford_Y-block_engine"}]})
        questions.write_text("".join(json.dumps(r) + "\n" for r in records))
        beam = json.loads(beams.read_text())
        beams.write_text("".join(
            json.dumps({**beam, "question_id": r["question_id"]}) + "\n" for r in records
        ))
        return tmp, kb, ontology, questions, beams

    def test_link_ranks_nothing(self, ford_files, calls):
        status, out = run_link(*self._inputs(ford_files))
        assert status == 0
        assert out.read_text() == (
            '{"question_id": "q1", "relations": ["dbo:owningOrganisation", "dbo:manufacturer"], '
            '"validated": true, "source_rank": 1, "ask_answer": null}\n'
            '{"question_id": "q2", "relations": ["dbo:manufacturer"], "validated": true, '
            '"source_rank": 2, "ask_answer": null}\n'
            '{"question_id": "q3", "relations": ["dbo:manufacturer"], "validated": true, '
            '"source_rank": 2, "ask_answer": null}\n'
        )
        assert calls == {}
        # The same inputs through the baseline rank, so the counters count.
        tmp, kb, ontology, questions, _ = ford_files
        argv = ["link", "--kb", str(kb), "--ontology", str(ontology), "-o", str(tmp / "b.jsonl")]
        assert main(argv + [str(questions)]) == 0
        assert calls == {"rank": 4, "relations_of": 4}

    def test_over_budget_records_are_kept(self, ford_files, calls):
        # At 30 tokens q1 fits alone (21) but not with its two bracket groups
        # (37), q2 fits, and q3 is too long by itself (34).
        status, out = run_link(*self._inputs(ford_files), "--budget", "30")
        assert status == 0
        assert out.read_text() == (
            '{"question_id": "q1", "relations": [], "validated": false, "source_rank": 0, '
            '"ask_answer": null, "error": "minimal rendering is 37 tokens, budget 30"}\n'
            '{"question_id": "q2", "relations": ["dbo:manufacturer"], "validated": true, '
            '"source_rank": 2, "ask_answer": null}\n'
            '{"question_id": "q3", "relations": [], "validated": false, "source_rank": 0, '
            '"ask_answer": null, "error": "question alone is 34 tokens, budget 30"}\n'
        )
        assert calls == {}


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

    def test_gold_from_stdin_leaves_it_open(self, tmp_path, monkeypatch, capsys):
        gold, pred = self.write_eval_files(tmp_path, ["dbp:almaMater", "dbo:state"])
        monkeypatch.setattr(sys, "stdin", io.StringIO(gold.read_text()))
        assert main(["eval", "--gold", "-", "--pred", str(pred)]) == 0
        assert not sys.stdin.closed
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

    def write_relaxed_files(self, tmp_path, *records):
        """A KB plus gold and predictions for (gold record, predicted relations) pairs."""
        kb = tmp_path / "kb.nt"
        kb.write_text(ALMA_TRIPLES + "\n")
        gold = tmp_path / "gold.jsonl"
        gold.write_text("".join(json.dumps(g) + "\n" for g, _ in records))
        pred = tmp_path / "pred.jsonl"
        pred.write_text(
            "".join(
                json.dumps({"question_id": g["question_id"], "relations": p}) + "\n"
                for g, p in records
            )
        )
        return ["eval", "--gold", str(gold), "--pred", str(pred), "--kb", str(kb),
                "--eval-mode", "relaxed", "--json"]

    def test_relaxed_missing_graph_scores_strictly(self, tmp_path, capsys, caplog):
        gold = {"question_id": "q1", "question": ALMA_QUESTION,
                "relations": ["dbp:almaMater", "dbo:state"]}
        argv = self.write_relaxed_files(tmp_path, (gold, ["dbo:almaMater", "dbo:state"]))
        with caplog.at_level("WARNING"):
            assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["f1"] == 0.5
        assert "gold q1 has no graph; scoring strictly" in caplog.text

    @pytest.mark.parametrize("overlap, f1", [(None, 0.5), ("equal", 0.5), ("any", 1.0)])
    def test_relaxed_overlap_from_environment(self, tmp_path, capsys, monkeypatch, overlap, f1):
        # The dbo: almaMater variant also reaches a university in another
        # state: its answers overlap the gold graph's but are not equal.
        kb = tmp_path / "kb.nt"
        argv = self.write_relaxed_files(
            tmp_path,
            ({"question_id": "q1", "question": "q", "relations": ["dbp:almaMater", "dbo:state"],
              "graph": ALMA_GOLD_GRAPH}, ["dbo:almaMater", "dbo:state"]),
        )
        kb.write_text(
            ALMA_TRIPLES + "\n"
            + nt(DBR + "Ben_Ysursa", DBO + "almaMater", DBR + "Other_University") + "\n"
            + nt(DBR + "Other_University", DBO + "state", DBR + "Idaho") + "\n"
        )
        if overlap is None:
            monkeypatch.delenv("RELLINK_RELAXED_OVERLAP", raising=False)
        else:
            monkeypatch.setenv("RELLINK_RELAXED_OVERLAP", overlap)
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["f1"] == f1

    def test_unknown_overlap_mode_exits_1(self, tmp_path, capsys, monkeypatch):
        argv = self.write_relaxed_files(
            tmp_path,
            ({"question_id": "q1", "question": "q", "relations": ["dbo:state"]}, ["dbo:state"]),
        )
        monkeypatch.setenv("RELLINK_RELAXED_OVERLAP", "some")
        assert main(argv) == 1
        assert "unknown overlap mode 'some'" in capsys.readouterr().err

    def test_unknown_overlap_mode_fails_before_the_kb_loads(self, tmp_path, capsys, monkeypatch):
        # The --kb does not exist, so the mode is checked before the load.
        argv = self.write_relaxed_files(
            tmp_path,
            ({"question_id": "q1", "question": "q", "relations": ["dbo:state"]}, ["dbo:state"]),
        )
        argv[argv.index("--kb") + 1] = str(tmp_path / "missing.nt")
        monkeypatch.setenv("RELLINK_RELAXED_OVERLAP", "some")
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: unknown overlap mode 'some'\n"

    @pytest.mark.parametrize("mode", ["strict", "label-level"])
    def test_other_modes_ignore_the_overlap_mode(self, tmp_path, capsys, monkeypatch, mode):
        gold, pred = self.write_eval_files(tmp_path, ["dbp:almaMater", "dbo:state"])
        monkeypatch.setenv("RELLINK_RELAXED_OVERLAP", "some")
        assert main(["eval", "--gold", str(gold), "--pred", str(pred), "--eval-mode", mode]) == 0
        assert "1.000" in capsys.readouterr().out

    def test_duplicate_prediction_id(self, tmp_path, capsys):
        gold, pred = self.write_eval_files(tmp_path, ["dbo:state"])
        pred.write_text(pred.read_text() * 2)
        assert main(["eval", "--gold", str(gold), "--pred", str(pred)]) == 1
        assert capsys.readouterr().err == "error: predictions line 2: duplicate question_id 'q1'\n"

    def test_duplicate_gold_id(self, tmp_path, capsys):
        gold, pred = self.write_eval_files(tmp_path, ["dbo:state"])
        gold.write_text(gold.read_text() * 2)
        assert main(["eval", "--gold", str(gold), "--pred", str(pred)]) == 1
        assert capsys.readouterr().err == "error: gold line 2: duplicate question_id 'q1'\n"

    @pytest.mark.parametrize("empty_pred", [True, False], ids=["empty-pred", "one-pred"])
    def test_empty_gold_file(self, tmp_path, capsys, empty_pred):
        # Checked first, so the error names the gold file whatever the
        # predictions hold.
        gold, pred = self.write_eval_files(tmp_path, ["dbo:state"])
        gold.write_text("\n  \n")
        if empty_pred:
            pred.write_text("")
        assert main(["eval", "--gold", str(gold), "--pred", str(pred)]) == 1
        assert capsys.readouterr().err == "error: gold has no records\n"

    def test_malformed_predictions_line(self, tmp_path, capsys):
        gold, pred = self.write_eval_files(tmp_path, ["dbo:state"])
        pred.write_text(pred.read_text() + "{not json\n")
        assert main(["eval", "--gold", str(gold), "--pred", str(pred)]) == 1
        assert capsys.readouterr().err.startswith("error: predictions line 2: ")


# Recorded under CPython 3.11; it must hold on every interpreter.
TIED_RELAXED_REPORTS_SHA256 = "48738b8fa9633c43cfac0f2c031984f4713dc7aeb55c399103bf40288b02c3c9"


def _tie_heavy_relaxed_eval(tmp_path: Path) -> list[str]:
    """The relaxed ``eval --json`` command line for 300 seeded gold graphs over a
    KB of dbo:/dbp: twins.  Each graph is cut from stored triples, its
    entities renamed to ?x and ?y alike, and each prediction mixes hits,
    swaps and strays, so scores come from a few fractions, variants tie on
    F1 with different precision and recall, and the macro sums round."""
    rng = random.Random(20261020)
    entities, locals_ = [f"E{i}" for i in range(5)], ("a", "b", "c", "d")
    triples = []
    for _ in range(40):
        s, o = rng.sample(entities, 2)
        local = rng.choice(locals_)
        triples += [(s, f"{ns}:{local}", o) for ns in rng.choice([("dbo",), ("dbp",), ("dbo", "dbp")])]
    namespaces = {"dbo": DBO, "dbp": DBP}
    kb = tmp_path / "kb.nt"
    kb.write_text("".join(
        nt(DBR + s, namespaces[p[:3]] + p[4:], DBR + o) + "\n" for s, p, o in triples
    ))
    every = [f"{ns}:{local}" for ns in ("dbo", "dbp") for local in locals_]
    gold_lines, pred_lines = [], []
    for i in range(300):
        rename = dict(zip(rng.sample(entities, 2), ("?x", "?y")))
        graph = [
            [rename.get(s, f"dbr:{s}"), p, rename.get(o, f"dbr:{o}")]
            for s, p, o in rng.sample(triples, rng.randint(1, 3))
        ]
        relations = sorted({p for _, p, _ in graph} | set(rng.sample(every, rng.randint(0, 1))))
        twins = [("dbp:" if r.startswith("dbo:") else "dbo:") + r[4:] for r in relations]
        pred = set(rng.sample(relations, rng.randint(0, len(relations))))
        pred |= set(rng.sample(twins, rng.randint(0, len(twins))))
        pred |= set(rng.sample(every, rng.randint(0, 2)))
        qid = f"q{i:03d}"
        gold_lines.append(json.dumps(
            {"question_id": qid, "question": "q", "relations": relations, "graph": graph}
        ))
        pred_lines.append(json.dumps({"question_id": qid, "relations": sorted(pred)}))
    gold, pred = tmp_path / "gold.jsonl", tmp_path / "pred.jsonl"
    gold.write_text("\n".join(gold_lines) + "\n")
    pred.write_text("\n".join(pred_lines) + "\n")
    return ["eval", "--eval-mode", "relaxed", "--json",
            "--kb", str(kb), "--gold", str(gold), "--pred", str(pred)]


def test_relaxed_report_bytes_do_not_depend_on_the_interpreter(tmp_path, capsys, monkeypatch):
    argv = _tie_heavy_relaxed_eval(tmp_path)
    digest = hashlib.sha256()
    rounded = 0
    for overlap in ("equal", "any"):
        monkeypatch.setenv("RELLINK_RELAXED_OVERLAP", overlap)
        assert main(argv) == 0
        report = capsys.readouterr().out
        digest.update(report.encode())
        # A compensated sum (the builtin from CPython 3.12 on) would change
        # some macro average: the digest sees how they are added.
        data = json.loads(report)
        for key in ("precision", "recall", "f1"):
            column = [q[key] for q in data["per_question"]]
            rounded += math.fsum(column) / len(column) != data[key]
    assert rounded
    assert digest.hexdigest() == TIED_RELAXED_REPORTS_SHA256


class TestProfileFlag:
    def test_profile_config_file(self, tmp_path, capsys):
        # The config's extra prefix compacts the KB's ex: IRIs, so the
        # prefixed gold and predictions match them.
        config = tmp_path / "profile.cfg"
        config.write_text("profile = dbpedia\nprefix.ex = http://example.org/\n")
        kb = tmp_path / "kb.nt"
        kb.write_text(nt("http://example.org/a", "http://example.org/rel", "http://example.org/b") + "\n")
        gold = tmp_path / "gold.jsonl"
        gold.write_text(json.dumps({"question_id": "q1", "question": "q",
                                    "relations": ["http://example.org/rel"],
                                    "graph": [["ex:a", "ex:rel", "?x"]]}) + "\n")
        pred = tmp_path / "pred.jsonl"
        pred.write_text(json.dumps({"question_id": "q1", "relations": ["ex:rel"]}) + "\n")
        status = main(["eval", "--gold", str(gold), "--pred", str(pred), "--kb", str(kb),
                       "--profile", str(config), "--eval-mode", "relaxed", "--json"])
        assert status == 0
        assert json.loads(capsys.readouterr().out)["f1"] == 1.0

    def test_renamed_wikibase_adapts_by_config_alone(self, tmp_path):
        # A direct edge, a p:/ps: statement and a pq: qualifier, each linked
        # from its own question.
        triples = [
            nt(WD + "Q42", WDT + "P50", WD + "Q7"),
            nt(WD + "Q42", P + "P176", WDS + "S1"),
            nt(WDS + "S1", PS + "P176", WD + "Q99"),
            nt(WDS + "S1", PQ + "P155", WD + "Q55"),
            nt(WD + "Q42", WDT + "P31", WD + "Q5"),
            nt(WD + "Q99", WDT + "P31", WD + "Q6"),
        ]
        ontology = [f"label\t{WDT}P50\tauthor", f"label\t{WDT}P176\tmanufacturer",
                    f"label\t{PQ}P155\tfollows", f"label\t{WD}Q5\thuman",
                    f"label\t{WD}Q6\tcompany"]
        questions = []
        for qid, text in [("q1", "Who is the author of Arthur?"),
                          ("q2", "Which company is the manufacturer of Arthur?"),
                          ("q3", "What does Arthur follow?")]:
            start = text.index("Arthur")
            questions.append(json.dumps({"question_id": qid, "question": text, "entities": [
                {"mention": "Arthur", "start": start, "end": start + 6, "iri": WD + "Q42"}]}))
        base, renamed = "http://www.wikidata.org/", "http://kb.example.org/"
        config = tmp_path / "renamed.cfg"
        config.write_text("profile = wikidata\n" + "".join(
            f"prefix.{name} = {WIKIDATA.prefixes[name].replace(base, renamed)}\n"
            for name in ("wd", "wds", "wdt", "p", "ps", "pq")))

        def link(name, rename, profile):
            d = tmp_path / name
            d.mkdir()
            for file, lines in (("kb.nt", triples), ("onto.tsv", ontology),
                                ("questions.jsonl", questions)):
                text = "\n".join(lines) + "\n"
                (d / file).write_text(text.replace(base, renamed) if rename else text)
            out = d / "results.jsonl"
            assert main(["link", "--kb", str(d / "kb.nt"), "--ontology", str(d / "onto.tsv"),
                         "--profile", profile, "-o", str(out), str(d / "questions.jsonl")]) == 0
            return out.read_bytes()

        original = link("original", False, "wikidata")
        assert [json.loads(line)["relations"] for line in original.splitlines()] == [
            ["wdt:P50"], ["ps:P176"], ["pq:P155"]]
        assert all(json.loads(line)["validated"] for line in original.splitlines())
        assert link("renamed", True, str(config)) == original
        assert link("unconfigured", True, "wikidata") != original

    def test_unknown_profile_exits_1(self, tmp_path, capsys):
        kb = tmp_path / "kb.nt"
        kb.write_text("")
        missing = tmp_path / "missing.cfg"
        assert main(["ingest", "--kb", str(kb), "--profile", str(missing)]) == 1
        assert "is neither a known name nor a config file" in capsys.readouterr().err


class TestVectors:
    def test_link_with_vectors(self, ford_files):
        tmp, kb, ontology, questions, _ = ford_files
        vectors = tmp / "vectors.txt"
        vectors.write_text("2 2\nowning 1.0 0.0\nmanufacturer 0.0 1.0\n")
        out = tmp / "results.jsonl"
        status = main(["link", "--kb", str(kb), "--ontology", str(ontology), "--vectors",
                       str(vectors), "-o", str(out), str(questions)])
        assert status == 0
        record = json.loads(out.read_text())
        assert record["relations"] == ["dbo:owningOrganisation", "dbo:manufacturer"]
        assert record["validated"] is True

    @pytest.mark.parametrize(
        "text, message",
        [
            ("2 2\nowning 1.0 0.0\nmanufacturer 1 x\n",
             "vectors line 3: could not convert string to float: 'x'"),
            ("owning 1.0 0.0\nmanufacturer 1.0 0.0 0.5\n",
             "vectors line 2: 3 values, expected 2"),
        ],
        ids=["not-a-number", "dimension"],
    )
    def test_bad_vectors_line_is_located(self, ford_files, capsys, text, message):
        tmp, kb, ontology, questions, _ = ford_files
        vectors = tmp / "vectors.txt"
        vectors.write_text(text)
        status = main(["link", "--kb", str(kb), "--vectors", str(vectors), str(questions)])
        assert status == 1
        assert capsys.readouterr().err == f"error: {message}\n"


# Each record is valid JSON of the wrong shape for the file it sits in.
MALFORMED_RECORDS = {
    "question-not-object": ("questions", [1]),
    "entity-iri-not-string": (
        "questions",
        {"question_id": "q1", "question": "Ford?",
         "entities": [{"mention": "Ford", "start": 0, "end": 4, "iri": 5}]},
    ),
    "question-not-string": ("questions", {"question_id": "q1", "question": 5}),
    "gold-relation-not-string": (
        "gold", {"question_id": "q1", "question": "q", "relations": [5]}
    ),
    "gold-graph-term-not-string": (
        "gold",
        {"question_id": "q1", "question": "q", "relations": ["dbo:state"],
         "graph": [["dbr:A", "dbo:state", 5]]},
    ),
    "prediction-not-string": ("predictions", {"question_id": "q1", "relations": [5]}),
    "beam-text-not-string": (
        "beam fixture", {"question_id": "q1", "beams": [{"text": 5, "score": -0.1}]}
    ),
}


def _status_with_line(ford_files, reader, line):
    """Exit status of the command reading ``reader`` when its text, or its
    bytes, are ``line``."""
    tmp, kb, ontology, questions, beams = ford_files
    gold = tmp / "gold.jsonl"
    gold.write_text(json.dumps({"question_id": "q1", "question": "q", "relations": []}) + "\n")
    pred = tmp / "pred.jsonl"
    pred.write_text(json.dumps({"question_id": "q1", "relations": []}) + "\n")
    vectors, profile = tmp / "vectors.txt", tmp / "profile.cfg"
    target = {"questions": questions, "beam fixture": beams, "gold": gold, "predictions": pred,
              "triples": kb, "ontology": ontology, "vectors": vectors, "profile": profile}
    if isinstance(line, bytes):
        target[reader].write_bytes(line + b"\n")
    else:
        target[reader].write_text(line + "\n")
    if reader in ("gold", "predictions"):
        return main(["eval", "--gold", str(gold), "--pred", str(pred)])
    extra = {"vectors": ["--vectors", str(vectors)], "profile": ["--profile", str(profile)]}
    status, _ = run_link(tmp, kb, ontology, questions, beams, *extra.get(reader, ()))
    return status


@pytest.mark.parametrize("case", MALFORMED_RECORDS)
def test_wrongly_shaped_record_is_located(ford_files, capsys, case):
    reader, record = MALFORMED_RECORDS[case]
    assert _status_with_line(ford_files, reader, json.dumps(record)) == 1
    assert capsys.readouterr().err.startswith(f"error: {reader} line 1: ")


@pytest.mark.parametrize("reader", ["questions", "beam fixture", "gold", "predictions"])
def test_deeply_nested_record_is_located(ford_files, capsys, reader):
    # json.loads raises RecursionError, not ValueError, on nesting this deep.
    assert _status_with_line(ford_files, reader, "[" * 100_000) == 1
    assert capsys.readouterr().err.startswith(f"error: {reader} line 1: ")


# Every field of a valid record of each JSON Lines reader but its question id.
ID_LESS_RECORDS = {
    "questions": {"question": "Who?", "entities": []},
    "beam fixture": {"beams": [{"text": "[Who | owner]", "score": -0.1}]},
    "gold": {"question": "Who?", "relations": ["dbo:owner"]},
    "predictions": {"relations": ["dbo:owner"]},
}


@pytest.mark.parametrize("qid", [1, None, ["q", 1]], ids=["number", "null", "array"])
@pytest.mark.parametrize("reader", list(ID_LESS_RECORDS))
def test_question_id_must_be_a_string(ford_files, capsys, reader, qid):
    # Made text by str(), these ids read "1", "None" and "['q', 1]", and the
    # ids 1 and "1" were one id.
    record = {"question_id": qid, **ID_LESS_RECORDS[reader]}
    assert _status_with_line(ford_files, reader, json.dumps(record)) == 1
    err = capsys.readouterr().err
    assert err == f"error: {reader} line 1: question_id must be a string, got {qid!r}\n"


def test_a_huge_wrong_value_shows_only_its_start(ford_files, capsys):
    # A gold line that is one 200,000-number array printed all of it.
    line = json.dumps(list(range(200_000)))
    assert _status_with_line(ford_files, "gold", line) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: gold line 1: record must be a JSON object, got [0, 1, 2, ")
    assert err.endswith("...\n") and len(err) < 200


HUGE = 10**400  # an integer too large for a float; json writes and reads it

# (reader, line number of the fault, file text): numbers that json or float()
# read but that overflow or are not finite, records that are not objects, and
# one bad line for each reader of a plain-text format.
MALFORMED_LINES = {
    "question-end-infinity": ("questions", 1, json.dumps(
        {"question_id": "q1", "question": "Ford?",
         "entities": [{"mention": "Ford", "start": 0, "end": math.inf, "iri": "dbr:Ford"}]}
    )),
    "question-span-float": ("questions", 1, json.dumps(
        {"question_id": "q1", "question": "Ford?",
         "entities": [{"mention": "Ford", "start": 0.9, "end": 4.7,
                       "iri": "http://dbpedia.org/resource/Ford"}]}
    )),
    "question-iri-newline": ("questions", 1, json.dumps(
        {"question_id": "q1", "question": "Ford?",
         "entities": [{"mention": "Ford", "start": 0, "end": 4,
                       "iri": "http://dbpedia.org/resource/Ford\n"}]}
    )),
    "question-start-bool": ("questions", 1, json.dumps(
        {"question_id": "q1", "question": "Ford?",
         "entities": [{"mention": "Ford", "start": False, "end": 4, "iri": "dbr:Ford"}]}
    )),
    "question-end-string": ("questions", 1, json.dumps(
        {"question_id": "q1", "question": "Ford?",
         "entities": [{"mention": "Ford", "start": 0, "end": "4", "iri": "dbr:Ford"}]}
    )),
    "fixture-score-huge-int": ("beam fixture", 1, json.dumps(
        {"question_id": "q1", "beams": [{"text": "[A | r]", "score": HUGE}]}
    )),
    "fixture-score-infinity": ("beam fixture", 1, json.dumps(
        {"question_id": "q1", "beams": [{"text": "[Ford | manufacturer]", "score": -0.1},
                                        {"text": "[Ford | bogus]", "score": math.inf}]}
    )),
    "fixture-not-object": ("beam fixture", 1, "[1]"),
    "gold-not-object": ("gold", 1, '"q1"'),
    "predictions-not-object": ("predictions", 1, "null"),
    # A relations object was read as its keys, a string as its characters.
    "gold-relations-object": ("gold", 1, json.dumps(
        {"question_id": "q1", "question": "q", "relations": {"dbo:spouse": 1}}
    )),
    "gold-relations-string": ("gold", 1, json.dumps(
        {"question_id": "q1", "question": "q", "relations": "dbo:spouse"}
    )),
    "predictions-relations-object": ("predictions", 1, json.dumps(
        {"question_id": "q1", "relations": {"dbo:spouse": 1}}
    )),
    "predictions-relations-null": ("predictions", 1, json.dumps(
        {"question_id": "q1", "relations": None}
    )),
    # A field of the wrong JSON type was read as empty, or accepted as it was.
    "gold-question-int": ("gold", 1, json.dumps(
        {"question_id": "q1", "question": 5, "relations": ["dbo:spouse"]}
    )),
    "gold-graph-object": ("gold", 1, json.dumps(
        {"question_id": "q1", "question": "q", "relations": ["dbo:spouse"], "graph": {}}
    )),
    "gold-graph-string": ("gold", 1, json.dumps(
        {"question_id": "q1", "question": "q", "relations": ["dbo:spouse"], "graph": ""}
    )),
    "gold-graph-pattern-object": ("gold", 1, json.dumps(
        {"question_id": "q1", "question": "q", "relations": ["dbo:spouse"],
         "graph": [{"s": "?x", "p": "dbo:spouse", "o": "?y"}]}
    )),
    "gold-graph-pattern-two-terms": ("gold", 1, json.dumps(
        {"question_id": "q1", "question": "q", "relations": ["dbo:spouse"],
         "graph": [["?x", "dbo:spouse"]]}
    )),
    "question-entities-object": ("questions", 1, json.dumps(
        {"question_id": "q1", "question": "Ford?", "entities": {}}
    )),
    "fixture-beams-object": ("beam fixture", 2, '{"question_id": "q0", "beams": []}\n'
                             + json.dumps({"question_id": "q1", "beams": {}})),
    "question-span-out-of-range": ("questions", 1, json.dumps(
        {"question_id": "q1", "question": "Who owns Ford?",
         "entities": [{"mention": "Ford", "start": 9, "end": 99, "iri": "dbr:Ford"}]}
    )),
    "gold-graph-variable-predicate": ("gold", 1, json.dumps(
        {"question_id": "q1", "question": "q", "relations": ["dbo:owner"],
         "graph": [["?x", "?y", "dbr:Ford"]]}
    )),
    # An entity or a beam that is not an object, or a mention that is not a
    # string, failed with a Python message that named no field.
    "question-entity-string": ("questions", 1, json.dumps(
        {"question_id": "q1", "question": "Who owns Ford?", "entities": ["Ford"]}
    )),
    "question-mention-int": ("questions", 1, json.dumps(
        {"question_id": "q1", "question": "Who owns Ford?",
         "entities": [{"mention": 5, "start": 9, "end": 13, "iri": "dbr:Ford"}]}
    )),
    "fixture-beam-string": ("beam fixture", 1, json.dumps({"question_id": "q1", "beams": ["[A | r]"]})),
    "vectors-nan": ("vectors", 2, "q 1 0\nbad nan 1\nlow 0.1 1\nhigh 1 0.1"),
    "vectors-infinity": ("vectors", 1, "w Infinity 1"),
    "vectors-huge-int": ("vectors", 1, f"w {HUGE} 1"),
    "vectors-late-header": ("vectors", 2, "a 0.1 0.2 0.3\n12 34\nb 0.3 0.1 0.2"),
    "vectors-lone-word": ("vectors", 3, "a 0.1 0.2 0.3\nb 0.3 0.1 0.2\nlonely"),
    # The header's dimension binds the first vector, and its count the lines.
    "vectors-header-dimension": ("vectors", 2, "5 2\na 1 2 3\nb 1 2 3"),
    "vectors-header-count": ("vectors", 1, "5 2\na 1 2\nb 1 2"),
    "triples-not-a-triple": ("triples", 1, "not a triple"),
    "triples-literal-subject": ("triples", 1, f'"A" <{DBO}b> <{DBO}c> .'),
    "triples-blank-node-predicate": ("triples", 1, f"<{DBO}a> _:b <{DBO}c> ."),
    "ontology-count-infinity": ("ontology", 1, f"count\t{DBO}City\tInfinity"),
    "profile-unknown-base": ("profile", 1, "profile = nosuch"),
    "profile-empty-namespace": ("profile", 2, "profile = dbpedia\nprefix.ex ="),
    "profile-bad-prefix-name": (
        "profile", 2, "profile = dbpedia\nprefix. = http://example.org/rel/"
    ),
    "profile-prefix-twice": (
        "profile", 3, "profile = dbpedia\nprefix.ex = http://a.org/\nprefix.ex = http://b.org/"
    ),
    "profile-base-twice": ("profile", 2, "profile = dbpedia\nprofile = wikidata"),
    "profile-comment-then-no-equals": (
        "profile", 3, "profile = dbpedia\n# extra prefixes\nprefix.ex http://example.org/"
    ),
    # Byte 0xE9 is Latin-1 "é", not UTF-8.  CRLF and a lone CR still end lines.
    "question-not-utf8": ("questions", 1, b'{"question_id": "q1", "question": "Caf\xe9?"}'),
    "fixture-not-utf8": ("beam fixture", 2, b'{"question_id": "q0", "beams": []}\r\n'
                         b'{"question_id": "q1", "beams": [{"text": "[A | r\xe9]", "score": -1}]}'),
    "gold-not-utf8": ("gold", 1, b'{"question_id": "q1", "question": "\xe9", "relations": []}'),
    "predictions-not-utf8": ("predictions", 1, b'{"question_id": "q1", "relations": ["dbo:\xe9"]}'),
    "vectors-not-utf8": ("vectors", 2, b"q 1 0\rcaf\xe9 1 0"),
    "triples-not-utf8": ("triples", 2, f"<{DBO}a> <{DBO}b> <{DBO}c> .\r\n".encode()
                         + f'<{DBO}a> <{DBO}b> "caf'.encode() + b'\xe9" .'),
    "ontology-not-utf8": ("ontology", 1, f"label\t{DBO}City\t".encode() + b"Cit\xe9"),
    "profile-not-utf8": ("profile", 2, b"profile = dbpedia\r# caf\xe9"),
}


# The error text of a case, where the reader's located prefix alone would
# not show which check caught the line.
MALFORMED_LINE_ERRORS = {
    "question-iri-newline": "not a valid IRI or prefixed name: 'dbr:Ford\\n'\n",
    "gold-relations-object": "relations must be an array, got {'dbo:spouse': 1}\n",
    "gold-relations-string": "relations must be an array, got 'dbo:spouse'\n",
    "predictions-relations-object": "relations must be an array, got {'dbo:spouse': 1}\n",
    "predictions-relations-null": "relations must be an array, got None\n",
    "gold-question-int": "question must be a string, got 5\n",
    "vectors-late-header": "1 values, expected 3\n",
    "vectors-lone-word": "'lonely' has no values\n",
    "gold-graph-object": "graph must be an array, got {}\n",
    "gold-graph-string": "graph must be an array, got ''\n",
    "gold-graph-pattern-object": "graph pattern must be an array, got {",
    "gold-graph-pattern-two-terms": "not enough values to unpack (expected 3, got 2)\n",
    "question-entities-object": "entities must be an array, got {}\n",
    "fixture-beams-object": "beams must be an array, got {}\n",
    "fixture-not-object": "record must be a JSON object, got [1]\n",
    "question-entity-string": "entity must be a JSON object, got 'Ford'\n",
    "question-mention-int": "mention must be a string, got 5\n",
    "fixture-beam-string": "beam must be a JSON object, got '[A | r]'\n",
    "question-span-out-of-range": "span [9,99) out of range for question of length 14\n",
    "gold-graph-variable-predicate": "graph predicate must be an IRI\n",
    "vectors-header-dimension": "3 values, expected 2\n",
    "vectors-header-count": "header counts 5 words, file has 2\n",
    "profile-comment-then-no-equals": "expected 'key = value'\n",
}


@pytest.mark.parametrize(
    "case", ["fixture-score-infinity", "vectors-nan", "vectors-late-header", "vectors-lone-word"]
)
def test_bad_beams_or_vectors_fail_before_the_kb_loads(ford_files, capsys, case):
    # A --kb that does not exist shows the file is read first.
    reader, lineno, text = MALFORMED_LINES[case]
    tmp, _, ontology, questions, beams = ford_files
    vectors = tmp / "vectors.txt"
    (beams if reader == "beam fixture" else vectors).write_text(text + "\n")
    extra = ["--vectors", str(vectors)] if reader == "vectors" else []
    status, _ = run_link(tmp, tmp / "missing.nt", ontology, questions, beams, *extra)
    assert status == 1
    assert capsys.readouterr().err.startswith(f"error: {reader} line {lineno}: ")


@pytest.mark.parametrize("case", MALFORMED_LINES)
def test_malformed_line_is_located_without_traceback(ford_files, capsys, case):
    reader, lineno, text = MALFORMED_LINES[case]
    assert _status_with_line(ford_files, reader, text) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {reader} line {lineno}: {MALFORMED_LINE_ERRORS.get(case, '')}")
    assert "Traceback" not in err
    if isinstance(text, bytes):
        assert err.startswith(f"error: {reader} line {lineno}: invalid UTF-8 byte 0xe9 at character ")


# Runs each command line given as a JSON argument through ``cli.main`` in one
# fresh interpreter, then builds a remote generator, and reports the exit
# statuses and whether ``requests`` was loaded before and after the build.
_IMPORT_PROBE = """
import json, sys
from rellink.cli import main
from rellink.generator import RemoteGenerator

statuses = [main(argv) for argv in map(json.loads, sys.argv[1:])]
before = "requests" in sys.modules
RemoteGenerator("http://x")
print(json.dumps([statuses, before, "requests" in sys.modules]))
"""


def test_only_the_remote_generator_imports_requests(ford_files):
    tmp, kb, ontology, questions, beams = ford_files
    alma_kb = tmp / "alma.nt"
    alma_kb.write_text(ALMA_TRIPLES + "\n")
    gold = tmp / "gold.jsonl"
    gold.write_text(json.dumps({"question_id": "q1", "question": ALMA_QUESTION,
                                "relations": ["dbo:almaMater", "dbo:state"],
                                "graph": ALMA_GOLD_GRAPH}) + "\n")
    pred = tmp / "pred.jsonl"
    pred.write_text(json.dumps({"question_id": "q1", "relations": ["dbp:almaMater", "dbo:state"]}) + "\n")
    store = ["--kb", str(kb), "--ontology", str(ontology)]
    commands = [
        ["ingest", *store],
        ["link", *store, "--generator", "baseline", "-o", str(tmp / "baseline.jsonl"), str(questions)],
        ["link", *store, "--generator", "fixture", "--fixtures", str(beams),
         "-o", str(tmp / "fixture.jsonl"), str(questions)],
        ["eval", "--eval-mode", "relaxed", "--kb", str(alma_kb), "--gold", str(gold), "--pred", str(pred)],
    ]
    (statuses, before, after), err = _import_probe(commands)
    assert statuses == [0, 0, 0, 0], err
    assert not before, "a command that never builds a remote generator imported requests"
    assert after


def _import_probe(commands: list[list[str]]) -> tuple[list, str]:
    """``_IMPORT_PROBE``'s report on ``commands``, and its stderr."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    probe = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, *map(json.dumps, commands)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(probe.stdout.splitlines()[-1]), probe.stderr


def test_timeout_past_the_socket_limit_fails_before_the_kb_loads(ford_files):
    # Every remote request would overflow the socket layer, and the run would
    # still exit 0; a missing --kb shows that the KB is never read.
    tmp, _, _, questions, _ = ford_files
    command = ["link", "--kb", str(tmp / "missing.nt"), "--generator", "remote",
               "--endpoint", "http://127.0.0.1:9/", "--timeout", "inf", str(questions)]
    (statuses, before, _), err = _import_probe([command])
    assert statuses == [1]
    assert not before, "a rejected remote configuration imported requests"
    assert f"error: timeout must be <= {threading.TIMEOUT_MAX:.0f}\n" in err
