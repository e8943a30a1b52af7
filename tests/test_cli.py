"""End-to-end command-line runs over temp files."""

from __future__ import annotations

import json
import math
import sys

import pytest

from conftest import (
    ALMA_GOLD_GRAPH,
    ALMA_QUESTION,
    ALMA_TRIPLES,
    DBO,
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
from rellink.cli import _generator_config, build_parser, main
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

    def test_malformed_predictions_line(self, tmp_path, capsys):
        gold, pred = self.write_eval_files(tmp_path, ["dbo:state"])
        pred.write_text(pred.read_text() + "{not json\n")
        assert main(["eval", "--gold", str(gold), "--pred", str(pred)]) == 1
        assert capsys.readouterr().err.startswith("error: predictions line 2: ")


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
    """Exit status of the command reading ``reader`` when its text is ``line``."""
    tmp, kb, ontology, questions, beams = ford_files
    gold = tmp / "gold.jsonl"
    gold.write_text(json.dumps({"question_id": "q1", "question": "q", "relations": []}) + "\n")
    pred = tmp / "pred.jsonl"
    pred.write_text(json.dumps({"question_id": "q1", "relations": []}) + "\n")
    vectors, profile = tmp / "vectors.txt", tmp / "profile.cfg"
    target = {"questions": questions, "beam fixture": beams, "gold": gold, "predictions": pred,
              "triples": kb, "ontology": ontology, "vectors": vectors, "profile": profile}
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
    "vectors-nan": ("vectors", 2, "q 1 0\nbad nan 1\nlow 0.1 1\nhigh 1 0.1"),
    "vectors-infinity": ("vectors", 1, "w Infinity 1"),
    "vectors-huge-int": ("vectors", 1, f"w {HUGE} 1"),
    "triples-not-a-triple": ("triples", 1, "not a triple"),
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
}


@pytest.mark.parametrize("case", MALFORMED_LINES)
def test_malformed_line_is_located_without_traceback(ford_files, capsys, case):
    reader, lineno, text = MALFORMED_LINES[case]
    assert _status_with_line(ford_files, reader, text) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {reader} line {lineno}: ")
    assert "Traceback" not in err
