"""Metamorphic blank-line tests: adding empty or whitespace-only lines to any
input file changes no result, only the line numbers in error texts.

Every reader skips a line that holds only whitespace, yet counts it, so that
an error names the line of the file as an editor shows it.  Both profiles,
all six input files: N-Triples, ontology, questions, beam fixture, gold and
predictions.
"""

from __future__ import annotations

import json
import random

import pytest

from conftest import DBO
from rellink.cli import main
from rellink.terms import DBPEDIA, WIKIDATA
from test_record_order import _random_inputs

BLANKS = ("", " ", "\t", "  \t ")

# Each input file: its reader's name in error texts, and a line it rejects.
BAD_LINES = {
    "kb.nt": ("triples", "not a triple"),
    "onto.tsv": ("ontology", f"count\t{DBO}City\tInfinity"),
    "questions.jsonl": ("questions", '{"question_id": "bad"}'),
    "beams.jsonl": ("beam fixture", "[1]"),
    "gold.jsonl": ("gold", '"q1"'),
    "pred.jsonl": ("predictions", "null"),
}

PROFILES = pytest.mark.parametrize("base", [DBPEDIA, WIKIDATA], ids=lambda p: p.name)


def _input_lines(base) -> dict[str, list[str]]:
    """Seeded inputs for every reader, one list of lines per file.  Each
    question's fixture beams pair its mentions with labels its KB knows."""
    rng = random.Random(11)
    kb, ontology, questions, gold, predictions = _random_inputs(rng, base)
    labels = sorted({line.split("\t")[2] for line in ontology.splitlines() if line.startswith("label")})
    beams = []
    for line in questions:
        record = json.loads(line)
        mentions = [e["mention"] for e in record["entities"]]
        texts = {", ".join(f"[{m} | {rng.choice(labels)}]" for m in mentions) for _ in range(4)}
        beams.append(json.dumps({"question_id": record["question_id"], "beams": [
            {"text": text, "score": -0.1 * (i + 1)} for i, text in enumerate(sorted(texts)) if text
        ]}))
    return {
        "kb.nt": kb.splitlines(),
        "onto.tsv": ontology.splitlines(),
        "questions.jsonl": questions,
        "beams.jsonl": beams,
        "gold.jsonl": gold,
        "pred.jsonl": [
            json.dumps({"question_id": qid, "relations": sorted(relations)})
            for qid, relations in predictions.items()
        ],
    }


def _with_blanks(rng: random.Random, lines: list[str], marked: int | None = None) -> tuple[str, int]:
    """The lines as file text with blank lines inserted at random, at least
    one right above line ``marked`` (0-based), and the 1-based line number
    that line ends up on."""
    out, at = [], 0
    for i, line in enumerate(lines):
        count = rng.choice((0, 0, 1, 3))
        out += [rng.choice(BLANKS) for _ in range(max(count, i == marked))]
        if i == marked:
            at = len(out) + 1
        out.append(line)
    out += [rng.choice(BLANKS) for _ in range(rng.randrange(3))]
    return "".join(line + "\n" for line in out), at


def _run(tmp_path, base, texts: dict[str, str], capsys) -> tuple[int, str, int, str, str]:
    """``link`` with the fixture generator, then relaxed ``eval``: each exit
    status and output, and their stderr."""
    for name, text in texts.items():
        (tmp_path / name).write_text(text)
    kb = ["--profile", base.name, "--kb", str(tmp_path / "kb.nt"),
          "--ontology", str(tmp_path / "onto.tsv")]
    out = tmp_path / "link.jsonl"
    if out.exists():
        out.unlink()
    linked = main(["link", *kb, "--generator", "fixture", "--fixtures", str(tmp_path / "beams.jsonl"),
                   "-o", str(out), str(tmp_path / "questions.jsonl")])
    link_err = capsys.readouterr().err
    evaluated = main(["eval", "--eval-mode", "relaxed", "--json", *kb,
                      "--gold", str(tmp_path / "gold.jsonl"), "--pred", str(tmp_path / "pred.jsonl")])
    captured = capsys.readouterr()
    link_out = out.read_text() if out.exists() else ""
    return linked, link_out, evaluated, captured.out, link_err + captured.err


@PROFILES
def test_blank_lines_change_no_result(base, tmp_path, capsys):
    lines = _input_lines(base)
    plain = {name: "".join(line + "\n" for line in body) for name, body in lines.items()}
    linked, link_out, evaluated, report, _ = _run(tmp_path, base, plain, capsys)
    assert (linked, evaluated) == (0, 0)
    records = [json.loads(line) for line in link_out.splitlines()]
    assert len(records) == len(lines["questions.jsonl"])
    validated = [r["validated"] for r in records]
    assert any(validated) and not all(validated)
    assert json.loads(report)
    rng = random.Random(3)
    for _ in range(3):
        blanked = {name: _with_blanks(rng, body)[0] for name, body in lines.items()}
        assert blanked != plain
        assert _run(tmp_path, base, blanked, capsys)[:4] == (0, link_out, 0, report)


@PROFILES
@pytest.mark.parametrize("name", BAD_LINES)
def test_bad_line_number_counts_blank_lines(base, name, tmp_path, capsys):
    reader, bad = BAD_LINES[name]
    lines = _input_lines(base)
    rng = random.Random(f"{base.name} {name}")
    body = lines[name]
    n = rng.randrange(1, len(body))
    body.insert(n - 1, bad)
    texts = {other: "".join(line + "\n" for line in lines[other]) for other in lines}
    for blanks in (False, True):
        if blanks:
            texts[name], at = _with_blanks(rng, body, n - 1)
            assert at > n
        else:
            at = n
        linked, _, evaluated, _, err = _run(tmp_path, base, texts, capsys)
        assert 1 in (linked, evaluated)
        assert f"error: {reader} line {at}: " in err, (at, err)
