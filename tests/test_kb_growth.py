"""Metamorphic KB-growth tests: what adding triples to the KB may change.

Triples whose subject, predicate and object are all fresh IRIs, with local
names outside the lexicon, change no result: ``link`` output (baseline and
fixture generators) and the relaxed ``eval --json`` report stay
byte-identical under both profiles.

Triples that use no typing predicate add facts, never types.  With the
fixture generator the beams stay fixed, and a conjunctive query keeps its
solutions when triples are added, while a label's routes only gain members.
So every validated question stays validated at the same or an earlier
``source_rank``, and an ASK answer of true stays true.
"""

from __future__ import annotations

import json
import random

import pytest

from conftest import DBO, DBP, DBR, PQ, PS, WD, WDS, WDT, P, nt
from rellink.cli import main
from rellink.terms import DBPEDIA, WIKIDATA
from test_blank_lines import _input_lines
from test_renaming import _run

PROFILES = pytest.mark.parametrize("base", [DBPEDIA, WIKIDATA], ids=lambda p: p.name)


def _terms(kb: list[str]) -> tuple[list[str], list[str]]:
    """The N-Triples lines' subject and object terms, each once, in file order."""
    subjects, objects = {}, {}
    for line in kb:
        subject, _, rest = line.split(" ", 2)
        subjects[subject] = objects[rest[: -len(" .")]] = None
    return list(subjects), list(objects)


def _insert(rng: random.Random, kb: list[str], added: list[str]) -> list[str]:
    """``kb`` with each added line at a random place."""
    grown = list(kb)
    for line in added:
        grown.insert(rng.randint(0, len(grown)), line)
    return grown


def _unrelated(rng: random.Random, base, count: int) -> list[str]:
    """Triples over fresh IRIs in the profile's own entity and property
    namespaces; every local name starts with ``Zq``, which no label holds."""
    if base is WIKIDATA:
        subjects, predicates = (WD, WDS), (WDT, P, PS, PQ)
    else:
        subjects, predicates = (DBR,), (DBO, DBP)
    return [
        nt(f"{rng.choice(subjects)}ZqS{rng.randrange(20)}",
           f"{rng.choice(predicates)}ZqP{rng.randrange(5)}",
           f"{rng.choice(subjects)}ZqO{rng.randrange(20)}")
        for _ in range(count)
    ]


@PROFILES
def test_unrelated_triples_change_no_result(base, tmp_path, capsys):
    lines = _input_lines(base)
    assert not any("zq" in line.lower() for body in lines.values() for line in body)
    original = _run(tmp_path, base, lines, capsys)
    for link_out in original[:2]:
        validated = [json.loads(record)["validated"] for record in link_out.splitlines()]
        assert any(validated) and not all(validated)
    rng = random.Random(f"unrelated {base.name}")
    for _ in range(2):
        grown = {**lines, "kb.nt": _insert(rng, lines["kb.nt"], _unrelated(rng, base, 80))}
        assert len(grown["kb.nt"]) == len(lines["kb.nt"]) + 80
        assert _run(tmp_path, base, grown, capsys) == original


def _growth(rng: random.Random, base, kb: list[str], count: int) -> list[str]:
    """Facts among the KB's own entities over its relations, with no typing
    predicate: wikidata gains direct edges, and statements with and without
    a qualifier; dbpedia gains edges in either property namespace."""
    subjects, objects = _terms(kb)
    namespace = WD if base is WIKIDATA else DBR
    entities = [t[1:-1] for t in subjects if t.startswith(f"<{namespace}") and not t.startswith(f"<{WDS}")]
    values = [t[1:-1] if t.startswith("<") else ("lit", t[1:-1]) for t in objects]
    predicates = {line.split(" ")[1][1:-1] for line in kb}
    ids = sorted({p[len(WDT):] for p in predicates if p.startswith(WDT)} - {"P31", "P279"})
    names = sorted(p[len(DBO):] for p in predicates if p.startswith(DBO))
    added = []
    for j in range(count):
        s, o = rng.choice(entities), rng.choice(values)
        if base is not WIKIDATA:
            added.append(nt(s, f"{rng.choice((DBO, DBP))}{rng.choice(names)}", o))
            continue
        pid, kind = rng.choice(ids), rng.randrange(3)
        if kind == 0:
            added.append(nt(s, f"{WDT}{pid}", o))
            continue
        statement = f"{WDS}Grown{j}"
        added += [nt(s, f"{P}{pid}", statement), nt(statement, f"{PS}{pid}", o)]
        if kind == 2:
            added.append(nt(statement, f"{PQ}{rng.choice(ids)}", rng.choice(entities)))
    return added


def _with_ask_beams(rng: random.Random, lines: dict[str, list[str]]) -> dict[str, list[str]]:
    """The inputs with six more beams for each yes/no question, each pairing
    both its mentions with one relation label, so that ASK can answer true."""
    labels = sorted({line.split("\t")[2] for line in lines["onto.tsv"]
                     if line.startswith("label") and not line.split("\t")[2].startswith("kind")})
    asks = {}
    for record in map(json.loads, lines["questions.jsonl"]):
        if record["question"].startswith("Is "):
            asks[record["question_id"]] = [e["mention"] for e in record["entities"]]
    beams = []
    for record in map(json.loads, lines["beams.jsonl"]):
        mentions = asks.get(record["question_id"])
        if mentions:
            record["beams"] += [
                {"text": ", ".join(f"[{m} | {label}]" for m in mentions), "score": -1.0 - i / 10}
                for i, label in enumerate(rng.sample(labels, 6))
            ]
        beams.append(json.dumps(record))
    return {**lines, "beams.jsonl": beams}


def _link(tmp_path, base, lines: dict[str, list[str]]) -> dict[str, dict]:
    """Fixture ``link`` records by question id."""
    for name in ("kb.nt", "onto.tsv", "questions.jsonl", "beams.jsonl"):
        (tmp_path / name).write_text("".join(line + "\n" for line in lines[name]))
    out = tmp_path / "link.jsonl"
    assert main(["link", "--profile", base.name, "--kb", str(tmp_path / "kb.nt"),
                 "--ontology", str(tmp_path / "onto.tsv"), "--generator", "fixture",
                 "--fixtures", str(tmp_path / "beams.jsonl"), "-o", str(out),
                 str(tmp_path / "questions.jsonl")]) == 0
    return {r["question_id"]: r for r in map(json.loads, out.read_text().splitlines())}


@PROFILES
def test_kb_growth_is_monotone(base, tmp_path):
    rng = random.Random(f"growth {base.name}")
    lines = _with_ask_beams(rng, _input_lines(base))
    before = _link(tmp_path, base, lines)
    assert any(r["validated"] for r in before.values())
    assert any(r["ask_answer"] is True for r in before.values())
    gained = answered = 0
    for _ in range(3):
        added = _growth(rng, base, lines["kb.nt"], 60)
        assert not any(typing in line for line in added
                       for typing in (f"{WDT}P31>", f"{WDT}P279>", "#type>", "#subClassOf>"))
        after = _link(tmp_path, base, {**lines, "kb.nt": _insert(rng, lines["kb.nt"], added)})
        assert after.keys() == before.keys()
        for qid, was in before.items():
            now = after[qid]
            if was["validated"]:
                assert now["validated"], (qid, was, now)
                assert now["source_rank"] <= was["source_rank"], (qid, was, now)
            if was["ask_answer"] is True:
                assert now["ask_answer"] is True, (qid, was, now)
            earlier = not was["validated"] or now["source_rank"] < was["source_rank"]
            gained += now["validated"] and earlier
            answered += now["ask_answer"] is True and was["ask_answer"] is not True
    # The growth reaches the questions: some validate, or validate earlier,
    # and some yes/no questions turn true.
    assert gained >= 10, gained
    assert answered >= 2, answered
