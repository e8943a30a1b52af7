"""Metamorphic record-order tests: a record's result does not depend on which
records were read before it.

Three states live across records: each profile's memo of record IRIs, the
store's route memo and the similarity token memo.  The IRI memo is shrunk here
to a few entries, so that it also evicts while the records are read.
"""

from __future__ import annotations

import dataclasses
import json
import random

import pytest

from conftest import DBO, DBP, DBR, PQ, PS, RDF_TYPE, WD, WDS, WDT, P, nt
from rellink import terms
from rellink.cli import main
from rellink.evaluation import read_gold, relaxed_score, score_sets
from rellink.kb_store import load_kb
from rellink.terms import DBPEDIA, WIKIDATA, normalize_iri

LABELS = ("birth place", "spouse", "author", "founder", "capital", "leader", "genre")
SMALL_MEMO = 8


def _camel(label: str) -> str:
    head, *rest = label.split()
    return head + "".join(word.title() for word in rest)


def _term(value) -> str:
    """A gold term's text: ("lit", s) is a literal, anything else an IRI."""
    return f'"{value[1]}"' if isinstance(value, tuple) else f"<{value}>"


def _random_inputs(rng: random.Random, profile) -> tuple[str, str, list[str], list[str], dict]:
    """A KB, its ontology, linked questions, gold records and predictions.

    dbpedia relations come in dbo:/dbp: twins that often share triples, so
    relaxed scoring swaps namespaces; wikidata relations are direct wdt:
    edges, p:/ps: statements and pq: qualifiers.  Questions name a relation
    their entity has about half the time, and some ask yes/no."""
    wikidata = profile is WIKIDATA
    entities = [f"{WD}Q{i}" if wikidata else f"{DBR}E{i}" for i in range(40)]
    classes = [f"{WD}Q90{i}" if wikidata else f"{DBO}Class{i}" for i in range(4)]
    type_iri = f"{WDT}P31" if wikidata else RDF_TYPE
    ids = {label: f"P{i + 1}" if wikidata else _camel(label) for i, label in enumerate(LABELS)}
    triples, ontology, facts = [], [], []
    for entity in entities:
        triples.append(nt(entity, type_iri, rng.choice(classes)))
    for child, parent in zip(classes[1:], classes):
        ontology.append(f"subclass\t{child}\t{parent}")
    for i, cls in enumerate(classes):
        ontology.append(f"label\t{cls}\tkind {i}")
    for label, pid in ids.items():
        spaces = (WDT, PQ) if wikidata else (DBO, DBP)
        ontology += [f"label\t{ns}{pid}\t{label}" for ns in spaces]
    for j in range(160):
        label = rng.choice(LABELS)
        s, o = rng.choice(entities), rng.choice(entities)
        if rng.random() < 0.1:
            o = ("lit", f"value {j % 5}")
        if wikidata:
            kind = rng.randrange(3)
            if kind == 0 or isinstance(o, tuple):
                triples.append(nt(s, f"{WDT}{ids[label]}", o))
                facts.append((s, f"{WDT}{ids[label]}", o))
            else:
                statement = f"{WDS}S{j}"
                triples += [nt(s, f"{P}{ids[label]}", statement), nt(statement, f"{PS}{ids[label]}", o)]
                facts.append((statement, f"{PS}{ids[label]}", o))
                if kind == 2:
                    qualifier = f"{PQ}{ids[rng.choice(LABELS)]}"
                    value = rng.choice(entities)
                    triples.append(nt(statement, qualifier, value))
                    facts.append((statement, qualifier, value))
        else:
            for ns in rng.choice([(DBO,), (DBP,), (DBO, DBP)]):
                triples.append(nt(s, f"{ns}{ids[label]}", o))
                facts.append((s, f"{ns}{ids[label]}", o))

    relation_pool = sorted({p for _, p, _ in facts})
    questions, gold, predictions = [], [], {}
    for i in range(120):
        qid = f"q{i:03d}"
        first, second = rng.sample(range(len(entities)), 2)
        label = rng.choice(LABELS)
        shape = rng.randrange(4)
        if shape == 0:
            text, mentions = f"What is the {label} of E{first}?", [(f"E{first}", first)]
        elif shape == 1:
            text, mentions = f"Is E{first} the {label} of E{second}?", [(f"E{first}", first), (f"E{second}", second)]
        elif shape == 2:
            text, mentions = f"Which kind {rng.randrange(4)} is the {label} of E{first}?", [(f"E{first}", first)]
        else:
            text, mentions = f"Who has a {label}?", []
        questions.append(json.dumps({"question_id": qid, "question": text, "entities": [
            {"mention": m, "start": text.index(m), "end": text.index(m) + len(m), "iri": entities[k]}
            for m, k in mentions]}))

        s, p, o = rng.choice(facts)
        graph = [[_term(s), f"<{p}>", "?x"]] if rng.random() < 0.5 else [[_term(s), p, _term(o)]]
        if rng.random() < 0.4:
            s2, p2, _ = rng.choice(facts)
            graph.append(["?y", p2, "?x"] if rng.random() < 0.5 else [_term(s2), p2, "?y"])
        if rng.random() < 0.1:
            graph = [[f"<{rng.choice(entities)}>", rng.choice(relation_pool), "?x"]]
        relations = sorted({pattern[1].strip("<>") for pattern in graph})
        gold.append(json.dumps({"question_id": qid, "question": text, "relations": relations, "graph": graph}))
        predictions[qid] = {normalize_iri(r, profile) for r in rng.sample(relation_pool, rng.randint(0, 3))}
    return "\n".join(triples) + "\n", "\n".join(ontology) + "\n", questions, gold, predictions


@pytest.fixture()
def small_memo(monkeypatch):
    """Profiles made from here on keep only SMALL_MEMO record IRIs."""
    monkeypatch.setattr(terms, "RECORD_IRI_MEMO", SMALL_MEMO)


PROFILES = pytest.mark.parametrize("base", [DBPEDIA, WIKIDATA], ids=lambda p: p.name)


@PROFILES
def test_relaxed_score_does_not_depend_on_gold_order(base, small_memo):
    profile = dataclasses.replace(base)
    assert profile._record_iri.cache_info().maxsize == SMALL_MEMO
    rng = random.Random(21)
    kb, ontology, _, gold, predictions = _random_inputs(rng, base)
    store = load_kb(kb, ontology, profile)

    def scores(lines: list[str]) -> dict[str, tuple]:
        return {g.question_id: relaxed_score(store, g, predictions[g.question_id])
                for g in read_gold(lines, profile)}

    original = scores(gold)
    assert len(original) == len(gold)
    strict = {g.question_id: score_sets(g.relations, predictions[g.question_id])
              for g in read_gold(gold, profile)}
    assert len(set(original.values())) > 5
    if base.statement_namespace is None:
        # Namespace swaps lift some records above their strict score.
        assert any(original[qid] != strict[qid] for qid in original)
    for _ in range(4):
        shuffled = gold[:]
        rng.shuffle(shuffled)
        assert scores(shuffled) == original
    assert profile._record_iri.cache_info().currsize == SMALL_MEMO


@PROFILES
def test_link_record_does_not_depend_on_question_order(base, small_memo, tmp_path):
    rng = random.Random(6)
    kb, ontology, questions, _, _ = _random_inputs(rng, base)
    (tmp_path / "kb.nt").write_text(kb)
    (tmp_path / "onto.tsv").write_text(ontology)
    # A profile config makes a profile, and so a small memo, in each run.
    (tmp_path / "profile.cfg").write_text(f"profile = {base.name}\n")

    def link(lines: list[str], name: str) -> dict[str, dict]:
        (tmp_path / f"{name}.jsonl").write_text("\n".join(lines) + "\n")
        out = tmp_path / f"{name}.out.jsonl"
        assert main(["link", "--kb", str(tmp_path / "kb.nt"), "--ontology", str(tmp_path / "onto.tsv"),
                     "--profile", str(tmp_path / "profile.cfg"), "--generator", "baseline",
                     "-o", str(out), str(tmp_path / f"{name}.jsonl")]) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        return {r["question_id"]: r for r in records}

    original = link(questions, "original")
    assert len(original) == len(questions)
    validated = [r["validated"] for r in original.values()]
    assert any(validated) and not all(validated)
    for k in range(3):
        shuffled = questions[:]
        rng.shuffle(shuffled)
        assert link(shuffled, f"shuffled{k}") == original
