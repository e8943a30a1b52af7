"""Metamorphic renaming test: renaming the entities of the KB, the questions
and the gold graphs changes no result.

A result names relations, never entities, so ``link`` output (baseline and
fixture generators) and the relaxed ``eval --json`` report stay
byte-identical.  The renaming is a seeded permutation of the non-class
entity IRIs within each namespace: every name stays well formed and in its
namespace, and the KB introduces the entities in the same order, but any
order taken by sorting their names changes.
"""

from __future__ import annotations

import json
import random
import re

import pytest

from rellink.cli import main
from rellink.terms import DBPEDIA, WIKIDATA
from test_blank_lines import _input_lines

PROFILES = pytest.mark.parametrize("base", [DBPEDIA, WIKIDATA], ids=lambda p: p.name)

# An IRI between <> (N-Triples, gold graph terms) or in a JSON string
# (question entities); the delimiters stay in place.
_IRI = re.compile(r'(?<=[<"])http://[^<>"\s]+(?=[>"])')


def _renaming(rng: random.Random, kb: list[str], ontology: list[str]) -> dict[str, str]:
    """A seeded permutation, within each namespace, of the KB's subject and
    object IRIs that the ontology does not name: no class, no property."""
    named = {field for line in ontology for field in line.split("\t")[1:]}
    predicates = {line.split(" ")[1][1:-1] for line in kb}
    by_namespace: dict[str, dict[str, None]] = {}
    for line in kb:
        for iri in _IRI.findall(line):
            if iri not in named and iri not in predicates:
                by_namespace.setdefault(iri.rsplit("/", 1)[0], {})[iri] = None
    mapping = {}
    for names in by_namespace.values():
        shuffled = list(names)
        rng.shuffle(shuffled)
        mapping.update(zip(names, shuffled))
    return mapping


def _run(tmp_path, base, lines: dict[str, list[str]], capsys) -> tuple[str, str, str]:
    """Baseline ``link`` output, fixture ``link`` output and the relaxed
    ``eval --json`` report."""
    for name, body in lines.items():
        (tmp_path / name).write_text("".join(line + "\n" for line in body))
    kb = ["--profile", base.name, "--kb", str(tmp_path / "kb.nt"), "--ontology", str(tmp_path / "onto.tsv")]
    outputs = []
    for generator in (["baseline"], ["fixture", "--fixtures", str(tmp_path / "beams.jsonl")]):
        out = tmp_path / "link.jsonl"
        assert main(["link", *kb, "--generator", *generator, "-o", str(out),
                     str(tmp_path / "questions.jsonl")]) == 0
        outputs.append(out.read_text())
    capsys.readouterr()
    assert main(["eval", "--eval-mode", "relaxed", "--json", *kb,
                 "--gold", str(tmp_path / "gold.jsonl"), "--pred", str(tmp_path / "pred.jsonl")]) == 0
    outputs.append(capsys.readouterr().out)
    return tuple(outputs)


@PROFILES
def test_renaming_entities_changes_no_result(base, tmp_path, capsys):
    lines = _input_lines(base)
    original = _run(tmp_path, base, lines, capsys)
    for link_out in original[:2]:
        validated = [json.loads(record)["validated"] for record in link_out.splitlines()]
        assert any(validated) and not all(validated)
    assert json.loads(original[2])["per_question"]
    rng = random.Random(f"rename {base.name}")
    for _ in range(2):
        mapping = _renaming(rng, lines["kb.nt"], lines["onto.tsv"])
        assert len(mapping) >= 40
        assert sum(old != new for old, new in mapping.items()) > len(mapping) // 2
        renamed = {
            name: [_IRI.sub(lambda m: mapping.get(m[0], m[0]), line) for line in body]
            for name, body in lines.items()
        }
        for name in ("kb.nt", "questions.jsonl", "gold.jsonl"):
            assert renamed[name] != lines[name], name
        assert _run(tmp_path, base, renamed, capsys) == original
