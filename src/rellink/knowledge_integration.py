"""Builds the enriched encoder input: question text plus entity structures.

Each pre-linked entity contributes one bracketed structure holding its
mention, its most specific KB type, and its candidate relations ranked by
similarity to the question.  The rendered line is kept within a whitespace
token budget by dropping the lowest-ranked relations round-robin across
entities; the question itself is never truncated.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator

from . import brackets
from .kb_store import KbStore
from .similarity import DEFAULT_SIMILARITY, Similarity
from .terms import Iri, normalize_iri

DEFAULT_BUDGET = 512


class InputTooLongError(Exception):
    """The question (or its minimal rendering) does not fit the budget."""


@dataclass(frozen=True)
class LinkedEntity:
    """A pre-linked mention: question span plus the KB entity it denotes."""

    mention: str
    start: int
    end: int
    entity: Iri

    def check_span(self, question: str) -> None:
        if not (0 <= self.start < self.end <= len(question)):
            raise ValueError(
                f"span [{self.start},{self.end}) out of range for question of "
                f"length {len(question)}"
            )
        actual = question[self.start : self.end]
        if actual != self.mention:
            raise ValueError(f"mention {self.mention!r} != question span {actual!r}")


@dataclass
class EntityStructure:
    mention: str
    type_label: str | None
    relations: list[str]


@dataclass
class EncoderInput:
    question: str
    structures: list[EntityStructure]
    rendered: str
    budget: int = DEFAULT_BUDGET


def token_count(text: str) -> int:
    """Budget unit: whitespace-delimited tokens."""
    return len(text.split())


def rank_candidate_relations(
    question: str,
    labels: Iterable[str],
    similarity: Similarity | None = None,
) -> list[str]:
    """Labels in descending similarity to the question; ties lexicographic."""
    scorer = similarity or DEFAULT_SIMILARITY
    return sorted(set(labels), key=lambda lbl: (-scorer.score(question, lbl), lbl))


def build_entity_structure(
    store: KbStore,
    question: str,
    entity: LinkedEntity,
    similarity: Similarity | None = None,
) -> EntityStructure:
    cls = store.most_specific_type(entity.entity)
    type_label = store.label_of(cls) if cls is not None else None
    # Typing predicates feed the type slot, not the relation candidates.
    skip = {store.profile.type_predicate, store.profile.subclass_predicate}
    labels = {
        store.label_of(r) for r in store.relations_of(entity.entity) if r not in skip
    }
    ranked = rank_candidate_relations(question, labels, similarity)
    return EntityStructure(entity.mention, type_label, ranked)


def render_structure(structure: EntityStructure) -> str:
    parts = [brackets.escape(structure.mention)]
    if structure.type_label is not None:
        parts.append(brackets.escape(structure.type_label))
    parts.append(", ".join(brackets.escape(r) for r in structure.relations))
    return "[" + " | ".join(parts) + "]"


def render_input(question: str, structures: Iterable[EntityStructure]) -> str:
    chunks = [question.strip()]
    chunks.extend(render_structure(s) for s in structures)
    return " ".join(chunks)


def parse_structures(text: str) -> list[EntityStructure]:
    """Recover entity structures from their rendered bracket groups.

    The field count disambiguates: three fields are mention/type/relations,
    two are mention/relations (type omitted), one is a bare mention.
    """
    out = []
    for group in brackets.bracket_groups(text):
        fields = [f.strip() for f in brackets.split_unescaped(group, "|")]
        if len(fields) > 3:
            raise brackets.BracketError("too many '|' fields", group)
        mention = brackets.unescape(fields[0])
        type_label: str | None = None
        rel_field = ""
        if len(fields) == 3:
            type_label = brackets.unescape(fields[1]) or None
            rel_field = fields[2]
        elif len(fields) == 2:
            rel_field = fields[1]
        relations = [
            brackets.unescape(r.strip())
            for r in brackets.split_unescaped(rel_field, ",")
            if r.strip()
        ]
        out.append(EntityStructure(mention, type_label, relations))
    return out


def build_encoder_input(
    store: KbStore,
    question: str,
    entities: Iterable[LinkedEntity],
    budget: int = DEFAULT_BUDGET,
    similarity: Similarity | None = None,
) -> EncoderInput:
    """Render the question with all entity structures, shrunk to the budget.

    Relations are dropped one at a time, lowest-ranked first, cycling over
    the entities, until the rendering fits.  A question that cannot fit even
    with every relation list empty raises :class:`InputTooLongError`.
    """
    ordered = sorted(entities, key=lambda e: (e.start, e.end))
    if token_count(question) > budget:
        raise InputTooLongError(
            f"question alone is {token_count(question)} tokens, budget {budget}"
        )
    structures = [build_entity_structure(store, question, e, similarity) for e in ordered]
    kept = [list(s.relations) for s in structures]
    cursor = 0
    while True:
        trial = [
            EntityStructure(s.mention, s.type_label, kept[i])
            for i, s in enumerate(structures)
        ]
        rendered = render_input(question, trial)
        if token_count(rendered) <= budget:
            return EncoderInput(question, trial, rendered, budget)
        if not any(kept):
            raise InputTooLongError(
                f"minimal rendering is {token_count(rendered)} tokens, budget {budget}"
            )
        # Drop the lowest-ranked relation of the next non-empty entity.
        while not kept[cursor % len(kept)]:
            cursor += 1
        kept[cursor % len(kept)].pop()
        cursor += 1


@dataclass
class QuestionRecord:
    question_id: str
    question: str
    entities: list[LinkedEntity] = field(default_factory=list)


def read_question_records(
    source: IO[str] | Iterable[str], profile=None
) -> Iterator[QuestionRecord]:
    """Parse linked-question JSON Lines, validating entity spans."""
    from .terms import DBPEDIA

    prof = profile or DBPEDIA
    for lineno, line in enumerate(source, start=1):
        if not line.strip():
            continue
        try:
            raw = json.loads(line)
            entities = [
                LinkedEntity(
                    mention=e["mention"],
                    start=int(e["start"]),
                    end=int(e["end"]),
                    entity=normalize_iri(e["iri"], prof),
                )
                for e in raw.get("entities", [])
            ]
            record = QuestionRecord(str(raw["question_id"]), raw["question"], entities)
            for entity in record.entities:
                entity.check_span(record.question)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"questions line {lineno}: {exc}") from None
        yield record
