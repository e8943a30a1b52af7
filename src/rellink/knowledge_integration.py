"""Builds the enriched encoder input: question text plus entity structures.

Each pre-linked entity contributes one bracketed structure holding its
mention, its most specific KB type, and its candidate relations ranked by
similarity to the question.  The rendered line is kept within a whitespace
token budget by dropping the lowest-ranked relations round-robin across
entities; the question itself is never truncated.  A drop never adds a
token, so the fewest drops that fit are found by bisection: O(log R)
renderings for R candidate relations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator

from . import brackets
from .kb_store import KbStore
from .similarity import DEFAULT_SIMILARITY, Similarity
from .terms import DBPEDIA, Iri, Profile, expect_str, json_record, read_lines, record_iri

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


def token_count(text: str) -> int:
    """Budget unit: whitespace-delimited tokens."""
    return len(text.split())


def rank_candidate_relations(
    question: str,
    labels: Iterable[str],
    similarity: Similarity | None = None,
) -> list[str]:
    """Labels in descending similarity to the question; ties lexicographic."""
    score = (similarity or DEFAULT_SIMILARITY).for_question(question)
    return sorted(set(labels), key=lambda lbl: (-score(lbl), lbl))


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
    # A blank local name (``<http://example.org/rel/>``) labels nothing.
    labels.discard("")
    ranked = rank_candidate_relations(question, labels, similarity)
    return EntityStructure(entity.mention, type_label, ranked)


def _escaped(structure: EntityStructure) -> tuple[str, list[str]]:
    """The escaped ``mention | type`` head and escaped relations."""
    head = [brackets.escape(structure.mention)]
    if structure.type_label is not None:
        head.append(brackets.escape(structure.type_label))
    return " | ".join(head), [brackets.escape(r) for r in structure.relations]


def _group(head: str, relations: list[str]) -> str:
    return f"[{head} | {', '.join(relations)}]"


def _render(question: str, pieces: Iterable[tuple[str, list[str]]]) -> str:
    """The question, then one bracket group per escaped (head, relations)."""
    return " ".join([question.strip(), *(_group(h, r) for h, r in pieces)])


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
    pieces = [_escaped(s) for s in structures]

    def render(kept: list[int]) -> str:
        """The input with entity i's top ``kept[i]`` relations."""
        return _render(question, ((h, r[:n]) for (h, r), n in zip(pieces, kept)))

    lengths = [len(r) for _, r in pieces]
    kept, rendered = lengths, render(lengths)
    tokens = token_count(rendered)
    if tokens > budget:
        # The j-th drop from any entity comes in round j, and each round visits
        # the non-empty entities in order; an entity drops its lowest-ranked
        # relations first.  A drop never adds a token, so bisect the number of
        # drops: ``too_long`` drops do not fit, and none fewer than ``fit_at``.
        order = sorted((j, i) for i, n in enumerate(lengths) for j in range(n))

        def after(drops: int) -> list[int]:
            # Rounds before ``j`` are complete; round ``j`` got to entity ``last``.
            j, last = order[drops - 1]
            return [n - min(n, j + (i <= last)) for i, n in enumerate(lengths)]

        too_long, fit_at = 0, len(order) + 1
        while fit_at - too_long > 1:
            mid = (too_long + fit_at) // 2
            text = render(after(mid))
            count = token_count(text)
            if count <= budget:
                fit_at, rendered = mid, text
            else:
                too_long, tokens = mid, count
        if fit_at > len(order):
            raise InputTooLongError(f"minimal rendering is {tokens} tokens, budget {budget}")
        kept = after(fit_at)
    fitted = [
        EntityStructure(s.mention, s.type_label, s.relations[:n])
        for s, n in zip(structures, kept)
    ]
    return EncoderInput(question, fitted, rendered)


@dataclass
class QuestionRecord:
    question_id: str
    question: str
    entities: list[LinkedEntity] = field(default_factory=list)


def _offset(entity: dict, key: str) -> int:
    """A span offset: a JSON integer, never a float, bool or string."""
    if type(entity[key]) is not int:
        raise TypeError(f"span {key} must be an integer, got {entity[key]!r}")
    return entity[key]


def read_question_records(
    source: IO[str] | Iterable[str], profile: Profile = DBPEDIA
) -> Iterator[QuestionRecord]:
    """Parse linked-question JSON Lines, validating entity spans."""

    def parse(line: str) -> QuestionRecord:
        qid, raw = json_record(line)
        entities = [
            LinkedEntity(
                mention=e["mention"],
                start=_offset(e, "start"),
                end=_offset(e, "end"),
                entity=record_iri(e["iri"], profile),
            )
            for e in raw.get("entities", [])
        ]
        question = expect_str(raw["question"], "question")
        for entity in entities:
            entity.check_span(question)
        return QuestionRecord(qid, question, entities)

    return read_lines(source, "questions", parse)
