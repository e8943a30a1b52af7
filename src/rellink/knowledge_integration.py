"""Builds the enriched encoder input: question text plus entity structures.

Each pre-linked entity contributes one bracketed structure holding its
mention, its most specific KB type, and its candidate relations ranked by
similarity to the question, with their scores: the fit scores each distinct
label once, and the baseline generator reads the scores.  The rendered line
is kept within a whitespace token budget by dropping the lowest-ranked
relations round-robin across entities; the question itself is never
truncated.  A token count is a sum over parts, so each drop subtracts its
relation's count: one rendering, and a second only if something was dropped.

Only the budget check runs when the input is built: the question is
counted, then each entity's type is looked up and the minimal rendering is
counted from its parts.  Ranking and fitting go into the ``fit`` callable of
``EncoderInput(question, fit)``, the one way to make an input; it runs the
first time ``structures`` or ``rendered`` is read, and its result is kept.
The baseline generator reads ``structures`` and the remote one
``rendered``; fixture replay reads neither, so it never ranks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from typing import IO, Callable, Iterable, Iterator

from . import brackets
from .kb_store import KbStore
from .similarity import DEFAULT_SIMILARITY, Similarity
from .terms import DBPEDIA, Iri, Profile, expect, json_record, read_lines, record_iri

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
    scores: list[float]  # each relation's similarity to the question


class EncoderInput:
    """The question, its entity structures fitted to the budget, and their
    rendering.

    ``EncoderInput(question, fit)`` is the one way to make one: ``fit``
    returns ``(structures, rendered)``, runs the first time either is read,
    and its result is kept.
    """

    __slots__ = ("question", "_structures", "_rendered", "_fit")

    def __init__(self, question: str, fit: Callable[[], tuple[list[EntityStructure], str]]):
        self.question = question
        self._fit = fit

    def _fitted(self) -> tuple[list[EntityStructure], str]:
        if self._fit is not None:
            self._structures, self._rendered = self._fit()
            self._fit = None
        return self._structures, self._rendered

    @property
    def structures(self) -> list[EntityStructure]:
        return self._fitted()[0]

    @property
    def rendered(self) -> str:
        return self._fitted()[1]


def token_count(text: str) -> int:
    """Budget unit: whitespace-delimited tokens."""
    return len(text.split())


def rank_candidate_relations(
    labels: Iterable[str], score: Callable[[str], float]
) -> tuple[list[str], list[float]]:
    """The distinct labels by descending ``score``, ties lexicographic, and their scores."""
    ranked = sorted([(-score(label), label) for label in set(labels)])
    # Negation is exact, so each score comes back bit for bit.
    return [label for _, label in ranked], [-negated for negated, _ in ranked]


def _type_label(store: KbStore, entity: Iri) -> str | None:
    cls = store.most_specific_type(entity)
    return store.label_of(cls) if cls is not None else None


def build_entity_structure(
    store: KbStore,
    entity: LinkedEntity,
    score: Callable[[str], float],
    type_label: str | None,
) -> EntityStructure:
    """The entity's type label, as given, and its candidate relations ranked
    by ``score``, the question's bound scorer."""
    # Typing predicates feed the type slot, not the relation candidates.
    skip = {store.profile.type_predicate, store.profile.subclass_predicate}
    labels = {
        store.label_of(r) for r in store.relations_of(entity.entity) if r not in skip
    }
    # A blank local name (``<http://example.org/rel/>``) labels nothing.
    labels.discard("")
    return EntityStructure(entity.mention, type_label, *rank_candidate_relations(labels, score))


def _opening(mention: str, type_label: str | None) -> str:
    """A bracket group up to its relations: ``[mention | type | ``, escaped."""
    if type_label is None:
        return f"[{brackets.escape(mention)} | "
    return f"[{brackets.escape(mention)} | {brackets.escape(type_label)} | "


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
    with every relation list empty raises :class:`InputTooLongError` here;
    the ranking and the fitted rendering wait for the first read of
    ``structures`` or ``rendered``.
    """
    alone = token_count(question)
    if alone > budget:
        raise InputTooLongError(f"question alone is {alone} tokens, budget {budget}")
    ordered = sorted(entities, key=lambda e: (e.start, e.end))
    types = [_type_label(store, e.entity) for e in ordered]
    openings = [_opening(e.mention, t) for e, t in zip(ordered, types)]
    # The question, then one bracket group per entity, each closed by a lone "]".
    tokens = token_count(" ".join([question, *openings])) + len(openings)
    if tokens > budget:
        raise InputTooLongError(f"minimal rendering is {tokens} tokens, budget {budget}")

    def fit() -> tuple[list[EntityStructure], str]:
        # One binding per question; a label two entities share is scored once.
        score = cache((similarity or DEFAULT_SIMILARITY).for_question(question))
        structures = [build_entity_structure(store, e, score, t) for e, t in zip(ordered, types)]
        relations = [[brackets.escape(r) for r in s.relations] for s in structures]
        kept = [len(r) for r in relations]

        def render(kept: list[int]) -> str:
            """The input with entity i's top ``kept[i]`` relations."""
            groups = [f"{o}{', '.join(r[:n])}]" for o, r, n in zip(openings, relations, kept)]
            return " ".join([question.strip(), *groups])

        rendered = render(kept)
        excess = token_count(rendered) - budget
        if excess > 0:
            # The count is exact, so no drop is rendered: ``str.split()``
            # counts parts joined by whitespace as the sum of their counts;
            # each opening ``[mention | type | `` ends in a space; a kept
            # list ``r0, r1, …, rk]`` is the pieces ``rj + ","`` (the last
            # ``rk + "]"``) joined by single spaces, and ``r + ","`` and
            # ``r + "]"`` count the same for any ``r``, whitespace included.
            # So dropping relation j of entity i lowers the count by
            # ``token_count(rij + ",")``; when that empties the list, the
            # lone ``"]"`` raises it by 1.  Round j drops, in entity order,
            # the j-th lowest-ranked relation of each entity holding more
            # than j.  The minimal rendering fits, so the walk ends in a fit.
            drops = (i for j in range(max(kept)) for i, r in enumerate(relations) if j < len(r))
            for i in drops:
                kept[i] -= 1
                excess -= token_count(relations[i][kept[i]] + ",") - (kept[i] == 0)
                if excess <= 0:
                    break
            rendered = render(kept)
        for s, n in zip(structures, kept):
            del s.relations[n:], s.scores[n:]
        return structures, rendered

    return EncoderInput(question, fit)


@dataclass
class QuestionRecord:
    question_id: str
    question: str
    entities: list[LinkedEntity] = field(default_factory=list)


def read_question_records(
    source: IO[str] | Iterable[str], profile: Profile = DBPEDIA
) -> Iterator[QuestionRecord]:
    """Parse linked-question JSON Lines, validating entity spans: each offset
    is a JSON integer, never a float, bool or string."""

    def parse(line: str) -> QuestionRecord:
        qid, raw = json_record(line)
        entities = []
        for e in expect(raw.get("entities", []), list, "entities"):
            e = expect(e, dict, "entity")
            entities.append(LinkedEntity(
                mention=expect(e["mention"], str, "mention"),
                start=expect(e["start"], int, "span start"),
                end=expect(e["end"], int, "span end"),
                entity=record_iri(e["iri"], profile),
            ))
        question = expect(raw["question"], str, "question")
        for entity in entities:
            entity.check_span(question)
        return QuestionRecord(qid, question, entities)

    return read_lines(source, "questions", parse)
