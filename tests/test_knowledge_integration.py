"""Encoder input building: structures, rendering, and the token budget."""

from __future__ import annotations

import io

import pytest

from conftest import DBO, DBR, FORD_QUESTION, entity, nt
from rellink import load_kb
from rellink.knowledge_integration import (
    EntityStructure,
    InputTooLongError,
    LinkedEntity,
    build_encoder_input,
    build_entity_structure,
    parse_structures,
    read_question_records,
    render_structure,
    token_count,
)
from rellink.terms import Iri


class TestBuildEntityStructure:
    def test_type_and_relations(self, ford_store, ford_entities):
        structure = build_entity_structure(ford_store, FORD_QUESTION, ford_entities[0])
        assert structure.mention == "Ford Kansas City Assembly Plant"
        assert structure.type_label == "Factory"
        assert structure.relations[0] == "owningOrganisation"
        assert "type" not in structure.relations

    def test_unknown_entity_mention_only(self, ford_store):
        unknown = LinkedEntity("Ghost", 0, 5, Iri("dbr:Ghost"))
        structure = build_entity_structure(ford_store, "Ghost question", unknown)
        assert structure == EntityStructure("Ghost", None, [])


class TestRendering:
    def test_full_structure(self):
        structure = EntityStructure("Plant", "Factory", ["owns", "builds"])
        assert render_structure(structure) == "[Plant | Factory | owns, builds]"

    def test_no_type(self):
        structure = EntityStructure("Plant", None, ["owns"])
        assert render_structure(structure) == "[Plant | owns]"

    def test_type_with_empty_relations_differs_from_single_relation(self):
        # [m | Factory | ] and [m | Factory] must parse back differently.
        with_type = EntityStructure("m", "Factory", [])
        with_rel = EntityStructure("m", None, ["Factory"])
        assert render_structure(with_type) != render_structure(with_rel)
        assert parse_structures(render_structure(with_type)) == [with_type]
        assert parse_structures(render_structure(with_rel)) == [with_rel]

    def test_escaping_roundtrip(self):
        structure = EntityStructure("a | b [c]", "T,ype", ["r,1", "r|2"])
        assert parse_structures(render_structure(structure)) == [structure]

    def test_multiple_structures(self):
        structures = [
            EntityStructure("A", "T", ["r1"]),
            EntityStructure("B", None, []),
        ]
        text = " ".join(render_structure(s) for s in structures)
        assert parse_structures(text) == structures


class TestBuildEncoderInput:
    def test_fig1_style_rendering(self, ford_store, ford_entities):
        enc = build_encoder_input(ford_store, FORD_QUESTION, ford_entities)
        assert enc.rendered.startswith(FORD_QUESTION)
        assert "[Ford Kansas City Assembly Plant | Factory | " in enc.rendered
        assert "[Ford Y-block engine | " in enc.rendered
        assert len(enc.structures) == len(ford_entities)

    def test_zero_entities(self, ford_store):
        enc = build_encoder_input(ford_store, "What is this?", [])
        assert enc.rendered == "What is this?"

    def test_budget_respected(self, ford_store, ford_entities):
        # One token below the full rendering, forcing a single relation drop.
        full = build_encoder_input(ford_store, FORD_QUESTION, ford_entities)
        budget = token_count(full.rendered) - 1
        enc = build_encoder_input(ford_store, FORD_QUESTION, ford_entities, budget=budget)
        assert token_count(enc.rendered) <= budget
        kept = enc.structures[0].relations
        assert kept == full.structures[0].relations[: len(kept)]

    def test_round_robin_shrink(self):
        # Two entities with 5 one-token relations each; a budget that only
        # admits 6 relation tokens keeps 3 per entity.
        triples = []
        for i in range(5):
            triples.append(nt(DBR + "A", DBO + f"ra{i}", DBR + f"VA{i}"))
            triples.append(nt(DBR + "B", DBO + f"rb{i}", DBR + f"VB{i}"))
        store = load_kb("\n".join(triples))
        question = "q about A and B"
        entities = [
            LinkedEntity("A", 8, 9, Iri("dbr:A")),
            LinkedEntity("B", 14, 15, Iri("dbr:B")),
        ]
        # Rendering: 5 question tokens, then per entity [ A | r, r, r ]:
        # brackets and pipes cost tokens too. Budget chosen so exactly three
        # relations per entity survive.
        full = build_encoder_input(store, question, entities, budget=512)
        full_tokens = token_count(full.rendered)
        enc = build_encoder_input(store, question, entities, budget=full_tokens - 4)
        assert [len(s.relations) for s in enc.structures] == [3, 3]
        ranked_a = full.structures[0].relations
        assert enc.structures[0].relations == ranked_a[:3]

    def test_question_alone_too_long(self, ford_store):
        with pytest.raises(InputTooLongError):
            build_encoder_input(ford_store, "one two three four", [], budget=3)

    def test_minimal_rendering_too_long(self, ford_store, ford_entities):
        # Budget admits the question but not even empty-relation structures.
        question_tokens = token_count(FORD_QUESTION)
        with pytest.raises(InputTooLongError):
            build_encoder_input(
                ford_store, FORD_QUESTION, ford_entities, budget=question_tokens + 1
            )

    def test_entities_sorted_by_offset(self, ford_store, ford_entities):
        enc = build_encoder_input(ford_store, FORD_QUESTION, list(reversed(ford_entities)))
        assert enc.structures[0].mention == "Ford Kansas City Assembly Plant"


class TestQuestionReader:
    RECORD = (
        '{"question_id": "q1", "question": "Who made the Ford Y-block engine?", '
        '"entities": [{"mention": "Ford Y-block engine", "start": 13, "end": 32, '
        '"iri": "http://dbpedia.org/resource/Ford_Y-block_engine"}]}'
    )

    def test_reads_and_normalizes(self):
        records = list(read_question_records(io.StringIO(self.RECORD)))
        assert len(records) == 1
        assert records[0].question_id == "q1"
        assert records[0].entities[0].entity == Iri("dbr:Ford_Y-block_engine")

    def test_span_mismatch_rejected(self):
        bad = self.RECORD.replace('"start": 13', '"start": 12')
        with pytest.raises(ValueError, match="line 1"):
            list(read_question_records(io.StringIO(bad)))

    def test_blank_lines_skipped(self):
        records = list(read_question_records(io.StringIO("\n" + self.RECORD + "\n\n")))
        assert len(records) == 1
