"""Encoder input building: structures, rendering, and the token budget."""

from __future__ import annotations

import io
import random

import pytest

from conftest import (
    DBO,
    DBR,
    FORD_QUESTION,
    RDF_TYPE,
    entity,
    nt,
    parse_structures,
    ref_render_input,
    unscored,
)
from rellink import knowledge_integration
from rellink.kb_store import KbStore, load_kb
from rellink.knowledge_integration import (
    EntityStructure,
    InputTooLongError,
    LinkedEntity,
    build_encoder_input,
    build_entity_structure,
    read_question_records,
    token_count,
)
from rellink.similarity import DEFAULT_SIMILARITY
from rellink.terms import DBPEDIA, Iri


def _structure(store, question, entity):
    """The entity's structure, its type label looked up and its relations
    scored as :func:`build_encoder_input` does."""
    cls = store.most_specific_type(entity.entity)
    type_label = store.label_of(cls) if cls is not None else None
    return build_entity_structure(store, entity, DEFAULT_SIMILARITY.for_question(question), type_label)


def _read(enc):
    """The fitted values of an encoder input, for comparison."""
    return enc.structures, enc.rendered


class TestBuildEntityStructure:
    def test_type_and_relations(self, ford_store, ford_entities):
        structure = _structure(ford_store, FORD_QUESTION, ford_entities[0])
        assert structure.mention == "Ford Kansas City Assembly Plant"
        assert structure.type_label == "Factory"
        assert structure.relations[0] == "owningOrganisation"
        assert "type" not in structure.relations

    def test_blank_local_name_is_not_a_candidate(self):
        store = load_kb(
            nt(DBR + "A", DBO + "spouse", DBR + "B")
            + "\n"
            + nt(DBR + "A", "http://example.org/rel/", DBR + "C")
        )
        a = LinkedEntity("A", 7, 8, Iri("dbr:A"))
        structure = _structure(store, "Who is A?", a)
        assert structure.relations == ["spouse"]

    def test_unknown_entity_mention_only(self, ford_store):
        unknown = LinkedEntity("Ghost", 0, 5, Iri("dbr:Ghost"))
        structure = _structure(ford_store, "Ghost question", unknown)
        assert structure == EntityStructure("Ghost", None, [], [])


def _encoder_input(question, mentions, triples, ontology=None):
    """The encoder input for a tiny KB; ``mentions`` pairs each mention with
    the local name of its ``dbr:`` entity."""
    store = load_kb("\n".join(triples), ontology)
    entities = [entity(question, mention, f"dbr:{name}") for mention, name in mentions]
    return build_encoder_input(store, question, entities)


class TestRendering:
    def test_full_structure(self):
        enc = _encoder_input(
            "Who owns the Plant?",
            [("Plant", "Plant")],
            [
                nt(DBR + "Plant", DBO + "owns", DBR + "X"),
                nt(DBR + "Plant", DBO + "builds", DBR + "Y"),
                nt(DBR + "Plant", RDF_TYPE, DBO + "Factory"),
            ],
        )
        assert unscored(enc.structures) == [("Plant", "Factory", ["owns", "builds"])]
        # Each relation's score, in rank order: "owns" is a question token,
        # and "builds" shares no trigram with one.
        score = DEFAULT_SIMILARITY.for_question("Who owns the Plant?")
        assert enc.structures[0].scores == [score("owns"), score("builds")]
        assert score("owns") == pytest.approx(1.0) and score("builds") == 0.0
        assert enc.rendered == "Who owns the Plant? [Plant | Factory | owns, builds]"

    def test_no_type(self):
        triples = [nt(DBR + "Plant", DBO + "owns", DBR + "X")]
        enc = _encoder_input("Who owns the Plant?", [("Plant", "Plant")], triples)
        assert enc.rendered == "Who owns the Plant? [Plant | owns]"

    def test_type_with_empty_relations_differs_from_single_relation(self):
        # [m | Factory | ] and [m | Factory] must parse back differently.
        question = "What is m?"
        typed = [nt(DBR + "m", RDF_TYPE, DBO + "Factory")]
        related = [nt(DBR + "m", DBO + "Factory", DBR + "X")]
        with_type = _encoder_input(question, [("m", "m")], typed)
        with_rel = _encoder_input(question, [("m", "m")], related)
        assert with_type.rendered == "What is m? [m | Factory | ]"
        assert with_rel.rendered == "What is m? [m | Factory]"
        assert unscored(with_type.structures) == [("m", "Factory", [])]
        assert unscored(with_rel.structures) == [("m", None, ["Factory"])]
        for enc in (with_type, with_rel):
            assert parse_structures(enc.rendered[len(question):]) == unscored(enc.structures)

    def test_escaping_roundtrip(self):
        question = "Where is a | b [c] from?"
        enc = _encoder_input(
            question,
            [("a | b [c]", "E")],
            [
                nt(DBR + "E", DBO + "r1", DBR + "X"),
                nt(DBR + "E", DBO + "r2", DBR + "X"),
                nt(DBR + "E", RDF_TYPE, DBO + "T"),
            ],
            f"label\t{DBO}T\tT,ype\nlabel\t{DBO}r1\tr,1\nlabel\t{DBO}r2\tr|2",
        )
        assert unscored(enc.structures) == [("a | b [c]", "T,ype", ["r,1", "r|2"])]
        assert enc.rendered == question + r" [a \| b \[c\] | T\,ype | r\,1, r\|2]"
        assert parse_structures(enc.rendered[len(question):]) == unscored(enc.structures)

    def test_multiple_structures(self):
        question = "Is A next to B?"
        enc = _encoder_input(
            question,
            [("A", "A"), ("B", "B")],
            [nt(DBR + "A", DBO + "r1", DBR + "X"), nt(DBR + "A", RDF_TYPE, DBO + "T")],
        )
        assert enc.rendered == "Is A next to B? [A | T | r1] [B | ]"
        assert parse_structures(enc.rendered[len(question):]) == [("A", "T", ["r1"]), ("B", None, [])]


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


class TestLazyFit:
    """Building checks the budget only; ranking and fitting run on the first
    read of ``structures`` or ``rendered``, once."""

    @pytest.fixture()
    def ranked(self, monkeypatch):
        calls = []
        rank = knowledge_integration.rank_candidate_relations

        def counted(labels, score):
            calls.append(score)
            return rank(labels, score)

        monkeypatch.setattr(knowledge_integration, "rank_candidate_relations", counted)
        return calls

    @pytest.mark.parametrize(
        "reads",
        [("structures", "rendered"), ("rendered", "structures"),
         ("structures", "structures"), ("rendered", "rendered", "structures")],
    )
    def test_fits_once_in_any_read_order(self, ford_store, ford_entities, ranked, reads):
        full = ref_render_input(
            FORD_QUESTION, [_structure(ford_store, FORD_QUESTION, e) for e in ford_entities]
        )
        budget = token_count(full) - 1
        ranked.clear()
        enc = build_encoder_input(ford_store, FORD_QUESTION, ford_entities, budget)
        assert ranked == []
        values = [getattr(enc, name) for name in reads]
        assert len(ranked) == len(ford_entities)
        structures = [_structure(ford_store, FORD_QUESTION, e) for e in ford_entities]
        fitted, rendered = _ref_shrink(FORD_QUESTION, structures, budget)
        assert values == [{"structures": fitted, "rendered": rendered}[name] for name in reads]
        assert _read(enc) == (fitted, rendered) and enc.rendered != full
        assert len(ranked) == 2 * len(ford_entities)

    def test_type_is_looked_up_once(self, ford_store, ford_entities, monkeypatch):
        looked_up = []
        lookup = KbStore.most_specific_type
        monkeypatch.setattr(
            KbStore, "most_specific_type", lambda store, e: looked_up.append(e) or lookup(store, e)
        )
        enc = build_encoder_input(ford_store, FORD_QUESTION, ford_entities)
        assert looked_up == [e.entity for e in ford_entities]
        assert [s.type_label for s in enc.structures] == ["Factory", "AutomobileEngine"]
        assert len(looked_up) == len(ford_entities)
        # A question over the budget on its own fails before any lookup.
        looked_up.clear()
        with pytest.raises(InputTooLongError, match="^question alone is "):
            build_encoder_input(ford_store, FORD_QUESTION, ford_entities, budget=1)
        assert looked_up == []

    def test_budget_errors_are_raised_when_built(self, ford_store, ford_entities, ranked):
        too_long = len(FORD_QUESTION.split())
        with pytest.raises(InputTooLongError, match=f"^question alone is {too_long} tokens, budget 20$"):
            build_encoder_input(ford_store, FORD_QUESTION, ford_entities, budget=20)
        with pytest.raises(InputTooLongError, match="^minimal rendering is 37 tokens, budget 36$"):
            build_encoder_input(ford_store, FORD_QUESTION, ford_entities, budget=36)
        enc = build_encoder_input(ford_store, FORD_QUESTION, ford_entities, budget=37)
        assert ranked == []
        structures = [_structure(ford_store, FORD_QUESTION, e) for e in ford_entities]
        assert _read(enc) == _ref_shrink(FORD_QUESTION, structures, 37)
        assert token_count(enc.rendered) == 37


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


# -- the budget loop against the one it replaced ----------------------------
#
# Reference: the earlier shrink loop, which re-escaped and re-rendered every
# relation after each drop, kept verbatim but for the scores each kept
# relation carries.


def _ref_shrink(question, structures, budget) -> tuple[list[EntityStructure], str]:
    kept = [list(s.relations) for s in structures]
    cursor = 0
    while True:
        trial = [
            EntityStructure(s.mention, s.type_label, kept[i], s.scores[: len(kept[i])])
            for i, s in enumerate(structures)
        ]
        rendered = ref_render_input(question, trial)
        if token_count(rendered) <= budget:
            return trial, rendered
        if not any(kept):
            raise InputTooLongError(
                f"minimal rendering is {token_count(rendered)} tokens, budget {budget}"
            )
        # Drop the lowest-ranked relation of the next non-empty entity.
        while not kept[cursor % len(kept)]:
            cursor += 1
        kept[cursor % len(kept)].pop()
        cursor += 1


_PIECES = ["birth", "place", "of", "year", "x", "[", "]", "|", ",", "\\", "a,b", "[c]", "d|e", "f\\"]


def _random_text(rng: random.Random, most: int) -> str:
    words = [rng.choice(_PIECES) for _ in range(rng.randint(1, most))]
    return rng.choice([" ", "", "_"]).join(words)


_EDGES = [" ", "\t", "  ", " \t "]


def _edge_label(rng: random.Random) -> str:
    """A label with whitespace at its start, its end or both, or only whitespace."""
    pad, text = rng.choice(_EDGES), _random_text(rng, 2)
    return rng.choice([pad, pad + text, text + pad, pad + text + rng.choice(_EDGES)])


def _random_case(rng: random.Random):
    """A store, a question, and 1-3 linked entities whose relation labels,
    type labels and mentions hold reserved characters; some have no type,
    and some labels hold edge whitespace or only whitespace."""
    triples, ontology, entities, labelled = [], [], [], []
    for i in range(rng.randint(1, 3)):
        subject = f"{DBR}E{i}"
        for j in range(rng.randint(0, 12)):
            triples.append(nt(subject, f"{DBO}r{i}_{j}", f"{DBR}V{i}_{j}"))
            ontology.append(f"label\t{DBO}r{i}_{j}\t{_random_text(rng, 3)}")
            labelled.append(Iri(f"dbo:r{i}_{j}"))
        if rng.random() < 0.6:
            triples.append(nt(subject, RDF_TYPE, f"{DBO}T{i}"))
            ontology.append(f"label\t{DBO}T{i}\t{_random_text(rng, 2)}")
            labelled.append(Iri(f"dbo:T{i}"))
        start = rng.randrange(100)
        entities.append(LinkedEntity(_random_text(rng, 3), start, start + 1, Iri(f"dbr:E{i}")))
    store = load_kb("\n".join(triples), "\n".join(ontology))
    # load_ontology strips a label; set_label keeps it as given.
    for iri in labelled:
        if rng.random() < 0.25:
            store.set_label(iri, _edge_label(rng))
    question = " ".join(rng.choice(_PIECES[:5]) for _ in range(rng.randint(1, 8)))
    return store, question, entities


def _outcome(build):
    try:
        return build()
    except InputTooLongError as exc:
        return str(exc)


class TestShrinkMatchesReference:
    @pytest.mark.parametrize("seed", range(30))
    def test_random_inputs(self, seed):
        rng = random.Random(seed)
        store, question, entities = _random_case(rng)
        ordered = sorted(entities, key=lambda e: (e.start, e.end))
        structures = [_structure(store, question, e) for e in ordered]
        floor = token_count(question)
        full = token_count(ref_render_input(question, structures))
        # From "question only" (too small for any bracket group) to generous.
        budgets = {floor, floor + 1, floor + 3, full - 1, full, full + 10}
        budgets.update(rng.randint(floor, full + 2) for _ in range(8))
        for budget in sorted(budgets):
            expected = _outcome(lambda: _ref_shrink(question, structures, budget))
            actual = _outcome(lambda: _read(build_encoder_input(store, question, entities, budget)))
            assert actual == expected, budget

    def test_counts_one_rendering_and_each_drop(self, monkeypatch):
        # R = 3,000 candidate relations over three entities: a fit counts the
        # full rendering once and then one relation per drop, never a
        # rendering per drop.
        store = KbStore(DBPEDIA)
        entities = []
        for i, count in enumerate((2000, 700, 300)):
            for j in range(count):
                store.add_triple(Iri(f"dbr:E{i}"), Iri(f"dbo:r{i}_{j}"), Iri(f"dbr:V{j}"))
            entities.append(LinkedEntity(f"E{i}", 2 * i, 2 * i + 1, Iri(f"dbr:E{i}")))
        question = "E0 E1 E2 which relation?"
        full = build_encoder_input(store, question, entities, budget=10**6)
        # Ranking and fitting run on the first read; read ``full`` before counting.
        assert full.rendered
        counted = []
        monkeypatch.setattr(
            knowledge_integration, "token_count", lambda text: counted.append(text) or token_count(text)
        )
        # An input that fits counts the question, the minimal input and the
        # full rendering.
        assert _read(build_encoder_input(store, question, entities, budget=10**6)) == _read(full)
        assert len(counted) == 3 and counted.count(full.rendered) == 1
        for budget in (token_count(full.rendered) - 5, 1500, 50, token_count(question)):
            counted.clear()
            outcome = _outcome(lambda: build_encoder_input(store, question, entities, budget))
            assert len(counted) == 2, (budget, len(counted))
            if budget == token_count(question):
                assert outcome.startswith("minimal rendering is "), outcome
                continue
            assert token_count(outcome.rendered) <= budget
            # Round robin: entities that still hold relations dropped equally
            # often, give or take one, and no emptied entity dropped more.
            kept = [len(s.relations) for s in outcome.structures]
            dropped = [len(s.relations) - k for s, k in zip(full.structures, kept)]
            live = [d for d, k in zip(dropped, kept) if k]
            assert max(live) - min(live) <= 1 and max(dropped) == max(live), kept
            # That read ran the fit: one full rendering, then one relation per drop.
            assert counted.count(full.rendered) == 1
            assert len(counted) <= sum(dropped) + 3, (budget, len(counted), sum(dropped))
        # The reference drops one relation at a time; few drops keep it quick.
        budget = token_count(full.rendered) - 5
        assert _read(build_encoder_input(store, question, entities, budget)) == _ref_shrink(
            question, full.structures, budget
        )
