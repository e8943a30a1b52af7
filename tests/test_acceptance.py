"""Acceptance gate: one test per release criterion, each printing a verdict.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines; every criterion states its tolerance and time budget inline.
"""

from __future__ import annotations

import json
import os
import string
import subprocess
import sys
import time
from collections import Counter
from contextlib import contextmanager
from itertools import product
from random import Random

from conftest import (
    FORD_BEAM_1,
    FORD_ONTOLOGY,
    FORD_QUESTION,
    FORD_TRIPLES,
    OBAMA_QUESTION,
    entity,
    nt,
    parse_structures,
    ref_render_input,
    unscored,
)
from oracle_link import (
    ASK_WINDOW,
    ask_hit,
    build_ask_fixture,
    build_fixture,
    build_reified_fixture,
    oracle_ask,
    oracle_link,
)
from rellink.evaluation import GoldRecord, relaxed_score, score_sets
from rellink.generator import GeneratorConfig, make_generator
from rellink.kb_store import load_kb
from rellink.knowledge_integration import (
    EntityStructure,
    InputTooLongError,
    LinkedEntity,
    build_encoder_input,
    token_count,
)
from rellink.knowledge_validation import expand_pair, link, validate_sequence
from rellink.sequence_grammar import (
    WH_LEXICON,
    OutputSequence,
    parse_output,
    render_group,
    serialize_target,
)
from rellink.terms import VAR_X, VAR_Y, Iri, PropertyPath, TriplePattern

DBR = "http://dbpedia.org/resource/"


@contextmanager
def criterion(name: str, budget_s: float | None = None):
    """Print one PASS/FAIL line per criterion; enforce the time budget."""
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if budget_s is not None and elapsed >= budget_s:
            raise AssertionError(f"took {elapsed:.2f}s, budget {budget_s}s")
    except BaseException:
        print(f"\n[criterion] {name}: FAIL")
        raise
    print(f"\n[criterion] {name}: PASS ({elapsed:.2f}s)")


# 1. score_sets reproduces the error-analysis table exactly.
def test_criterion_01_metric_oracle():
    gold = {Iri("dbp:almaMater"), Iri("dbo:state")}
    table = [
        ({"dbp:almaMater", "dbo:state"}, 1.0),
        ({"dbo:almaMater", "dbo:state"}, 0.5),
        ({"dbp:almaMater", "dbp:state"}, 0.5),
        ({"dbo:almaMater", "dbp:state"}, 0.0),
    ]
    with criterion("1 metric oracle (zero tolerance)", budget_s=1.0):
        for pred, expected_f1 in table:
            _, _, f1 = score_sets(gold, {Iri(p) for p in pred})
            assert f1 == expected_f1, (pred, f1, expected_f1)


def _link_fixture(fx):
    store = load_kb(fx.nt_text(), fx.ontology_text(), fx.profile)
    entities = [
        LinkedEntity(m, fx.question.index(m), fx.question.index(m) + len(m), Iri(c))
        for m, c in fx.mentions
    ]
    beams = [OutputSequence(b.text, b.score, b.rank) for b in fx.beams]
    return link(store, fx.question, beams, entities)


# 2. link agrees with an unpruned brute-force oracle on random fixtures.
def test_criterion_02_validation_oracle_equivalence():
    rng = Random(20260815)
    validated = later_rank = fallbacks = empty = 0
    with criterion("2 oracle equivalence, 1000 random fixtures", budget_s=60.0):
        for case in range(1000):
            fx = build_fixture(rng)
            got = _link_fixture(fx)
            actual = (tuple(got.relations), got.validated, got.source_rank)
            expected = oracle_link(fx)
            assert actual == expected, f"fixture {case}: {actual} != {expected}"
            if got.validated:
                validated += 1
                if got.source_rank > 1:
                    later_rank += 1
            elif got.relations:
                fallbacks += 1
            else:
                empty += 1
        # The sample must exercise every outcome class, or agreement is vacuous.
        assert validated >= 200, validated
        assert fallbacks >= 100, fallbacks
        assert later_rank >= 25, later_rank
        assert empty >= 5, empty


# 2b. ASK questions agree with the brute-force ASK oracle.
def test_criterion_02_ask_oracle_equivalence():
    rng = Random(20261018)
    true_answers = false_answers = past_window = 0
    with criterion("2b ASK oracle equivalence, 1500 random fixtures", budget_s=30.0):
        for case in range(1500):
            fx = build_ask_fixture(rng)
            got = _link_fixture(fx)
            actual = (
                tuple(got.relations),
                got.validated,
                got.source_rank,
                got.ask_answer,
            )
            expected = oracle_ask(fx)
            assert actual == expected, f"fixture {case}: {actual} != {expected}"
            if got.ask_answer:
                true_answers += 1
            else:
                false_answers += 1
                if any(ask_hit(b, fx) for b in fx.beams[ASK_WINDOW:]):
                    past_window += 1
        # Both answers, and hits that only a beam past the window holds.
        assert true_answers >= 300, true_answers
        assert false_answers >= 700, false_answers
        assert past_window >= 10, past_window


# 2c. Reified link, open and ASK questions alike, agrees with the oracle's
# scan of the raw wikidata triples.
def test_criterion_02_reified_oracle_equivalence():
    rng = Random(20261020)
    seen = Counter()
    with criterion("2c reified oracle equivalence, 2000 random fixtures", budget_s=60.0):
        for case in range(2000):
            ask = case % 2 == 1
            fx = build_reified_fixture(rng, ask)
            got = _link_fixture(fx)
            actual = (tuple(got.relations), got.validated, got.source_rank)
            if ask:
                actual += (got.ask_answer,)
            expected = oracle_ask(fx) if ask else oracle_link(fx)
            assert actual == expected, f"fixture {case}: {actual} != {expected}"
            outcome = "validated" if got.validated else "fallback" if got.relations else "empty"
            seen["ask" if ask else "open", outcome] += 1
            if got.validated:
                seen.update(("ask" if ask else "open", r.partition(":")[0]) for r in got.relations)
            if not ask and got.validated and len(got.relations) > 1:
                seen["open", "joined"] += 1
            if ask and not got.validated and any(ask_hit(b, fx) for b in fx.beams[ASK_WINDOW:]):
                seen["ask", "past window"] += 1
    # Every outcome, and every route kind (direct wdt:, statement ps:,
    # qualifier pq:) in a validated graph and in a true ASK answer.
    for key in [(q, o) for q in ("open", "ask") for o in ("validated", "fallback", "empty")]:
        assert seen[key] >= 10, (key, seen)
    for key in [(q, ns) for q in ("open", "ask") for ns in ("wdt", "ps", "pq")]:
        assert seen[key] >= 10, (key, seen)
    assert seen["open", "joined"] >= 10, seen
    assert seen["ask", "past window"] >= 5, seen


# 3. Dual-namespace pairs expand to 4 patterns; k pairs to 4^k graphs.
def test_criterion_03_four_pattern_expansion():
    lines = []
    for i in range(3):
        for ns in ("o", "p"):
            pred = f"http://dbpedia.org/{'ontology' if ns == 'o' else 'property'}/owner"
            lines.append(nt(f"{DBR}A{i}", pred, f"{DBR}Hub"))
            lines.append(nt(f"{DBR}Hub", pred, f"{DBR}A{i}"))
    store = load_kb("\n".join(lines))
    with criterion("3 four-pattern expansion and 4^k products", budget_s=1.0):
        for k in (1, 2, 3):
            pairs = [(Iri(f"dbr:A{i}"), "owner") for i in range(k)]
            for pair in pairs:
                patterns = expand_pair(store, pair)
                assert len(patterns) == 4, patterns
                assert [str(p.predicate) for p in patterns] == [
                    "dbo:owner",
                    "dbo:owner",
                    "dbp:owner",
                    "dbp:owner",
                ]
            graphs = list(product(*(expand_pair(store, pair) for pair in pairs)))
            assert len(graphs) == 4**k
            assert len(set(graphs)) == 4**k
            # Every pattern holds alone, so validation keeps the whole space.
            survivors = {}
            assert validate_sequence(store, pairs, 1, survivors).validated
            assert [len(patterns) for patterns in survivors.values()] == [4] * k


# 4. parse(serialize(rendered groups)) gives back random pair lists: each
# escaped mention parses to its own text, so resolves exactly to its entity.
def _random_chunk(rng: Random, allow_reserved: bool) -> str:
    while True:
        chars = []
        for _ in range(rng.randint(1, 12)):
            roll = rng.random()
            if allow_reserved and roll < 0.18:
                chars.append(rng.choice("|[],\\"))
            elif roll < 0.32:
                chars.append(" ")
            else:
                chars.append(rng.choice(string.ascii_letters + string.digits))
        text = "".join(chars).strip()
        if text and text.casefold() not in WH_LEXICON:
            return text


def test_criterion_04_grammar_roundtrip():
    rng = Random(4)
    wh_terms = sorted(WH_LEXICON)
    reserved_seen = {c: 0 for c in "|[],\\"}
    with criterion("4 grammar roundtrip, 10000 pair lists", budget_s=10.0):
        for _ in range(10_000):
            pairs, groups, iri_of = [], [], {}
            for _ in range(rng.randint(1, 4)):
                if rng.random() < 0.2:
                    term = rng.choice(wh_terms)
                    argument = term.title() if rng.random() < 0.5 else term
                    arg = VAR_Y
                else:
                    argument = _random_chunk(rng, allow_reserved=True)
                    arg = iri_of.setdefault(argument, Iri(f"dbr:E{len(iri_of)}"))
                label = _random_chunk(rng, rng.random() < 0.3)
                pairs.append((arg, label))
                groups.append(render_group(argument, label))
            text = serialize_target(groups)
            for char in reserved_seen:
                reserved_seen[char] += text.count("\\" + char)
            entities = [LinkedEntity(m, 0, len(m), iri) for m, iri in iri_of.items()]
            assert parse_output(text, entities) == pairs, text
        assert all(count >= 500 for count in reserved_seen.values()), reserved_seen


# 5. Rendered inputs never exceed the budget; kept relations are ranked prefixes.
def test_criterion_05_budget_safety():
    rng = Random(5)
    pool = [
        "birthPlace", "deathPlace", "owner", "spouse", "almaMater",
        "locatedIn", "foundedBy", "team", "starring", "capital",
    ]
    over_budget = 0
    with criterion("5 budget safety, 1000 random builds", budget_s=10.0):
        for case in range(1000):
            lines = []
            mentions = []
            n_entities = rng.randint(1, 3)
            for i in range(n_entities):
                mentions.append(f"Thing{i}")
                for label in rng.sample(pool, rng.randint(0, 5)):
                    ns = rng.choice(("ontology", "property"))
                    lines.append(
                        nt(f"{DBR}Thing{i}", f"http://dbpedia.org/{ns}/{label}", f"{DBR}T")
                    )
                if rng.random() < 0.3:
                    lines.append(
                        nt(
                            f"{DBR}Thing{i}",
                            "http://www.w3.org/1999/02/22-rdf-syntax-ns#type",
                            "http://dbpedia.org/ontology/Thing",
                        )
                    )
            store = load_kb("\n".join(lines))
            question = "What links " + " and ".join(mentions) + "?"
            entities = [entity(question, m, f"dbr:{m}") for m in mentions]

            full = build_encoder_input(store, question, entities, budget=10_000)
            budget = rng.randint(
                max(1, token_count(question) - 2), token_count(full.rendered) + 2
            )
            try:
                enc = build_encoder_input(store, question, entities, budget)
            except InputTooLongError:
                bare = [EntityStructure(s.mention, s.type_label, [], []) for s in full.structures]
                minimal = ref_render_input(question, bare)
                assert (
                    token_count(question) > budget or token_count(minimal) > budget
                ), case
                over_budget += 1
                continue
            assert token_count(enc.rendered) <= budget, case
            rendered_structs = parse_structures(enc.rendered[len(question):])
            assert rendered_structs == unscored(enc.structures)
            for got, ref in zip(enc.structures, full.structures, strict=True):
                assert got.mention == ref.mention
                assert got.type_label == ref.type_label
                assert got.relations == ref.relations[: len(got.relations)], case
                assert got.scores == ref.scores[: len(got.relations)], case
        assert over_budget >= 50, over_budget


# 6. End-to-end trace on the worked two-entity example.
def test_criterion_06_end_to_end_trace(tmp_path):
    fixture = tmp_path / "beams.jsonl"
    fixture.write_text(
        json.dumps(
            {
                "question_id": "ford",
                "beams": [
                    {"text": FORD_BEAM_1, "score": -0.02},
                    {"text": "[Ford Y-block engine | manufacturer]", "score": -0.4},
                ],
            }
        )
        + "\n"
    )
    with criterion("6 end-to-end fixture trace", budget_s=1.0):
        store = load_kb(FORD_TRIPLES, FORD_ONTOLOGY)
        entities = [
            entity(FORD_QUESTION, "Ford Kansas City Assembly Plant", "dbr:Kansas_City_Assembly"),
            entity(FORD_QUESTION, "Ford Y-block engine", "dbr:Ford_Y-block_engine"),
        ]
        enc = build_encoder_input(store, FORD_QUESTION, entities)
        generator = make_generator(
            GeneratorConfig(kind="fixture", fixture_path=str(fixture))
        )
        beams = generator.generate(enc, "ford")
        assert beams[0].text == FORD_BEAM_1 and beams[0].rank == 1
        result = link(store, FORD_QUESTION, beams, entities)
        assert set(result.relations) == {
            Iri("dbo:owningOrganisation"),
            Iri("dbo:manufacturer"),
        }
        assert result.relations == [Iri("dbo:owningOrganisation"), Iri("dbo:manufacturer")]
        assert result.validated is True
        assert result.source_rank == 1


# 7. An unvalidatable rank-1 beam falls through to the first valid one.
def test_criterion_07_rank_fallback(ford_store, ford_entities):
    beams = [
        OutputSequence(
            "[Ford Kansas City Assembly Plant | location], "
            "[Ford Y-block engine | owningOrganisation]",
            -0.01,
            1,
        ),
        OutputSequence(FORD_BEAM_1, -0.3, 2),
    ]
    with criterion("7 rank fallback to first valid sequence"):
        result = link(ford_store, FORD_QUESTION, beams, ford_entities)
        assert result.validated is True
        assert result.source_rank == 2
        assert result.relations == [Iri("dbo:owningOrganisation"), Iri("dbo:manufacturer")]


# 8. Boolean questions answer by bound-triple existence, both orientations.
def test_criterion_08_ask_behavior(obama_store, obama_true_store, obama_entities):
    beam = OutputSequence("[Barack Obama | president], [Canada | president]", -0.1, 1)
    reversed_store = load_kb(
        nt(f"{DBR}Canada", "http://dbpedia.org/ontology/president", f"{DBR}Barack_Obama")
    )
    with criterion("8 ASK true/false behavior"):
        absent = link(obama_store, OBAMA_QUESTION, [beam], obama_entities)
        assert absent.ask_answer is False
        assert absent.validated is False
        assert absent.source_rank == 1
        assert absent.relations == [Iri("dbo:president")]

        present = link(obama_true_store, OBAMA_QUESTION, [beam], obama_entities)
        assert present.ask_answer is True and present.validated is True

        flipped = link(reversed_store, OBAMA_QUESTION, [beam], obama_entities)
        assert flipped.ask_answer is True

        ranked = [OutputSequence("broken [ text", -0.01, 1)] + [
            OutputSequence(beam.text, -0.1 * r, r) for r in range(2, 11)
        ]
        within_ten = link(obama_true_store, OBAMA_QUESTION, ranked, obama_entities)
        assert within_ten.ask_answer is True and within_ten.source_rank == 2


# 9. Reified statements validate; type properties expand direct-only.
def test_criterion_09_wikidata_profile(wikidata_store):
    question = "What is made by Douglas?"
    entities = [entity(question, "Douglas", "wd:Q42")]
    beam = OutputSequence("[Douglas | manufacturer]", -0.1, 1)
    with criterion("9 reified statements and direct-only types"):
        result = link(wikidata_store, question, [beam], entities)
        assert result.validated is True
        assert result.relations == [Iri("ps:P176")]

        p31_store = load_kb(
            "\n".join(
                [
                    nt(
                        "http://www.wikidata.org/entity/Q42",
                        "http://www.wikidata.org/prop/direct/P31",
                        "http://www.wikidata.org/entity/Q5",
                    ),
                    nt(
                        "http://www.wikidata.org/entity/Q42",
                        "http://www.wikidata.org/prop/P31",
                        "http://www.wikidata.org/entity/statement/S9",
                    ),
                    nt(
                        "http://www.wikidata.org/entity/statement/S9",
                        "http://www.wikidata.org/prop/statement/P31",
                        "http://www.wikidata.org/entity/Q5",
                    ),
                ]
            ),
            "label\thttp://www.wikidata.org/prop/direct/P31\tinstance of\n",
            profile="wikidata",
        )
        patterns = expand_pair(p31_store, (Iri("wd:Q42"), "instance of"))
        assert patterns == [
            TriplePattern(Iri("wd:Q42"), Iri("wdt:P31"), VAR_X),
            TriplePattern(VAR_X, Iri("wdt:P31"), Iri("wd:Q42")),
        ]
        assert not any(isinstance(p.predicate, PropertyPath) for p in patterns)


# 10. Relaxed scoring forgives namespace swaps that keep the answers.
def test_criterion_10_relaxed_evaluation(alma_store):
    gold_relations = {Iri("dbp:almaMater"), Iri("dbo:state")}
    graph = (
        TriplePattern(Iri("dbr:Ben_Ysursa"), Iri("dbp:almaMater"), VAR_X),
        TriplePattern(VAR_X, Iri("dbo:state"), VAR_Y),
    )
    gold = GoldRecord("q", "q", gold_relations, graph)
    pred = {Iri("dbo:almaMater"), Iri("dbo:state")}
    rng = Random(10)
    improved = 0
    with criterion("10 relaxed-evaluation delta and dominance"):
        assert score_sets(gold_relations, pred)[2] == 0.5
        assert relaxed_score(alma_store, gold, pred) == (1.0, 1.0, 1.0)

        for case in range(1000):
            lines = []
            hops = []
            nodes = ("S", "H", "O")
            for idx, label in enumerate(("alpha", "beta")[: rng.randint(1, 2)]):
                ns = rng.choice(("dbo", "dbp"))
                hops.append((label, ns))
                subj, obj = nodes[idx], nodes[idx + 1]
                spaces = [ns] + (["dbp" if ns == "dbo" else "dbo"] if rng.random() < 0.6 else [])
                for space in spaces:
                    path = "ontology" if space == "dbo" else "property"
                    lines.append(
                        nt(f"{DBR}{subj}", f"http://dbpedia.org/{path}/{label}", f"{DBR}{obj}")
                    )
                    if rng.random() < 0.25:
                        lines.append(
                            nt(
                                f"{DBR}{subj}",
                                f"http://dbpedia.org/{path}/{label}",
                                f"{DBR}Extra{idx}",
                            )
                        )
            store = load_kb("\n".join(lines))
            terms = [Iri("dbr:S"), VAR_X, VAR_Y]
            patterns = tuple(
                TriplePattern(
                    terms[idx] if idx == 0 else VAR_X,
                    Iri(f"{ns}:{label}"),
                    terms[idx + 1],
                )
                for idx, (label, ns) in enumerate(hops)
            )
            relations = {Iri(f"{ns}:{label}") for label, ns in hops}
            predicted = set()
            for uri in relations:
                roll = rng.random()
                if roll < 0.6:
                    predicted.add(uri)
                elif roll < 0.85:
                    space, _, local = uri.partition(":")
                    predicted.add(Iri(f"{'dbp' if space == 'dbo' else 'dbo'}:{local}"))
            if rng.random() < 0.2:
                predicted.add(Iri("dbo:noise"))
            record = GoldRecord(str(case), "q", relations, patterns)
            strict = score_sets(relations, predicted)
            relaxed = relaxed_score(store, record, predicted)
            assert relaxed[2] >= strict[2], case
            if relaxed[2] > strict[2]:
                improved += 1
        assert improved >= 100, improved


# 11. Repeated link runs are byte-identical, across hash seeds and generators.
def test_criterion_11_determinism(tmp_path):
    kb = tmp_path / "kb.nt"
    kb.write_text(FORD_TRIPLES + "\n")
    ontology = tmp_path / "onto.tsv"
    ontology.write_text(FORD_ONTOLOGY + "\n")
    plant_at = FORD_QUESTION.index("Ford Kansas City")
    engine_at = FORD_QUESTION.index("Ford Y-block")
    questions = tmp_path / "questions.jsonl"
    questions.write_text(
        "\n".join(
            json.dumps(q)
            for q in [
                {
                    "question_id": "q1",
                    "question": FORD_QUESTION,
                    "entities": [
                        {
                            "mention": "Ford Kansas City Assembly Plant",
                            "start": plant_at,
                            "end": plant_at + 31,
                            "iri": "dbr:Kansas_City_Assembly",
                        },
                        {
                            "mention": "Ford Y-block engine",
                            "start": engine_at,
                            "end": engine_at + 19,
                            "iri": "dbr:Ford_Y-block_engine",
                        },
                    ],
                },
                {
                    "question_id": "q2",
                    "question": "What company built the Ford Y-block engine?",
                    "entities": [
                        {
                            "mention": "Ford Y-block engine",
                            "start": 23,
                            "end": 42,
                            "iri": "dbr:Ford_Y-block_engine",
                        }
                    ],
                },
            ]
        )
        + "\n"
    )
    beams = tmp_path / "beams.jsonl"
    beams.write_text(
        "\n".join(
            json.dumps(b)
            for b in [
                {
                    "question_id": "q1",
                    "beams": [
                        {"text": FORD_BEAM_1, "score": -0.1},
                        {"text": "[Ford Y-block engine | manufacturer]", "score": -0.2},
                    ],
                },
                {
                    "question_id": "q2",
                    "beams": [
                        {"text": "[Ford Y-block engine | manufacturer]", "score": -0.1}
                    ],
                },
            ]
        )
        + "\n"
    )

    def run(args: list[str], out: str, seed: str) -> bytes:
        target = tmp_path / out
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-m", "rellink.cli", *args, "-o", str(target), str(questions)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        return target.read_bytes()

    base = ["link", "--kb", str(kb), "--ontology", str(ontology)]
    with criterion("11 byte-identical runs"):
        fixture_args = base + ["--generator", "fixture", "--fixtures", str(beams)]
        first = run(fixture_args, "f1.jsonl", "1")
        second = run(fixture_args, "f2.jsonl", "2")
        assert first == second and first.count(b"\n") == 2

        baseline_one = run(base, "b1.jsonl", "3")
        baseline_two = run(base, "b2.jsonl", "4")
        assert baseline_one == baseline_two and baseline_one.count(b"\n") == 2
