"""Pattern expansion, the candidate graph search, and beam validation."""

from __future__ import annotations

import random
from collections import Counter
from itertools import product

import pytest

from conftest import DBO, DBP, DBR, FORD_QUESTION, OBAMA_QUESTION, WD, WDT, nt
from rellink import knowledge_validation
from rellink.kb_store import KbStore, load_kb
from rellink.knowledge_integration import LinkedEntity
from rellink.knowledge_validation import (
    LinkingResult,
    ValidationConfig,
    expand_pair,
    fallback_result,
    link,
    validate_sequence,
)
from rellink.sequence_grammar import (
    ArgRelPair,
    OutputParseError,
    OutputSequence,
    detect_ask,
    parse_output,
    render_group,
    serialize_target,
)
from rellink.terms import (
    DBPEDIA,
    WIKIDATA,
    Iri,
    Literal,
    PropertyPath,
    TriplePattern,
    VAR_X,
    VAR_Y,
    namespace_of,
    relation_uri,
)

DUAL_NS_TRIPLES = "\n".join(
    [
        nt(DBR + "A", DBO + "owner", DBR + "V1"),
        nt(DBR + "V2", DBO + "owner", DBR + "A"),
        nt(DBR + "A", DBP + "owner", DBR + "V3"),
        nt(DBR + "V4", DBP + "owner", DBR + "A"),
    ]
)


def pair(mention_iri: str, label: str) -> ArgRelPair:
    return Iri(mention_iri), label


class TestEntityExpansion:
    def test_four_patterns_both_namespaces(self):
        store = load_kb(DUAL_NS_TRIPLES)
        patterns = expand_pair(store, pair("dbr:A", "owner"))
        entity = Iri("dbr:A")
        assert patterns == [
            TriplePattern(entity, Iri("dbo:owner"), VAR_X),
            TriplePattern(VAR_X, Iri("dbo:owner"), entity),
            TriplePattern(entity, Iri("dbp:owner"), VAR_X),
            TriplePattern(VAR_X, Iri("dbp:owner"), entity),
        ]

    def test_two_patterns_single_namespace(self, ford_store):
        patterns = expand_pair(
            ford_store, pair("dbr:Kansas_City_Assembly", "owningOrganisation")
        )
        assert len(patterns) == 2
        assert all(p.predicate == Iri("dbo:owningOrganisation") for p in patterns)

    def test_unknown_label_empty(self, ford_store):
        assert expand_pair(ford_store, pair("dbr:A", "noSuchRel")) == []


class TestPlaceholderExpansion:
    def test_uses_y_variable(self):
        store = load_kb(DUAL_NS_TRIPLES)
        patterns = expand_pair(store, (VAR_Y, "owner"))
        assert len(patterns) == 4
        assert patterns[0] == TriplePattern(VAR_Y, Iri("dbo:owner"), VAR_X)
        assert patterns[1] == TriplePattern(VAR_X, Iri("dbo:owner"), VAR_Y)

    def test_unknown_label_empty(self, ford_store):
        assert expand_pair(ford_store, (VAR_Y, "noSuchRel")) == []


class TestWikidataExpansion:
    def test_reified_routes(self, wikidata_store):
        patterns = expand_pair(
            wikidata_store, pair("wd:Q42", "manufacturer")
        )
        # Direct route (labeled but unloaded) plus the statement route.
        preds = [p.predicate for p in patterns]
        assert Iri("wdt:P176") in preds
        assert PropertyPath(Iri("p:P176"), Iri("ps:P176")) in preds

    def test_qualifier_route_any_entry(self, wikidata_store):
        patterns = expand_pair(wikidata_store, pair("wd:Q42", "follows"))
        assert PropertyPath(None, Iri("pq:P155")) in [p.predicate for p in patterns]

    def test_p31_direct_only(self, wikidata_store):
        patterns = expand_pair(wikidata_store, pair("wd:Q42", "P31"))
        assert patterns == [
            TriplePattern(Iri("wd:Q42"), Iri("wdt:P31"), VAR_X),
            TriplePattern(VAR_X, Iri("wdt:P31"), Iri("wd:Q42")),
        ]

    def test_property_id_is_the_text_after_the_prefix(self):
        # The local name of wdt:x/P176 is P176, but the KB holds no wdt:P176:
        # expansion and best-effort mapping must keep the loaded relation.
        store = load_kb(nt(WD + "Q1", WDT + "x/P176", WD + "Q2"), profile="wikidata")
        patterns = expand_pair(store, pair("wd:Q1", "P176"))
        assert [p.predicate for p in patterns] == [Iri("wdt:x/P176")] * 2
        result = fallback_result(store, [OutputSequence("[X | P176]", -0.1, 1)])
        assert result.relations == [Iri("wdt:x/P176")]

    def test_reified_pair_validates(self, wikidata_store):
        entities = [LinkedEntity("maker", 0, 5, Iri("wd:Q42"))]
        pairs = parse_output("[maker | manufacturer]", entities)
        result = validate_sequence(wikidata_store, pairs, 1, {})
        assert result is not None and result.validated
        assert result.relations == [Iri("ps:P176")]


class TestEnumerateGraphs:
    """Candidate graphs: one surviving pattern per pair, tried in
    lexicographic order of the per-pair choices."""

    def test_lexicographic_choice_order(self):
        # Each of A's four patterns binds ?x to one hub and each of B's to
        # one, so graph (a, b) holds when their hubs agree: (a0, b2) is the
        # first that does, ahead of (a0, b3) and (a1, b0).
        store = load_kb(
            "\n".join(
                [
                    nt(DBR + "A", DBO + "owner", DBR + "H1"),
                    nt(DBR + "H2", DBO + "owner", DBR + "A"),
                    nt(DBR + "A", DBP + "owner", DBR + "H3"),
                    nt(DBR + "H4", DBP + "owner", DBR + "A"),
                    nt(DBR + "B", DBO + "tenant", DBR + "H2"),
                    nt(DBR + "H3", DBO + "tenant", DBR + "B"),
                    nt(DBR + "B", DBP + "tenant", DBR + "H1"),
                    nt(DBR + "H1", DBP + "tenant", DBR + "B"),
                ]
            )
        )
        pairs = [pair("dbr:A", "owner"), pair("dbr:B", "tenant")]
        a, b = (expand_pair(store, p) for p in pairs)
        tried = []
        match_graph = store.match_graph

        def recording(graph):
            tried.append(tuple(graph))
            return match_graph(graph)

        store.match_graph = recording
        result = validate_sequence(store, pairs, 1, {})
        assert tried == [(a[0], b[0]), (a[0], b[1]), (a[0], b[2])]
        assert result.relations == [Iri("dbo:owner"), Iri("dbp:tenant")]

    def test_pruning_unsatisfiable_patterns(self, ford_store):
        # Only (entity, r, ?x) holds in the Ford fixture; the reverse
        # orientation is pruned before any graph is tried.
        pairs = [pair("dbr:Kansas_City_Assembly", "owningOrganisation")]
        survivors = {}
        assert validate_sequence(ford_store, pairs, 1, survivors).validated
        [surviving] = survivors.values()
        assert len(surviving) == 1
        assert surviving[0].subject == Iri("dbr:Kansas_City_Assembly")

    def test_empty_when_pair_dies(self, ford_store):
        live = pair("dbr:Kansas_City_Assembly", "owningOrganisation")
        dead = pair("dbr:Kansas_City_Assembly", "noSuchRel")
        assert validate_sequence(ford_store, [live, dead], 1, {}) is None
        # A dead pair fails the beam before later pairs are expanded.
        survivors = {}
        assert validate_sequence(ford_store, [dead, live], 1, survivors) is None
        assert list(survivors.values()) == [[]]

    def test_shared_hub_variable(self):
        store = load_kb(DUAL_NS_TRIPLES)
        survivors = {}
        validate_sequence(store, [pair("dbr:A", "owner")], 1, survivors)
        [surviving] = survivors.values()
        assert len(surviving) == 4
        for pattern in surviving:
            assert VAR_X in {pattern.subject, pattern.object}


class TestProbeCounts:
    """Store probes grow with the prefixes that hold, not with the product
    of the per-pair choices or the size of a predicate."""

    def test_dead_prefix_is_not_extended(self):
        # Seven labels, each in both namespaces and both orientations around
        # its own entity, with every ?x a different hub: no two pairs join,
        # so the 4^7 graphs all fail, and so do the 16 two-pattern prefixes.
        lines = []
        for i in range(7):
            for ns, tag in ((DBO, "o"), (DBP, "p")):
                lines.append(nt(f"{DBR}E{i}", f"{ns}rel{i}", f"{DBR}Out{i}{tag}"))
                lines.append(nt(f"{DBR}In{i}{tag}", f"{ns}rel{i}", f"{DBR}E{i}"))
        store = load_kb("\n".join(lines))
        pairs = [pair(f"dbr:E{i}", f"rel{i}") for i in range(7)]
        calls = 0
        match_graph = store.match_graph

        def counting(graph):
            nonlocal calls
            calls += 1
            return match_graph(graph)

        store.match_graph = counting
        survivors = {}
        assert validate_sequence(store, pairs, 1, survivors) is None
        assert [len(patterns) for patterns in survivors.values()] == [4] * 7
        assert calls <= 20, calls

    def test_placeholder_join_starts_from_the_bound_pattern(self):
        # [who | birthPlace] leads the beam; its (?y birthPlace ?x) pattern
        # would walk all 10,000 birthPlace triples if the join started there.
        lines = [nt(f"{DBR}P{i}", DBO + "birthPlace", f"{DBR}City{i}") for i in range(9_999)]
        lines += [
            nt(DBR + "Michelle_Obama", DBO + "birthPlace", DBR + "Chicago"),
            nt(DBR + "Barack_Obama", DBO + "spouse", DBR + "Michelle_Obama"),
        ]
        store = load_kb("\n".join(lines))
        taken = 0
        walk = store._pairs

        def counting(*args):
            nonlocal taken
            for item in walk(*args):
                taken += 1
                yield item

        store._pairs = counting
        entities = [LinkedEntity("Obama", 0, 5, Iri("dbr:Barack_Obama"))]
        pairs = parse_output("[who | birthPlace], [Obama | spouse]", entities)
        result = validate_sequence(store, pairs, 1, {})
        assert result.relations == [Iri("dbo:birthPlace"), Iri("dbo:spouse")]
        assert taken <= 10, taken


class TestLongBeam:
    """A beam's length is bounded by memory, not by the call stack: neither
    the search over its pairs nor the join of a prefix recurses."""

    def test_thousand_group_beam_validates(self):
        # Ada owns, rents and founded the same hub, so every prefix of the
        # 1,000 groups holds, and the search reaches the full depth.
        store = load_kb(
            "\n".join(
                [
                    nt(DBR + "Ada", DBO + "owner", DBR + "Hub"),
                    nt(DBR + "Ada", DBO + "tenant", DBR + "Hub"),
                    nt(DBR + "Hub", DBO + "founder", DBR + "Ada"),
                ]
            )
        )
        labels = ["owner", "tenant", "founder"]
        text = ", ".join(render_group("Ada", labels[i % 3]) for i in range(1000))
        entities = [LinkedEntity("Ada", 9, 12, Iri("dbr:Ada"))]
        result = link(store, "What did Ada own?", [OutputSequence(text, -0.1, 1)], entities)
        assert result == LinkingResult([Iri(f"dbo:{label}") for label in labels], True, 1)


class TestValidateSequence:
    def test_fig3_first_beam_validates(self, ford_store, ford_entities):
        pairs = parse_output(
            "[Ford Kansas City Assembly Plant | owningOrganisation], "
            "[Ford Y-block engine | manufacturer]",
            ford_entities,
        )
        result = validate_sequence(ford_store, pairs, 1, {})
        assert result is not None
        assert result.validated and result.source_rank == 1
        assert result.relations == [Iri("dbo:owningOrganisation"), Iri("dbo:manufacturer")]

    def test_unresolved_entity_none(self, ford_store, ford_entities):
        pairs = parse_output("[An Unknown Thing | owningOrganisation]", ford_entities)
        assert validate_sequence(ford_store, pairs, 1, {}) is None

    def test_no_join_none(self, ford_store, ford_entities):
        # Both relations exist but share no hub entity in this orientation mix.
        pairs = parse_output(
            "[Ford Kansas City Assembly Plant | location], "
            "[Ford Y-block engine | manufacturer]",
            ford_entities,
        )
        assert validate_sequence(ford_store, pairs, 1, {}) is None

    def test_reverse_orientation_found(self):
        # Only (?x, r, e) holds; forward orientation is pruned away.
        store = load_kb(nt(DBR + "V", DBO + "owner", DBR + "A"))
        entities = [LinkedEntity("A thing", 0, 7, Iri("dbr:A"))]
        result = validate_sequence(store, parse_output("[A thing | owner]", entities), 1, {})
        assert result is not None and result.validated


class TestLink:
    def beam(self, text, rank):
        return OutputSequence(text, -0.1 * rank, rank)

    def test_rank_two_fallback(self, ford_store, ford_entities):
        beams = [
            self.beam("[Ford Kansas City Assembly Plant | noSuchRel]", 1),
            self.beam(
                "[Ford Kansas City Assembly Plant | owningOrganisation], "
                "[Ford Y-block engine | manufacturer]",
                2,
            ),
        ]
        result = link(ford_store, FORD_QUESTION, beams, ford_entities)
        assert result.validated and result.source_rank == 2
        assert result.relations == [Iri("dbo:owningOrganisation"), Iri("dbo:manufacturer")]

    def test_first_valid_wins(self, ford_store, ford_entities):
        valid = (
            "[Ford Kansas City Assembly Plant | owningOrganisation], "
            "[Ford Y-block engine | manufacturer]"
        )
        beams = [self.beam(valid, 1), self.beam("[Ford Y-block engine | manufacturer]", 2)]
        result = link(ford_store, FORD_QUESTION, beams, ford_entities)
        assert result.source_rank == 1

    def test_beam_limit_respected(self, ford_store, ford_entities):
        valid = self.beam(
            "[Ford Kansas City Assembly Plant | owningOrganisation], "
            "[Ford Y-block engine | manufacturer]",
            2,
        )
        beams = [self.beam("[Ford Kansas City Assembly Plant | noSuchRel]", 1), valid]
        config = ValidationConfig(beam_limit=1)
        result = link(ford_store, FORD_QUESTION, beams, ford_entities, config)
        assert not result.validated  # the valid beam sits past the limit

    def test_nothing_validates_fallback(self, ford_store, ford_entities):
        beams = [self.beam("[Ford Kansas City Assembly Plant | location], [Ford Y-block engine | manufacturer]", 1)]
        result = link(ford_store, FORD_QUESTION, beams, ford_entities)
        assert not result.validated
        assert result.source_rank == 1
        assert result.relations == [Iri("dbo:location"), Iri("dbo:manufacturer")]

    def test_fallback_prefers_dbo(self):
        store = load_kb(DUAL_NS_TRIPLES + "\n" + nt(DBR + "B", DBP + "tenant", DBR + "C"))
        result = fallback_result(
            store, [OutputSequence("[X | owner], [X | tenant]", -0.1, 1)]
        )
        assert result.relations == [Iri("dbo:owner"), Iri("dbp:tenant")]

    def test_empty_beams(self, ford_store, ford_entities):
        result = link(ford_store, FORD_QUESTION, [], ford_entities)
        assert result.relations == []
        assert not result.validated
        assert result.source_rank == 0
        assert result.ask_answer is None

    def test_unparseable_beams_skipped_everywhere(self, ford_store, ford_entities):
        beams = [self.beam("garbage", 1), self.beam("[Ford Y-block engine | manufacturer]", 2)]
        result = link(ford_store, FORD_QUESTION, beams, ford_entities)
        assert result.source_rank == 2

    def test_beam_with_an_empty_argument_skipped(self, ford_store, ford_entities):
        with pytest.raises(OutputParseError, match="^empty argument"):
            parse_output("[ | owner]", ford_entities)
        beams = [self.beam("[ | owner]", 1), self.beam("[Ford Y-block engine | manufacturer]", 2)]
        result = link(ford_store, FORD_QUESTION, beams, ford_entities)
        assert result.validated and result.source_rank == 2
        assert result.relations == [Iri("dbo:manufacturer")]


class TestAsk:
    def beams(self):
        return [
            OutputSequence("[Barack Obama | president], [Canada | president]", -0.1, 1)
        ]

    def test_ask_false_when_triple_absent(self, obama_store, obama_entities):
        result = link(obama_store, OBAMA_QUESTION, self.beams(), obama_entities)
        assert result.ask_answer is False
        assert not result.validated
        assert result.relations == [Iri("dbo:president")]
        assert result.source_rank == 1

    def test_ask_true_when_triple_present(self, obama_true_store, obama_entities):
        result = link(obama_true_store, OBAMA_QUESTION, self.beams(), obama_entities)
        assert result.ask_answer is True
        assert result.validated
        assert result.relations == [Iri("dbo:president")]

    def test_ask_matches_reverse_orientation(self, obama_entities):
        from conftest import OBAMA_TRIPLES

        reversed_store = load_kb(
            OBAMA_TRIPLES + "\n" + nt(DBR + "Canada", DBO + "president", DBR + "Barack_Obama")
        )
        result = link(reversed_store, OBAMA_QUESTION, self.beams(), obama_entities)
        assert result.ask_answer is True

    def test_ask_limit_respected(self, obama_true_store, obama_entities):
        filler = [
            OutputSequence(f"[Barack Obama | noRel{i}]", -0.01 * i, i) for i in range(1, 11)
        ]
        late = OutputSequence(
            "[Barack Obama | president], [Canada | president]", -0.9, 11
        )
        result = link(obama_true_store, OBAMA_QUESTION, filler + [late], obama_entities)
        # The matching beam sits at rank 11, beyond the ASK window of 10.
        assert result.ask_answer is False
        assert not result.validated

    def test_non_ask_ignores_ask_path(self, ford_store, ford_entities):
        beams = [
            OutputSequence(
                "[Ford Kansas City Assembly Plant | owningOrganisation], "
                "[Ford Y-block engine | manufacturer]",
                -0.1,
                1,
            )
        ]
        result = link(ford_store, FORD_QUESTION, beams, ford_entities)
        assert result.ask_answer is None


class TestParsesEachBeamOnce:
    """``link`` hands each beam to ``parse_output`` at most once."""

    @pytest.fixture()
    def parsed(self, monkeypatch):
        texts: list[str] = []
        parse = knowledge_validation.parse_output

        def counting(text, *args):
            texts.append(text)
            return parse(text, *args)

        monkeypatch.setattr(knowledge_validation, "parse_output", counting)
        return texts

    def beams(self, *texts):
        return [OutputSequence(text, -0.1 * rank, rank) for rank, text in enumerate(texts, 1)]

    def test_fallback(self, parsed, ford_store, ford_entities):
        beams = self.beams(
            "[Ford Kansas City Assembly Plant | location], [Ford Y-block engine | manufacturer]",
            "garbage",
            "[Ford Y-block engine | noSuchRel]",
        )
        result = link(ford_store, FORD_QUESTION, beams, ford_entities)
        assert not result.validated and result.source_rank == 1
        assert parsed == [b.text for b in beams]

    def test_ask_fallback(self, parsed, obama_store, obama_entities):
        beams = self.beams(
            "[Barack Obama | president], [Canada | president]",
            "[Canada | president]",
        )
        result = link(obama_store, OBAMA_QUESTION, beams, obama_entities)
        assert result.ask_answer is False and result.source_rank == 1
        assert parsed == [b.text for b in beams]

    def test_fallback_past_limit(self, parsed, ford_store, ford_entities):
        beams = self.beams(
            "garbage one",
            "garbage two",
            "garbage three",
            "[Ford Y-block engine | manufacturer]",
            "[Ford Y-block engine | owner]",
        )
        config = ValidationConfig(beam_limit=2)
        result = link(ford_store, FORD_QUESTION, beams, ford_entities, config)
        assert not result.validated and result.source_rank == 4
        assert parsed == [b.text for b in beams[:4]]


# -- the per-question survivor dict against the code it replaced -------------
#
# Reference: ``enumerate_graphs``, ``validate_sequence`` and ``link`` as they
# were before a question kept each distinct pair's surviving patterns, kept
# verbatim but for their names and the module prefix on private helpers: every
# beam expanded and tested every one of its pairs again, and joined every
# member of the product of its choices from scratch.


def _ref_enumerate_graphs(store, pairs):
    per_pair = []
    for pair in pairs:
        surviving = [p for p in expand_pair(store, pair) if store.pattern_satisfiable(p)]
        if not surviving:
            return
        per_pair.append(surviving)
    yield from product(*per_pair)


def _ref_validate_sequence(store, pairs, rank):
    if not pairs or any(arg is None for arg, _ in pairs):
        return None
    for graph in _ref_enumerate_graphs(store, pairs):
        if store.match_graph(graph) is not None:
            relations = knowledge_validation._unique(relation_uri(p.predicate) for p in graph)
            return LinkingResult(relations, True, rank)
    return None


def _ref_link(store, question, beams, entities=(), config=None):
    config = config or ValidationConfig()
    is_ask = detect_ask(question)
    if is_ask:
        limit, check = config.ask_limit, knowledge_validation._ask_hit
    else:
        limit, check = config.beam_limit, _ref_validate_sequence
    first = None
    for seq, pairs in knowledge_validation._parsed(beams[:limit], entities):
        result = check(store, pairs, seq.rank)
        if result is not None:
            return result
        first = first or (seq, pairs)
    if first is not None:
        result = knowledge_validation._best_effort(store, *first)
    else:
        result = fallback_result(store, beams[limit:], entities)
    if is_ask:
        result.ask_answer = False
    return result


SURVIVOR_PIDS = ("P1", "P2")
SURVIVOR_ENTITIES = [Iri(f"wd:Q{i}") for i in range(4)]
SURVIVOR_STATEMENTS = [Iri(f"wds:S{i}") for i in range(3)]
# Mentions E0-E3 name the entities; "what" is a placeholder and "nobody"
# resolves to nothing.  P9 labels nothing.  No two labels normalize alike, so
# a pattern belongs to one (argument, label) pair.
SURVIVOR_ARGUMENTS = ("E0", "E1", "E2", "E3", "what", "nobody")
SURVIVOR_LABELS = ("P1", "P2", "P9")


def _random_question(rng: random.Random, profile, max_groups: int):
    """A store with flat (dbo:, dbp:, wdt:) edges, p:/ps: statements and pq:
    qualifiers over small pools, a plain or ASK question about E0-E3, and
    up to eight beams of up to ``max_groups`` groups."""
    store = KbStore(profile)
    values = [*SURVIVOR_ENTITIES, Literal("0")]
    for _ in range(rng.randint(0, 10)):
        pred = Iri(f"{rng.choice(('dbo', 'dbp', 'wdt'))}:{rng.choice(SURVIVOR_PIDS)}")
        store.add_triple(rng.choice(SURVIVOR_ENTITIES), pred, rng.choice(values))
    for _ in range(rng.randint(0, 5)):
        stmt = rng.choice(SURVIVOR_STATEMENTS)
        store.add_triple(rng.choice(SURVIVOR_ENTITIES), Iri(f"p:{rng.choice(SURVIVOR_PIDS)}"), stmt)
        store.add_triple(stmt, Iri(f"ps:{rng.choice(SURVIVOR_PIDS)}"), rng.choice(values))
        if rng.random() < 0.5:
            store.add_triple(stmt, Iri(f"pq:{rng.choice(SURVIVOR_PIDS)}"), rng.choice(values))
    question = rng.choice(["Is E0 E1 E2 E3 linked?", "What links E0 E1 E2 E3?"])
    entities = [
        LinkedEntity(f"E{i}", question.index(f"E{i}"), question.index(f"E{i}") + 2, iri)
        for i, iri in enumerate(SURVIVOR_ENTITIES)
    ]
    # Like a model's beams, one question's beams draw on a few groups.
    pool = [
        render_group(rng.choice(SURVIVOR_ARGUMENTS), rng.choice(SURVIVOR_LABELS))
        for _ in range(rng.randint(2, 6))
    ]
    beams = []
    for rank in range(1, rng.randint(1, 8) + 1):
        groups = [rng.choice(pool) for _ in range(rng.randint(1, max_groups))]
        text = "garbage" if rng.random() < 0.1 else serialize_target(groups)
        beams.append(OutputSequence(text, -0.1 * rank, rank))
    config = ValidationConfig(beam_limit=rng.choice([1, 3, 50]), ask_limit=rng.choice([1, 10]))
    return store, question, beams, entities, config


# Three groups keep the seeded inputs this test was written with; six reach
# prefixes of depth three and more that mix ?y and entity pairs.
@pytest.mark.parametrize(
    "profile, max_groups",
    [pytest.param(p, 3, id=p.name) for p in (DBPEDIA, WIKIDATA)]
    + [pytest.param(p, 6, id=f"{p.name}-6-groups") for p in (DBPEDIA, WIKIDATA)],
)
def test_link_matches_reference_and_tests_each_pattern_once(profile, max_groups):
    kinds, ask_true = set(), 0
    calls_before = calls_after = 0
    for seed in range(400):
        store, question, beams, entities, config = _random_question(
            random.Random(seed), profile, max_groups
        )
        tested = Counter()
        satisfiable = store.pattern_satisfiable

        def counting(pattern):
            tested[pattern] += 1
            return satisfiable(pattern)

        store.pattern_satisfiable = counting
        expected = _ref_link(store, question, beams, entities, config)
        before = sum(tested.values())
        tested.clear()
        result = link(store, question, beams, entities, config)
        assert result == expected, seed
        if not detect_ask(question):
            # The ASK path tests bound triples beam by beam, as before.
            assert max(tested.values(), default=0) <= 1, (seed, tested)
            calls_before += before
            calls_after += sum(tested.values())
        if result.validated and result.ask_answer is None:
            pairs = parse_output(beams[result.source_rank - 1].text, entities)
            kinds.update(namespace_of(r, profile) for r in result.relations)
            kinds.update("placeholder" if arg == VAR_Y else "entity" for arg, _ in pairs)
        ask_true += result.ask_answer is True
    routed = set(profile.property_namespaces) - {profile.statement_namespace}
    assert kinds == routed | {"entity", "placeholder"}
    assert ask_true >= 5, ask_true
    assert calls_after < calls_before, (calls_after, calls_before)
