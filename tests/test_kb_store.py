"""Store loading, indexing, ontology metadata, and graph matching."""

from __future__ import annotations

import io
import itertools
import random
import sys

import pytest

from conftest import DBO, DBP, DBR, P, PS, RDF_TYPE, RDFS_SUBCLASS, WD, WDS, WDT, nt
from rellink.kb_store import (
    HierarchyCycleError,
    KbLoadError,
    KbStore,
    load_kb,
    load_profile_config,
    parse_nt_line,
)
from rellink.terms import (
    DBPEDIA,
    WIKIDATA,
    Iri,
    Literal,
    PropertyPath,
    Triple,
    TriplePattern,
    Variable,
    namespace_of,
)

VX = Variable("x")
VY = Variable("y")


class TestNtParsing:
    def test_basic_line(self):
        triple = parse_nt_line(nt(DBR + "A", DBO + "r", DBR + "B"), DBPEDIA)
        assert triple.subject == Iri("dbr:A")
        assert triple.predicate == Iri("dbo:r")
        assert triple.object == Iri("dbr:B")

    def test_literal_object_with_datatype(self):
        line = f'<{DBR}A> <{DBO}r> "42"^^<http://www.w3.org/2001/XMLSchema#integer> .'
        triple = parse_nt_line(line, DBPEDIA)
        assert triple.object == Literal("42")

    def test_literal_with_language_tag(self):
        line = f'<{DBR}A> <{DBO}r> "hello"@en .'
        assert parse_nt_line(line, DBPEDIA).object == Literal("hello")
        typed = f'<{DBR}A> <{DBO}r> "1"^^<http://www.w3.org/2001/XMLSchema#integer> .'
        tagged = f'<{DBR}A> <{DBO}r> "1"@en .'
        assert len(load_kb(typed + "\n" + tagged)) == 1

    def test_escaped_quote_in_literal(self):
        line = f'<{DBR}A> <{DBO}r> "say \\"hi\\"" .'
        assert parse_nt_line(line, DBPEDIA).object == Literal('say "hi"')

    def test_comment_and_blank_lines(self):
        assert parse_nt_line("# comment", DBPEDIA) is None
        assert parse_nt_line("   ", DBPEDIA) is None

    def test_blank_node_subject(self):
        triple = parse_nt_line(f"_:b1 <{DBO}r> <{DBR}B> .", DBPEDIA)
        assert triple.subject == Iri("_:b1")

    def test_error_carries_line_number(self):
        bad = nt(DBR + "A", DBO + "r", DBR + "B") + "\nnot a triple\n"
        with pytest.raises(KbLoadError, match="line 2"):
            load_kb(bad)

    def test_missing_terminal_dot(self):
        with pytest.raises(KbLoadError):
            load_kb(f"<{DBR}A> <{DBO}r> <{DBR}B>")


class TestNtEscapes:
    def literal(self, body: str) -> Literal:
        return parse_nt_line(f'<{DBR}A> <{DBO}r> "{body}" .', DBPEDIA).object

    def test_uchar_in_literal(self):
        assert self.literal("Caf\\u00E9") == Literal("Caf\u00e9")
        assert self.literal("smile \\U0001F600") == Literal("smile \U0001F600")

    def test_echars_in_literal(self):
        assert self.literal("a\\tb\\bc\\nd\\re\\ff") == Literal("a\tb\bc\nd\re\ff")
        assert self.literal("\\'q\\' \\\\u0041") == Literal("'q' \\u0041")

    def test_uchar_in_iri(self):
        triple = parse_nt_line(f"<{DBR}Caf\\u00E9> <{DBO}r> <{DBR}B> .", DBPEDIA)
        assert triple.subject == Iri("dbr:Caf\u00e9")

    @pytest.mark.parametrize(
        "body", ["bad \\u00G9", "short \\u12", "unknown \\q", "surrogate \\uD800"]
    )
    def test_bad_literal_escape_names_line(self, body):
        text = nt(DBR + "A", DBO + "r", DBR + "B") + f'\n<{DBR}A> <{DBO}r> "{body}" .\n'
        with pytest.raises(KbLoadError, match="triples line 2"):
            load_kb(text)

    def test_echar_in_iri_rejected(self):
        with pytest.raises(KbLoadError, match="triples line 1"):
            load_kb(f"<{DBR}A\\tB> <{DBO}r> <{DBR}B> .")


class TestLoading:
    def test_duplicates_deduplicated(self):
        line = nt(DBR + "A", DBO + "r", DBR + "B")
        store = load_kb(line + "\n" + line)
        assert len(store) == 1

    def test_load_is_idempotent(self):
        text = "\n".join(
            [
                nt(DBR + "A", DBO + "r", DBR + "B"),
                nt(DBR + "B", DBP + "s", ("lit", "two")),
            ]
        )
        assert load_kb(text) == load_kb(text + "\n" + text)

    def test_accepts_file_object(self):
        store = load_kb(io.StringIO(nt(DBR + "A", DBO + "r", DBR + "B")))
        assert len(store) == 1

    def test_empty_input(self):
        assert len(load_kb("")) == 0


class TestOntology:
    def test_bad_row_reports_line(self):
        with pytest.raises(KbLoadError, match="ontology line 1"):
            load_kb("", ontology="subclass\tonly-one-field")

    def test_unknown_kind(self):
        with pytest.raises(KbLoadError, match="unknown record"):
            load_kb("", ontology=f"superclass\t{DBO}A\t{DBO}B")

    def test_count_override_beats_derived(self):
        triples = "\n".join(
            nt(DBR + f"E{i}", RDF_TYPE, DBO + "City") for i in range(3)
        )
        store = load_kb(triples, ontology=f"count\t{DBO}City\t9000")
        assert store.instance_count(Iri("dbo:City")) == 9000

    def test_derived_counts(self):
        triples = "\n".join(
            nt(DBR + f"E{i}", RDF_TYPE, DBO + "City") for i in range(3)
        )
        assert load_kb(triples).instance_count(Iri("dbo:City")) == 3

    def test_label_row_overrides_local_name(self):
        store = load_kb(
            nt(DBR + "A", DBO + "almaMater", DBR + "B"),
            ontology=f"label\t{DBO}almaMater\talma mater",
        )
        assert store.label_of(Iri("dbo:almaMater")) == "alma mater"
        assert Iri("dbo:almaMater") in store.lookup_relation_label("alma mater")

    def test_cycle_detection(self):
        ontology = "\n".join(
            [
                f"subclass\t{DBO}A\t{DBO}B",
                f"subclass\t{DBO}B\t{DBO}C",
                f"subclass\t{DBO}C\t{DBO}A",
            ]
        )
        with pytest.raises(HierarchyCycleError):
            load_kb("", ontology=ontology)

    def test_cycle_message_names_path(self):
        ontology = "\n".join(
            [
                f"subclass\t{DBO}D\t{DBO}A",
                f"subclass\t{DBO}A\t{DBO}B",
                f"subclass\t{DBO}B\t{DBO}C",
                f"subclass\t{DBO}C\t{DBO}A",
            ]
        )
        with pytest.raises(
            HierarchyCycleError,
            match="^class hierarchy cycle: dbo:A -> dbo:B -> dbo:C -> dbo:A$",
        ):
            load_kb("", ontology=ontology)

    def test_cycle_below_deep_chain(self):
        depth = sys.getrecursionlimit() + 100
        triples = "\n".join(
            nt(f"{DBO}C{i}", RDFS_SUBCLASS, f"{DBO}C{i + 1}") for i in range(depth)
        )
        triples += "\n" + nt(f"{DBO}C{depth}", RDFS_SUBCLASS, f"{DBO}C{depth - 1}")
        with pytest.raises(
            HierarchyCycleError, match=f"cycle: dbo:C{depth - 1} -> dbo:C{depth} -> dbo:C{depth - 1}$"
        ):
            load_kb(triples)


class TestRelationsOf:
    def test_outgoing_and_incoming(self, ford_store):
        company = ford_store.relations_of(Iri("dbr:Ford_Motor_Company"))
        assert Iri("dbo:foundedBy") in company  # outgoing
        assert Iri("dbo:owningOrganisation") in company  # incoming
        assert Iri("dbo:manufacturer") in company  # incoming

    def test_unknown_entity_is_empty(self, ford_store):
        assert ford_store.relations_of(Iri("dbr:Nobody")) == set()

    def test_reified_traversal(self, wikidata_store):
        # (e, p:P176, s), (s, ps:P176, x): the entry edge is traversed, and
        # the statement's outgoing edges stand in for it.
        rels = wikidata_store.relations_of(Iri("wd:Q42"))
        assert Iri("ps:P176") in rels
        assert Iri("pq:P155") in rels
        assert Iri("p:P176") not in rels
        assert Iri("wdt:P31") in rels

    def test_value_side_sees_statement_edge(self, wikidata_store):
        rels = wikidata_store.relations_of(Iri("wd:Q99"))
        assert Iri("ps:P176") in rels


class TestMostSpecificType:
    def test_ancestor_pruned(self, ford_store):
        # Factory and Building both asserted; Building is Factory's ancestor.
        assert ford_store.most_specific_type(Iri("dbr:Kansas_City_Assembly")) == Iri(
            "dbo:Factory"
        )

    def test_untyped_entity(self, ford_store):
        assert ford_store.most_specific_type(Iri("dbr:Henry_Ford")) is None

    def test_count_breaks_incomparable_tie(self):
        triples = "\n".join(
            [
                nt(DBR + "E", RDF_TYPE, DBO + "Poet"),
                nt(DBR + "E", RDF_TYPE, DBO + "Politician"),
            ]
        )
        ontology = "\n".join(
            [f"count\t{DBO}Poet\t10", f"count\t{DBO}Politician\t70"]
        )
        store = load_kb(triples, ontology)
        assert store.most_specific_type(Iri("dbr:E")) == Iri("dbo:Politician")

    def test_lexicographic_final_tie(self):
        triples = "\n".join(
            [
                nt(DBR + "E", RDF_TYPE, DBO + "Beta"),
                nt(DBR + "E", RDF_TYPE, DBO + "Alpha"),
            ]
        )
        store = load_kb(triples)
        assert store.most_specific_type(Iri("dbr:E")) == Iri("dbo:Alpha")


class TestLookupRelationLabel:
    def test_both_namespaces_found(self):
        triples = "\n".join(
            [
                nt(DBR + "A", DBO + "almaMater", DBR + "B"),
                nt(DBR + "C", DBP + "almaMater", DBR + "D"),
            ]
        )
        store = load_kb(triples)
        assert store.lookup_relation_label("almaMater") == {
            Iri("dbo:almaMater"),
            Iri("dbp:almaMater"),
        }

    def test_lookup_is_normalized(self):
        store = load_kb(nt(DBR + "A", DBO + "owningOrganisation", DBR + "B"))
        assert store.lookup_relation_label("owning organisation") == {
            Iri("dbo:owningOrganisation")
        }

    def test_unknown_label(self, ford_store):
        assert ford_store.lookup_relation_label("nonexistent") == set()

    def test_wikidata_variants_close_over_property(self, wikidata_store):
        hits = wikidata_store.lookup_relation_label("manufacturer")
        assert Iri("p:P176") in hits
        assert Iri("ps:P176") in hits


class TestMatchGraph:
    def test_single_pattern_binding(self, ford_store):
        pattern = TriplePattern(Iri("dbr:Kansas_City_Assembly"), Iri("dbo:owningOrganisation"), VX)
        binding = ford_store.match_graph([pattern])
        assert binding == {"x": Iri("dbr:Ford_Motor_Company")}

    def test_join_through_shared_variable(self, ford_store):
        graph = [
            TriplePattern(Iri("dbr:Kansas_City_Assembly"), Iri("dbo:owningOrganisation"), VX),
            TriplePattern(Iri("dbr:Ford_Y-block_engine"), Iri("dbo:manufacturer"), VX),
        ]
        assert ford_store.match_graph(graph) is not None

    def test_failed_join(self, ford_store):
        graph = [
            TriplePattern(Iri("dbr:Kansas_City_Assembly"), Iri("dbo:owningOrganisation"), VX),
            TriplePattern(Iri("dbr:Kansas_City_Assembly"), Iri("dbo:location"), VX),
        ]
        assert ford_store.match_graph(graph) is None

    def test_two_variable_pattern(self, ford_store):
        graph = [TriplePattern(VY, Iri("dbo:foundedBy"), VX)]
        binding = ford_store.match_graph(graph)
        assert binding == {"y": Iri("dbr:Ford_Motor_Company"), "x": Iri("dbr:Henry_Ford")}

    def test_answers_collects_all(self):
        triples = "\n".join(
            [
                nt(DBR + "A", DBO + "child", DBR + "B"),
                nt(DBR + "A", DBO + "child", DBR + "C"),
            ]
        )
        store = load_kb(triples)
        graph = [TriplePattern(Iri("dbr:A"), Iri("dbo:child"), VX)]
        assert store.answers(graph, VX) == {Iri("dbr:B"), Iri("dbr:C")}

    def test_literal_object_exact_match(self):
        store = load_kb(nt(DBR + "A", DBP + "pop", ("lit", "5")))
        holds = TriplePattern(Iri("dbr:A"), Iri("dbp:pop"), Literal("5"))
        misses = TriplePattern(Iri("dbr:A"), Iri("dbp:pop"), Literal("05"))
        assert store.pattern_satisfiable(holds)
        assert not store.pattern_satisfiable(misses)

    def test_path_pattern_forward(self, wikidata_store):
        path = PropertyPath(Iri("p:P176"), Iri("ps:P176"))
        pattern = TriplePattern(Iri("wd:Q42"), path, VX)
        assert wikidata_store.match_graph([pattern]) == {"x": Iri("wd:Q99")}

    def test_path_pattern_bound_both_ends(self, wikidata_store):
        path = PropertyPath(Iri("p:P176"), Iri("ps:P176"))
        assert wikidata_store.pattern_satisfiable(
            TriplePattern(Iri("wd:Q42"), path, Iri("wd:Q99"))
        )
        assert not wikidata_store.pattern_satisfiable(
            TriplePattern(Iri("wd:Q99"), path, Iri("wd:Q42"))
        )

    def test_qualifier_path_any_entry(self, wikidata_store):
        path = PropertyPath(None, Iri("pq:P155"))
        pattern = TriplePattern(Iri("wd:Q42"), path, VX)
        assert wikidata_store.match_graph([pattern]) == {"x": Iri("wd:Q55")}

    def test_path_with_variable_subject(self, wikidata_store):
        path = PropertyPath(Iri("p:P176"), Iri("ps:P176"))
        pattern = TriplePattern(VY, path, Iri("wd:Q99"))
        assert wikidata_store.match_graph([pattern]) == {"y": Iri("wd:Q42")}


# -- differential check of the matcher against a scan of the raw triples ---

PROPS = ("P1", "P2")
ENTITIES = [Iri(f"wd:Q{i}") for i in range(5)]
LITERALS = [Literal(str(i)) for i in range(2)]
STATEMENTS = [Iri(f"wds:S{i}") for i in range(4)]
FLAT = [Iri(f"{ns}:{pid}") for ns in ("dbo", "dbp", "wdt", "p", "ps", "pq") for pid in PROPS]
TERM_KINDS = ("entity", "literal", "x", "y")
PREDICATE_KINDS = ("flat", "statement", "qualifier")


def _random_store(rng: random.Random, profile) -> tuple[list[tuple], KbStore]:
    """Flat edges, p:/ps: statements and pq: qualifiers over small pools, so
    that subjects, objects, statements and self-loops collide."""
    values = ENTITIES + LITERALS
    triples = []
    for _ in range(rng.randint(0, 12)):
        pred = Iri(f"{rng.choice(('dbo', 'dbp', 'wdt', 'p'))}:{rng.choice(PROPS)}")
        triples.append((rng.choice(ENTITIES), pred, rng.choice(values + STATEMENTS)))
    for _ in range(rng.randint(0, 8)):
        stmt = rng.choice(STATEMENTS)
        triples.append((rng.choice(ENTITIES), Iri(f"p:{rng.choice(PROPS)}"), stmt))
        triples.append((stmt, Iri(f"ps:{rng.choice(PROPS)}"), rng.choice(values)))
        if rng.random() < 0.5:
            triples.append((stmt, Iri(f"pq:{rng.choice(PROPS)}"), rng.choice(values)))
    rng.shuffle(triples)
    store = KbStore(profile)
    for s, p, o in triples:
        store.add_triple(Triple(s, p, o))
    return triples, store


def _random_pattern(rng: random.Random, s_kind: str, p_kind: str, o_kind: str) -> TriplePattern:
    def term(kind):
        if kind == "entity":
            return rng.choice(ENTITIES)
        if kind == "literal":
            return rng.choice(LITERALS)
        return Variable(kind)

    pid = rng.choice(PROPS)
    if p_kind == "flat":
        pred = rng.choice(FLAT)
    elif p_kind == "statement":
        pred = PropertyPath(Iri(f"p:{pid}"), Iri(f"ps:{pid}"))
    else:
        pred = PropertyPath(None, Iri(f"pq:{pid}"))
    return TriplePattern(term(s_kind), pred, term(o_kind))


def _scan_solutions(triples, profile, pattern: TriplePattern) -> list[dict]:
    pred = pattern.predicate
    if isinstance(pred, PropertyPath):
        def enters(p):
            if pred.via is not None:
                return p == pred.via
            return namespace_of(p, profile) == profile.statement_namespace

        pairs = {
            (s, o)
            for s, p, stmt in triples
            if enters(p)
            for s2, p2, o in triples
            if s2 == stmt and p2 == pred.edge
        }
    else:
        pairs = {(s, o) for s, p, o in triples if p == pred}
    out = []
    for pair in pairs:
        binding = {}
        for term, value in zip((pattern.subject, pattern.object), pair):
            if isinstance(term, Variable):
                if binding.setdefault(term.name, value) != value:
                    break
            elif term != value:
                break
        else:
            out.append(binding)
    return out


def _scan_join(triples, profile, patterns) -> list[dict]:
    solutions = [{}]
    for pattern in patterns:
        solutions = [
            {**a, **b}
            for a in solutions
            for b in _scan_solutions(triples, profile, pattern)
            if all(a.get(k, v) == v for k, v in b.items())
        ]
    return solutions


def _as_set(bindings) -> set[frozenset]:
    return {frozenset(b.items()) for b in bindings}


@pytest.mark.parametrize("profile", [DBPEDIA, WIKIDATA], ids=lambda p: p.name)
class TestMatcherDifferential:
    def test_every_pattern_shape(self, profile):
        shapes = list(itertools.product(TERM_KINDS, PREDICATE_KINDS, TERM_KINDS))
        for seed in range(150):
            rng = random.Random(seed)
            triples, store = _random_store(rng, profile)
            for shape in shapes:
                pattern = _random_pattern(rng, *shape)
                expected = _as_set(_scan_solutions(triples, profile, pattern))
                assert _as_set(store.match_pattern(pattern)) == expected, (seed, str(pattern))
                assert store.pattern_satisfiable(pattern) == bool(expected), (seed, str(pattern))

    def test_two_pattern_graphs(self, profile):
        for seed in range(150):
            rng = random.Random(seed)
            triples, store = _random_store(rng, profile)
            for _ in range(10):
                graph = [
                    _random_pattern(
                        rng, rng.choice(TERM_KINDS), rng.choice(PREDICATE_KINDS), rng.choice(TERM_KINDS)
                    )
                    for _ in range(2)
                ]
                expected = _scan_join(triples, profile, graph)
                first = store.match_graph(graph)
                assert (first is None) == (not expected), (seed, [str(p) for p in graph])
                assert first is None or first in expected
                for var in (VX, VY):
                    assert store.answers(graph, var) == {
                        sol[var.name] for sol in expected if var.name in sol
                    }, (seed, [str(p) for p in graph])


class TestProfileConfig:
    def test_base_profile_only(self):
        profile = load_profile_config("profile = wikidata\n")
        assert profile.name == "wikidata"

    def test_extra_prefix(self):
        profile = load_profile_config(
            "profile = dbpedia\nprefix.ex = http://example.org/\n"
        )
        assert profile.prefixes["ex"] == "http://example.org/"
        assert profile.prefixes["dbo"] == "http://dbpedia.org/ontology/"

    def test_extra_prefix_keeps_reified_fields(self):
        profile = load_profile_config(
            "profile = wikidata\nprefix.ex = http://example.org/\n"
        )
        assert profile.prefixes["ex"] == "http://example.org/"
        assert profile.statement_namespace == WIKIDATA.statement_namespace == "p"
        assert profile.direct_only == WIKIDATA.direct_only
        assert profile.preference == WIKIDATA.preference

    def test_missing_base(self):
        with pytest.raises(KbLoadError):
            load_profile_config("prefix.ex = http://example.org/\n")

    def test_unknown_key(self):
        with pytest.raises(KbLoadError, match="line 1"):
            load_profile_config("endpoint = http://example.org/\n")
