"""Term construction, IRI normalization, and profile definitions."""

from __future__ import annotations

import pytest

from rellink.terms import (
    DBPEDIA,
    WIKIDATA,
    Iri,
    Literal,
    PropertyPath,
    TriplePattern,
    Variable,
    get_profile,
    local_name,
    namespace_of,
    normalize_iri,
    normalize_label,
    parse_term,
    relation_uri,
)


class TestIri:
    def test_accepts_full_iri(self):
        assert Iri("http://dbpedia.org/ontology/spouse").endswith("spouse")

    def test_accepts_prefixed(self):
        assert Iri("dbo:spouse") == "dbo:spouse"

    def test_accepts_blank_node(self):
        Iri("_:b1")

    @pytest.mark.parametrize("bad", ["", "no-colon", "has space:x", "a:", "<wrapped>"])
    def test_rejects_non_iris(self, bad):
        with pytest.raises(ValueError, match=f"^not a valid IRI or prefixed name: {bad!r}$"):
            Iri(bad)

    def test_rejects_a_trailing_newline(self):
        # The whole text must match: a pattern ending in $ also matches
        # before a final newline.
        with pytest.raises(ValueError, match="^not a valid IRI or prefixed name: 'dbo:x\\\\n'$"):
            Iri("dbo:x\n")
        with pytest.raises(ValueError, match="^not a valid IRI or prefixed name: 'dbr:E1\\\\n'$"):
            normalize_iri("http://dbpedia.org/resource/E1\n", DBPEDIA)

    @pytest.mark.parametrize("bad", [5, None, b"dbo:x"])
    def test_rejects_non_strings(self, bad):
        with pytest.raises(TypeError):
            Iri(bad)

    def test_hashes_and_compares_as_str(self):
        # Every index lookup then hashes and compares in C, with the hash cached.
        assert Iri.__hash__ is str.__hash__
        assert Iri.__eq__ is str.__eq__
        assert Iri("dbo:x") == "dbo:x" and hash(Iri("dbo:x")) == hash("dbo:x")
        assert not hasattr(Iri("dbo:x"), "__dict__")

    def test_never_equals_a_literal_of_its_text(self):
        assert Iri("a:b") != Literal("a:b")
        assert Literal("a:b") != Iri("a:b")
        assert len({Iri("a:b"), Literal("a:b")}) == 2


class TestVariable:
    def test_only_x_and_y(self):
        assert Variable("x").name == "x"
        assert Variable("y").name == "y"
        with pytest.raises(ValueError):
            Variable("z")


class TestNormalizeIri:
    def test_compacts_known_namespace(self):
        iri = normalize_iri("http://dbpedia.org/ontology/state", DBPEDIA)
        assert iri == Iri("dbo:state")

    def test_longest_namespace_wins(self):
        # prop/statement/ must not truncate to the shorter prop/ namespace.
        iri = normalize_iri("http://www.wikidata.org/prop/statement/P176", WIKIDATA)
        assert iri == Iri("ps:P176")
        entity = normalize_iri("http://www.wikidata.org/entity/statement/abc", WIKIDATA)
        assert entity == Iri("wds:abc")

    def test_foreign_iri_passes_through(self):
        iri = normalize_iri("http://example.org/thing", DBPEDIA)
        assert iri == Iri("http://example.org/thing")

    def test_prefixed_input_unchanged(self):
        assert normalize_iri("dbo:state", DBPEDIA) == Iri("dbo:state")


class TestLocalName:
    @pytest.mark.parametrize(
        "value,expected",
        [
            ("dbo:almaMater", "almaMater"),
            ("http://dbpedia.org/ontology/state", "state"),
            ("http://www.w3.org/1999/02/22-rdf-syntax-ns#type", "type"),
            ("wdt:P31", "P31"),
        ],
    )
    def test_local_name(self, value, expected):
        assert local_name(Iri(value)) == expected


class TestNamespaceOf:
    def test_known_prefix(self):
        assert namespace_of(Iri("dbp:state"), DBPEDIA) == "dbp"

    def test_full_iri_has_no_prefix(self):
        assert namespace_of(Iri("http://example.org/x"), DBPEDIA) is None


class TestNormalizeLabel:
    def test_strips_and_folds(self):
        assert normalize_label("alma Mater") == normalize_label("almaMater")
        assert normalize_label("Owning-Organisation") == "owningorganisation"


class TestProfiles:
    def test_canonical_namespace_urls(self):
        assert DBPEDIA.prefixes["dbo"] == "http://dbpedia.org/ontology/"
        assert DBPEDIA.prefixes["dbp"] == "http://dbpedia.org/property/"
        assert WIKIDATA.prefixes["wdt"] == "http://www.wikidata.org/prop/direct/"
        assert WIKIDATA.prefixes["p"] == "http://www.wikidata.org/prop/"
        assert WIKIDATA.prefixes["ps"] == "http://www.wikidata.org/prop/statement/"
        assert WIKIDATA.prefixes["pq"] == "http://www.wikidata.org/prop/qualifier/"

    def test_preference_orders(self):
        assert DBPEDIA.property_namespaces == ("dbo", "dbp")
        assert WIKIDATA.property_namespaces == ("wdt", "p", "ps", "pq")

    def test_unknown_profile(self):
        with pytest.raises(ValueError):
            get_profile("freebase")


class TestParseTerm:
    def test_variable(self):
        assert parse_term("?x", DBPEDIA) == Variable("x")

    def test_literal(self):
        assert parse_term('"1955"', DBPEDIA) == Literal("1955")

    def test_iri_normalized(self):
        assert parse_term("http://dbpedia.org/property/state", DBPEDIA) == Iri("dbp:state")

    def test_angle_wrapped_iri(self):
        assert parse_term("<http://dbpedia.org/ontology/state>", DBPEDIA) == Iri("dbo:state")


class TestRelationUri:
    def test_plain_predicate(self):
        assert relation_uri(Iri("dbo:state")) == Iri("dbo:state")

    def test_path_reports_edge(self):
        path = PropertyPath(Iri("p:P176"), Iri("ps:P176"))
        assert relation_uri(path) == Iri("ps:P176")

    def test_pattern_str_is_readable(self):
        pattern = TriplePattern(Iri("dbr:A"), Iri("dbo:r"), Variable("x"))
        assert str(pattern) == "(dbr:A dbo:r ?x)"

    def test_path_pattern_str_names_both_steps(self):
        x, y = Variable("x"), Variable("y")
        statement = TriplePattern(x, PropertyPath(Iri("p:P176"), Iri("ps:P176")), y)
        assert str(statement) == "(?x p:P176/ps:P176 ?y)"
        assert str(TriplePattern(x, PropertyPath(None, Iri("pq:P580")), y)) == "(?x */pq:P580 ?y)"
