"""Term construction, IRI normalization, and profile definitions."""

from __future__ import annotations

import copy
import dataclasses
import json
import pickle
import random
import re
from collections import Counter

import pytest

from rellink.evaluation import read_gold
from rellink.kb_store import load_kb, load_profile_config
from rellink.terms import (
    DBPEDIA,
    RECORD_IRI_MEMO,
    VAR_X,
    VAR_Y,
    WIKIDATA,
    Iri,
    Literal,
    Profile,
    PropertyPath,
    TriplePattern,
    Variable,
    expect,
    get_profile,
    local_name,
    namespace_of,
    normalize_iri,
    normalize_label,
    parse_term,
    record_iri,
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


# -- differential check of the compiled compaction against the prefix scan ---


def reference_normalize_iri(value: str, profile: Profile) -> Iri:
    """The per-call scan over every profile prefix that the compiled match
    replaced, kept verbatim."""
    expect(value, str, "IRI")
    best: tuple[int, str] | None = None
    for prefix, ns in profile.prefixes.items():
        if value.startswith(ns) and (best is None or len(ns) > best[0]):
            best = (len(ns), prefix)
    if best is not None:
        _, prefix = best
        local = value[len(profile.prefixes[prefix]):]
        if local:
            return Iri(f"{prefix}:{local}")
    return Iri(value)


# Namespace pieces: nested paths, regex metacharacters, and a '#' end.
NS_ROOTS = ("http://kb.example.org/", "http://www.wikidata.org/", "urn:x+y.z/", "http://a.b/(c)?*[d]^$|")
NS_TAILS = ("", "entity/", "entity/statement/", "prop/", "prop/direct/", "ns#", "a.b/", "e")
LOCALS = ("Q42", "", "P31", "a b", "x\tz", "x\n", "ent/ity", "Caf\u00e9", "?", "(.*)")


def _random_prefixes(rng: random.Random, names: list[str]) -> dict[str, str]:
    """A namespace table over ``names``: nested namespaces, one namespace
    under two names, and now and then an empty namespace, which prefixes
    every value."""
    prefixes = {name: rng.choice(NS_ROOTS) + rng.choice(NS_TAILS) for name in names}
    if names and rng.random() < 0.3:
        prefixes[f"dup{len(names)}"] = prefixes[rng.choice(names)]
    if rng.random() < 0.05:
        prefixes["blank"] = ""
    return prefixes


def _random_profiles(rng: random.Random) -> list[Profile]:
    """A bare profile over a random table, which may be empty, and a profile
    config that adds prefixes and overrides built-in ones."""
    table = _random_prefixes(rng, [f"n{i}" for i in range(rng.randint(0, 7))])
    base = rng.choice([DBPEDIA, WIKIDATA])
    names = rng.sample(sorted(base.prefixes), rng.randint(0, 3)) + [f"x{i}" for i in range(rng.randint(0, 3))]
    config = "".join(f"prefix.{name} = {ns}\n" for name, ns in _random_prefixes(rng, names).items() if ns)
    return [
        Profile("random", table, (), Iri("rdf:type"), Iri("rdfs:subClassOf")),
        load_profile_config(f"profile = {base.name}\n{config}"),
    ]


def _random_values(rng: random.Random, prefixes: dict[str, str]) -> list:
    namespaces = [*prefixes.values(), *NS_ROOTS, *(r + t for r in NS_ROOTS for t in NS_TAILS)]
    values = [rng.choice(namespaces) + rng.choice(LOCALS) for _ in range(12)]
    values += [ns[:rng.randint(0, len(ns))] for ns in rng.sample(namespaces, 3)]
    values += [f"{name}:x" for name in prefixes] + ["dbo:state", "_:b1", "_:", "", " ", "a:"]
    values += [5, None, b"dbo:x", ["dbo:x"]]
    rng.shuffle(values)
    return values


def _outcome(call, *args):
    try:
        result = call(*args)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    assert type(result) is Iri
    return result


def _case(value, profile: Profile) -> str | None:
    """Which of the cases under test ``value`` is, by the reference's reading."""
    if not isinstance(value, str):
        return "not a string"
    found = sorted(
        (len(ns), name) for name, ns in profile.prefixes.items() if value.startswith(ns)
    )
    if found and value == profile.prefixes[found[-1][1]]:
        return "empty local part"
    if found and any(ch.isspace() for ch in value):
        return "whitespace in local part"
    if len({n for n, _ in found}) > 1:
        return "nested namespaces"
    if len(found) > len({n for n, _ in found}):
        return "namespace under two names"
    if value.startswith("_:"):
        return "blank node"
    if value.partition(":")[0] in profile.prefixes:
        return "already prefixed"
    return None


def test_compaction_matches_prefix_scan():
    seen = Counter()
    for seed in range(300):
        rng = random.Random(seed)
        for profile in _random_profiles(rng):
            seen["no prefixes"] += not profile.prefixes
            seen["override"] += any(
                base.name == profile.name and base.prefixes.get(name, ns) != ns
                for base in (DBPEDIA, WIKIDATA) for name, ns in profile.prefixes.items()
            )
            for value in _random_values(rng, profile.prefixes):
                expected = _outcome(reference_normalize_iri, value, profile)
                assert _outcome(normalize_iri, value, profile) == expected, (seed, value)
                # A second read comes from the memo, or fails again the same way.
                for _ in range(2):
                    assert _outcome(record_iri, value, profile) == expected, (seed, value)
                seen[_case(value, profile)] += 1
    for case in ("no prefixes", "override", "not a string", "empty local part",
                 "whitespace in local part", "nested namespaces", "namespace under two names",
                 "blank node", "already prefixed"):
        assert seen[case] > 0, (case, seen)


class TestCompactionCases:
    """The cases the random tables must reach, pinned one by one."""

    def test_nested_namespaces(self):
        assert normalize_iri("http://www.wikidata.org/entity/statement/S1", WIKIDATA) == "wds:S1"
        assert normalize_iri("http://www.wikidata.org/entity/Q1", WIKIDATA) == "wd:Q1"
        # The longest namespace with no local part does not fall back to a shorter one.
        assert normalize_iri("http://www.wikidata.org/entity/statement/", WIKIDATA) == (
            "http://www.wikidata.org/entity/statement/")

    def test_first_name_of_a_shared_namespace_wins(self):
        profile = load_profile_config("profile = dbpedia\nprefix.ex = http://dbpedia.org/ontology/\n")
        assert normalize_iri("http://dbpedia.org/ontology/state", profile) == "dbo:state"
        profile = load_profile_config("profile = dbpedia\nprefix.dbo = http://dbpedia.org/resource/\n")
        assert normalize_iri("http://dbpedia.org/resource/E1", profile) == "dbo:E1"

    def test_no_prefixes(self):
        profile = Profile("bare", {}, (), Iri("rdf:type"), Iri("rdfs:subClassOf"))
        assert normalize_iri("http://dbpedia.org/ontology/state", profile) == (
            "http://dbpedia.org/ontology/state")
        assert record_iri("dbo:state", profile) == "dbo:state"

    def test_whitespace_in_local_part(self):
        for call in (normalize_iri, record_iri, reference_normalize_iri):
            with pytest.raises(ValueError, match="^not a valid IRI or prefixed name: 'dbo:a b'$"):
                call("http://dbpedia.org/ontology/a b", DBPEDIA)

    @pytest.mark.parametrize("bad", [5, None, b"dbo:x", ["dbo:x"]])
    def test_non_strings(self, bad):
        for call in (normalize_iri, record_iri, reference_normalize_iri):
            with pytest.raises(TypeError, match=f"^{re.escape(f'IRI must be a string, got {bad!r}')}$"):
                call(bad, DBPEDIA)

    def test_profile_pickles_with_its_compaction(self):
        profile = load_profile_config("profile = wikidata\nprefix.wd = http://kb.example.org/entity/\n")
        for loaded in (pickle.loads(pickle.dumps(profile)), copy.deepcopy(profile)):
            assert loaded == profile
            assert normalize_iri("http://kb.example.org/entity/Q1", loaded) == "wd:Q1"
            assert record_iri("http://kb.example.org/entity/Q1", loaded) == "wd:Q1"

    def test_profile_fields_alone_define_equality(self):
        replaced = dataclasses.replace(WIKIDATA)
        assert replaced == WIKIDATA and hash(replaced) == hash(WIKIDATA)
        assert "compact" not in repr(replaced)
        assert [f.name for f in dataclasses.fields(Profile)] == [
            "name", "prefixes", "property_namespaces", "type_predicate",
            "subclass_predicate", "statement_namespace"]


class TestRecordMemo:
    def test_bounded(self):
        profile = dataclasses.replace(DBPEDIA)  # a memo of its own
        count = RECORD_IRI_MEMO + 300
        lines = [
            json.dumps({"question_id": f"q{i}", "question": "?",
                        "relations": [f"http://dbpedia.org/ontology/r{i}"],
                        "graph": [[f"http://dbpedia.org/resource/E{i}", f"dbo:r{i}", "?x"]]})
            for i in range(count)
        ]
        assert len(list(read_gold(lines, profile))) == count
        info = profile._record_iri.cache_info()
        assert info.maxsize == RECORD_IRI_MEMO
        assert info.currsize == RECORD_IRI_MEMO
        assert info.misses == 3 * count

    def test_kb_load_leaves_it_empty(self):
        profile = dataclasses.replace(DBPEDIA)
        triples = "".join(
            f"<http://dbpedia.org/resource/E{i}> <http://dbpedia.org/ontology/r{i % 7}> "
            f"<http://dbpedia.org/resource/E{i + 1}> .\n"
            for i in range(RECORD_IRI_MEMO + 300)
        )
        ontology = "label\thttp://dbpedia.org/ontology/r1\tr one\nsubclass\tdbo:A\tdbo:B\n"
        assert len(load_kb(triples, ontology, profile)) == RECORD_IRI_MEMO + 300
        assert profile._record_iri.cache_info().currsize == 0

    def test_an_error_is_not_kept(self):
        profile = dataclasses.replace(DBPEDIA)
        for _ in range(2):
            with pytest.raises(ValueError, match="^not a valid IRI or prefixed name: 'dbo:a b'$"):
                record_iri("http://dbpedia.org/ontology/a b", profile)
        assert profile._record_iri.cache_info().currsize == 0


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

    def test_variables_are_the_shared_constants(self):
        assert parse_term("?x", DBPEDIA) is VAR_X
        assert parse_term(" ?y ", WIKIDATA) is VAR_Y

    @pytest.mark.parametrize("text,name", [("?z", "z"), ("?", ""), ("?X", "X"), ("?xy", "xy")])
    def test_other_variables_fail(self, text, name):
        with pytest.raises(ValueError, match=f"^variable must be 'x' or 'y', got {name!r}$"):
            parse_term(text, DBPEDIA)

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


class TestExpect:
    """One check for every JSON field a record reader takes, in RFC 8259's
    terms: ``true`` and ``false`` are neither integers nor numbers."""

    @pytest.mark.parametrize(
        "text, kind",
        [('"q1"', str), ("[]", list), ("{}", dict), ("-3", int), ("1.5", (int, float)),
         ("7", (int, float)), ("-Infinity", (int, float)), ('""', str)],
    )
    def test_returns_the_value_itself(self, text, kind):
        value = json.loads(text)
        assert expect(value, kind, "field") is value

    @pytest.mark.parametrize(
        "text, kind, message",
        [
            ("5", str, "name must be a string, got 5"),
            ('{"a": 1}', list, "name must be an array, got {'a': 1}"),
            ('"ab"', list, "name must be an array, got 'ab'"),
            ("[1]", dict, "name must be a JSON object, got [1]"),
            ("null", dict, "name must be a JSON object, got None"),
            ("4.0", int, "name must be an integer, got 4.0"),
            ('"4"', int, "name must be an integer, got '4'"),
            ("false", int, "name must be an integer, got False"),
            ("true", (int, float), "name must be a number, got True"),
            ('"1e3"', (int, float), "name must be a number, got '1e3'"),
        ],
    )
    def test_names_the_field_and_the_json_kind(self, text, kind, message):
        with pytest.raises(TypeError) as caught:
            expect(json.loads(text), kind, "name")
        assert str(caught.value) == message

    @pytest.mark.parametrize("size", [79, 80, 81, 10**5])
    def test_shows_at_most_80_characters_of_the_value(self, size):
        # A repr of 80 characters is shown whole; a longer one is cut to 77
        # and an ellipsis.
        value = "x" * (size - 2)
        with pytest.raises(TypeError) as caught:
            expect(value, int, "name")
        shown = repr(value) if size <= 80 else repr(value)[:77] + "..."
        assert str(caught.value) == f"name must be an integer, got {shown}"
        assert len(shown) == min(size, 80)
