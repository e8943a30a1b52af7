"""Target serialization, output parsing, classification, ASK detection."""

from __future__ import annotations

import pytest

from conftest import FORD_QUESTION, OBAMA_QUESTION, entity
from rellink.sequence_grammar import (
    ArgRelPair,
    EntityArg,
    OutputParseError,
    PlaceholderArg,
    detect_ask,
    parse_output,
    render_group,
    serialize_target,
)


def _target(pairs: list[ArgRelPair]) -> str:
    """The target text of ``pairs``, one rendered group per pair."""
    return serialize_target([
        render_group(
            p.argument.wh_term if isinstance(p.argument, PlaceholderArg) else p.argument.mention,
            p.relation_label,
        )
        for p in pairs
    ])


class TestSerializeTarget:
    def test_two_entity_pairs(self):
        groups = [
            render_group("Ford Kansas City Assembly Plant", "owningOrganisation"),
            render_group("Ford Y-block engine", "manufacturer"),
        ]
        assert serialize_target(groups) == (
            "[Ford Kansas City Assembly Plant | owningOrganisation], "
            "[Ford Y-block engine | manufacturer]"
        )

    def test_placeholder_pair(self):
        assert serialize_target([render_group("Who", "owner")]) == "[Who | owner]"

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            serialize_target([])

    def test_empty_relation_label_rejected(self):
        with pytest.raises(ValueError, match="relation label must be non-empty"):
            render_group("m", "")

    def test_reserved_characters_escaped(self):
        assert render_group("a | b", "r,1") == "[a \\| b | r\\,1]"


class TestParseOutput:
    def test_placeholder_classification(self):
        pairs = parse_output("[Who | owner]")
        assert pairs == [ArgRelPair(PlaceholderArg("Who"), "owner")]

    def test_entity_classification(self):
        pairs = parse_output("[Berlin | capital]")
        assert pairs == [ArgRelPair(EntityArg("Berlin"), "capital")]

    def test_shared_relation_two_pairs(self):
        pairs = parse_output("[E1 | RelA], [E2 | RelA]")
        assert [p.relation_label for p in pairs] == ["RelA", "RelA"]

    def test_dash_alias(self):
        pairs = parse_output("[E1 - RelA] [E2 - RelA]")
        assert pairs[0] == ArgRelPair(EntityArg("E1"), "RelA")
        assert len(pairs) == 2

    def test_dash_inside_mention_with_pipe(self):
        pairs = parse_output("[Ford Y-block engine | manufacturer]")
        assert pairs[0].argument == EntityArg("Ford Y-block engine")

    def test_unclosed_bracket(self):
        with pytest.raises(OutputParseError):
            parse_output("[A | r1")

    def test_missing_separator(self):
        with pytest.raises(OutputParseError):
            parse_output("[A r1]")

    def test_double_separator(self):
        with pytest.raises(OutputParseError):
            parse_output("[A | r1 | extra]")

    def test_empty_relation(self):
        with pytest.raises(OutputParseError):
            parse_output("[A | ]")

    def test_arbitrary_text_is_error_not_crash(self):
        for garbage in ["", "hello world", "]][[", "[]", ",,,"]:
            with pytest.raises(OutputParseError):
                parse_output(garbage)

    def test_error_carries_chunk(self):
        with pytest.raises(OutputParseError) as info:
            parse_output("[A | r], oops")
        assert info.value.chunk


class TestEntityResolution:
    def test_exact_match(self, ford_entities):
        pairs = parse_output(
            "[Ford Y-block engine | manufacturer]", ford_entities
        )
        arg = pairs[0].argument
        assert arg.entity is not None and arg.entity == "dbr:Ford_Y-block_engine"
        assert not arg.fuzzy

    def test_case_insensitive_match(self, ford_entities):
        pairs = parse_output("[ford y-block engine | manufacturer]", ford_entities)
        arg = pairs[0].argument
        assert arg.entity is not None
        assert not arg.fuzzy

    def test_token_overlap_fuzzy(self, ford_entities):
        pairs = parse_output("[Y-block engine | manufacturer]", ford_entities)
        arg = pairs[0].argument
        assert arg.entity is not None and arg.entity == "dbr:Ford_Y-block_engine"
        assert arg.fuzzy

    def test_below_threshold_unresolved(self, ford_entities):
        pairs = parse_output(
            "[some totally different thing | manufacturer]", ford_entities
        )
        assert pairs[0].argument.entity is None

    def test_classification_total(self, ford_entities):
        pairs = parse_output("[what | r], [Ford Y-block engine | r]", ford_entities)
        assert isinstance(pairs[0].argument, PlaceholderArg)
        assert isinstance(pairs[1].argument, EntityArg)


class TestRoundtrip:
    CASES = [
        [ArgRelPair(EntityArg("Plain Mention"), "relation")],
        [ArgRelPair(PlaceholderArg("who"), "spouse")],
        [
            ArgRelPair(EntityArg("a | pipe"), "r1"),
            ArgRelPair(EntityArg("b [ bracket"), "r2"),
            ArgRelPair(EntityArg("c , comma"), "r3"),
        ],
        [ArgRelPair(EntityArg("back\\slash"), "re]l")],
    ]

    @pytest.mark.parametrize("pairs", CASES)
    def test_roundtrip(self, pairs):
        assert parse_output(_target(pairs)) == pairs


class TestDetectAsk:
    def test_boolean_lead_question(self):
        assert detect_ask(OBAMA_QUESTION) is True

    def test_wh_lead_question(self):
        assert detect_ask(FORD_QUESTION) is False

    def test_empty(self):
        assert detect_ask("") is False

    @pytest.mark.parametrize(
        "question,expected",
        [
            ("Is Berlin in Germany?", True),
            ("Did X write Y?", True),
            ("HAVE you seen it?", True),
            ("\"Was it so?\"", True),
            ("Which river flows here?", False),
            ("Canada is a country", False),
        ],
    )
    def test_lead_tokens(self, question, expected):
        assert detect_ask(question) is expected
