"""Target serialization, output parsing, mention resolution, ASK detection."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from conftest import FORD_QUESTION, OBAMA_QUESTION, entity
from rellink.knowledge_integration import LinkedEntity
from rellink.sequence_grammar import (
    FUZZY_OVERLAP_THRESHOLD,
    WH_LEXICON,
    OutputParseError,
    detect_ask,
    parse_output,
    render_group,
    serialize_target,
)
from rellink.terms import VAR_Y, Iri


def linked(*mentions: str) -> list[LinkedEntity]:
    """One linked entity per mention, the i-th denoting ``ex:E<i>``; spans are
    never checked by the parser, so each one simply covers its mention."""
    return [LinkedEntity(m, 0, len(m), Iri(f"ex:E{i}")) for i, m in enumerate(mentions)]


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
        assert pairs == [(VAR_Y, "owner")]

    def test_entity_classification(self):
        assert parse_output("[Berlin | capital]", linked("Berlin")) == [(Iri("ex:E0"), "capital")]

    def test_no_entities_leaves_the_mention_unresolved(self):
        assert parse_output("[Berlin | capital]") == [(None, "capital")]

    def test_shared_relation_two_pairs(self):
        pairs = parse_output("[E1 | RelA], [E2 | RelA]", linked("E1", "E2"))
        assert pairs == [(Iri("ex:E0"), "RelA"), (Iri("ex:E1"), "RelA")]

    def test_dash_alias(self):
        pairs = parse_output("[E1 - RelA] [E2 - RelA]", linked("E1", "E2"))
        assert pairs == [(Iri("ex:E0"), "RelA"), (Iri("ex:E1"), "RelA")]

    def test_dash_inside_mention_with_pipe(self):
        # Split at the dash, the argument "Ford Y" would overlap "Ford" only.
        entities = linked("Ford", "Ford Y-block engine")
        pairs = parse_output("[Ford Y-block engine | manufacturer]", entities)
        assert pairs == [(Iri("ex:E1"), "manufacturer")]

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
        assert pairs == [(Iri("dbr:Ford_Y-block_engine"), "manufacturer")]

    def test_case_insensitive_match(self, ford_entities):
        pairs = parse_output("[ford y-block engine | manufacturer]", ford_entities)
        assert pairs == [(Iri("dbr:Ford_Y-block_engine"), "manufacturer")]

    def test_token_overlap_fuzzy(self, ford_entities):
        pairs = parse_output("[Y-block engine | manufacturer]", ford_entities)
        assert pairs == [(Iri("dbr:Ford_Y-block_engine"), "manufacturer")]

    def test_below_threshold_unresolved(self, ford_entities):
        pairs = parse_output(
            "[some totally different thing | manufacturer]", ford_entities
        )
        assert pairs == [(None, "manufacturer")]

    def test_classification_total(self, ford_entities):
        pairs = parse_output("[what | r], [Ford Y-block engine | r]", ford_entities)
        assert pairs == [(VAR_Y, "r"), (Iri("dbr:Ford_Y-block_engine"), "r")]


class TestRoundtrip:
    """Each escaped mention parses back to exactly its own text: it resolves,
    by the exact step, to its entity, though an upper-case decoy listed
    before it would win the case-insensitive step."""

    CASES = [
        [("Plain Mention", "relation")],
        [("who", "spouse")],
        [("a | pipe", "r1"), ("b [ bracket", "r2"), ("c , comma", "r3")],
        [("back\\slash", "re]l")],
        [("a \\| pipe", "r,1"), ("a | pipe", "r]2"), ("a [|] pipe", "r\\3")],
    ]

    @pytest.mark.parametrize("pairs", CASES)
    def test_roundtrip(self, pairs):
        mentions = [arg for arg, _ in pairs if arg.casefold() not in WH_LEXICON]
        entities = linked(*(m.upper() for m in mentions), *mentions)
        iri_of = {m: Iri(f"ex:E{len(mentions) + i}") for i, m in enumerate(mentions)}
        text = serialize_target([render_group(arg, label) for arg, label in pairs])
        assert parse_output(text, entities) == [
            (iri_of.get(arg, VAR_Y), label) for arg, label in pairs
        ]


# -- mention resolution against the code it replaced --------------------------
#
# Reference: ``_resolve_mention`` as it was when a parsed argument was an
# ``EntityArg(mention, entity, fuzzy)`` object, kept verbatim but for its name
# and for returning the step that matched in place of that object.


def _ref_resolve_mention(mention, question_entities):
    for ent in question_entities:
        if ent.mention == mention:
            return ent.entity, "exact"
    folded = mention.casefold()
    for ent in question_entities:
        if ent.mention.casefold() == folded:
            return ent.entity, "casefold"
    arg_tokens = set(mention.casefold().split())
    if arg_tokens:
        best = None
        best_overlap = 0.0
        for ent in question_entities:
            ent_tokens = set(ent.mention.casefold().split())
            overlap = len(arg_tokens & ent_tokens) / len(arg_tokens)
            if overlap > best_overlap:
                best, best_overlap = ent, overlap
        if best is not None and best_overlap >= FUZZY_OVERLAP_THRESHOLD:
            return best.entity, "fuzzy"
    return None, "unresolved"


# Few words, so mentions and arguments share tokens; some hold the reserved
# characters of the grammar.
_WORDS = ["ford", "engine", "Y-block", "city", "new", "york", "of", "a|b", "[x]", "c,d", "back\\slash"]


def _recased(rng: random.Random, text: str) -> str:
    return rng.choice([str.upper, str.lower, str.title, str.swapcase, lambda t: t])(text)


def _argument(rng: random.Random, mentions: list[str]) -> str:
    """An argument that names a mention exactly, in another case, by some of
    its words (mixed with others), not at all, or is a Wh-term in any case."""
    kind = rng.choice(["exact", "case", "overlap", "overlap", "other", "wh"])
    if kind == "wh":
        return _recased(rng, rng.choice(sorted(WH_LEXICON)))
    mention = rng.choice(mentions)
    if kind == "exact":
        return mention
    if kind == "case":
        return _recased(rng, mention)
    words = rng.sample(mention.split(), rng.randint(1, len(mention.split())))
    if kind == "other":
        words = []
    words += [rng.choice(_WORDS + ["zz", "who is"]) for _ in range(rng.randint(0 if words else 1, 3))]
    rng.shuffle(words)
    return _recased(rng, " ".join(words))


def _overlap(argument: str, mention: str) -> float:
    tokens = set(argument.casefold().split())
    return len(tokens & set(mention.casefold().split())) / len(tokens)


def test_parse_output_resolves_mentions_as_the_reference():
    steps, near, reserved = Counter(), Counter(), Counter()
    exact_beats_earlier = 0
    for seed in range(3000):
        rng = random.Random(seed)
        mentions = [" ".join(rng.choices(_WORDS, k=rng.randint(1, 3))) for _ in range(rng.randint(1, 4))]
        # A case variant of an earlier mention competes with it.
        if rng.random() < 0.3:
            mentions.append(_recased(rng, rng.choice(mentions)))
        rng.shuffle(mentions)
        entities = linked(*mentions)
        groups = [(_argument(rng, mentions), rng.choice(_WORDS)) for _ in range(rng.randint(1, 4))]
        text = serialize_target([render_group(arg, label) for arg, label in groups])
        expected = []
        for arg, label in groups:
            reserved.update(c for c in "|[],\\" if c in arg)
            if arg.casefold() in WH_LEXICON:
                expected.append((VAR_Y, label))
                steps["wh"] += 1
                continue
            iri, step = _ref_resolve_mention(arg, entities)
            expected.append((iri, label))
            steps[step] += 1
            if step == "exact":
                # An earlier entity that a later step would also take.
                first = mentions.index(arg)
                exact_beats_earlier += any(
                    m.casefold() == arg.casefold() or _overlap(arg, m) >= FUZZY_OVERLAP_THRESHOLD
                    for m in mentions[:first]
                )
            elif step in ("fuzzy", "unresolved"):
                best = max(_overlap(arg, m) for m in mentions)
                near["at" if best == 0.5 else "below" if 0 < best < 0.5 else "other"] += 1
        assert parse_output(text, entities) == expected, (seed, text, mentions)
    assert min(steps[s] for s in ("exact", "casefold", "fuzzy", "unresolved", "wh")) >= 300, steps
    assert exact_beats_earlier >= 100, exact_beats_earlier
    # Best overlaps of exactly one half (resolved) and of less (unresolved).
    assert near["at"] >= 100 and near["below"] >= 100, near
    assert min(reserved[c] for c in "|[],\\") >= 300, reserved


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
