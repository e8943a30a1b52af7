"""The structured output format: ``[Arg1 | Rel1], [Arg2 | Rel2], ...``

Target text is written only here: one escaped group per argument and relation,
then the groups joined.  Generator output is parsed straight into the
``(argument, relation label)`` pairs validation keys on: a Wh-term argument
becomes the placeholder ``?y``, and any other argument the IRI of the question
entity its mention names, or None when none does.  A lone ``-`` separator
(surrounded by spaces) is accepted as an alias for ``|`` when parsing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import brackets
from .brackets import OutputParseError
from .knowledge_integration import LinkedEntity
from .terms import Iri, VAR_Y, Variable

WH_LEXICON = frozenset(
    {"who", "what", "where", "when", "which", "whom", "whose", "how"}
)

ASK_LEAD_TOKENS = frozenset(
    {"is", "was", "are", "were", "do", "does", "did", "has", "have", "had", "can"}
)

FUZZY_OVERLAP_THRESHOLD = 0.5

# One parsed pair: the linked entity's IRI, ?y for a Wh-term, or None for a
# mention no linked entity matches; then the non-empty relation label.
ArgRelPair = tuple[Iri | Variable | None, str]


@dataclass(frozen=True)
class OutputSequence:
    """One beam: raw decoder text with its score and 1-based rank."""

    text: str
    score: float
    rank: int


def render_group(argument: str, relation_label: str) -> str:
    """One ``[argument | relation]`` target group, both fields escaped."""
    if not relation_label:
        raise ValueError("relation label must be non-empty")
    return f"[{brackets.escape(argument)} | {brackets.escape(relation_label)}]"


def serialize_target(groups: Sequence[str]) -> str:
    """The target sequence of groups rendered by :func:`render_group`."""
    if not groups:
        raise ValueError("cannot serialize an empty group list")
    return ", ".join(groups)


def _resolve_mention(mention: str, question_entities: Sequence[LinkedEntity]) -> Iri | None:
    for ent in question_entities:
        if ent.mention == mention:
            return ent.entity
    folded = mention.casefold()
    for ent in question_entities:
        if ent.mention.casefold() == folded:
            return ent.entity
    arg_tokens = set(folded.split())
    if arg_tokens:
        best: LinkedEntity | None = None
        best_overlap = 0.0
        for ent in question_entities:
            ent_tokens = set(ent.mention.casefold().split())
            overlap = len(arg_tokens & ent_tokens) / len(arg_tokens)
            if overlap > best_overlap:
                best, best_overlap = ent, overlap
        if best is not None and best_overlap >= FUZZY_OVERLAP_THRESHOLD:
            return best.entity
    return None


def _split_pair(group: str) -> tuple[str, str]:
    fields = brackets.split_unescaped(group, "|")
    if len(fields) == 2:
        return fields[0], fields[1]
    if len(fields) == 1:
        # Legacy "[E1 - RelA]" alias: split at the last spaced dash.
        head, sep, tail = fields[0].rpartition(" - ")
        if sep:
            return head, tail
        raise OutputParseError("pair lacks a '|' separator", group)
    raise OutputParseError("pair has more than one '|' separator", group)


def parse_output(text: str, question_entities: Sequence[LinkedEntity] = ()) -> list[ArgRelPair]:
    """Parse decoder text into ``(argument, relation label)`` pairs.

    Raises :class:`OutputParseError` on any structural problem; arbitrary
    text never produces a partial result.  A Wh-term argument, in any case,
    becomes ``?y``.  Any other argument is matched against the question's
    linked mentions exactly, then case-insensitively, then by best token
    overlap at or above 50%, and becomes the matched entity's IRI; an
    unmatched one becomes None, for the caller to reject.
    """
    groups = brackets.bracket_groups(text)
    if not groups:
        raise OutputParseError("no bracketed pairs found", text)
    pairs: list[ArgRelPair] = []
    for group in groups:
        raw_arg, raw_rel = _split_pair(group)
        arg_text = brackets.unescape(raw_arg.strip())
        rel_text = brackets.unescape(raw_rel.strip())
        if not arg_text:
            raise OutputParseError("empty argument", group)
        if not rel_text:
            raise OutputParseError("empty relation label", group)
        if arg_text.casefold() in WH_LEXICON:
            argument = VAR_Y
        else:
            argument = _resolve_mention(arg_text, question_entities)
        pairs.append((argument, rel_text))
    return pairs


def detect_ask(question: str) -> bool:
    """True when the leading question token marks a yes/no (ASK) question."""
    tokens = question.split()
    if not tokens:
        return False
    head = tokens[0].strip("\"'¿¡.,;:!?()").casefold()
    return head in ASK_LEAD_TOKENS
