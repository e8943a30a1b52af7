"""Validates decoder sequences against the KB and resolves labels to URIs.

The store turns each relation label into its ordered routes; this module
knows no namespace layout.  Every argument-relation pair expands into two
triple patterns per route, one per orientation, all sharing the hub
variable ?x (placeholder pairs use ?y for the argument position).
Individually unsatisfiable patterns are pruned, the remaining choices are
searched depth-first in pair order, never extending a prefix that has no
solution, and the first candidate graph with a satisfying join wins; like
the join, the search is a ``depth_first`` loop, and it joins each prefix
anew.  Beams are scanned in rank order in one pass that parses each beam once
and keeps the first parseable beam as the fallback; ASK questions are checked
with fully bound triples instead.

Parsing yields each pair as the ``(argument, relation label)`` key its
patterns depend on: the resolved entity's IRI, ?y for a placeholder, or None
for an unresolved mention, which rejects the beam.  :func:`link` keeps each
pair's surviving patterns per question in a dict keyed by the pair itself:
each distinct pair is expanded and tested against the store once, however
many beams repeat it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Iterable, Iterator, Sequence

from .kb_store import KbStore, depth_first
from .sequence_grammar import ArgRelPair, OutputParseError, OutputSequence, detect_ask, parse_output
from .terms import Iri, TriplePattern, VAR_X, VAR_Y, relation_uri

DEFAULT_BEAM_LIMIT = 50
DEFAULT_ASK_LIMIT = 10


def _unique(iris: Iterable[Iri]) -> list[Iri]:
    """Order-preserving dedup; repeated labels map to one URI entry."""
    return list(dict.fromkeys(iris))


@dataclass
class LinkingResult:
    relations: list[Iri]
    validated: bool
    source_rank: int
    ask_answer: bool | None = None


@dataclass
class ValidationConfig:
    beam_limit: int = DEFAULT_BEAM_LIMIT
    ask_limit: int = DEFAULT_ASK_LIMIT

    def __post_init__(self):
        # A negative slice bound would drop beams from the end.
        for name, value in (("beam_limit", self.beam_limit), ("ask_limit", self.ask_limit)):
            if value < 0:
                raise ValueError(f"{name} must not be negative, got {value}")


def expand_pair(store: KbStore, pair: ArgRelPair) -> list[TriplePattern]:
    """Patterns connecting the pair's argument to ?x over its label.

    The argument is the resolved entity, or the unbound ?y for a
    placeholder.  Two orientations per route; a label resolving in both
    namespaces of a flat profile therefore yields four patterns.  Unknown
    labels yield none.
    """
    arg, label = pair
    patterns: list[TriplePattern] = []
    for route in store.routes(label):
        patterns += [TriplePattern(arg, route, VAR_X), TriplePattern(VAR_X, route, arg)]
    return patterns


def _first_graph(
    store: KbStore, per_pair: list[list[TriplePattern]]
) -> tuple[TriplePattern, ...] | None:
    """The first graph, in lexicographic order of the per-pair choices, that
    has a solution.  A one-pattern prefix has one, as its pattern survived
    pruning; a longer one without is not extended, as no extension has one."""

    def extend(choices: list[TriplePattern], graph: tuple) -> Iterator[tuple]:
        grown = (graph + (pattern,) for pattern in choices)
        return (g for g in grown if not graph or store.match_graph(g) is not None)

    return next(depth_first(per_pair, extend, ()), None)


def _parsed(
    beams: Sequence[OutputSequence], entities: Sequence
) -> Iterator[tuple[OutputSequence, list[ArgRelPair]]]:
    """Each parseable beam with its pairs, in rank order; parses lazily."""
    entities = list(entities)
    for seq in beams:
        try:
            pairs = parse_output(seq.text, entities)
        except OutputParseError:
            continue
        yield seq, pairs


def validate_sequence(
    store: KbStore,
    pairs: Sequence[ArgRelPair],
    rank: int,
    survivors: dict[ArgRelPair, list[TriplePattern]],
) -> LinkingResult | None:
    """First matching candidate graph of one parsed beam, or None; ``survivors``
    holds the question's pruned patterns per pair, and gains each new pair's."""
    if not pairs or any(arg is None for arg, _ in pairs):
        return None
    per_pair: list[list[TriplePattern]] = []
    for pair in pairs:
        surviving = survivors.get(pair)
        if surviving is None:
            surviving = survivors[pair] = [
                p for p in expand_pair(store, pair) if store.pattern_satisfiable(p)
            ]
        if not surviving:
            return None
        per_pair.append(surviving)
    graph = _first_graph(store, per_pair)
    if graph is None:
        return None
    return LinkingResult(_unique(relation_uri(p.predicate) for p in graph), True, rank)


def _ask_hit(
    store: KbStore, pairs: Sequence[ArgRelPair], rank: int
) -> LinkingResult | None:
    """A true answer when a bound triple holds between two same-label args."""
    by_label: dict[str, list[Iri]] = {}
    for arg, label in pairs:
        if arg is None:
            return None
        if arg != VAR_Y:
            by_label.setdefault(label, []).append(arg)
    for label, args in by_label.items():
        if len(args) < 2:
            continue
        for route in store.routes(label):
            for subject, obj in permutations(args, 2):
                if store.pattern_satisfiable(TriplePattern(subject, route, obj)):
                    return LinkingResult([relation_uri(route)], True, rank, ask_answer=True)
    return None


def _best_effort(
    store: KbStore, seq: OutputSequence, pairs: Sequence[ArgRelPair]
) -> LinkingResult:
    """A parsed beam mapped label-by-label to first routes, flagged unvalidated."""
    relations = []
    for _, label in pairs:
        routes = store.routes(label)
        if routes:
            relations.append(relation_uri(routes[0]))
    return LinkingResult(_unique(relations), False, seq.rank)


def fallback_result(
    store: KbStore, beams: Sequence[OutputSequence], entities: Sequence = ()
) -> LinkingResult:
    """Top parseable beam mapped label-by-label, flagged unvalidated."""
    for seq, pairs in _parsed(beams, entities):
        return _best_effort(store, seq, pairs)
    return LinkingResult([], False, 0)


def link(
    store: KbStore,
    question: str,
    beams: Sequence[OutputSequence],
    entities: Sequence = (),
    config: ValidationConfig | None = None,
) -> LinkingResult:
    """Scan ranked beams and return the first KB-validated linking.

    Non-ASK questions validate candidate graphs for the top ``beam_limit``
    beams.  ASK questions instead look for a fully bound triple between the
    paired entities in the top ``ask_limit`` beams; a hit answers true,
    otherwise the answer is false.  When nothing validates, the top
    parseable beam is returned with best-effort URI mapping.  Each beam is
    parsed at most once, and each distinct pair tested against the store
    once.
    """
    config = config or ValidationConfig()
    is_ask = detect_ask(question)
    limit = config.ask_limit if is_ask else config.beam_limit
    survivors: dict[ArgRelPair, list[TriplePattern]] = {}
    first = None
    for seq, pairs in _parsed(beams[:limit], entities):
        if is_ask:
            result = _ask_hit(store, pairs, seq.rank)
        else:
            result = validate_sequence(store, pairs, seq.rank, survivors)
        if result is not None:
            return result
        first = first or (seq, pairs)
    if first is not None:
        result = _best_effort(store, *first)
    else:
        result = fallback_result(store, beams[limit:], entities)
    if is_ask:
        result.ask_answer = False
    return result


def result_record(question_id: str, result: LinkingResult) -> dict:
    """The JSON-Lines shape of one linking result."""
    return {
        "question_id": question_id,
        "relations": list(result.relations),
        "validated": result.validated,
        "source_rank": result.source_rank,
        "ask_answer": result.ask_answer,
    }
