"""Validates decoder sequences against the KB and resolves labels to URIs.

Every argument-relation pair expands into triple patterns covering each
namespace variant of the relation in both orientations, all sharing the hub
variable ?x (placeholder pairs use ?y for the argument position).
Individually unsatisfiable patterns are pruned, the remaining choices are
enumerated as a lazy cartesian product, and the first candidate graph with a
satisfying join wins.  Beams are scanned in rank order; ASK questions are
checked with fully bound triples instead.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import product
from typing import Iterable, Iterator, Sequence

from .kb_store import KbStore
from .sequence_grammar import (
    WH_LEXICON,
    ArgRelPair,
    EntityArg,
    OutputParseError,
    OutputSequence,
    PlaceholderArg,
    detect_ask,
    parse_output,
)
from .terms import (
    Iri,
    PatternTerm,
    Predicate,
    PropertyPath,
    TriplePattern,
    VAR_X,
    VAR_Y,
    local_name,
    namespace_of,
    relation_uri,
)

DEFAULT_BEAM_LIMIT = 50
DEFAULT_ASK_LIMIT = 10


def _unique(iris: Iterable[Iri]) -> list[Iri]:
    """Order-preserving dedup; repeated labels map to one URI entry."""
    return list(dict.fromkeys(iris))


@dataclass(frozen=True)
class CandidateGraph:
    """One joined pattern choice per pair, with its enumeration provenance."""

    patterns: tuple[TriplePattern, ...]
    choices: tuple[int, ...] = ()


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
    wh_lexicon: frozenset[str] = field(default_factory=lambda: WH_LEXICON)


def _routes(store: KbStore, label: str) -> list[Predicate]:
    """Ordered relation routes a label can take in this store.

    Flat profiles list each namespace variant by preference.  Reified
    profiles emit, per property id: the direct edge, a statement route
    through the property's entry predicate, and a qualifier route through
    any entry predicate; type/subclass properties stay direct-only.
    """
    profile = store.profile
    variants = [
        iri
        for iri in store.lookup_relation_label(label)
        if namespace_of(iri, profile) in profile.property_namespaces
    ]
    if not variants:
        return []
    order = {ns: i for i, ns in enumerate(profile.preference)}

    if profile.statement_namespace is None:
        variants.sort(key=lambda iri: (order[namespace_of(iri, profile)], iri.value))
        return list(variants)

    by_property: dict[str, set[str]] = {}
    for iri in variants:
        by_property.setdefault(local_name(iri), set()).add(namespace_of(iri, profile))
    routes: list[Predicate] = []
    for pid in sorted(by_property):
        spaces = by_property[pid]
        if pid in profile.direct_only:
            if "wdt" in spaces:
                routes.append(Iri(f"wdt:{pid}"))
            continue
        if "wdt" in spaces:
            routes.append(Iri(f"wdt:{pid}"))
        if "ps" in spaces:
            routes.append(PropertyPath(Iri(f"p:{pid}"), Iri(f"ps:{pid}")))
        if "pq" in spaces:
            routes.append(PropertyPath(None, Iri(f"pq:{pid}")))
    return routes


def _oriented(route: Predicate, arg: PatternTerm, other: PatternTerm) -> list[TriplePattern]:
    return [TriplePattern(arg, route, other), TriplePattern(other, route, arg)]


def expand_entity_relation(store: KbStore, pair: ArgRelPair) -> list[TriplePattern]:
    """Patterns connecting the pair's resolved entity to ?x over its label.

    Two orientations per route; a label resolving in both namespaces of a
    flat profile therefore yields four patterns.  Unknown labels yield none.
    """
    assert isinstance(pair.argument, EntityArg) and pair.argument.entity is not None
    entity = pair.argument.entity
    patterns: list[TriplePattern] = []
    for route in _routes(store, pair.relation_label):
        patterns.extend(_oriented(route, entity, VAR_X))
    return patterns


def expand_placeholder_relation(store: KbStore, pair: ArgRelPair) -> list[TriplePattern]:
    """Like entity expansion with the unbound ?y in the argument position."""
    patterns: list[TriplePattern] = []
    for route in _routes(store, pair.relation_label):
        patterns.extend(_oriented(route, VAR_Y, VAR_X))
    return patterns


def expand_pair(store: KbStore, pair: ArgRelPair) -> list[TriplePattern]:
    if isinstance(pair.argument, PlaceholderArg):
        return expand_placeholder_relation(store, pair)
    return expand_entity_relation(store, pair)


def enumerate_graphs(store: KbStore, pairs: Sequence[ArgRelPair]) -> Iterator[CandidateGraph]:
    """Stream candidate graphs in lexicographic order of per-pair choices.

    Patterns that match nothing on their own are pruned first; a pair left
    with no patterns empties the whole product.
    """
    per_pair: list[list[TriplePattern]] = []
    for pair in pairs:
        surviving = [p for p in expand_pair(store, pair) if store.pattern_satisfiable(p)]
        if not surviving:
            return
        per_pair.append(surviving)
    for combo in product(*(range(len(options)) for options in per_pair)):
        patterns = tuple(per_pair[i][c] for i, c in enumerate(combo))
        yield CandidateGraph(patterns, combo)


def _resolved_pairs(
    seq: OutputSequence,
    entities: Sequence,
    wh_lexicon: frozenset[str],
) -> list[ArgRelPair] | None:
    """Parse a beam; None when unparseable or an entity arg is unresolved."""
    try:
        pairs = parse_output(seq.text, list(entities), wh_lexicon)
    except OutputParseError:
        return None
    for pair in pairs:
        if isinstance(pair.argument, EntityArg) and pair.argument.entity is None:
            return None
    return pairs


def validate_sequence(
    store: KbStore,
    seq: OutputSequence,
    entities: Sequence = (),
    wh_lexicon: frozenset[str] = WH_LEXICON,
) -> LinkingResult | None:
    """First matching candidate graph of one beam, or None."""
    pairs = _resolved_pairs(seq, entities, wh_lexicon)
    if pairs is None or not pairs:
        return None
    for graph in enumerate_graphs(store, pairs):
        if store.match_graph(graph) is not None:
            relations = _unique(relation_uri(p.predicate) for p in graph.patterns)
            return LinkingResult(relations, True, seq.rank)
    return None


def _best_effort_uri(store: KbStore, label: str) -> Iri | None:
    routes = _routes(store, label)
    return relation_uri(routes[0]) if routes else None


def fallback_result(
    store: KbStore,
    beams: Sequence[OutputSequence],
    entities: Sequence = (),
    wh_lexicon: frozenset[str] = WH_LEXICON,
) -> LinkingResult:
    """Top parseable beam mapped label-by-label, flagged unvalidated."""
    for seq in beams:
        try:
            pairs = parse_output(seq.text, list(entities), wh_lexicon)
        except OutputParseError:
            continue
        relations = []
        for pair in pairs:
            uri = _best_effort_uri(store, pair.relation_label)
            if uri is not None:
                relations.append(uri)
        return LinkingResult(_unique(relations), False, seq.rank)
    return LinkingResult([], False, 0)


def _ask_hit(store: KbStore, pairs: Sequence[ArgRelPair]) -> Iri | None:
    """A relation URI whose bound triple holds between two same-label args."""
    by_label: dict[str, list[Iri]] = {}
    for pair in pairs:
        if isinstance(pair.argument, EntityArg) and pair.argument.entity is not None:
            by_label.setdefault(pair.relation_label, []).append(pair.argument.entity)
    for label, args in by_label.items():
        if len(args) < 2:
            continue
        for route in _routes(store, label):
            for i in range(len(args)):
                for j in range(len(args)):
                    if i == j:
                        continue
                    bound = TriplePattern(args[i], route, args[j])
                    if store.pattern_satisfiable(bound):
                        return relation_uri(bound.predicate)
    return None


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
    parseable beam is returned with best-effort URI mapping.
    """
    config = config or ValidationConfig()
    is_ask = detect_ask(question)
    if not beams:
        return LinkingResult([], False, 0, ask_answer=False if is_ask else None)

    if is_ask:
        for seq in beams[: config.ask_limit]:
            pairs = _resolved_pairs(seq, entities, config.wh_lexicon)
            if not pairs:
                continue
            hit = _ask_hit(store, pairs)
            if hit is not None:
                return LinkingResult([hit], True, seq.rank, ask_answer=True)
        fallback = fallback_result(store, beams, entities, config.wh_lexicon)
        fallback.ask_answer = False
        return fallback

    for seq in beams[: config.beam_limit]:
        result = validate_sequence(store, seq, entities, config.wh_lexicon)
        if result is not None:
            return result
    return fallback_result(store, beams, entities, config.wh_lexicon)


def result_record(question_id: str, result: LinkingResult) -> dict:
    """The JSON-Lines shape of one linking result."""
    return {
        "question_id": question_id,
        "relations": [r.value for r in result.relations],
        "validated": result.validated,
        "source_rank": result.source_rank,
        "ask_answer": result.ask_answer,
    }


def write_results(sink, records: Iterable[dict]) -> None:
    for record in records:
        sink.write(json.dumps(record) + "\n")
