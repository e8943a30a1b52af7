"""Brute-force reference implementations of beam validation and of ASK
answering, plus random fixture builders for differential testing.

Everything here is computed from first principles: the oracle expands every
namespace/orientation combination for every pair, takes the full cartesian
product with no pruning, and checks satisfiability by scanning the raw triple
list for each candidate graph.  It shares no graph-matching, expansion, or
parsing code with the package under test; beams carry their own structure
metadata from the builder so the oracle never parses decoder text.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from random import Random

FULL = {
    "dbr": "http://dbpedia.org/resource/",
    "dbo": "http://dbpedia.org/ontology/",
    "dbp": "http://dbpedia.org/property/",
}
PREFERENCE = ("dbo", "dbp")


@dataclass
class PairSpec:
    kind: str               # entity | placeholder | unresolved
    arg_text: str           # as written in the beam
    entity: str | None      # resolved CURIE for entity pairs
    label: str


@dataclass
class BeamSpec:
    text: str
    score: float
    rank: int
    parseable: bool
    pairs: list[PairSpec] = field(default_factory=list)


@dataclass
class Fixture:
    question: str
    mentions: list[tuple[str, str]]     # (mention, entity CURIE)
    triples: list[tuple[str, str, str]]  # CURIE triples
    beams: list[BeamSpec]

    def nt_text(self) -> str:
        def expand(term: str) -> str:
            prefix, _, local = term.partition(":")
            return f"<{FULL[prefix]}{local}>"

        return "\n".join(
            f"{expand(s)} {expand(p)} {expand(o)} ." for s, p, o in self.triples
        )


# -- reference link ----------------------------------------------------------


def _pattern_solutions(pattern, triples):
    """All (x, y) assignments satisfying one pattern, by full scan."""
    s, p, o = pattern
    solutions = set()
    for ts, tp, to in triples:
        if tp != p:
            continue
        binding: dict[str, str] = {}
        ok = True
        for term, value in ((s, ts), (o, to)):
            if term in ("?x", "?y"):
                if binding.get(term, value) != value:
                    ok = False
                    break
                binding[term] = value
            elif term != value:
                ok = False
                break
        if ok:
            solutions.add((binding.get("?x"), binding.get("?y")))
    return solutions


def _graph_satisfiable(patterns, triples) -> bool:
    per_pattern = []
    uses_y = []
    for pattern in patterns:
        solutions = _pattern_solutions(pattern, triples)
        if not solutions:
            return False
        per_pattern.append(solutions)
        uses_y.append("?y" in (pattern[0], pattern[2]))
    shared_x = set.intersection(*({x for x, _ in sols} for sols in per_pattern))
    for x in shared_x:
        y_sets = [
            {y for sx, y in sols if sx == x}
            for sols, has_y in zip(per_pattern, uses_y)
            if has_y
        ]
        if any(not ys for ys in y_sets):
            continue
        if y_sets and not set.intersection(*y_sets):
            continue
        return True
    return False


def _available(label: str, predicates: set[str]) -> list[str]:
    return [ns for ns in PREFERENCE if f"{ns}:{label}" in predicates]


def _expand_pair(pair: PairSpec, predicates: set[str]):
    patterns = []
    for ns in _available(pair.label, predicates):
        predicate = f"{ns}:{pair.label}"
        arg = "?y" if pair.kind == "placeholder" else pair.entity
        patterns.append((arg, predicate, "?x"))
        patterns.append(("?x", predicate, arg))
    return patterns


def oracle_link(fixture: Fixture) -> tuple[tuple[str, ...], bool, int]:
    """Expected (relations, validated, source_rank) for a fixture."""
    triples = fixture.triples
    predicates = {p for _, p, _ in triples}

    for beam in fixture.beams:
        if not beam.parseable or not beam.pairs:
            continue
        if any(pair.kind == "unresolved" for pair in beam.pairs):
            continue
        per_pair = [_expand_pair(pair, predicates) for pair in beam.pairs]
        for combo in itertools.product(*per_pair):
            if _graph_satisfiable(combo, triples):
                relations = dict.fromkeys(p for _, p, _ in combo)
                return tuple(relations), True, beam.rank

    return _fallback(fixture.beams, predicates)


def _fallback(beams, predicates) -> tuple[tuple[str, ...], bool, int]:
    """The first parseable beam, each label mapped to its preferred variant."""
    for beam in beams:
        if not beam.parseable:
            continue
        relations = dict.fromkeys(
            f"{_available(pair.label, predicates)[0]}:{pair.label}"
            for pair in beam.pairs
            if _available(pair.label, predicates)
        )
        return tuple(relations), False, beam.rank
    return (), False, 0


ASK_WINDOW = 10


def ask_hit(beam: BeamSpec, triples) -> str | None:
    """The relation of the first triple that holds between two entity args of
    one label, trying labels in order of appearance, then namespaces by
    preference, then ordered argument pairs; None for an unparseable beam or
    one with an unresolved argument."""
    if not beam.parseable or any(pair.kind == "unresolved" for pair in beam.pairs):
        return None
    predicates = {p for _, p, _ in triples}
    by_label: dict[str, list[str]] = {}
    for pair in beam.pairs:
        if pair.kind == "entity":
            by_label.setdefault(pair.label, []).append(pair.entity)
    for label, args in by_label.items():
        for ns in _available(label, predicates):
            relation = f"{ns}:{label}"
            for s, o in itertools.permutations(args, 2):
                if (s, relation, o) in triples:
                    return relation
    return None


def oracle_ask(fixture: Fixture) -> tuple[tuple[str, ...], bool, int, bool]:
    """Expected (relations, validated, source_rank, ask_answer) for an ASK
    fixture: the first of the top ``ASK_WINDOW`` beams with a hit answers
    true; otherwise the fallback of ``oracle_link`` answers false."""
    for beam in fixture.beams[:ASK_WINDOW]:
        relation = ask_hit(beam, fixture.triples)
        if relation is not None:
            return (relation,), True, beam.rank, True
    return (*_fallback(fixture.beams, {p for _, p, _ in fixture.triples}), False)


# -- random fixture builder ---------------------------------------------------


def build_fixture(rng: Random) -> Fixture:
    n_entities = rng.randint(1, 3)
    mentions = [(f"Entity{i}", f"dbr:Entity{i}") for i in range(n_entities)]
    question = "What links " + " and ".join(m for m, _ in mentions) + "?"

    labels = [f"rel{c}" for c in "ABC"[: rng.randint(1, 3)]]
    availability = {
        label: rng.choice([(), ("dbo",), ("dbp",), ("dbo", "dbp"), ("dbo", "dbp")])
        for label in labels
    }

    triples: list[tuple[str, str, str]] = []
    # Decoys put each available namespace variant into the lexicon without
    # touching the question entities.
    for label, spaces in availability.items():
        for ns in spaces:
            triples.append((f"dbr:Decoy{label}{ns}S", f"{ns}:{label}", f"dbr:Decoy{label}{ns}O"))

    hub = "dbr:Hub"
    stray = 0
    for _, entity in mentions:
        for label in labels:
            for ns in availability[label]:
                for forward in (True, False):
                    if rng.random() >= 0.35:
                        continue
                    if rng.random() < 0.75:
                        other = hub
                    else:
                        stray += 1
                        other = f"dbr:Stray{stray}"
                    edge = (entity, f"{ns}:{label}", other)
                    triples.append(edge if forward else (edge[2], edge[1], edge[0]))
    for _ in range(rng.randint(0, 3)):
        triples.append((f"dbr:N{rng.randint(0, 5)}", "dbo:noiseRel", f"dbr:N{rng.randint(0, 5)}"))
    triples = list(dict.fromkeys(triples))
    assert len(triples) <= 50

    beams: list[BeamSpec] = []
    for i in range(rng.randint(1, 4)):
        rank = i + 1
        score = round(1.0 - 0.1 * i, 4)
        roll = rng.random()
        if roll < 0.12:
            beams.append(BeamSpec("broken [ text", score, rank, parseable=False))
            continue
        pairs = []
        for _ in range(rng.randint(1, 3)):
            pool = labels + ["unknownRel"] if rng.random() < 0.2 else labels
            label = rng.choice(pool)
            arg_roll = rng.random()
            if arg_roll < 0.15:
                wh = rng.choice(["What", "Who", "which"])
                pairs.append(PairSpec("placeholder", wh, None, label))
            elif arg_roll < 0.25 and roll < 0.5:
                pairs.append(PairSpec("unresolved", "Zzz Qqq", None, label))
            else:
                mention, entity = rng.choice(mentions)
                text = mention.lower() if rng.random() < 0.1 else mention
                pairs.append(PairSpec("entity", text, entity, label))
        text = ", ".join(f"[{p.arg_text} | {p.label}]" for p in pairs)
        beams.append(BeamSpec(text, score, rank, parseable=True, pairs=pairs))
    return Fixture(question, mentions, triples, beams)


def build_ask_fixture(rng: Random) -> Fixture:
    """A random yes/no question over two or three entities.

    Edges join the question entities directly (self-loops included), so a
    beam pairing two entities under one label may hold as a bound triple.
    Half of the fixtures have 11-14 beams, past the ASK window.
    """
    n_entities = rng.randint(2, 3)
    mentions = [(f"Entity{i}", f"dbr:Entity{i}") for i in range(n_entities)]
    question = "Is " + " and ".join(m for m, _ in mentions) + " linked?"

    labels = [f"rel{c}" for c in "ABC"[: rng.randint(1, 3)]]
    availability = {
        label: rng.choice([(), ("dbo",), ("dbp",), ("dbo", "dbp")]) for label in labels
    }
    triples: list[tuple[str, str, str]] = []
    for label, spaces in availability.items():
        for ns in spaces:
            triples.append((f"dbr:Decoy{label}{ns}S", f"{ns}:{label}", f"dbr:Decoy{label}{ns}O"))
    density = rng.choice([0.05, 0.15, 0.4])
    for label in labels:
        for ns in availability[label]:
            for _, s in mentions:
                for _, o in mentions:
                    if rng.random() < (density / 4 if s == o else density):
                        triples.append((s, f"{ns}:{label}", o))
    triples = list(dict.fromkeys(triples))

    n_beams = rng.randint(11, 14) if rng.random() < 0.5 else rng.randint(1, 4)
    beams: list[BeamSpec] = []
    for i in range(n_beams):
        rank = i + 1
        score = round(1.0 - 0.05 * i, 4)
        if rng.random() < 0.1:
            beams.append(BeamSpec("broken [ text", score, rank, parseable=False))
            continue
        pairs = []
        for _ in range(rng.randint(1, 4)):
            pool = labels + ["unknownRel"] if rng.random() < 0.15 else labels
            label = rng.choice(pool)
            roll = rng.random()
            if roll < 0.1:
                pairs.append(PairSpec("placeholder", rng.choice(["What", "who"]), None, label))
            elif roll < 0.16:
                pairs.append(PairSpec("unresolved", "Zzz Qqq", None, label))
            else:
                mention, entity = rng.choice(mentions)
                text = mention.lower() if rng.random() < 0.1 else mention
                pairs.append(PairSpec("entity", text, entity, label))
        text = ", ".join(f"[{p.arg_text} | {p.label}]" for p in pairs)
        beams.append(BeamSpec(text, score, rank, parseable=True, pairs=pairs))
    return Fixture(question, mentions, triples, beams)
