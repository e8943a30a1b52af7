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
    "wd": "http://www.wikidata.org/entity/",
    "wds": "http://www.wikidata.org/entity/statement/",
    "wdt": "http://www.wikidata.org/prop/direct/",
    "p": "http://www.wikidata.org/prop/",
    "ps": "http://www.wikidata.org/prop/statement/",
    "pq": "http://www.wikidata.org/prop/qualifier/",
}
PREFERENCE = ("dbo", "dbp")
# Wikidata route kinds in the order a property id offers them, with the
# namespace of the edge each one asserts.
ROUTE_KINDS = (("direct", "wdt"), ("statement", "ps"), ("qualifier", "pq"))
DIRECT_ONLY = ("P31", "P279")  # the type and subclass properties


def expand(term: str) -> str:
    prefix, _, local = term.partition(":")
    return f"<{FULL[prefix]}{local}>"


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
    profile: str = "dbpedia"
    labels: list[tuple[str, str]] = field(default_factory=list)  # (CURIE, label text)

    def nt_text(self) -> str:
        return "\n".join(
            f"{expand(s)} {expand(p)} {expand(o)} ." for s, p, o in self.triples
        )

    def ontology_text(self) -> str:
        return "\n".join(f"label\t{expand(iri)[1:-1]}\t{text}" for iri, text in self.labels)


# -- reference link ----------------------------------------------------------
#
# A route is a dbpedia predicate CURIE, or a wikidata (kind, property id)
# pair.  ``scan`` lists every (subject, route, object) a fixture's raw
# triples hold, so the graph checks below treat both profiles alike.


def routes_of(fixture: Fixture, label: str) -> list:
    """A label's routes, in the order link tries them.

    Dbpedia: the label's predicate in each namespace that holds it, dbo:
    first.  Wikidata: per property id labelled ``label`` (on its ``p:``
    IRI) in sorted order, the direct, statement and qualifier routes whose
    edge predicate holds triples; the type and subclass ids go direct only.
    """
    predicates = {p for _, p, _ in fixture.triples}
    if fixture.profile == "dbpedia":
        return [f"{ns}:{label}" for ns in PREFERENCE if f"{ns}:{label}" in predicates]
    pids = sorted({iri.partition(":")[2] for iri, text in fixture.labels if text == label})
    return [
        (kind, pid)
        for pid in pids
        for kind, ns in ROUTE_KINDS
        if f"{ns}:{pid}" in predicates and (kind == "direct" or pid not in DIRECT_ONLY)
    ]


def relation_of(route) -> str:
    """The relation a route asserts: its edge predicate."""
    if isinstance(route, str):
        return route
    kind, pid = route
    return f"{dict(ROUTE_KINDS)[kind]}:{pid}"


def scan(fixture: Fixture) -> list[tuple]:
    """Every (subject, route, object) the raw triples hold.  A statement
    route enters a statement node through its own ``p:`` edge, a qualifier
    route through any ``p:`` edge."""
    triples = fixture.triples
    if fixture.profile == "dbpedia":
        return list(triples)
    held = []
    for s, p, o in triples:
        ns, _, pid = p.partition(":")
        if ns == "wdt":
            held.append((s, ("direct", pid), o))
        elif ns == "p":
            for st, edge, obj in triples:
                edge_ns, _, edge_pid = edge.partition(":")
                if st == o and edge_ns == "pq":
                    held.append((s, ("qualifier", edge_pid), obj))
                elif st == o and edge_ns == "ps" and edge_pid == pid:
                    held.append((s, ("statement", pid), obj))
    return held


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


def _expand_pair(pair: PairSpec, fixture: Fixture):
    patterns = []
    for route in routes_of(fixture, pair.label):
        arg = "?y" if pair.kind == "placeholder" else pair.entity
        patterns.append((arg, route, "?x"))
        patterns.append(("?x", route, arg))
    return patterns


def oracle_link(fixture: Fixture) -> tuple[tuple[str, ...], bool, int]:
    """Expected (relations, validated, source_rank) for a fixture."""
    held = scan(fixture)
    for beam in fixture.beams:
        if not beam.parseable or not beam.pairs:
            continue
        if any(pair.kind == "unresolved" for pair in beam.pairs):
            continue
        per_pair = [_expand_pair(pair, fixture) for pair in beam.pairs]
        for combo in itertools.product(*per_pair):
            if _graph_satisfiable(combo, held):
                relations = dict.fromkeys(relation_of(p) for _, p, _ in combo)
                return tuple(relations), True, beam.rank

    return _fallback(fixture)


def _fallback(fixture: Fixture) -> tuple[tuple[str, ...], bool, int]:
    """The first parseable beam, each label mapped to its first route."""
    for beam in fixture.beams:
        if not beam.parseable:
            continue
        relations = dict.fromkeys(
            relation_of(routes[0])
            for pair in beam.pairs
            if (routes := routes_of(fixture, pair.label))
        )
        return tuple(relations), False, beam.rank
    return (), False, 0


ASK_WINDOW = 10


def ask_hit(beam: BeamSpec, fixture: Fixture) -> str | None:
    """The relation of the first route that holds between two entity args
    of one label, trying labels in order of appearance, then routes in
    order, then ordered argument pairs; None for an unparseable beam or one
    with an unresolved argument."""
    if not beam.parseable or any(pair.kind == "unresolved" for pair in beam.pairs):
        return None
    held = set(scan(fixture))
    by_label: dict[str, list[str]] = {}
    for pair in beam.pairs:
        if pair.kind == "entity":
            by_label.setdefault(pair.label, []).append(pair.entity)
    for label, args in by_label.items():
        for route in routes_of(fixture, label):
            for s, o in itertools.permutations(args, 2):
                if (s, route, o) in held:
                    return relation_of(route)
    return None


def oracle_ask(fixture: Fixture) -> tuple[tuple[str, ...], bool, int, bool]:
    """Expected (relations, validated, source_rank, ask_answer) for an ASK
    fixture: the first of the top ``ASK_WINDOW`` beams with a hit answers
    true; otherwise the fallback of ``oracle_link`` answers false."""
    for beam in fixture.beams[:ASK_WINDOW]:
        relation = ask_hit(beam, fixture)
        if relation is not None:
            return (relation,), True, beam.rank, True
    return (*_fallback(fixture), False)


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


PIDS = ("P1", "P2", "P31")


def build_reified_fixture(rng: Random, ask: bool = False) -> Fixture:
    """A random wikidata question, open or (``ask``) yes/no.

    Each label names one or two property ids through a ``label`` row on
    their ``p:`` IRI, and each id holds triples on a random subset of its
    direct, statement and qualifier routes; a qualifier's statement is
    entered through any id's ``p:`` edge.  Decoys load every such predicate
    away from the question.  Question entities reach a hub or strays, or
    (``ask``) each other, self-loops included; half the ASK fixtures have
    11-14 beams, past the ASK window.
    """
    n_entities = rng.randint(2, 3) if ask else rng.randint(1, 3)
    mentions = [(f"Entity{i}", f"wd:Q{i}") for i in range(n_entities)]
    joined = " and ".join(m for m, _ in mentions)
    question = f"Is {joined} linked?" if ask else f"What links {joined}?"

    labels = [f"rel{c}" for c in "ABC"[: rng.randint(1, 3)]]
    named = [(f"p:{pid}", label) for label in labels for pid in rng.sample(PIDS, rng.choice((1, 1, 2)))]
    kinds = {pid: [kind for kind, _ in ROUTE_KINDS if rng.random() < 0.6] for pid in PIDS}
    triples: list[tuple[str, str, str]] = []
    statements = itertools.count()

    def add(s: str, pid: str, kind: str, o: str) -> None:
        if kind == "direct":
            triples.append((s, f"wdt:{pid}", o))
            return
        st = f"wds:S{next(statements)}"
        entry = pid if kind == "statement" else rng.choice(PIDS)
        triples.append((s, f"p:{entry}", st))
        triples.append((st, f"{'ps' if kind == 'statement' else 'pq'}:{pid}", o))
        if kind == "qualifier" and rng.random() < 0.5:
            triples.append((st, f"ps:{entry}", "wd:Value"))

    for pid, held in kinds.items():
        for kind in held:
            add(f"wd:Decoy{pid}{kind}S", pid, kind, f"wd:Decoy{pid}{kind}O")
    stray = itertools.count()
    density = rng.choice([0.05, 0.15, 0.4])
    for pid, held in kinds.items():
        for kind in held:
            for _, entity in mentions:
                if ask:
                    for _, other in mentions:
                        if rng.random() < (density / 4 if other == entity else density):
                            add(entity, pid, kind, other)
                    continue
                for forward in (True, False):
                    if rng.random() >= 0.35:
                        continue
                    other = "wd:Hub" if rng.random() < 0.75 else f"wd:Stray{next(stray)}"
                    add(*((entity, pid, kind, other) if forward else (other, pid, kind, entity)))
    for _ in range(rng.randint(0, 3)):
        triples.append((f"wd:N{rng.randint(0, 5)}", "wdt:P9", f"wd:N{rng.randint(0, 5)}"))

    n_beams = rng.randint(11, 14) if ask and rng.random() < 0.5 else rng.randint(1, 4)
    beams: list[BeamSpec] = []
    for i in range(n_beams):
        rank = i + 1
        score = round(1.0 - 0.05 * i, 4)
        if rng.random() < 0.1:
            beams.append(BeamSpec("broken [ text", score, rank, parseable=False))
            continue
        pairs = []
        for _ in range(rng.randint(1, 3)):
            label = rng.choice(labels + ["unknownRel"] if rng.random() < 0.15 else labels)
            roll = rng.random()
            if roll < 0.12:
                pairs.append(PairSpec("placeholder", rng.choice(["What", "Who", "which"]), None, label))
            elif roll < 0.18:
                pairs.append(PairSpec("unresolved", "Zzz Qqq", None, label))
            else:
                mention, entity = rng.choice(mentions)
                text = mention.lower() if rng.random() < 0.1 else mention
                pairs.append(PairSpec("entity", text, entity, label))
        text = ", ".join(f"[{p.arg_text} | {p.label}]" for p in pairs)
        beams.append(BeamSpec(text, score, rank, parseable=True, pairs=pairs))
    return Fixture(question, mentions, list(dict.fromkeys(triples)), beams, "wikidata", named)
