"""Seeded synthetic inputs for the benchmark workloads.

Every input file comes from ``build(workload, seed, scale)``: equal arguments
give byte-identical files.  Shares that drive cost (question kinds, the rank
of the first validating beam, which predicates questions use) are laid out by
fixed quantiles and then shuffled, so a seed changes *which* entities and
edges appear but hardly changes how much work a pass costs.  That keeps the
figures of different seeds comparable.

Terms are kept as compact strings (``dbr:E12``, ``wdt:P7``, ``"lit"``) and
expanded to full IRIs only when the N-Triples file is written.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from itertools import cycle
from pathlib import Path
from random import Random

PREFIXES = {
    "dbo": "http://dbpedia.org/ontology/",
    "dbp": "http://dbpedia.org/property/",
    "dbr": "http://dbpedia.org/resource/",
    "rdf": "http://www.w3.org/1999/02/22-rdf-syntax-ns#",
    "rdfs": "http://www.w3.org/2000/01/rdf-schema#",
    "wd": "http://www.wikidata.org/entity/",
    "wds": "http://www.wikidata.org/entity/statement/",
    "wdt": "http://www.wikidata.org/prop/direct/",
    "p": "http://www.wikidata.org/prop/",
    "ps": "http://www.wikidata.org/prop/statement/",
    "pq": "http://www.wikidata.org/prop/qualifier/",
}

WORKLOADS = {
    "flat-fixture": {"profile": "dbpedia", "op": "link", "generator": "fixture"},
    "reified-baseline": {"profile": "wikidata", "op": "link", "generator": "baseline"},
    "flat-relaxed-eval": {"profile": "dbpedia", "op": "eval", "generator": None},
}

# Sizes per workload.  "full" is what the benchmark measures; "tiny" is for
# the benchmark's own tests.
SCALES = {
    "flat-fixture": {
        "full": dict(entities=15000, triples=45000, predicates=100, classes=40, questions=3000),
        "tiny": dict(entities=300, triples=1200, predicates=40, classes=8, questions=40),
    },
    "reified-baseline": {
        "full": dict(entities=700, statements=300, direct=1800, properties=330,
                     hubs=3, hub_props=270, classes=12, questions=300),
        "tiny": dict(entities=120, statements=80, direct=300, properties=80,
                     hubs=1, hub_props=70, classes=4, questions=30),
    },
    "flat-relaxed-eval": {
        "full": dict(entities=18000, triples=60000, predicates=240, classes=40, gold=6000),
        "tiny": dict(entities=300, triples=1500, predicates=40, classes=8, gold=60),
    },
}

BUDGET = 512            # rellink's default encoder-input budget, in tokens
BEAM_LIMIT = 50         # rellink's default beam width and beam limit
ASK_LIMIT = 10          # rellink's default ASK beam limit
WH_TERMS = ("what", "which", "who")

# Fixed shares of question kinds (flat-fixture).  Over-budget questions fail
# with an "error" record; fallback questions have no validating beam.
FLAT_KINDS = (("over_budget", 0.03), ("ask", 0.10), ("fallback", 0.08), ("linked", 0.79))
# Rank of the planted validating beam for "linked" questions: a long tail.
RANK_TAIL = ((0.50, 1, 1), (0.70, 2, 3), (0.85, 4, 8), (0.95, 9, 20), (1.00, 21, 50))
# "hub" questions ask about a hub entity.  The shares keep the median latency
# inside the band of one-entity questions rather than at its edge.
REIFIED_KINDS = (("over_budget", 0.03), ("fallback", 0.10), ("double", 0.22), ("hub", 0.07),
                 ("single", 0.58))
# Reified fallback questions are about two fresh entities with this many
# direct relations each, over the same fixed spread of properties, so the
# baseline generator fills all 50 beams and every such question costs about
# the same.
FALLBACK_DEGREE = 8
QUALIFIED_SHARE = 0.30  # share of reified statements carrying a qualifier
ROUTE_KINDS = ("direct", "statement", "qualifier")
UNSAT_SHARE = 0.05      # share of gold graphs the KB cannot satisfy
OBJECT_LEAD_SHARE = 0.6  # share of gold graphs led by an (?x p dbr:E) pattern


def _words() -> list[str]:
    cons, vows = "bdfgklmnprstvz", "aeiou"
    words = [a + b + c + d for a in cons for b in vows for c in cons for d in vows]
    Random(7).shuffle(words)  # fixed vocabulary, independent of the seed
    return words


WORDS = _words()
# Unresolvable mentions use consonants no vocabulary word has, so they share
# no token with any real mention and fuzzy matching cannot resolve them.
ODD_WORDS = [a + b + c + d for a in "xq" for b in "aeiou" for c in "xq" for d in "aeiou"]


def camel(a: str, b: str) -> str:
    return a + b.capitalize()


def words_of(label: str) -> str:
    """``kaloMine`` -> ``kalo mine``: how a question phrases a label."""
    out = []
    for ch in label:
        if ch.isupper():
            out.append(" ")
        out.append(ch.lower())
    return "".join(out)


def mention_of(index: int) -> str:
    n = len(WORDS) - 1000
    return f"{WORDS[1000 + index % n].capitalize()} {WORDS[1000 + (index // n + 7 * index) % n].capitalize()}"


def stratified(rng: Random, n: int, shares) -> list:
    """Exactly round(share * n) items of each kind, shuffled."""
    out = []
    for i in range(n):
        u = (i + 0.5) / n
        acc = 0.0
        for kind, share in shares:
            acc += share
            if u < acc:
                out.append(kind)
                break
        else:
            out.append(shares[-1][0])
    rng.shuffle(out)
    return out


def stratified_ranks(rng: Random, n: int, weights: list[float]) -> list[int]:
    """n indexes laid out by fixed quantiles of ``weights``, shuffled."""
    total = sum(weights)
    cdf, acc = [], 0.0
    for w in weights:
        acc += w / total
        cdf.append(acc)
    out, j = [], 0
    for i in range(n):
        u = (i + 0.5) / n
        while j < len(cdf) - 1 and cdf[j] < u:
            j += 1
        out.append(j)
    rng.shuffle(out)
    return out


@dataclass
class Pair:
    kind: str           # entity | placeholder | unresolved
    arg: str            # argument text as written in the beam
    entity: str | None  # resolved entity for entity pairs
    label: str


@dataclass
class Beam:
    """One fixture beam; ``pairs`` is None when the text is malformed."""

    text: str
    pairs: list[Pair] | None


@dataclass
class Inputs:
    triples: list[tuple[str, str, str]] = field(default_factory=list)
    ontology: list[str] = field(default_factory=list)
    questions: list[dict] = field(default_factory=list)
    beams: dict[str, list[Beam]] = field(default_factory=dict)
    gold: list[dict] = field(default_factory=list)
    predictions: list[dict] = field(default_factory=list)

    def files(self) -> dict[str, str]:
        out = {
            "kb.nt": "".join(f"{expand(s)} {expand(p)} {expand(o)} .\n" for s, p, o in self.triples),
            "ontology.tsv": "".join(line + "\n" for line in self.ontology),
        }
        if self.questions:
            out["questions.jsonl"] = "".join(json.dumps(q) + "\n" for q in self.questions)
        if self.beams:
            out["beams.jsonl"] = "".join(
                json.dumps({
                    "question_id": qid,
                    "beams": [
                        {"text": b.text, "score": round(-0.01 * rank, 4)}
                        for rank, b in enumerate(beams, start=1)
                    ],
                }) + "\n"
                for qid, beams in self.beams.items()
            )
        if self.gold:
            out["gold.jsonl"] = "".join(json.dumps(g) + "\n" for g in self.gold)
            out["pred.jsonl"] = "".join(json.dumps(p) + "\n" for p in self.predictions)
        return out


def expand(term: str) -> str:
    if term.startswith('"'):
        return term
    prefix, _, local = term.partition(":")
    return f"<{PREFIXES[prefix]}{local}>"


def write(inputs: Inputs, directory: Path) -> str:
    """Write every input file; return a SHA-256 over names and bytes."""
    directory.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256()
    for name, text in sorted(inputs.files().items()):
        data = text.encode("utf-8")
        (directory / name).write_bytes(data)
        digest.update(name.encode() + b"\0" + data)
    return digest.hexdigest()


# -- flat (dbpedia) ------------------------------------------------------------


class FlatKb:
    """A dbpedia-profile KB with Zipf-skewed predicate fan-out.

    Label ``i`` exists under both ``dbo:`` and ``dbp:`` when ``i`` is even,
    else under one of them, so about half the labels are dual-namespace.
    """

    def __init__(self, rng: Random, cfg: dict):
        entities, triples = cfg["entities"], cfg["triples"]
        predicates, classes = cfg["predicates"], cfg["classes"]
        self.rng = rng
        self.n_entities = entities
        self.labels = [camel(WORDS[2 * i], WORDS[2 * i + 1]) for i in range(predicates)]
        self.spaces = [
            ("dbo", "dbp") if i % 2 == 0 else (("dbo",) if i % 4 == 1 else ("dbp",))
            for i in range(predicates)
        ]
        self.triples: dict[tuple[str, str, str], None] = {}
        weights = [1.0 / (i + 1) for i in range(predicates)]
        total = sum(weights)
        for i, w in enumerate(weights):
            literal = i % 7 == 6
            for _ in range(max(2, round(triples * w / total))):
                s = self.entity(rng.randrange(entities))
                if literal:
                    o = f'"{WORDS[rng.randrange(len(WORDS))]} {rng.randrange(1000)}"'
                else:
                    o = self.entity(rng.randrange(entities))
                self.add(s, self.namespace(i), i, o)
        self.class_names = [f"dbo:Kind{WORDS[3000 + c].capitalize()}" for c in range(classes)]
        self.ontology = []
        for c in range(1, classes):
            parent = (c - 1) // 3
            self.ontology.append(f"subclass\t{expand(self.class_names[c])[1:-1]}\t"
                                 f"{expand(self.class_names[parent])[1:-1]}")
        for c in range(0, classes, 2):
            self.ontology.append(f"count\t{expand(self.class_names[c])[1:-1]}\t{1000 + 37 * c}")
        for c in range(classes):
            name = self.class_names[c]
            self.ontology.append(f"label\t{expand(name)[1:-1]}\t{words_of(name[4:])}")
        for e in range(entities):
            c = rng.randrange(classes)
            self.triples[(self.entity(e), "rdf:type", self.class_names[c])] = None
            if c and e % 3 == 0:
                self.triples[(self.entity(e), "rdf:type", self.class_names[(c - 1) // 3])] = None

    @staticmethod
    def entity(index: int) -> str:
        return f"dbr:E{index}"

    def namespace(self, label: int) -> str:
        spaces = self.spaces[label]
        return spaces[0] if len(spaces) == 1 or self.rng.random() < 0.6 else spaces[1]

    def add(self, s: str, ns: str, label: int, o: str) -> None:
        self.triples[(s, f"{ns}:{self.labels[label]}", o)] = None

    def fresh_entity(self) -> str:
        return self.entity(self.rng.randrange(self.n_entities))


def _question_text(parts: list[tuple[str, str]], wh: str | None, ask: bool = False) -> tuple[str, list[dict]]:
    """Render a question over (label phrase, mention) parts; return text and spans."""
    if ask:
        (phrase, m1), (_, m2) = parts
        text = f"Is {m1} the {phrase} of {m2}?"
    else:
        clauses = [f"the {phrase} of {m}" for phrase, m in parts]
        text = "What is " + " and also ".join(clauses)
        if wh is not None:
            text += f", {wh} it shares"
        text += "?"
    spans, cursor = [], 0
    for _, mention in parts:
        start = text.index(mention, cursor)
        spans.append({"mention": mention, "start": start, "end": start + len(mention)})
        cursor = start + len(mention)
    return text, spans


def _render_beam(pairs: list[Pair]) -> str:
    return ", ".join(f"[{p.arg} | {p.label}]" for p in pairs)


def _malformed(rng: Random, pairs: list[Pair]) -> Beam:
    text = _render_beam(pairs)
    style = rng.randrange(3)
    if style == 0:
        text = text[:-1]                       # unclosed bracket
    elif style == 1:
        text = text.replace(" | ", " ", 1)     # pair without a separator
    else:
        text = text.replace("[", "", 1)        # text before the first group
    return Beam(text, None)


def build_flat_fixture(seed: int, cfg: dict) -> Inputs:
    rng = Random(f"flat-fixture/{seed}")
    kb = FlatKb(rng, cfg)
    n_labels = len(kb.labels)
    n_q = cfg["questions"]
    kinds = stratified(rng, n_q, FLAT_KINDS)
    n_linked = kinds.count("linked")
    # Ranks by fixed quantiles, within each band as well, so every seed has
    # the same multiset of ranks.
    ranks = []
    for cum, first, last in RANK_TAIL:
        count = round(cum * n_linked) - len(ranks)
        ranks.extend(first + int((last - first + 1) * (j + 0.5) / count) for j in range(count))
    rng.shuffle(ranks)
    # Predicates for planted pairs follow a milder skew than the KB.  Those of
    # wrong-label distractors are spread evenly over all but the most frequent
    # predicates, so that the cost of a deep-rank question (a sum over its
    # distractors) varies little between questions and seeds.  Both are fixed
    # multisets.
    planted_labels = iter(stratified_ranks(rng, 4 * n_q, [1.0 / (i + 1) ** 0.5 for i in range(n_labels)]))
    skip = n_labels // 10
    distractor_labels = cycle(
        skip + r for r in stratified_ranks(rng, 30 * n_q, [1.0] * (n_labels - skip))
    )
    shapes = iter(stratified(rng, n_q, (("1", 0.4), ("2", 0.4), ("3", 0.2))))
    distractor_kinds = cycle(stratified(rng, 30 * n_q, (("malformed", 0.15), ("unresolved", 0.15),
                                                        ("unknown", 0.10), ("wrong", 0.60))))
    odd = iter(range(10**9))
    rank_iter = iter(ranks)

    inputs = Inputs()
    for q, kind in enumerate(kinds):
        qid = f"q{q:05d}"
        n_pairs = int(next(shapes))
        ents = [kb.fresh_entity() for _ in range(n_pairs)]
        if kind == "ask":
            ents = [kb.fresh_entity(), kb.fresh_entity()]
        labels = [next(planted_labels) for _ in ents]
        mentions = [mention_of(int(e[5:])) for e in ents]
        if len(set(mentions)) < len(mentions):
            mentions = [f"{m} {WORDS[4000 + j]}".title() for j, m in enumerate(mentions)]
        placeholder = kind == "linked" and n_pairs > 1 and q % 3 == 0

        if kind == "ask":
            lbl = labels[0]
            if rng.random() < 0.6:
                kb.add(ents[0], kb.namespace(lbl), lbl, ents[1])
            text, spans = _question_text([(words_of(kb.labels[lbl]), m) for m in mentions], None, ask=True)
            planted = [Pair("entity", m, e, kb.labels[lbl]) for m, e in zip(mentions, ents)]
        else:
            if placeholder:
                ents, mentions, ph_label = ents[:-1], mentions[:-1], labels.pop()
            if kind == "linked":
                answer = kb.fresh_entity()
                for e, lbl in zip(ents, labels):
                    pair = (e, answer) if rng.random() < 0.5 else (answer, e)
                    kb.add(pair[0], kb.namespace(lbl), lbl, pair[1])
                if placeholder:
                    other = kb.fresh_entity()
                    pair = (other, answer) if rng.random() < 0.5 else (answer, other)
                    kb.add(pair[0], kb.namespace(ph_label), ph_label, pair[1])
            wh = rng.choice(WH_TERMS) if placeholder else None
            text, spans = _question_text(
                [(words_of(kb.labels[lbl]), m) for m, lbl in zip(mentions, labels)], wh
            )
            planted = [Pair("entity", m, e, kb.labels[lbl]) for m, e, lbl in zip(mentions, ents, labels)]
            if placeholder:
                planted.append(Pair("placeholder", wh, None, kb.labels[ph_label]))
        if kind == "over_budget":
            filler = " ".join(WORDS[5000 % len(WORDS) + (j % 50)] for j in range(BUDGET + 8))
            text = text[:-1] + " " + filler + "?"

        for span, e in zip(spans, ents):
            span["iri"] = expand(e)[1:-1]
        inputs.questions.append({"question_id": qid, "question": text, "entities": spans})

        # Beams: distractors up to the planted rank, then the planted beam,
        # then a few more distractors that are never reached.
        if kind == "linked":
            rank = next(rank_iter)
        elif kind == "ask":
            rank = 1 if rng.random() < 0.7 else 2 + rng.randrange(3)
        else:
            rank = None
        n_beams = min(BEAM_LIMIT, (rank or 6 + rng.randrange(10)) + rng.randrange(4))
        beams = []
        for r in range(1, n_beams + 1):
            if r == rank:
                beams.append(Beam(_render_beam(planted), planted))
                continue
            dkind = next(distractor_kinds)
            pairs = []
            for p in planted:
                if p.kind != "entity":
                    pairs.append(p)
                elif dkind == "unresolved" and not pairs:
                    j = next(odd)
                    arg = f"{ODD_WORDS[j % 50].capitalize()} {ODD_WORDS[(j // 50) % 50].capitalize()}"
                    pairs.append(Pair("unresolved", arg, None, p.label))
                elif dkind == "unknown" and not pairs:
                    pairs.append(Pair("entity", p.arg, p.entity, camel("zzunk", WORDS[next(odd) % 900])))
                elif dkind == "wrong" or (dkind == "malformed" and not pairs):
                    pairs.append(Pair("entity", p.arg, p.entity, kb.labels[next(distractor_labels)]))
                else:
                    pairs.append(p)
            beams.append(_malformed(rng, pairs) if dkind == "malformed" else Beam(_render_beam(pairs), pairs))
        inputs.beams[qid] = beams

    inputs.triples = list(kb.triples)
    inputs.ontology = kb.ontology
    return inputs


def build_flat_eval(seed: int, cfg: dict) -> Inputs:
    rng = Random(f"flat-relaxed-eval/{seed}")
    kb = FlatKb(rng, cfg)
    n_labels = len(kb.labels)
    n = cfg["gold"]
    dual = [i for i in range(n_labels) if len(kb.spaces[i]) == 2]
    shapes = iter(stratified(rng, n, (("1", 0.35), ("2", 0.40), ("3", 0.25))))
    kinds = iter(stratified(rng, n, (("unsat", UNSAT_SHARE), ("sat", 1 - UNSAT_SHARE))))
    leads = iter(stratified(rng, n, (("object", OBJECT_LEAD_SHARE), ("subject", 1 - OBJECT_LEAD_SHARE))))
    label_pool = iter(stratified_ranks(rng, 3 * n, [1.0 / (i + 1) ** 0.5 for i in range(len(dual))]))
    inputs = Inputs()
    for g in range(n):
        qid = f"g{g:05d}"
        n_pat = int(next(shapes))
        satisfiable = next(kinds) == "sat"
        lead = next(leads)
        answer = kb.fresh_entity()
        graph = []
        for k in range(n_pat):
            lbl = dual[next(label_pool)]
            ns = kb.namespace(lbl)
            pred = f"{ns}:{kb.labels[lbl]}"
            if k == 2:
                # A third pattern introduces the ?y answer variable.
                other = kb.fresh_entity()
                pattern = ("?y", pred, "?x") if rng.random() < 0.5 else ("?x", pred, "?y")
                edge = (other, answer) if pattern[0] == "?y" else (answer, other)
            else:
                e = kb.fresh_entity()
                object_lead = (lead == "object") if k == 0 else rng.random() < 0.5
                pattern = ("?x", pred, e) if object_lead else (e, pred, "?x")
                edge = (answer, e) if object_lead else (e, answer)
            kb.add(edge[0], ns, lbl, edge[1])
            if rng.random() < 0.5:
                # Sibling-namespace copy: the swapped variant keeps the answers.
                sibling = "dbp" if ns == "dbo" else "dbo"
                kb.add(edge[0], sibling, lbl, edge[1])
            graph.append(pattern)
        if not satisfiable:
            # An entity with no edges at all makes the graph unsatisfiable.
            s, p, o = graph[-1]
            graph[-1] = (s, p, "dbr:Orphan%d" % g) if s == "?x" else ("dbr:Orphan%d" % g, p, o)
        relations = list(dict.fromkeys(p for _, p, _ in graph))
        pred = []
        for r in relations:
            roll = rng.random()
            if roll < 0.5:
                pred.append(r)
            elif roll < 0.8:
                ns, _, local = r.partition(":")
                pred.append(f"{'dbp' if ns == 'dbo' else 'dbo'}:{local}")
        if rng.random() < 0.1:
            pred.append(f"dbo:{kb.labels[rng.randrange(n_labels)]}")
        inputs.gold.append({
            "question_id": qid,
            "question": f"Gold question {g}?",
            "relations": [expand(r)[1:-1] for r in relations],
            "graph": [[t if t.startswith("?") else expand(t) for t in spo] for spo in graph],
        })
        inputs.predictions.append({
            "question_id": qid,
            "relations": [expand(r)[1:-1] for r in dict.fromkeys(pred)],
        })
    inputs.triples = list(kb.triples)
    inputs.ontology = kb.ontology
    return inputs


# -- reified (wikidata) ----------------------------------------------------------


def build_reified(seed: int, cfg: dict) -> Inputs:
    """A wikidata-profile KB: p:/ps: statements, pq: qualifiers, wdt: edges.

    A few hub entities carry so many distinct properties that their candidate
    relation list overflows the encoder budget and has to be shrunk.
    """
    rng = Random(f"reified-baseline/{seed}")
    n_e, n_p = cfg["entities"], cfg["properties"]
    prop_ids = list(range(1000, 1000 + n_p))
    labels = {pid: f"{WORDS[2 * i]} {WORDS[2 * i + 1]}" for i, pid in enumerate(prop_ids)}
    labels[31], labels[279] = "instance of", "subclass of"
    triples: dict[tuple[str, str, str], None] = {}
    relations: dict[str, dict[int, None]] = {}  # entity -> property ids it has
    prop_weights = [1.0 / (i + 1) ** 0.8 for i in range(n_p)]
    stmt_counter = iter(range(10**9))

    def entity(i: int) -> str:
        return f"wd:Q{i}"

    def statement(s: str, pid: int, o: str, qualifier: tuple[int, str] | None = None) -> None:
        node = f"wds:S{next(stmt_counter)}"
        triples[(s, f"p:P{pid}", node)] = None
        triples[(node, f"ps:P{pid}", o)] = None
        relations.setdefault(s, {})[pid] = None
        if qualifier is not None:
            qpid, value = qualifier
            triples[(node, f"pq:P{qpid}", value)] = None
            relations.setdefault(s, {})[qpid] = None

    def random_qualifier() -> tuple[int, str] | None:
        if rng.random() >= QUALIFIED_SHARE:
            return None
        return rng.choices(prop_ids, prop_weights)[0], entity(rng.randrange(n_e))

    def direct(s: str, pid: int, o: str) -> None:
        triples[(s, f"wdt:P{pid}", o)] = None
        relations.setdefault(s, {})[pid] = None

    hubs = [entity(i) for i in range(cfg["hubs"])]
    classes = [entity(n_e + c) for c in range(cfg["classes"])]
    for c in range(1, len(classes)):
        triples[(classes[c], "wdt:P279", classes[(c - 1) // 2])] = None
    for i in range(n_e):
        triples[(entity(i), "wdt:P31", classes[rng.randrange(len(classes))])] = None
    for h in hubs:
        for pid in rng.sample(prop_ids, cfg["hub_props"]):
            direct(h, pid, entity(rng.randrange(n_e)))
    for _ in range(cfg["statements"]):
        pid = rng.choices(prop_ids, prop_weights)[0]
        s = entity(rng.randrange(cfg["hubs"], n_e))
        o = entity(rng.randrange(n_e))
        statement(s, pid, o, random_qualifier())
        if rng.random() < 0.5:
            direct(s, pid, o)  # truthy edge mirroring the statement
    for _ in range(cfg["direct"]):
        pid = rng.choices(prop_ids, prop_weights)[0]
        direct(entity(rng.randrange(cfg["hubs"], n_e)), pid, entity(rng.randrange(n_e)))

    # Every other property by popularity rank, split between the two entities.
    step = n_p // (2 * FALLBACK_DEGREE)
    spread = [prop_ids[step // 2 + step * j] for j in range(2 * FALLBACK_DEGREE)]
    fallback_pids = (spread[0::2], spread[1::2])
    fresh = iter(range(10 * n_e, 11 * n_e))

    inputs = Inputs()
    kinds = stratified(rng, cfg["questions"], REIFIED_KINDS)
    for q, kind in enumerate(kinds):
        qid = f"q{q:05d}"
        if kind == "hub":
            ents = [rng.choice(hubs)]
        elif kind == "fallback":
            ents = [entity(next(fresh)), entity(next(fresh))]
            for e, own in zip(ents, fallback_pids):
                triples[(e, "wdt:P31", classes[rng.randrange(len(classes))])] = None
                for pid in own:
                    direct(e, pid, entity(rng.randrange(n_e)))
        else:
            ents = [entity(rng.randrange(cfg["hubs"], n_e))]
            if kind == "double":
                ents.append(entity(rng.randrange(cfg["hubs"], n_e)))
        pids = []
        if kind == "double":
            # Each entity reaches the shared answer over a direct edge, a
            # statement or a qualifier, in either direction, so validated
            # results cover every route kind and orientation.
            answer = entity(rng.randrange(n_e))
            for e in ents:
                pid = rng.choices(prop_ids, prop_weights)[0]
                route = rng.choice(ROUTE_KINDS)
                s, o = (e, answer) if rng.random() < 0.5 else (answer, e)
                if route == "direct":
                    direct(s, pid, o)
                elif route == "statement":
                    statement(s, pid, o, random_qualifier())
                else:
                    statement(s, rng.choices(prop_ids, prop_weights)[0], entity(rng.randrange(n_e)), (pid, o))
                relations.setdefault(e, {})[pid] = None
                pids.append(pid)
        else:
            for e in ents:
                known = list(relations.get(e, {}))
                if not known:
                    pid = rng.choices(prop_ids, prop_weights)[0]
                    direct(e, pid, entity(rng.randrange(n_e)))
                    known = [pid]
                pids.append(rng.choice(known))
        mentions = [mention_of(int(e[4:])) for e in ents]
        if len(set(mentions)) < len(mentions):
            mentions = [f"{m} {WORDS[4000 + j]}".title() for j, m in enumerate(mentions)]
        text, spans = _question_text([(labels[pid], m) for pid, m in zip(pids, mentions)], None)
        if kind == "over_budget":
            filler = " ".join(WORDS[5000 % len(WORDS) + (j % 50)] for j in range(BUDGET + 8))
            text = text[:-1] + " " + filler + "?"
        for span, e in zip(spans, ents):
            span["iri"] = expand(e)[1:-1]
        inputs.questions.append({"question_id": qid, "question": text, "entities": spans})

    ontology = []
    for pid in labels:
        for ns in ("wdt", "ps", "pq"):
            ontology.append(f"label\t{expand(f'{ns}:P{pid}')[1:-1]}\t{labels[pid]}")
    for c, cls in enumerate(classes):
        ontology.append(f"label\t{expand(cls)[1:-1]}\tkind {WORDS[3000 + c]}")
        ontology.append(f"count\t{expand(cls)[1:-1]}\t{500 + 11 * c}")
    inputs.triples = list(triples)
    inputs.ontology = ontology
    return inputs


def build(workload: str, seed: int, scale: str = "full") -> Inputs:
    cfg = SCALES[workload][scale]
    if workload == "flat-fixture":
        return build_flat_fixture(seed, cfg)
    if workload == "flat-relaxed-eval":
        return build_flat_eval(seed, cfg)
    return build_reified(seed, cfg)
