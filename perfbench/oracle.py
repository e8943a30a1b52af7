"""Reference results computed from the generator's data.

This module shares no code with ``rellink``.  It works on the generator's own
term strings, and checks satisfiability with set intersections over
per-pattern solution sets, the way ``tests/oracle_link.py`` does.  It
reproduces the documented first-match order of ``link`` (beams in rank order,
patterns per pair by route then orientation, candidate graphs in
lexicographic order), the fallback rule, the ASK rule, and relaxed scoring.

For ``flat-fixture`` it uses the generator's beam structures.  For
``reified-baseline`` the beams come from rellink's baseline generator, so the
oracle checks validation and fallback given those beams; the beam text there
is plain ``[mention | label], ...`` with no escapes, which it splits itself.
"""

from __future__ import annotations

import json
import re
from itertools import product

from gen import ASK_LIMIT, BEAM_LIMIT, BUDGET, Inputs

PREFERENCE = ("dbo", "dbp")
SWAP = {"dbo": "dbp", "dbp": "dbo"}


class FlatIndex:
    def __init__(self, triples):
        self.triples = set(triples)
        self.by_pred: dict[str, list[tuple[str, str]]] = {}
        self.sp: dict[tuple[str, str], set[str]] = {}
        self.po: dict[tuple[str, str], set[str]] = {}
        for s, p, o in self.triples:
            self.by_pred.setdefault(p, []).append((s, o))
            self.sp.setdefault((s, p), set()).add(o)
            self.po.setdefault((p, o), set()).add(s)

    def pattern_solutions(self, pattern) -> set[tuple[str, str | None]]:
        """(x, y) assignments satisfying one pattern that uses ?x."""
        s, p, o = pattern
        if s == "?x" and o == "?y":
            return set(self.by_pred.get(p, ()))
        if s == "?y" and o == "?x":
            return {(b, a) for a, b in self.by_pred.get(p, ())}
        if o == "?x":
            return {(x, None) for x in self.sp.get((s, p), ())}
        if s == "?x":
            return {(x, None) for x in self.po.get((p, o), ())}
        raise ValueError(f"unsupported pattern {pattern}")

    def solutions(self, patterns) -> set[tuple[str, str | None]]:
        per_pattern = []
        for pattern in patterns:
            sols = self.pattern_solutions(pattern)
            if not sols:
                return set()
            per_pattern.append((sols, "?y" in (pattern[0], pattern[2])))
        shared_x = set.intersection(*({x for x, _ in sols} for sols, _ in per_pattern))
        out = set()
        for x in shared_x:
            y_sets = [{y for sx, y in sols if sx == x} for sols, has_y in per_pattern if has_y]
            if not y_sets:
                out.add((x, None))
                continue
            out.update((x, y) for y in set.intersection(*y_sets))
        return out

    def routes(self, label: str) -> list[str]:
        return [f"{ns}:{label}" for ns in PREFERENCE if f"{ns}:{label}" in self.by_pred]


def _pair_patterns(index: FlatIndex, pair) -> list[tuple[str, str, str]]:
    arg = "?y" if pair.kind == "placeholder" else pair.entity
    out = []
    for route in index.routes(pair.label):
        out.append((arg, route, "?x"))
        out.append(("?x", route, arg))
    return out


def _record(qid, relations, validated, rank, ask_answer) -> dict:
    return {
        "question_id": qid,
        "relations": relations,
        "validated": validated,
        "source_rank": rank,
        "ask_answer": ask_answer,
    }


def _fallback(index: FlatIndex, qid: str, beams, ask_answer) -> dict:
    for rank, beam in enumerate(beams, start=1):
        if beam.pairs is None:
            continue
        relations = [index.routes(p.label)[0] for p in beam.pairs if index.routes(p.label)]
        return _record(qid, list(dict.fromkeys(relations)), False, rank, ask_answer)
    return _record(qid, [], False, 0, ask_answer)


def _resolved(beam) -> bool:
    return beam.pairs is not None and all(p.kind != "unresolved" for p in beam.pairs)


def expected_link(index: FlatIndex, question: dict, beams) -> dict:
    qid, text = question["question_id"], question["question"]
    tokens = len(text.split())
    if tokens > BUDGET:
        record = _record(qid, [], False, 0, None)
        record["error"] = f"question alone is {tokens} tokens, budget {BUDGET}"
        return record
    if text.split()[0].casefold() == "is":
        for rank, beam in enumerate(beams[:ASK_LIMIT], start=1):
            if not _resolved(beam):
                continue
            by_label: dict[str, list[str]] = {}
            for pair in beam.pairs:
                if pair.kind == "entity":
                    by_label.setdefault(pair.label, []).append(pair.entity)
            for label, args in by_label.items():
                for route in index.routes(label) if len(args) > 1 else ():
                    for i, a in enumerate(args):
                        for j, b in enumerate(args):
                            if i != j and (a, route, b) in index.triples:
                                return _record(qid, [route], True, rank, True)
        return _fallback(index, qid, beams, False)
    for rank, beam in enumerate(beams[:BEAM_LIMIT], start=1):
        if not _resolved(beam):
            continue
        per_pair = []
        for pair in beam.pairs:
            surviving = [p for p in _pair_patterns(index, pair) if index.pattern_solutions(p)]
            if not surviving:
                break
            per_pair.append(surviving)
        else:
            for combo in product(*per_pair):
                if index.solutions(combo):
                    relations = list(dict.fromkeys(p for _, p, _ in combo))
                    return _record(qid, relations, True, rank, None)
    return _fallback(index, qid, beams, None)


def expected_link_bytes(inputs: Inputs) -> bytes:
    index = FlatIndex(inputs.triples)
    return "".join(
        json.dumps(expected_link(index, q, inputs.beams[q["question_id"]])) + "\n"
        for q in inputs.questions
    ).encode("utf-8")


# -- relaxed evaluation ---------------------------------------------------------


def _compact(term: str) -> str:
    from gen import PREFIXES

    if term in ("?x", "?y"):
        return term
    iri = term.strip("<>")
    matches = [(len(ns), prefix) for prefix, ns in PREFIXES.items() if iri.startswith(ns)]
    if not matches:
        return iri
    size, prefix = max(matches)
    return f"{prefix}:{iri[size:]}"


def score_sets(gold: set, pred: set) -> tuple[float, float, float]:
    hits = len(gold & pred)
    precision = hits / len(pred) if pred else (1.0 if not gold else 0.0)
    recall = hits / len(gold) if gold else (1.0 if not pred else 0.0)
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def expected_relaxed(index: FlatIndex, gold: dict, pred: set[str]) -> tuple[bool, tuple]:
    """(graph satisfiable, best score) for one gold record."""
    graph = [tuple(_compact(t) for t in spo) for spo in gold["graph"]]
    relations = {_compact(r) for r in gold["relations"]}
    base = score_sets(relations, pred)
    original = index.solutions(graph)
    if not original:
        return False, base
    var = 1 if any("?y" in (s, o) for s, _, o in graph) else 0
    answers = {sol[var] for sol in original}
    choices = []
    for s, p, o in graph:
        ns, _, local = p.partition(":")
        choices.append([(s, p, o), (s, f"{SWAP[ns]}:{local}", o)] if ns in SWAP else [(s, p, o)])
    best = base
    for combo in product(*choices):
        sols = index.solutions(combo)
        if not sols or {sol[var] for sol in sols} != answers:
            continue
        candidate = score_sets({p for _, p, _ in combo}, pred)
        if candidate[2] > best[2]:
            best = candidate
    return True, best


def expected_relaxed_lines(inputs: Inputs) -> bytes:
    index = FlatIndex(inputs.triples)
    preds = {p["question_id"]: {_compact(r) for r in p["relations"]} for p in inputs.predictions}
    lines = []
    for gold in inputs.gold:
        satisfiable, (precision, recall, f1) = expected_relaxed(index, gold, preds[gold["question_id"]])
        lines.append(json.dumps({
            "question_id": gold["question_id"],
            "satisfiable": satisfiable,
            "precision": precision,
            "recall": recall,
            "f1": f1,
        }) + "\n")
    return "".join(lines).encode("utf-8")


# -- reified link ------------------------------------------------------------------

_PAIR_RE = re.compile(r"\[([^\[\]|]*) \| ([^\[\]|]*)\]")
DIRECT_ONLY = {"P31", "P279"}


def _normalize_label(text: str) -> str:
    return "".join(ch for ch in text.casefold() if ch.isalnum())


class ReifiedIndex:
    """Direct, statement and qualifier routes over a wikidata-profile KB."""

    def __init__(self, triples, ontology: list[str]):
        self.sp: dict[tuple[str, str], set[str]] = {}
        self.po: dict[tuple[str, str], set[str]] = {}
        self.entries: dict[str, set[str]] = {}   # subject -> statement nodes
        self.entry_of: dict[str, set[str]] = {}  # statement node -> subjects
        for s, p, o in triples:
            self.sp.setdefault((s, p), set()).add(o)
            self.po.setdefault((p, o), set()).add(s)
            if p.startswith("p:"):
                self.entries.setdefault(s, set()).add(o)
                self.entry_of.setdefault(o, set()).add(s)
        self.pids: dict[str, set[str]] = {}
        for row in ontology:
            kind, iri, text = row.split("\t")
            if kind == "label" and "/prop/" in iri:
                self.pids.setdefault(_normalize_label(text), set()).add(iri.rsplit("/", 1)[1])

    def routes(self, label: str) -> list[tuple[str, str | None]]:
        """(relation, entry predicate) per route, in rellink's route order."""
        out = []
        for pid in sorted(self.pids.get(_normalize_label(label), ())):
            out.append((f"wdt:{pid}", None))
            if pid not in DIRECT_ONLY:
                out.append((f"ps:{pid}", f"p:{pid}"))
                out.append((f"pq:{pid}", "*"))
        return out

    def candidates(self, route, entity: str, entity_is_subject: bool) -> set[str]:
        """Values of ?x for (entity route ?x), or for (?x route entity)."""
        relation, entry = route
        if entry is None:
            key = (entity, relation) if entity_is_subject else (relation, entity)
            return (self.sp if entity_is_subject else self.po).get(key, set())
        if entity_is_subject:
            stmts = self._stmts(entity, entry)
            return set().union(*(self.sp.get((st, relation), ()) for st in stmts))
        out = set()
        for st in self.po.get((relation, entity), ()):
            for subject in self.entry_of.get(st, ()):
                if entry == "*" or st in self.sp.get((subject, entry), ()):
                    out.add(subject)
        return out

    def _stmts(self, subject: str, entry: str) -> set[str]:
        if entry == "*":
            return self.entries.get(subject, set())
        return self.sp.get((subject, entry), set())


def expected_reified_link(index: ReifiedIndex, question: dict, beam_texts: list[str]) -> dict:
    qid, text = question["question_id"], question["question"]
    tokens = len(text.split())
    if tokens > BUDGET:
        record = _record(qid, [], False, 0, None)
        record["error"] = f"question alone is {tokens} tokens, budget {BUDGET}"
        return record
    mentions = {e["mention"]: _compact(e["iri"]) for e in question["entities"]}
    beams = [[(mentions[m], label) for m, label in _PAIR_RE.findall(t)] for t in beam_texts]
    for rank, pairs in enumerate(beams[:BEAM_LIMIT], start=1):
        per_pair = []
        for entity, label in pairs:
            options = []
            for route in index.routes(label):
                for entity_is_subject in (True, False):
                    xs = index.candidates(route, entity, entity_is_subject)
                    if xs:
                        options.append((route[0], xs))
            if not options:
                break
            per_pair.append(options)
        else:
            for combo in product(*per_pair):
                if set.intersection(*(xs for _, xs in combo)):
                    return _record(qid, list(dict.fromkeys(r for r, _ in combo)), True, rank, None)
    if not beams:
        return _record(qid, [], False, 0, None)
    relations = [index.routes(label)[0][0] for _, label in beams[0] if index.routes(label)]
    return _record(qid, list(dict.fromkeys(relations)), False, 1, None)


def expected_reified_link_bytes(inputs: Inputs, beam_texts: dict[str, list[str]]) -> bytes:
    index = ReifiedIndex(inputs.triples, inputs.ontology)
    return "".join(
        json.dumps(expected_reified_link(index, q, beam_texts[q["question_id"]])) + "\n"
        for q in inputs.questions
    ).encode("utf-8")
