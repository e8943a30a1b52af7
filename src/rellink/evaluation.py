"""Precision/recall/F1 scoring with namespace-relaxed re-evaluation.

Strict scoring compares URI sets.  Relaxed scoring re-scores against every
variant of the gold graph, swapped among a flat profile's property namespaces,
that yields the same answers, keeping the first best F1 in product order; a
variant's answers are asked only when its F1 would raise the best.
Aggregation is macro (per-question average) and also buckets questions by
predicted-versus-gold relation count.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import product
from typing import IO, Iterable, Iterator

from .kb_store import KbStore
from .terms import (
    Iri,
    Profile,
    TriplePattern,
    VAR_X,
    VAR_Y,
    Variable,
    expect,
    json_record,
    local_name,
    parse_term,
    read_lines,
    record_iri,
)

logger = logging.getLogger(__name__)

OVERLAP_MODES = ("equal", "any")


@dataclass
class GoldRecord:
    question_id: str
    question: str
    relations: set[Iri]
    graph: tuple[TriplePattern, ...] | None = None


@dataclass
class EvalReport:
    per_question: list[tuple[float, float, float]]
    precision: float
    recall: float
    f1: float
    pct_equal: float
    pct_more: float
    pct_fewer: float


def score_sets(gold: set, pred: set) -> tuple[float, float, float]:
    """Set precision/recall/F1; two empty sets count as a perfect match."""
    hits = len(gold & pred)
    if pred:
        precision = hits / len(pred)
    else:
        precision = 1.0 if not gold else 0.0
    if gold:
        recall = hits / len(gold)
    else:
        recall = 1.0 if not pred else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def build_report(
    per_question: list[tuple[float, float, float]],
    sizes: list[tuple[int, int]],
) -> EvalReport:
    """Assemble a report from per-question scores and (gold, pred) set sizes."""
    if not per_question or len(per_question) != len(sizes):
        raise ValueError("need one score and one size pair per question")
    n = len(per_question)
    equal = sum(1 for gold_n, pred_n in sizes if pred_n == gold_n)
    more = sum(1 for gold_n, pred_n in sizes if pred_n > gold_n)
    fewer = n - equal - more
    # Added left to right: the builtin ``sum`` compensates float rounding
    # from CPython 3.12 on, so a report would differ by interpreter.
    precision = recall = f1 = 0.0
    for p, r, f in per_question:
        precision, recall, f1 = precision + p, recall + r, f1 + f
    return EvalReport(
        per_question=per_question,
        precision=precision / n,
        recall=recall / n,
        f1=f1 / n,
        pct_equal=100.0 * equal / n,
        pct_more=100.0 * more / n,
        pct_fewer=100.0 * fewer / n,
    )


def _namespace_options(pattern: TriplePattern, swappable: tuple[str, ...]) -> list[TriplePattern]:
    """The pattern itself, then its copies under the other swappable namespaces."""
    ns, _, local = pattern.predicate.partition(":")
    if ns not in swappable:
        return [pattern]
    return [pattern] + [
        TriplePattern(pattern.subject, Iri(f"{other}:{local}"), pattern.object)
        for other in swappable
        if other != ns
    ]


def _answer_variable(patterns: Iterable[TriplePattern]) -> Variable | None:
    """?y when any pattern uses it, else ?x when present."""
    terms = [t for p in patterns for t in (p.subject, p.object)]
    return next((v for v in (VAR_Y, VAR_X) if v in terms), None)


def relaxed_score(
    store: KbStore,
    gold: GoldRecord,
    pred: set[Iri],
    overlap: str = "equal",
) -> tuple[float, float, float]:
    """Best score over answer-preserving namespace variants of the gold graph.

    Swaps come from a flat profile's property namespaces.  ``overlap``
    selects how a variant's answers qualify it: ``equal`` requires the gold
    graph's answer set, ``any`` one shared answer.  A missing or
    unsatisfiable gold graph gives the strict score and a warning.
    """
    if overlap not in OVERLAP_MODES:
        raise ValueError(f"unknown overlap mode {overlap!r}")
    best = score_sets(gold.relations, pred)
    if gold.graph is None:
        logger.warning("gold %s has no graph; scoring strictly", gold.question_id)
        return best
    var = _answer_variable(gold.graph)
    # Every solution binds ``var``: an unsatisfiable graph has no answers.
    original = store.answers(gold.graph, var)
    if not original:
        logger.warning(
            "gold graph for %s is unsatisfiable; falling back to strict score",
            gold.question_id,
        )
        return best

    profile = store.profile
    swappable = profile.property_namespaces if profile.statement_namespace is None else ()
    for combo in product(*(_namespace_options(p, swappable) for p in gold.graph)):
        candidate = score_sets({p.predicate for p in combo}, pred)
        if candidate[2] <= best[2]:
            continue
        found = original if combo == gold.graph else store.answers(combo, var)
        if found == original if overlap == "equal" else found & original:
            best = candidate
    return best


def label_key(iri: Iri) -> str:
    """Namespace-free comparison key for label-level evaluation."""
    return local_name(iri).casefold()


def label_sets(relations: set[Iri]) -> set[str]:
    return {label_key(r) for r in relations}


def read_gold(source: IO[str] | Iterable[str], profile: Profile) -> Iterator[GoldRecord]:
    """Gold JSON Lines: id, question, relation URIs, optional pattern graph.

    Graph patterns are arrays of three term strings (``?x``, quoted
    literals, or IRIs); an absent, null or empty graph means none.  A
    question id may appear once per source.
    """
    seen: set[str] = set()

    def parse(line: str) -> GoldRecord:
        qid, raw = json_record(line, seen)
        question = expect(raw["question"], str, "question")
        relations = {record_iri(r, profile) for r in expect(raw["relations"], list, "relations")}
        patterns = []
        if raw.get("graph") is not None:
            for spo in expect(raw["graph"], list, "graph"):
                spo = expect(spo, list, "graph pattern")
                if len(spo) != 3:
                    raise ValueError(f"graph pattern must have 3 terms, got {len(spo)}")
                s, p, o = (parse_term(t, profile) for t in spo)
                if not isinstance(p, Iri):
                    raise ValueError("graph predicate must be an IRI")
                patterns.append(TriplePattern(s, p, o))
        seen.add(qid)
        return GoldRecord(qid, question, relations, tuple(patterns) or None)

    return read_lines(source, "gold", parse)


def render_table(report: EvalReport) -> str:
    """The report as an aligned two-block plain-text table."""
    lines = [
        f"{'':<10}{'P':>8}{'R':>8}{'F1':>8}",
        f"{'overall':<10}{report.precision:>8.3f}{report.recall:>8.3f}{report.f1:>8.3f}",
        "",
        f"{'pred=gold':>12}{'pred>gold':>12}{'pred<gold':>12}",
        f"{report.pct_equal:>11.1f}%{report.pct_more:>11.1f}%{report.pct_fewer:>11.1f}%",
    ]
    return "\n".join(lines)


def report_to_dict(report: EvalReport) -> dict:
    return {
        "precision": report.precision,
        "recall": report.recall,
        "f1": report.f1,
        "count_buckets": {
            "equal": report.pct_equal,
            "more": report.pct_more,
            "fewer": report.pct_fewer,
        },
        "per_question": [
            {"precision": p, "recall": r, "f1": f} for p, r, f in report.per_question
        ],
    }
