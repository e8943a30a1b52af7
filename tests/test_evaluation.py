"""Scoring conventions, aggregation buckets, and relaxed re-evaluation."""

from __future__ import annotations

import io
import json
import math
import random
from collections import Counter
from itertools import product

import pytest

from conftest import (
    ALMA_GOLD_GRAPH, ALMA_QUESTION, ALMA_TRIPLES, DBO, DBP, DBR, PS, RDF_TYPE, WD, WDT, nt,
)
from rellink.evaluation import (
    GoldRecord,
    _answer_variable,
    build_report,
    label_sets,
    read_gold,
    relaxed_score,
    render_table,
    report_to_dict,
    score_sets,
)
from rellink.kb_store import KbStore, load_kb
from rellink.terms import (
    DBPEDIA,
    WIKIDATA,
    Iri,
    Literal,
    PropertyPath,
    TriplePattern,
    VAR_X,
    VAR_Y,
    Variable,
    parse_term,
    relation_uri,
)


def iris(*values: str) -> set[Iri]:
    return {Iri(v) for v in values}


GOLD = iris("dbp:almaMater", "dbo:state")


def report_of(records):
    """The report ``eval`` builds for strict (gold, pred) set pairs."""
    scores = [score_sets(gold, pred) for gold, pred in records]
    return build_report(scores, [(len(gold), len(pred)) for gold, pred in records])


class TestScoreSets:
    def test_exact_match(self):
        assert score_sets(GOLD, iris("dbp:almaMater", "dbo:state")) == (1.0, 1.0, 1.0)

    def test_one_namespace_miss(self):
        p, r, f1 = score_sets(GOLD, iris("dbo:almaMater", "dbo:state"))
        assert f1 == 0.5

    def test_other_namespace_miss(self):
        assert score_sets(GOLD, iris("dbp:almaMater", "dbp:state"))[2] == 0.5

    def test_both_namespaces_miss(self):
        assert score_sets(GOLD, iris("dbo:almaMater", "dbp:state"))[2] == 0.0

    def test_empty_pred_nonempty_gold(self):
        assert score_sets(GOLD, set()) == (0.0, 0.0, 0.0)

    def test_empty_gold_nonempty_pred(self):
        assert score_sets(set(), iris("dbo:state")) == (0.0, 0.0, 0.0)

    def test_both_empty_perfect(self):
        assert score_sets(set(), set()) == (1.0, 1.0, 1.0)

    def test_symmetry_swaps_p_and_r(self):
        a, b = GOLD, iris("dbp:almaMater", "dbo:country", "dbo:city")
        p1, r1, f1 = score_sets(a, b)
        p2, r2, f2 = score_sets(b, a)
        assert (p1, r1) == (r2, p2)
        assert f1 == f2

    def test_harmonic_mean_property(self):
        import random

        rng = random.Random(7)
        universe = [Iri(f"dbo:r{i}") for i in range(8)]
        for _ in range(200):
            gold = set(rng.sample(universe, rng.randint(0, 5)))
            pred = set(rng.sample(universe, rng.randint(0, 5)))
            p, r, f1 = score_sets(gold, pred)
            expected = 2 * p * r / (p + r) if p + r else 0.0
            assert math.isclose(f1, expected)


class TestAggregate:
    def test_macro_average(self):
        report = report_of([(GOLD, GOLD), (GOLD, set())])
        assert report.f1 == 0.5

    def test_average_sums_left_to_right_on_every_interpreter(self):
        # Ten 0.1s added one by one round to 0.9999999999999999; the builtin
        # sum of CPython 3.12 and later compensates to 1.0.
        report = build_report([(0.1, 0.1, 0.1)] * 10, [(1, 1)] * 10)
        assert (report.precision, report.recall, report.f1) == (0.09999999999999999,) * 3

    def test_equal_bucket_full(self):
        report = report_of([(GOLD, iris("dbo:a", "dbo:b")), (GOLD, GOLD)])
        assert report.pct_equal == 100.0

    def test_bucket_split(self):
        records = [
            (GOLD, GOLD),  # equal
            (GOLD, iris("dbo:a", "dbo:b")),  # equal count
            (GOLD, iris("dbo:a", "dbo:b", "dbo:c")),  # more
            (GOLD, iris("dbo:a")),  # fewer
        ]
        report = report_of(records)
        assert (report.pct_equal, report.pct_more, report.pct_fewer) == (50.0, 25.0, 25.0)

    def test_buckets_partition(self):
        report = report_of([(GOLD, set()), (GOLD, GOLD), (set(), GOLD)])
        assert math.isclose(report.pct_equal + report.pct_more + report.pct_fewer, 100.0)

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            build_report([], [])
        with pytest.raises(ValueError):
            build_report([score_sets(GOLD, GOLD)], [])


def count_queries(store: KbStore, monkeypatch) -> Counter:
    """Counts of the store's ``match_graph`` and ``answers`` calls, by name."""
    calls = Counter()
    for name in ("match_graph", "answers"):
        def counted(*args, _name=name, _method=getattr(store, name)):
            calls[_name] += 1
            return _method(*args)

        monkeypatch.setattr(store, name, counted)
    return calls


def swappable_gold(k: int, stored: tuple[str, ...] = (DBO, DBP)) -> tuple[KbStore, GoldRecord]:
    """A store holding the ``stored`` namespaces' twins (dbo: and dbp: by
    default) of k relations between the same two entities, and a gold graph
    of the k dbo: patterns plus one pattern outside the property namespaces,
    which doubles nothing."""
    lines = [nt(DBR + "E", RDF_TYPE, DBR + "V")]
    for i in range(k):
        lines += [nt(DBR + "E", ns + f"r{i}", DBR + "V") for ns in stored]
    predicates = [Iri(f"dbo:r{i}") for i in range(k)] + [Iri("rdf:type")]
    graph = tuple(TriplePattern(Iri("dbr:E"), p, Variable("x")) for p in predicates)
    return load_kb("\n".join(lines)), GoldRecord("q", "q", set(predicates), graph)


class TestRelaxedScore:
    def gold_record(self, alma_store):
        graph = tuple(
            TriplePattern(*(parse_term(t, DBPEDIA) for t in spo))
            for spo in ALMA_GOLD_GRAPH
        )
        return GoldRecord("q1", ALMA_QUESTION, set(GOLD), graph)

    def test_relaxed_beats_strict_on_dual_namespace(self, alma_store):
        gold = self.gold_record(alma_store)
        pred = iris("dbo:almaMater", "dbo:state")
        assert score_sets(gold.relations, pred)[2] == 0.5
        assert relaxed_score(alma_store, gold, pred) == (1.0, 1.0, 1.0)

    def test_no_variant_no_change(self, alma_store):
        gold = self.gold_record(alma_store)
        pred = iris("dbp:almaMater", "dbo:state")
        assert relaxed_score(alma_store, gold, pred) == (1.0, 1.0, 1.0)

    def test_empty_pred_zero(self, alma_store):
        gold = self.gold_record(alma_store)
        assert relaxed_score(alma_store, gold, set())[2] == 0.0

    def test_unknown_overlap_mode_raises(self, alma_store):
        gold = self.gold_record(alma_store)
        with pytest.raises(ValueError, match="^unknown overlap mode 'some'$"):
            relaxed_score(alma_store, gold, iris("dbo:state"), overlap="some")

    def test_unsatisfiable_gold_falls_back(self, alma_store, caplog):
        graph = (TriplePattern(Iri("dbr:Nobody"), Iri("dbo:state"), Variable("x")),)
        gold = GoldRecord("q2", "q", set(GOLD), graph)
        pred = iris("dbo:almaMater", "dbo:state")
        with caplog.at_level("WARNING"):
            result = relaxed_score(alma_store, gold, pred)
        assert result == score_sets(gold.relations, pred)
        assert "unsatisfiable" in caplog.text

    def test_answer_set_must_match(self):
        # The dbo: variant reaches a second university in another state, so
        # under equality it is rejected; under any-overlap it is accepted.
        triples = "\n".join(
            [
                nt(DBR + "Ben", DBP + "almaMater", DBR + "UniA"),
                nt(DBR + "UniA", DBO + "state", DBR + "Washington"),
                nt(DBR + "Ben", DBO + "almaMater", DBR + "UniA"),
                nt(DBR + "Ben", DBO + "almaMater", DBR + "UniB"),
                nt(DBR + "UniB", DBO + "state", DBR + "Idaho"),
            ]
        )
        store = load_kb(triples)
        graph = (
            TriplePattern(Iri("dbr:Ben"), Iri("dbp:almaMater"), Variable("x")),
            TriplePattern(Variable("x"), Iri("dbo:state"), Variable("y")),
        )
        gold = GoldRecord("q3", "q", set(GOLD), graph)
        pred = iris("dbo:almaMater", "dbo:state")
        assert relaxed_score(store, gold, pred)[2] == 0.5
        assert relaxed_score(store, gold, pred, overlap="any")[2] == 1.0

    def test_gold_graph_is_not_queried_twice(self, monkeypatch):
        store = load_kb(ALMA_TRIPLES)
        calls = count_queries(store, monkeypatch)
        # The gold relations hold one relation the graph lacks, so only the
        # gold graph's own relations give a perfect score: it is still scored.
        gold = self.gold_record(store)
        gold.relations = GOLD | iris("dbo:extra")
        assert relaxed_score(store, gold, set(GOLD)) == (1.0, 1.0, 1.0)
        # Four combinations, the gold graph first.  It is asked up front, and
        # its perfect score leaves no other combination anything to win.
        assert calls == {"answers": 1}

    def test_constant_graph_is_asked_only_for_a_better_score(self, monkeypatch):
        store = load_kb(ALMA_TRIPLES)
        calls = count_queries(store, monkeypatch)
        graph = tuple(
            TriplePattern(Iri("dbr:Ben_Ysursa"), Iri(p), Iri("dbr:Gonzaga_University"))
            for p in ("dbp:almaMater", "dbo:almaMater")
        )
        gold = GoldRecord("q5", "q", iris("dbp:almaMater", "dbo:almaMater"), graph)
        assert relaxed_score(store, gold, iris("dbo:almaMater")) == (1.0, 1.0, 1.0)
        # A graph with no variable is asked through ``answers`` too: the gold
        # graph up front, then only the (dbo:, dbo:) combination, the one of
        # the other three whose F1 beats the strict 2/3.
        assert calls == {"answers": 2}

    @pytest.mark.parametrize("k", range(1, 7))
    @pytest.mark.parametrize("twins", [False, True], ids=["empty", "twins"])
    def test_swappable_patterns_are_asked_only_when_the_score_rises(self, k, twins, monkeypatch):
        # Each swappable pattern doubles the variants, and each variant is
        # scored; the store is asked for the gold graph up front and for a
        # variant only when its F1 beats the best so far.  An empty
        # prediction scores 0 everywhere.  A prediction of every dbp: twin
        # rises each time a combination, in product order, swaps one more
        # pattern than any before it: k times.
        store, gold = swappable_gold(k)
        calls = count_queries(store, monkeypatch)
        pred = {Iri(f"dbp:r{i}") for i in range(k)} if twins else set()
        # The best variant swaps every pattern: k hits of k + 1 relations.
        best = score_sets(pred | {Iri("rdf:type")}, pred) if twins else (0.0, 0.0, 0.0)
        assert relaxed_score(store, gold, pred) == best
        assert calls == {"answers": k + 1 if twins else 1}

    @pytest.mark.parametrize("k", range(1, 7))
    def test_swappable_patterns_cost_two_to_the_k_queries(self, k, monkeypatch):
        # The worst case: the store lacks every dbp: twin and the prediction
        # names them all.  Each of the 2**k - 1 swapped variants beats the
        # strict score of 0, so each is asked, and none has the gold graph's
        # answers, so the best never rises.  With the gold graph asked up
        # front that is 2**k queries, each variant asked once.
        store, gold = swappable_gold(k, stored=(DBO,))
        calls = count_queries(store, monkeypatch)
        pred = {Iri(f"dbp:r{i}") for i in range(k)}
        assert relaxed_score(store, gold, pred) == (0.0, 0.0, 0.0)
        assert calls == {"answers": 2**k}

    def test_a_tie_keeps_the_earlier_score(self):
        # The strict score (P 1/2, R 1) and the dbp:r1 variant's (P 1, R 1/2)
        # have the same F1 to the last bit; the strict score comes first.
        store, gold = swappable_gold(3)
        gold.relations = iris("dbo:r0")
        pred = iris("dbo:r0", "dbp:r1")
        variant = score_sets(iris("dbo:r0", "dbp:r1", "dbo:r2", "rdf:type"), pred)
        assert variant[2] == score_sets(gold.relations, pred)[2]
        assert relaxed_score(store, gold, pred) == (0.5, 1.0, 2 / 3)
        assert relaxed_score(store, gold, pred) == reference_relaxed_score(store, gold, pred)

    def test_perfect_prediction_asks_only_for_the_gold_graph(self, monkeypatch):
        # 2**14 variants are scored, but none can beat the gold relations'
        # own perfect score.
        store, gold = swappable_gold(14)
        calls = count_queries(store, monkeypatch)
        assert relaxed_score(store, gold, set(gold.relations)) == (1.0, 1.0, 1.0)
        assert calls == {"answers": 1}

    def test_missing_graph_errors(self, alma_store, caplog):
        gold = GoldRecord("q4", "q", set(GOLD), None)
        pred = iris("dbo:almaMater", "dbo:state")
        with caplog.at_level("WARNING"):
            result = relaxed_score(alma_store, gold, pred)
        assert result == score_sets(gold.relations, pred)
        assert "gold q4 has no graph; scoring strictly" in caplog.text

    def test_relaxed_never_below_strict(self, alma_store):
        gold = self.gold_record(alma_store)
        for pred in [
            set(),
            iris("dbo:almaMater"),
            iris("dbp:state"),
            iris("dbo:almaMater", "dbp:state"),
            set(GOLD),
        ]:
            strict = score_sets(gold.relations, pred)[2]
            relaxed = relaxed_score(alma_store, gold, pred)[2]
            assert relaxed >= strict


# -- relaxed scoring against the implementation it replaced -----------------
#
# A verbatim copy of relaxed_score, _swap_namespace and SWAPPABLE as they
# stood before the swaps came from the profile and each candidate graph was
# queried once.

SWAPPABLE = {"dbo": "dbp", "dbp": "dbo"}


def _swap_namespace(pattern: TriplePattern) -> TriplePattern | None:
    """The same pattern under the sibling namespace, when one exists."""
    predicate = pattern.predicate
    if isinstance(predicate, PropertyPath):
        return None
    ns, sep, local = predicate.partition(":")
    if sep and ns in SWAPPABLE:
        swapped = Iri(f"{SWAPPABLE[ns]}:{local}")
        return TriplePattern(pattern.subject, predicate=swapped, object=pattern.object)
    return None


def reference_relaxed_score(
    store: KbStore,
    gold: GoldRecord,
    pred: set[Iri],
    overlap: str = "equal",
) -> tuple[float, float, float]:
    if gold.graph is None:
        raise ValueError(f"gold record {gold.question_id} carries no graph")
    if overlap not in ("equal", "any"):
        raise ValueError(f"unknown overlap mode {overlap!r}")
    base = score_sets(gold.relations, pred)
    if store.match_graph(gold.graph) is None:
        return base
    answer_var = _answer_variable(gold.graph)
    original_answers = (
        store.answers(gold.graph, answer_var) if answer_var is not None else None
    )

    choices: list[list[TriplePattern]] = []
    for pattern in gold.graph:
        swapped = _swap_namespace(pattern)
        choices.append([pattern] if swapped is None else [pattern, swapped])

    best = base
    for index, combo in enumerate(product(*choices)):
        if index and store.match_graph(combo) is None:
            continue
        if index and original_answers is not None:
            answers = store.answers(combo, answer_var)
            if overlap == "equal":
                if answers != original_answers:
                    continue
            elif not (answers & original_answers):
                continue
        variant_relations = {relation_uri(p.predicate) for p in combo}
        candidate = score_sets(variant_relations, pred)
        if candidate[2] > best[2]:
            best = candidate
    return best


RELAXED_ENTITIES = [Iri(f"dbr:E{i}") for i in range(4)]
RELAXED_LOCALS = ("r0", "r1", "r2")
RELAXED_PREDICATES = [Iri(f"{ns}:{local}") for ns in ("dbo", "dbp") for local in RELAXED_LOCALS]
RELAXED_OTHER = Iri("rdf:type")  # in no property namespace: never swapped


def _random_relaxed_case(rng: random.Random):
    """A small dbpedia store whose dbo:/dbp: twins often share triples, a
    graph of 1-3 patterns over ?x, ?y and constants, and gold and predicted
    relation sets."""
    store = KbStore(DBPEDIA)
    for _ in range(rng.randint(0, 14)):
        s, o = rng.choice(RELAXED_ENTITIES), rng.choice(RELAXED_ENTITIES + [Literal("v")])
        local = rng.choice(RELAXED_LOCALS)
        spaces = rng.choice([("dbo",), ("dbp",), ("dbo", "dbp")])
        predicates = [Iri(f"{ns}:{local}") for ns in spaces]
        if rng.random() < 0.1:
            predicates = [RELAXED_OTHER]
        for predicate in predicates:
            store.add_triple(s, predicate, o)
    constant_only = rng.random() < 0.2

    def term():
        if not constant_only and rng.random() < 0.6:
            return rng.choice([Variable("x"), Variable("y")])
        return rng.choice(RELAXED_ENTITIES)

    graph = tuple(
        TriplePattern(term(), rng.choice(RELAXED_PREDICATES + [RELAXED_OTHER]), term())
        for _ in range(rng.randint(1, 3))
    )
    gold_relations = {p.predicate for p in graph if rng.random() < 0.8}
    if rng.random() < 0.3:
        gold_relations.add(rng.choice(RELAXED_PREDICATES))
    pred = set(rng.sample(RELAXED_PREDICATES, rng.randint(0, 3)))
    return store, GoldRecord("q", "q", gold_relations, graph), pred


LONG_LOCALS = tuple(f"r{i}" for i in range(8))


def _long_relaxed_case(rng: random.Random):
    """A dbpedia store whose dbo:/dbp: twins often share triples, a graph of
    4-8 swappable patterns mostly cut from stored triples, and a prediction
    mixing hits, swaps to the other namespace and strays outside the graph."""
    store = KbStore(DBPEDIA)
    triples = []
    for _ in range(rng.randint(6, 20)):
        s, o = rng.choice(RELAXED_ENTITIES), rng.choice(RELAXED_ENTITIES)
        local = rng.choice(LONG_LOCALS)
        for ns in rng.choice([("dbo",), ("dbp",), ("dbo", "dbp"), ("dbo", "dbp")]):
            triples.append((s, Iri(f"{ns}:{local}"), o))
    for s, p, o in triples:
        store.add_triple(s, p, o)
    # Entities become ?x and ?y alike in every pattern, so a graph cut from
    # stored triples keeps a solution; one in ten patterns is made up.
    hidden = rng.sample(RELAXED_ENTITIES, rng.choice([0, 1, 1, 2, 2]))
    rename = dict(zip(hidden, (Variable("x"), Variable("y"))))
    graph = []
    for _ in range(rng.randint(4, 8)):
        if rng.random() < 0.9:
            s, p, o = rng.choice(triples)
        else:
            s, o = rng.choice(RELAXED_ENTITIES), rng.choice(RELAXED_ENTITIES)
            p = Iri(f"{rng.choice(('dbo', 'dbp'))}:{rng.choice(LONG_LOCALS)}")
        graph.append(TriplePattern(rename.get(s, s), p, rename.get(o, o)))
    gold_relations = {p.predicate for p in graph if rng.random() < 0.9}
    if rng.random() < 0.5:
        # One gold relation: the strict score's precision and recall then
        # differ from a variant's, so the two can tie on F1 alone.
        gold_relations = {rng.choice(graph).predicate}
    twins = {Iri(("dbp:" if r.startswith("dbo:") else "dbo:") + r[4:]) for r in gold_relations}
    strays = {Iri(f"{ns}:{local}") for ns in ("dbo", "dbp") for local in LONG_LOCALS}
    strays -= gold_relations | twins
    pred = set()
    for pool in (gold_relations, twins, strays):
        pool = sorted(pool)
        pred.update(rng.sample(pool, rng.randint(0, min(3, len(pool)))))
    return store, GoldRecord("q", "q", gold_relations, tuple(graph)), pred


def test_relaxed_score_matches_reference():
    seen = Counter()
    cases = [(_random_relaxed_case, seed) for seed in range(1500)]
    cases += [(_long_relaxed_case, seed) for seed in range(300)]
    for make, seed in cases:
        store, gold, pred = make(random.Random(seed))
        for overlap in ("equal", "any"):
            expected = reference_relaxed_score(store, gold, pred, overlap)
            assert relaxed_score(store, gold, pred, overlap) == expected, (make, seed, overlap)
        satisfiable = store.match_graph(gold.graph) is not None
        variable = _answer_variable(gold.graph) is not None
        seen["satisfiable" if satisfiable else "unsatisfiable", variable] += 1
        strict = score_sets(gold.relations, pred)
        if reference_relaxed_score(store, gold, pred, "equal") != strict:
            seen["relaxed above strict", variable] += 1
            seen["raised at length", len(gold.graph)] += 1
        if reference_relaxed_score(store, gold, pred, "any") != reference_relaxed_score(
            store, gold, pred, "equal"
        ):
            seen["any above equal"] += 1
    # Every branch was reached, with and without an answer variable, and
    # relaxing raised the score of graphs of every length up to 8.
    for key in [(a, v) for a in ("satisfiable", "unsatisfiable", "relaxed above strict")
                for v in (True, False)] + ["any above equal"]:
        assert seen[key] > 0, (key, seen)
    for k in range(1, 9):
        assert seen["raised at length", k] > 0, (k, seen)


def test_reified_profile_swaps_nothing():
    # ps:P1 holds the same answers as wdt:P1, but a reified profile's
    # namespaces are routes of one property, not interchangeable twins.
    triples = "\n".join(
        nt(WD + "Q1", ns + "P1", WD + "Q2") for ns in (WDT, PS)
    )
    store = load_kb(triples, profile=WIKIDATA)
    graph = (TriplePattern(Iri("wd:Q1"), Iri("wdt:P1"), Variable("x")),)
    gold = GoldRecord("q", "q", {Iri("wdt:P1")}, graph)
    assert relaxed_score(store, gold, {Iri("ps:P1")}) == (0.0, 0.0, 0.0)


class TestProbeCounts:
    """Relaxed scoring's store probes do not grow with the size of a predicate."""

    def test_placeholder_led_gold_graph_starts_from_the_bound_pattern(self):
        # (?y dbo:p ?x) leads the gold graph; joined first, it would walk all
        # 10,000 dbo:p triples for the answers and again for each variant.
        lines = [nt(f"{DBR}P{i}", DBO + "p", f"{DBR}X{i}") for i in range(10_000)]
        lines += [nt(DBR + "P0", DBP + "p", DBR + "X0"), nt(DBR + "E", DBO + "q", DBR + "X0")]
        store = load_kb("\n".join(lines))
        taken = 0
        walk = store._pairs

        def counting(*args):
            nonlocal taken
            for item in walk(*args):
                taken += 1
                yield item

        store._pairs = counting
        graph = (
            TriplePattern(VAR_Y, Iri("dbo:p"), VAR_X),
            TriplePattern(Iri("dbr:E"), Iri("dbo:q"), VAR_X),
        )
        assert store.answers(graph, VAR_Y) == {Iri("dbr:P0")}
        assert taken <= 10, taken
        taken = 0
        # The dbp:p variant keeps the answers, so it scores the prediction.
        gold = GoldRecord("q1", "Who?", iris("dbo:p", "dbo:q"), graph)
        assert relaxed_score(store, gold, iris("dbp:p", "dbo:q")) == (1.0, 1.0, 1.0)
        assert taken <= 10, taken


class TestLongGoldGraph:
    def test_five_thousand_pattern_graph(self):
        # The predicate lies outside the swappable namespaces, so the gold
        # graph is its only variant; joining it walks 5,000 patterns deep.
        near = "http://example.org/near"
        store = load_kb("\n".join(nt(f"{DBR}E{i}", near, DBR + "Hub") for i in range(5000)))
        graph = tuple(TriplePattern(Iri(f"dbr:E{i}"), Iri(near), VAR_X) for i in range(5000))
        assert store.answers(graph, VAR_X) == {Iri("dbr:Hub")}
        gold = GoldRecord("q1", "Near what?", iris(near), graph)
        assert relaxed_score(store, gold, iris(near)) == (1.0, 1.0, 1.0)
        assert relaxed_score(store, gold, iris("dbo:near")) == (0.0, 0.0, 0.0)


class TestLabelSets:
    def test_namespace_stripped(self):
        assert label_sets(iris("dbo:almaMater", "dbp:almaMater")) == {"almamater"}

    def test_label_level_equates_variants(self):
        pred = iris("dbo:almaMater", "dbp:state")
        assert score_sets(label_sets(GOLD), label_sets(pred)) == (1.0, 1.0, 1.0)


class TestReadGold:
    def test_reads_record_with_graph(self):
        record = {
            "question_id": "q1",
            "question": ALMA_QUESTION,
            "relations": ["http://dbpedia.org/property/almaMater", "dbo:state"],
            "graph": ALMA_GOLD_GRAPH,
        }
        gold = list(read_gold(io.StringIO(json.dumps(record)), DBPEDIA))[0]
        assert gold.relations == set(GOLD)
        assert gold.graph is not None and len(gold.graph) == 2
        assert gold.graph[0].subject == Iri("dbr:Ben_Ysursa")

    def test_graph_optional(self):
        record = {"question_id": "q1", "question": "q", "relations": ["dbo:state"]}
        gold = list(read_gold(io.StringIO(json.dumps(record)), DBPEDIA))[0]
        assert gold.graph is None

    @pytest.mark.parametrize("graph", [None, []])
    def test_null_or_empty_graph_means_none(self, graph):
        record = {"question_id": "q1", "question": "q", "relations": ["dbo:state"], "graph": graph}
        gold = list(read_gold(io.StringIO(json.dumps(record)), DBPEDIA))[0]
        assert gold.graph is None

    def test_malformed_line_number(self):
        with pytest.raises(ValueError, match="line 2"):
            list(read_gold(io.StringIO('{"question_id": "a", "question": "q", "relations": []}\n{"bad": 1}'), DBPEDIA))


class TestReporting:
    def test_table_contains_metrics(self):
        report = report_of([(GOLD, GOLD)])
        table = render_table(report)
        assert "1.000" in table and "pred=gold" in table

    def test_dict_shape(self):
        report = report_of([(GOLD, set())])
        data = report_to_dict(report)
        assert data["f1"] == 0.0
        assert data["count_buckets"]["fewer"] == 100.0
        assert len(data["per_question"]) == 1
