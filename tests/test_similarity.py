"""Similarity scorers and candidate relation ranking."""

from __future__ import annotations

import math
import random
from collections import Counter

import pytest

from conftest import FORD_TRIPLES, FORD_ONTOLOGY, entity
from rellink import load_kb, similarity
from rellink.generator import BaselineGenerator
from rellink.knowledge_integration import build_encoder_input, rank_candidate_relations
from rellink.similarity import (
    Similarity,
    TrigramSimilarity,
    WordVectorSimilarity,
    question_tokens,
    split_label,
)


class TestTokenization:
    def test_camel_case_split(self):
        assert split_label("placeOfBurial") == ["place", "of", "burial"]
        assert split_label("owningOrganisation") == ["owning", "organisation"]

    def test_snake_and_dash(self):
        assert split_label("birth_place") == ["birth", "place"]
        assert split_label("birth-place") == ["birth", "place"]

    def test_question_tokens(self):
        assert question_tokens("Where is X's grave?") == ["where", "is", "x", "s", "grave"]


class TestSimilarityBase:
    class Exact(Similarity):
        """A label token scores 1 when the question holds it, else 0.25."""

        def __init__(self):
            self.bound, self.asked = [], []

        def _best(self, question):
            self.bound.append(question)
            words = set(question_tokens(question))
            return lambda token: self.asked.append(token) or (1.0 if token in words else 0.25)

    def test_label_scores_mean_of_best_token_matches(self):
        sim = self.Exact()
        bound = sim.for_question("Where is the grave of X?")
        assert bound("graveOfX") == 1.0
        assert bound("placeOfBurial") == (0.25 + 1.0 + 0.25) / 3
        assert bound("--") == 0.0
        assert bound("burial_place") == 0.25
        assert sim.asked == ["grave", "of", "x", "place", "burial"]

    def test_same_question_same_binding(self):
        sim = self.Exact()
        first = sim.for_question("Where is the grave?")
        assert sim.for_question("Where is the grave?") is first
        assert sim.bound == ["Where is the grave?"]

    def test_score_is_bound_scorer(self):
        sim = self.Exact()
        for question in ("Where is the grave?", "Who is the spouse?", "Where is the grave?"):
            for label in ("spouse", "placeOfBurial", "graveSite", ""):
                assert sim.score(question, label) == self.Exact().for_question(question)(label)


class TestTrigramSimilarity:
    def test_identical_token_scores_one(self):
        sim = TrigramSimilarity()
        assert sim.score("the grave of X", "of") == 1.0

    def test_disjoint_tokens_score_zero(self):
        sim = TrigramSimilarity()
        assert sim.score("purple monkey", "spouse") == 0.0

    def test_grave_question_oracle(self):
        # Hand-computed: label tokens place/of/burial; only "of" matches a
        # question token exactly, and no trigrams are shared otherwise, so
        # the score is the average (0 + 1 + 0) / 3.
        sim = TrigramSimilarity()
        score = sim.score("Where is the grave of X?", "placeOfBurial")
        assert math.isclose(score, 1.0 / 3.0)
        assert sim.score("Where is the grave of X?", "birthPlace") == 0.0
        assert sim.score("Where is the grave of X?", "spouse") == 0.0

    def test_partial_trigram_overlap(self):
        sim = TrigramSimilarity()
        score = sim.score("who manufactured it", "manufacturer")
        assert 0.0 < score < 1.0


class TestRanking:
    def test_grave_question_ranks_spouse_last(self):
        ranked = rank_candidate_relations(
            "Where is the grave of X?", ["placeOfBurial", "birthPlace", "spouse"]
        )
        assert ranked[0] == "placeOfBurial"
        assert ranked[-1] == "spouse"

    def test_permutation_of_input(self):
        labels = ["alpha", "beta", "gamma", "delta"]
        ranked = rank_candidate_relations("unrelated question", labels)
        assert sorted(ranked) == sorted(labels)

    def test_ties_lexicographic(self):
        ranked = rank_candidate_relations("zzz", ["bbb", "aaa", "ccc"])
        assert ranked == ["aaa", "bbb", "ccc"]

    def test_empty_labels(self):
        assert rank_candidate_relations("question", []) == []

    def test_single_label(self):
        assert rank_candidate_relations("question", ["only"]) == ["only"]


class TestWordVectorSimilarity:
    VECTORS = "\n".join(
        [
            "3 2",  # word2vec-style header
            "grave 1.0 0.0",
            "burial 0.9 0.1",
            "spouse 0.0 1.0",
            "where 0.5 0.5",
            "of 0.4 0.6",
            "place 0.7 0.3",
        ]
    )

    def test_loads_and_scores(self):
        sim = WordVectorSimilarity.load(self.VECTORS)
        buried = sim.score("Where is the grave of X?", "burial")
        spouse = sim.score("Where is the grave of X?", "spouse")
        assert buried > spouse

    def test_oov_scores_zero(self):
        sim = WordVectorSimilarity.load(self.VECTORS)
        assert sim.score("Where is the grave?", "unknownLabel") == 0.0

    def test_header_skipped(self):
        sim = WordVectorSimilarity.load(self.VECTORS)
        assert "3" not in sim.vectors
        assert "grave" in sim.vectors


# -- bound scorers against the per-call scorers they replaced ---------------
#
# Reference: the earlier scorers, kept verbatim, which rebuilt the question's
# vectors and norms on every call.  Ranking sorts by score, so a bound scorer
# must give the same bits, not merely close values.


def _ref_trigrams(token: str) -> Counter[str]:
    if len(token) < 3:
        return Counter([token])
    return Counter(token[i : i + 3] for i in range(len(token) - 2))


def _cosine(a: Counter[str], b: Counter[str]) -> float:
    if not a or not b:
        return 0.0
    dot = sum(count * b[gram] for gram, count in a.items())
    if dot == 0:
        return 0.0
    norm_a = math.sqrt(sum(c * c for c in a.values()))
    norm_b = math.sqrt(sum(c * c for c in b.values()))
    return dot / (norm_a * norm_b)


class ReferenceTrigramSimilarity:
    def score(self, question: str, label: str) -> float:
        label_tokens = split_label(label)
        if not label_tokens:
            return 0.0
        q_vectors = [_ref_trigrams(t) for t in question_tokens(question)]
        if not q_vectors:
            return 0.0
        total = 0.0
        for token in label_tokens:
            vec = _ref_trigrams(token)
            total += max(_cosine(vec, qv) for qv in q_vectors)
        return total / len(label_tokens)


class ReferenceWordVectorSimilarity:
    def __init__(self, vectors: dict[str, list[float]]):
        self.vectors = vectors

    def _vector_cosine(self, a: list[float], b: list[float]) -> float:
        if len(a) != len(b):
            return 0.0
        dot = sum(x * y for x, y in zip(a, b))
        norm_a = math.sqrt(sum(x * x for x in a))
        norm_b = math.sqrt(sum(x * x for x in b))
        if norm_a == 0 or norm_b == 0:
            return 0.0
        return dot / (norm_a * norm_b)

    def score(self, question: str, label: str) -> float:
        label_tokens = split_label(label)
        if not label_tokens:
            return 0.0
        q_vecs = [self.vectors.get(t) for t in question_tokens(question)]
        q_vecs = [v for v in q_vecs if v is not None]
        if not q_vecs:
            return 0.0
        total = 0.0
        for token in label_tokens:
            vec = self.vectors.get(token)
            if vec is None:
                continue
            total += max(self._vector_cosine(vec, qv) for qv in q_vecs)
        return total / len(label_tokens)


# Few letters, so random words share trigrams; words of 1-2 letters take the
# single-gram path.
_WORDS = ["of", "a", "x", "in", "an", "aba", "abab", "baba", "abc", "cab", "bcab",
          "abcabc", "place", "lace", "laces", "birth", "berth", "year2", "y2k", "2009"]


def _random_question(rng: random.Random) -> str:
    words = [rng.choice(_WORDS) for _ in range(rng.randint(1, 12))]
    words += rng.sample(words, min(len(words), rng.randint(0, 3)))  # repeats
    rng.shuffle(words)
    return " ".join(w.capitalize() if rng.random() < 0.3 else w for w in words) + "?"


def _random_label(rng: random.Random) -> str:
    words = [rng.choice(_WORDS + ["zzz", "qqq", "oov"]) for _ in range(rng.randint(1, 4))]
    style = rng.randrange(3)
    if style == 0:  # camelCase
        return words[0] + "".join(w[:1].upper() + w[1:] for w in words[1:])
    if style == 1:  # snake or dash
        return rng.choice("_-").join(words)
    return "".join(w.upper() if rng.random() < 0.3 else w for w in words)


# Labels and questions with no word token, or nothing at all.
_EDGE_LABELS = ["", "-", "__", "Of", "OF", "ofOf", "a1B2", "ABCDef", "x"]
_EDGE_QUESTIONS = ["", "?!", " - ", "of of of", "X", "ABCDef a1B2"]


def _cases(rng: random.Random, n: int):
    questions = _EDGE_QUESTIONS + [_random_question(rng) for _ in range(n)]
    for question in questions:
        labels = _EDGE_LABELS + [_random_label(rng) for _ in range(n)]
        yield question, labels


class TestBoundScorersMatchReference:
    @pytest.mark.parametrize("seed", range(5))
    def test_trigram_bit_identical(self, seed):
        rng = random.Random(seed)
        sim, ref = TrigramSimilarity(), ReferenceTrigramSimilarity()
        for question, labels in _cases(rng, 25):
            bound = sim.for_question(question)
            for label in labels + labels:  # the second round hits the memo
                expected = ref.score(question, label)
                assert bound(label) == expected, (question, label)
                assert sim.score(question, label) == expected, (question, label)

    @pytest.mark.parametrize("seed", range(5))
    def test_word_vector_bit_identical(self, seed):
        rng = random.Random(seed)
        vectors: dict[str, list[float]] = {}
        for word in _WORDS:
            roll = rng.random()
            if roll < 0.15:
                continue  # out of vocabulary
            if roll < 0.25:
                vectors[word] = [0.0, 0.0, 0.0]  # zero vector
            elif roll < 0.35:
                vectors[word] = [rng.uniform(-1, 1) for _ in range(2)]  # length mismatch
            else:
                vectors[word] = [rng.uniform(-1, 1) for _ in range(3)]
        sim, ref = WordVectorSimilarity(vectors), ReferenceWordVectorSimilarity(vectors)
        for question, labels in _cases(rng, 25):
            bound = sim.for_question(question)
            for label in labels + labels:
                expected = ref.score(question, label)
                assert bound(label) == expected, (question, label)
                assert sim.score(question, label) == expected, (question, label)

    def test_question_without_vectors_scores_zero(self):
        sim = WordVectorSimilarity({"grave": [1.0, 0.0]})
        bound = sim.for_question("nothing known here")
        assert bound("grave") == 0.0
        assert bound("") == 0.0

    def test_rank_binds_once_per_call(self):
        binds = []

        class Counting(TrigramSimilarity):
            def for_question(self, question):
                binds.append(question)
                return super().for_question(question)

        labels = ["placeOfBurial", "birthPlace", "spouse", "burialPlace"]
        ranked = rank_candidate_relations("Where is the grave of X?", labels, Counting())
        assert binds == ["Where is the grave of X?"]
        assert ranked == rank_candidate_relations("Where is the grave of X?", labels)


# -- one binding per question ------------------------------------------------

SHARED_QUESTION = (
    "Who founded Ford Motor Company, which owns Kansas City Assembly and "
    "built the Ford Y-block engine?"
)


class TestOneBindingPerQuestion:
    @pytest.mark.parametrize("fresh", [True, False], ids=["instance", "default"])
    def test_question_postings_built_once(self, monkeypatch, fresh):
        tokenized = []
        real = similarity.question_tokens
        monkeypatch.setattr(
            similarity, "question_tokens", lambda q: tokenized.append(q) or real(q)
        )
        store = load_kb(FORD_TRIPLES, FORD_ONTOLOGY, "dbpedia")
        entities = [
            entity(SHARED_QUESTION, "Ford Motor Company", "dbr:Ford_Motor_Company"),
            entity(SHARED_QUESTION, "Kansas City Assembly", "dbr:Kansas_City_Assembly"),
            entity(SHARED_QUESTION, "Ford Y-block engine", "dbr:Ford_Y-block_engine"),
        ]
        sim = TrigramSimilarity() if fresh else None
        enc = build_encoder_input(store, SHARED_QUESTION, entities, similarity=sim)
        beams = BaselineGenerator(beam_width=4, similarity=sim).generate(enc)
        assert [len(s.relations) for s in enc.structures] == [3, 2, 1]
        assert beams
        assert tokenized == [SHARED_QUESTION]

    @pytest.mark.parametrize("seed", range(3))
    def test_interleaved_questions_bit_identical(self, seed):
        rng = random.Random(seed)
        cases = list(_cases(rng, 10))
        shared = TrigramSimilarity()
        for (q_a, labels_a), (q_b, labels_b) in zip(cases, cases[1:]):
            for question, labels in ((q_a, labels_a), (q_b, labels_b), (q_a, labels_a)):
                fresh = TrigramSimilarity().for_question(question)
                bound = shared.for_question(question)
                for label in labels:
                    assert bound(label) == fresh(label), (question, label)
                    assert shared.score(question, label) == fresh(label), (question, label)

    def test_same_question_returns_same_binding(self):
        for sim in (TrigramSimilarity(), WordVectorSimilarity({"grave": [1.0, 0.0]})):
            first = sim.for_question("Where is the grave?")
            assert sim.for_question("Where is the grave?") is first
            assert sim.for_question("Another question") is not first
            assert sim.for_question("Where is the grave?") is not first
