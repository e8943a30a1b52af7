"""Similarity scorers and candidate relation ranking."""

from __future__ import annotations

import hashlib
import math
import random
import re
from collections import Counter
from itertools import count

import pytest

from conftest import FORD_TRIPLES, FORD_ONTOLOGY, entity
from rellink import similarity
from rellink.generator import BaselineGenerator
from rellink.kb_store import load_kb
from rellink.knowledge_integration import build_encoder_input, rank_candidate_relations
from rellink.similarity import (
    DEFAULT_SIMILARITY,
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
            best = lambda token: self.asked.append(token) or (1.0 if token in words else 0.25)
            return best, None  # any token may match

    def test_label_scores_mean_of_best_token_matches(self):
        sim = self.Exact()
        bound = sim.for_question("Where is the grave of X?")
        assert bound("graveOfX") == 1.0
        assert bound("placeOfBurial") == (0.25 + 1.0 + 0.25) / 3
        assert bound("--") == 0.0
        assert bound("burial_place") == 0.25
        assert sim.asked == ["grave", "of", "x", "place", "burial"]

    def test_each_call_binds_afresh(self):
        # A scorer keeps no per-question state: each call builds the
        # question's side again, and the two bindings score alike.
        sim = self.Exact()
        first = sim.for_question("Where is the grave?")
        second = sim.for_question("Where is the grave?")
        assert first is not second and sim.bound == ["Where is the grave?"] * 2
        assert first("graveSite") == second("graveSite") == 0.625

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


def _rank(question, labels, sim=None):
    """The labels ranked, and their scores, under the question's bound scorer."""
    return rank_candidate_relations(labels, (sim or DEFAULT_SIMILARITY).for_question(question))


class TestRanking:
    def test_grave_question_ranks_spouse_last(self):
        question = "Where is the grave of X?"
        ranked, scores = _rank(question, ["placeOfBurial", "birthPlace", "spouse"])
        assert ranked[0] == "placeOfBurial"
        assert ranked[-1] == "spouse"
        assert scores == [TrigramSimilarity().score(question, label) for label in ranked]

    def test_permutation_of_input(self):
        labels = ["alpha", "beta", "gamma", "delta"]
        ranked, _ = _rank("unrelated question", labels)
        assert sorted(ranked) == sorted(labels)

    def test_ties_lexicographic(self):
        assert _rank("zzz", ["bbb", "aaa", "ccc"]) == (["aaa", "bbb", "ccc"], [0.0] * 3)

    def test_empty_labels(self):
        assert _rank("question", []) == ([], [])

    def test_single_label(self):
        assert _rank("question", ["only"])[0] == ["only"]


class TestWordVectorSimilarity:
    VECTORS = "\n".join(
        [
            "6 2",  # word2vec-style header: word count, dimension
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
        assert "6" not in sim.vectors
        assert "grave" in sim.vectors

    def test_blank_lines_before_the_header(self):
        sim = WordVectorSimilarity.load("\n  \n2 2\ngrave 1.0 0.0\nplace 0.7 0.3\n")
        assert list(sim.vectors) == ["grave", "place"]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("a 0.1 0.2 0.3\n12 34\nb 0.3 0.1 0.2\n", "vectors line 2: 1 values, expected 3"),
            ("2 2\na 0.1 0.2\n3 3\n", "vectors line 3: 1 values, expected 2"),
            ("a 0.1 0.2 0.3\nb 0.3 0.1 0.2\nlonely\n", "vectors line 3: 'lonely' has no values"),
            ("\nlonely\na 0.1\n", "vectors line 2: 'lonely' has no values"),
        ],
        ids=["late-header", "second-header", "lone-word", "lone-first-word"],
    )
    def test_header_only_first_and_no_lone_word(self, text, message):
        # A count-dimension header is allowed on the first non-blank line
        # alone, and every other line needs a word and its values.
        with pytest.raises(ValueError) as caught:
            WordVectorSimilarity.load(text)
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        "text, line", [("5 2\na 1 2", 1), ("\n\n5 2\na 1 2", 3), ("\r\n \r5 2\na 1 2\n\n", 3)]
    )
    def test_header_count_names_the_header_line(self, text, line):
        # Blank lines before the header count, as in every located error.
        with pytest.raises(ValueError) as caught:
            WordVectorSimilarity.load(text)
        assert str(caught.value) == f"vectors line {line}: header counts 5 words, file has 1"

    def test_ranking_does_not_depend_on_the_interpreter(self):
        # A compensated sum (the builtin from CPython 3.12 on) scores "b"
        # first and "a" last; added left to right, every interpreter gives
        # the ranking below.
        sim = WordVectorSimilarity({"q": [1.0] * 10, "a": [1.0] * 10, "b": [0.1] * 10, "c": [0.3] * 10})
        assert _rank("q", ["a", "b", "c"], sim)[0] == ["c", "a", "b"]


# Recorded under CPython 3.11; it must hold on every interpreter.
TIED_VECTOR_RANKINGS_SHA256 = "8de33aee74902c863105949e23ea704cf85b0a6e1e663eb7c14da9f6363ce049"
VECTOR_WORDS = ("grave", "burial", "place", "spouse", "birth", "death", "owner", "maker", "city")


def _vector_rankings_digest() -> str:
    """SHA-256 of seeded word-vector rankings.  The vectors hold a few
    one-decimal values, so many labels tie or nearly tie, and a score's
    last bits depend on the order its sums are added in."""
    pool = ("-0.9", "-0.3", "0.1", "0.2", "0.3", "0.7", "1.0")
    digest = hashlib.sha256()
    for seed in range(200):
        rng = random.Random(seed)
        dim = rng.randint(2, 12)
        rows = [f"{len(VECTOR_WORDS)} {dim}"]
        rows += [f"{w} {' '.join(rng.choice(pool) for _ in range(dim))}" for w in VECTOR_WORDS]
        sim = WordVectorSimilarity.load("\n".join(rows))
        question = " ".join(rng.sample(VECTOR_WORDS, rng.randint(1, 4)))
        words = VECTOR_WORDS + ("unknown",)
        labels = [
            "_".join(rng.sample(words, rng.randint(1, 3))) for _ in range(rng.randint(1, 8))
        ]
        for label, score in zip(*_rank(question, labels, sim)):
            digest.update(f"{seed}\t{label}\t{score!r}\n".encode())
    return digest.hexdigest()


def test_vector_rankings_do_not_depend_on_the_interpreter(monkeypatch):
    assert _vector_rankings_digest() == TIED_VECTOR_RANKINGS_SHA256
    # A compensated norm (the builtin ``sum`` from CPython 3.12 on) changes
    # the digest: it sees how the sums are added.
    monkeypatch.setattr(similarity, "_norm", lambda v: math.sqrt(math.fsum(x * x for x in v)))
    assert _vector_rankings_digest() != TIED_VECTOR_RANKINGS_SHA256


# -- bound scorers against the per-call scorers they replaced ---------------
#
# Reference: the earlier scorers, which rebuilt the question's vectors and
# norms on every call, kept verbatim save that word-vector sums add left to
# right.  Ranking sorts by score, so a bound scorer
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


def _left_sum(values) -> float:
    """The builtin ``sum`` before CPython 3.12, which compensates rounding."""
    total = 0.0
    for value in values:
        total += value
    return total


class ReferenceWordVectorSimilarity:
    def __init__(self, vectors: dict[str, list[float]]):
        self.vectors = vectors

    def _vector_cosine(self, a: list[float], b: list[float]) -> float:
        if len(a) != len(b):
            return 0.0
        dot = _left_sum(x * y for x, y in zip(a, b))
        norm_a = math.sqrt(_left_sum(x * x for x in a))
        norm_b = math.sqrt(_left_sum(x * x for x in b))
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

    def test_rank_scores_each_label_once(self):
        scored = Counter()
        bound = TrigramSimilarity().for_question("Where is the grave of X?")
        labels = ["placeOfBurial", "birthPlace", "spouse", "burialPlace"]
        ranked = rank_candidate_relations(labels + labels[::-1], lambda l: scored.update([l]) or bound(l))
        assert scored == Counter(labels)
        assert ranked == _rank("Where is the grave of X?", labels)


# -- the count filter against the scorer without it -------------------------
#
# Reference: the trigram scorer as it was before labels sharing no trigram
# with the question were settled by one set test, kept verbatim (its
# label-side caches aside).  Every score must keep its bits.


def _parent_grams(token: str) -> list[str]:
    return re.findall(r"(?=(...))", token) or [token]


def _parent_label_grams(token: str) -> tuple[tuple[tuple[str, int], ...], float]:
    counts = Counter(_parent_grams(token))
    return tuple(counts.items()), _parent_norm(counts.values())


def _parent_norm(vector) -> float:
    total = 0.0
    for x in vector:
        total += x * x
    return math.sqrt(total)


class ParentTrigramSimilarity:
    def for_question(self, question: str):
        best = self._best(question)
        memo: dict[str, float] = {}

        def score(label: str) -> float:
            tokens = tuple(split_label(label))
            if not tokens:
                return 0.0
            total = 0.0
            for token in tokens:
                value = memo.get(token)
                if value is None:
                    value = memo[token] = best(token)
                total += value
            return total / len(tokens)

        return score

    def _best(self, question: str):
        postings: dict[str, list[int]] = {}
        norms: list[float] = []
        for index, token in enumerate(dict.fromkeys(question_tokens(question))):
            grams = _parent_grams(token)
            for gram in grams:
                postings.setdefault(gram, []).append(index)
            distinct = len(set(grams)) == len(grams)
            norms.append(math.sqrt(len(grams)) if distinct else _parent_norm(Counter(grams).values()))

        def best(token: str) -> float:
            items, norm = _parent_label_grams(token)
            dots: dict[int, int] = {}
            for gram, count in items:
                for index in postings.get(gram, ()):
                    dots[index] = dots.get(index, 0) + count
            if not dots:
                return 0.0
            return max(dot / (norm * norms[i]) for i, dot in dots.items())

        return best


def _gram_set(text: str, tokens) -> set[str]:
    return {g for t in tokens(text) for g in _parent_grams(t)}


class TestCountFilterMatchesParent:
    @pytest.mark.parametrize("seed", range(4))
    def test_scores_keep_their_bits(self, seed):
        rng = random.Random(seed)
        kinds = Counter()
        # _cases covers tokens under 3 characters, repeated grams, digits,
        # camelCase and labels with no token.
        for question, labels in _cases(rng, 40):
            q_grams = _gram_set(question, question_tokens)
            bound = TrigramSimilarity().for_question(question)
            parent = ParentTrigramSimilarity().for_question(question)
            for label in labels + labels:  # the second round hits the memo
                expected = parent(label)
                assert float.hex(bound(label)) == float.hex(expected), (question, label)
                l_grams = _gram_set(label, split_label)
                kinds["empty" if not l_grams else "disjoint" if l_grams.isdisjoint(q_grams)
                      else "partial" if 0 < expected < 1 else "overlap"] += 1
        # Every kind of label was scored, and often.
        assert min(kinds[k] for k in ("empty", "disjoint", "partial", "overlap")) >= 50, kinds

    def test_disjoint_label_never_reaches_best(self, monkeypatch):
        asked = []
        real = TrigramSimilarity._best

        def counting(sim, question):
            best, grams = real(sim, question)
            return (lambda token: asked.append(token) or best(token)), grams

        monkeypatch.setattr(TrigramSimilarity, "_best", counting)
        rng = random.Random(7)
        reached = skipped = 0
        for question, labels in _cases(rng, 40):
            q_grams = _gram_set(question, question_tokens)
            bound = TrigramSimilarity().for_question(question)
            for label in labels:
                asked.clear()
                bound(label)
                if _gram_set(label, split_label).isdisjoint(q_grams):
                    assert asked == [], (question, label)
                    skipped += 1
                else:
                    reached += bool(asked)
        assert skipped >= 100 and reached >= 100, (skipped, reached)
        bound = TrigramSimilarity().for_question("Where is the grave of X?")
        asked.clear()
        assert bound("birthPlace") == bound("spouseName") == 0.0 and asked == []
        assert bound("placeOfBurial") == 1 / 3 and asked == ["place", "of", "burial"]


# -- one binding per question ------------------------------------------------

SHARED_QUESTION = (
    "Who founded Ford Motor Company, which owns Kansas City Assembly and "
    "built the Ford Y-block engine?"
)


class TestOneBindingPerQuestion:
    @pytest.mark.parametrize("fresh", [True, False], ids=["instance", "default"])
    def test_question_postings_built_once(self, monkeypatch, fresh):
        tokenized, bound = [], []
        real = similarity.question_tokens
        monkeypatch.setattr(
            similarity, "question_tokens", lambda q: tokenized.append(q) or real(q)
        )
        best = TrigramSimilarity._best
        monkeypatch.setattr(TrigramSimilarity, "_best", lambda sim, q: bound.append(q) or best(sim, q))
        store = load_kb(FORD_TRIPLES, FORD_ONTOLOGY, "dbpedia")
        entities = [
            entity(SHARED_QUESTION, "Ford Motor Company", "dbr:Ford_Motor_Company"),
            entity(SHARED_QUESTION, "Kansas City Assembly", "dbr:Kansas_City_Assembly"),
            entity(SHARED_QUESTION, "Ford Y-block engine", "dbr:Ford_Y-block_engine"),
        ]
        sim = TrigramSimilarity() if fresh else None
        enc = build_encoder_input(store, SHARED_QUESTION, entities, similarity=sim)
        beams = BaselineGenerator(beam_width=4).generate(enc)
        assert [len(s.relations) for s in enc.structures] == [3, 2, 1]
        assert beams
        assert tokenized == bound == [SHARED_QUESTION]

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


# -- what a binding computes once ---------------------------------------------

_FRESH = count()


class TestOncePerBinding:
    @staticmethod
    def _asking(monkeypatch) -> list[str]:
        """The label tokens that reach a binding's ``best``, in order."""
        asked: list[str] = []
        real = TrigramSimilarity._best

        def counting(sim, question):
            best, grams = real(sim, question)
            return (lambda token: asked.append(token) or best(token)), grams

        monkeypatch.setattr(TrigramSimilarity, "_best", counting)
        return asked

    def test_each_label_token_reaches_best_once_per_binding(self, monkeypatch):
        asked = self._asking(monkeypatch)
        bound = TrigramSimilarity().for_question("Where is the burial place of X?")
        for label in ("placeOfBurial", "burialPlace", "placeOfBurial", "birthPlace"):
            bound(label)
        # "birth" shares no trigram with the question, but "place" does.
        assert asked == ["place", "of", "burial", "birth"]
        asked.clear()
        TrigramSimilarity().for_question("Where is the burial place of X?")("burialPlace")
        assert asked == ["burial", "place"]  # a new binding asks again

    @pytest.mark.parametrize("seed", range(3))
    def test_seeded_label_tokens_reach_best_once_per_binding(self, monkeypatch, seed):
        asked = self._asking(monkeypatch)
        rng = random.Random(seed)
        for question, labels in _cases(rng, 20):
            asked.clear()
            q_grams = _gram_set(question, question_tokens)
            bound = TrigramSimilarity().for_question(question)
            for label in labels + labels:
                bound(label)
            shared = {t for label in labels if not _gram_set(label, split_label).isdisjoint(q_grams)
                      for t in split_label(label)}
            assert sorted(asked) == sorted(shared), question

    def test_binding_computes_each_question_tokens_grams_once(self, monkeypatch):
        # Words no other test uses, so no cache holds their grams yet.
        n = next(_FRESH)
        words = [f"zq{n}alpha", f"zq{n}beta", f"zq{n}gamma"]
        question = f"{words[0]} {words[1].upper()} {words[0]} of {words[2]} {words[1]}?"
        computed = Counter()
        real = similarity._grams
        monkeypatch.setattr(similarity, "_grams", lambda token: computed.update([token]) or real(token))
        TrigramSimilarity().for_question(question)
        assert {w: computed[w] for w in words} == dict.fromkeys(words, 1)

    def test_binding_caches_no_question_token(self):
        # A question is mostly seen once; its tokens must not evict label tokens.
        n = next(_FRESH)
        before = similarity._label_grams.cache_info().currsize
        TrigramSimilarity().for_question(f"zq{n}alpha zq{n}beta of x?")
        assert similarity._label_grams.cache_info().currsize == before
