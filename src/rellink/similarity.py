"""Lexical similarity scorers for ranking candidate relation labels.

The default scorer compares character trigrams: each label token is scored by
its best cosine match against any question token, and the token scores are
averaged over the label.  An alternative scorer reads a word-vector text file
and applies the same max-then-average scheme over embeddings.

A scorer is bound to one question with ``for_question``: the question's
vectors and norms are built once, and each label token's best match is
remembered for the life of the bound scorer only.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from typing import IO, Callable, Iterable, Protocol

_CAMEL_RE = re.compile(r"(?<=[a-z0-9])(?=[A-Z])|(?<=[A-Z])(?=[A-Z][a-z])")
_WORD_RE = re.compile(r"[A-Za-z0-9]+")


class Similarity(Protocol):
    """Scores relation labels against a question.

    ``for_question(q)`` returns a scorer of labels against ``q`` alone; bind
    it once and call it for every label of that question.  ``score(q,
    label)`` is ``for_question(q)(label)``.
    """

    def for_question(self, question: str) -> Callable[[str], float]: ...

    def score(self, question: str, label: str) -> float: ...


def split_label(label: str) -> list[str]:
    """Lowercased word tokens of a relation label; camelCase is split."""
    spaced = _CAMEL_RE.sub(" ", label)
    return [w.lower() for w in _WORD_RE.findall(spaced)]


def question_tokens(question: str) -> list[str]:
    return [w.lower() for w in _WORD_RE.findall(question)]


def _trigrams(token: str) -> Counter[str]:
    # Tokens shorter than 3 chars count as a single gram, so "of" can
    # still match "of" exactly instead of vanishing.
    if len(token) < 3:
        return Counter([token])
    return Counter(token[i : i + 3] for i in range(len(token) - 2))


def _mean_of_best(best: Callable[[str], float]) -> Callable[[str], float]:
    """A label scorer: the mean over label tokens of ``best(token)``, which
    is computed once per distinct token."""
    memo: dict[str, float] = {}

    def score(label: str) -> float:
        tokens = split_label(label)
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


class TrigramSimilarity:
    """Character-trigram cosine; max over question tokens, mean over label."""

    def for_question(self, question: str) -> Callable[[str], float]:
        # gram -> [(question token index, count)], and each token's norm.
        postings: dict[str, list[tuple[int, int]]] = {}
        norms: list[float] = []
        for index, token in enumerate(question_tokens(question)):
            grams = _trigrams(token)
            for gram, count in grams.items():
                postings.setdefault(gram, []).append((index, count))
            norms.append(math.sqrt(sum(c * c for c in grams.values())))

        def best(token: str) -> float:
            grams = _trigrams(token)
            dots: dict[int, int] = {}
            for gram, count in grams.items():
                for index, q_count in postings.get(gram, ()):
                    dots[index] = dots.get(index, 0) + count * q_count
            norm = math.sqrt(sum(c * c for c in grams.values()))
            # Question tokens sharing no gram have cosine 0.0.
            return max((dot / (norm * norms[i]) for i, dot in dots.items()), default=0.0)

        return _mean_of_best(best)

    def score(self, question: str, label: str) -> float:
        return self.for_question(question)(label)


class WordVectorSimilarity:
    """Same scoring scheme over vectors from a word2vec-style text file.

    Each line is ``word v1 v2 ...``; a numeric header line is skipped.
    Out-of-vocabulary tokens contribute zero.
    """

    def __init__(self, vectors: dict[str, list[float]]):
        self.vectors = vectors

    @classmethod
    def load(cls, source: str | IO[str] | Iterable[str]) -> "WordVectorSimilarity":
        lines = source.splitlines() if isinstance(source, str) else source
        vectors: dict[str, list[float]] = {}
        for line in lines:
            parts = line.split()
            if len(parts) < 2:
                continue
            if len(parts) == 2 and parts[0].isdigit() and parts[1].isdigit():
                continue  # word2vec header: vocab size, dimension
            vectors[parts[0].lower()] = [float(x) for x in parts[1:]]
        return cls(vectors)

    def for_question(self, question: str) -> Callable[[str], float]:
        q_vecs = [self.vectors.get(t) for t in question_tokens(question)]
        q_pairs = [(v, _norm(v)) for v in q_vecs if v is not None]

        def best(token: str) -> float:
            vec = self.vectors.get(token)
            if vec is None:
                return 0.0
            norm = _norm(vec)
            return max(
                (_vector_cosine(vec, norm, qv, q_norm) for qv, q_norm in q_pairs),
                default=0.0,
            )

        return _mean_of_best(best)

    def score(self, question: str, label: str) -> float:
        return self.for_question(question)(label)


def _norm(vector: list[float]) -> float:
    return math.sqrt(sum(x * x for x in vector))


def _vector_cosine(a: list[float], norm_a: float, b: list[float], norm_b: float) -> float:
    if len(a) != len(b):
        return 0.0
    dot = sum(x * y for x, y in zip(a, b))
    if norm_a == 0 or norm_b == 0:
        return 0.0
    return dot / (norm_a * norm_b)


DEFAULT_SIMILARITY = TrigramSimilarity()
