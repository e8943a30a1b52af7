"""Lexical similarity scorers for ranking candidate relation labels.

The default scorer compares character trigrams: each label token is scored by
its best cosine match against any question token, and the token scores are
averaged over the label.  An alternative scorer reads a word-vector text file
and applies the same max-then-average scheme over embeddings.

A scorer is bound to one question with ``for_question``: the question's
vectors and norms are built once, and each label token's best match is
remembered for the life of the bound scorer only.  A scorer keeps its last
binding, so the callers that rank and score labels for one question share
it; the next question replaces it.  Work that depends on a label alone (its
tokens, and each token's trigrams and norm) is done once per process, in
bounded caches.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from functools import lru_cache
from typing import IO, Callable, Iterable

from .terms import read_lines

_CAMEL_RE = re.compile(r"(?<=[a-z0-9])(?=[A-Z])|(?<=[A-Z])(?=[A-Z][a-z])")
_WORD_RE = re.compile(r"[A-Za-z0-9]+")
_TRIGRAM_RE = re.compile(r"(?=(...))")
# Entries in each label-side cache.  A KB's relation labels share a small
# vocabulary; the bound keeps memory flat when they do not.
_LABEL_CACHE = 1 << 14


def split_label(label: str) -> list[str]:
    """Lowercased word tokens of a relation label; camelCase is split."""
    spaced = _CAMEL_RE.sub(" ", label)
    return [w.lower() for w in _WORD_RE.findall(spaced)]


@lru_cache(maxsize=_LABEL_CACHE)
def _label_tokens(label: str) -> tuple[str, ...]:
    return tuple(split_label(label))


def question_tokens(question: str) -> list[str]:
    return [w.lower() for w in _WORD_RE.findall(question)]


def _grams(token: str) -> list[str]:
    """A token's trigrams, in order and with repeats.  Tokens shorter than 3
    chars count as a single gram, so "of" can still match "of" exactly
    instead of vanishing."""
    return _TRIGRAM_RE.findall(token) or [token]


@lru_cache(maxsize=_LABEL_CACHE)
def _label_grams(token: str) -> tuple[tuple[tuple[str, int], ...], float]:
    """A label token's (gram, count) items and the norm of its counts."""
    counts = Counter(_grams(token))
    return tuple(counts.items()), _norm(counts.values())


class Similarity:
    """Scores relation labels against a question.

    ``for_question(q)`` returns a scorer of labels against ``q`` alone: a
    label scores the mean over its tokens of ``_best(q)(token)``, computed
    once per distinct token.  The same question gets the last binding again.
    ``score(q, label)`` is ``for_question(q)(label)``.
    """

    _last: tuple[str, Callable[[str], float]] | None = None

    def for_question(self, question: str) -> Callable[[str], float]:
        last = self._last
        if last is None or last[0] != question:
            best = self._best(question)
            memo: dict[str, float] = {}

            def score(label: str) -> float:
                tokens = _label_tokens(label)
                if not tokens:
                    return 0.0
                total = 0.0
                for token in tokens:
                    value = memo.get(token)
                    if value is None:
                        value = memo[token] = best(token)
                    total += value
                return total / len(tokens)

            last = self._last = (question, score)
        return last[1]

    # perfbench/tracing.py wraps TrigramSimilarity.score; keep it.
    def score(self, question: str, label: str) -> float:
        return self.for_question(question)(label)

    def _best(self, question: str) -> Callable[[str], float]:
        """A function giving a label token's best match in ``question``."""
        raise NotImplementedError


class TrigramSimilarity(Similarity):
    """Character-trigram cosine; max over question tokens, mean over label."""

    def _best(self, question: str) -> Callable[[str], float]:
        # gram -> the index of each distinct question token holding it, once
        # per occurrence, and each token's norm.  A repeated token has the
        # same cosine as its first occurrence, so it is left out.
        postings: dict[str, list[int]] = {}
        norms: list[float] = []
        for index, token in enumerate(dict.fromkeys(question_tokens(question))):
            grams = _grams(token)
            for gram in grams:
                postings.setdefault(gram, []).append(index)
            # A gram occurring once counts 1, so distinct grams need no Counter.
            distinct = len(set(grams)) == len(grams)
            norms.append(math.sqrt(len(grams)) if distinct else _norm(Counter(grams).values()))

        def best(token: str) -> float:
            items, norm = _label_grams(token)
            # The dot products are exact ints: each posting adds the label's
            # count once per occurrence of the gram in the question token.
            dots: dict[int, int] = {}
            for gram, count in items:
                for index in postings.get(gram, ()):
                    dots[index] = dots.get(index, 0) + count
            if not dots:
                return 0.0  # no question token shares a gram
            return max(dot / (norm * norms[i]) for i, dot in dots.items())

        return best


class WordVectorSimilarity(Similarity):
    """Same scoring scheme over vectors from a word2vec-style text file.

    Each line is ``word v1 v2 ...`` of finite values; a numeric header line is skipped.
    Out-of-vocabulary tokens contribute zero.
    """

    def __init__(self, vectors: dict[str, list[float]]):
        self.vectors = vectors

    @classmethod
    def load(cls, source: str | IO[str] | Iterable[str]) -> "WordVectorSimilarity":
        vectors: dict[str, list[float]] = {}

        def parse(line: str) -> tuple[str, list[float]] | None:
            parts = line.split()
            if len(parts) < 2 or len(parts) == 2 and parts[0].isdigit() and parts[1].isdigit():
                return None  # a lone word, or the word2vec header: vocab size, dimension
            vector = [float(x) for x in parts[1:]]
            if not all(map(math.isfinite, vector)):
                raise ValueError(f"{parts[0]!r} has a value that is not a finite number")
            dimension = len(next(iter(vectors.values()), vector))
            if len(vector) != dimension:
                raise ValueError(f"{len(vector)} values, expected {dimension}")
            return parts[0].lower(), vector

        for word, vector in read_lines(source, "vectors", parse):
            vectors[word] = vector
        return cls(vectors)

    def _best(self, question: str) -> Callable[[str], float]:
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

        return best


def _norm(vector: Iterable[float]) -> float:
    return math.sqrt(sum(x * x for x in vector))


def _vector_cosine(a: list[float], norm_a: float, b: list[float], norm_b: float) -> float:
    if len(a) != len(b):
        return 0.0
    dot = sum(x * y for x, y in zip(a, b))
    if norm_a == 0 or norm_b == 0:
        return 0.0
    return dot / (norm_a * norm_b)


DEFAULT_SIMILARITY = TrigramSimilarity()
