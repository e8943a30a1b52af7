"""Lexical similarity scorers for ranking candidate relation labels.

The default scorer compares character trigrams: each label token is scored by
its best cosine match against any question token, and the token scores are
averaged over the label.  An alternative scorer reads a word-vector text file
and applies the same max-then-average scheme over embeddings.

A scorer is bound to one question with ``for_question``: the question's
vectors and norms are built once, and each label token's best match is
cached for the life of the bound scorer only; the scorer itself keeps no
per-question state.  The encoder input binds once per question and keeps
each ranked label's score, so no label is scored twice.  Work that depends on
a label alone is done once per process, in two bounded caches: a label's
tokens and set of trigrams, and a label token's trigrams and norm.  Question
tokens are not cached: a question is mostly seen once, so its tokens would
only evict label tokens.

The trigram scorer filters by count, as similarity joins do: a label none of
whose trigrams occurs in the question scores exactly 0.0 (each of its tokens
has no match, so the mean is 0.0), so one set test settles it and the
per-token scoring runs only for labels that share a trigram.  Most candidate
relations of an entity share none with its question.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from functools import cache, lru_cache
from itertools import count
from typing import IO, AbstractSet, Callable, Iterable

from .terms import read_lines

_CAMEL_RE = re.compile(r"(?<=[a-z0-9])(?=[A-Z])|(?<=[A-Z])(?=[A-Z][a-z])")
_WORD_RE = re.compile(r"[A-Za-z0-9]+")
_TRIGRAM_RE = re.compile(r"(?=(...))")
# Entries in each of the label and token caches.  A KB's relation labels
# share a small vocabulary; the bound keeps memory flat when they do not.
_LABEL_CACHE = 1 << 14


def split_label(label: str) -> list[str]:
    """Lowercased word tokens of a relation label; camelCase is split."""
    spaced = _CAMEL_RE.sub(" ", label)
    return [w.lower() for w in _WORD_RE.findall(spaced)]


@lru_cache(maxsize=_LABEL_CACHE)
def _label(label: str) -> tuple[tuple[str, ...], frozenset[str]]:
    """A label's tokens and every trigram of them; no token, no trigram."""
    tokens = tuple(split_label(label))
    return tokens, frozenset(gram for token in tokens for gram in _grams(token))


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
    label scores the mean over its tokens of ``best(token)``, computed once
    per distinct token and binding, where ``best, grams = _best(q)``.  A
    label whose trigrams are disjoint from ``grams`` scores 0.0 without
    calling ``best``; ``grams`` is None when any token may match.
    ``score(q, label)`` is ``for_question(q)(label)``.
    """

    def for_question(self, question: str) -> Callable[[str], float]:
        best, grams = self._best(question)
        best = cache(best)

        def score(label: str) -> float:
            tokens, label_grams = _label(label)
            if not tokens or (grams is not None and grams.isdisjoint(label_grams)):
                return 0.0
            total = 0.0
            for token in tokens:
                total += best(token)
            return total / len(tokens)

        return score

    # perfbench/tracing.py wraps TrigramSimilarity.score; keep it.
    def score(self, question: str, label: str) -> float:
        return self.for_question(question)(label)

    def _best(self, question: str) -> tuple[Callable[[str], float], AbstractSet[str] | None]:
        """A function giving a label token's best match in ``question``, and
        the trigrams a token must share with ``question`` to score above 0,
        or None."""
        raise NotImplementedError


class TrigramSimilarity(Similarity):
    """Character-trigram cosine; max over question tokens, mean over label."""

    def _best(self, question: str) -> tuple[Callable[[str], float], AbstractSet[str]]:
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

        return best, postings.keys()


class WordVectorSimilarity(Similarity):
    """Same scoring scheme over vectors from a word2vec-style text file.

    Each line is ``word v1 v2 ...`` of finite values after an optional first-line
    ``count dimension`` header, which the lines must then match.
    Out-of-vocabulary tokens contribute zero.
    """

    def __init__(self, vectors: dict[str, list[float]]):
        self.vectors = vectors

    @classmethod
    def load(cls, source: str | IO[str] | Iterable[str]) -> "WordVectorSimilarity":
        vectors: dict[str, list[float]] = {}
        parsed = count()
        # The word2vec header's vocab size, dimension and line number.
        header: list[int] = []

        def parse(line: str, lineno: int) -> tuple[str, list[float]] | None:
            parts = line.split()
            if next(parsed) == 0 and len(parts) == 2 and parts[0].isdecimal() and parts[1].isdecimal():
                header[:] = [*map(int, parts), lineno]  # first line only
                return None
            vector = [float(x) for x in parts[1:]]
            if not vector:
                raise ValueError(f"{parts[0]!r} has no values")
            if not all(map(math.isfinite, vector)):
                raise ValueError(f"{parts[0]!r} has a value that is not a finite number")
            dimension = header[1] if header else len(next(iter(vectors.values()), vector))
            if len(vector) != dimension:
                raise ValueError(f"{len(vector)} values, expected {dimension}")
            return parts[0].lower(), vector

        for word, vector in read_lines(source, "vectors", parse, numbered=True):
            vectors[word] = vector
        # Lines, not distinct words: a word may repeat, in any case.
        lines = next(parsed) - 1
        if header and lines != header[0]:
            raise ValueError(f"vectors line {header[2]}: header counts {header[0]} words, file has {lines}")
        return cls(vectors)

    def _best(self, question: str) -> tuple[Callable[[str], float], None]:
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

        return best, None


def _norm(vector: Iterable[float]) -> float:
    """Added left to right, as is ``_vector_cosine``'s dot product: the builtin
    ``sum`` compensates float rounding from CPython 3.12 on, so a word-vector
    score, and with it a ranking, would differ by interpreter."""
    total = 0.0
    for x in vector:
        total += x * x
    return math.sqrt(total)


def _vector_cosine(a: list[float], norm_a: float, b: list[float], norm_b: float) -> float:
    if len(a) != len(b):
        return 0.0
    dot = 0.0
    for x, y in zip(a, b):
        dot += x * y
    if norm_a == 0 or norm_b == 0:
        return 0.0
    return dot / (norm_a * norm_b)


DEFAULT_SIMILARITY = TrigramSimilarity()
