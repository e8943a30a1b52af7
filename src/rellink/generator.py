"""Sources of ranked output sequences: fixture replay, remote client, baseline.

The baseline synthesizes beams from the encoder input alone, pairing each
entity mention with its candidate relation labels; it exists so the whole
pipeline runs with no network and no trained model.  It searches the label
combinations best-first, so its work grows with the beams it returns, not
with the number of combinations.  All kinds return beams by descending
score; the remote and baseline kinds break ties by text, and fixture replay
keeps file order among equal scores.
"""

from __future__ import annotations

import heapq
import logging
import math
import os
import threading
from dataclasses import dataclass
from functools import reduce
from operator import add
from pathlib import Path
from typing import IO, Iterable

from .knowledge_integration import EncoderInput
from .sequence_grammar import OutputSequence, render_group, serialize_target
from .terms import RECORD_ERRORS, expect, json_record, open_input, read_lines

logger = logging.getLogger(__name__)

GENERATOR_KINDS = ("fixture", "remote", "baseline")
DEFAULT_BEAM_WIDTH = 50


class GeneratorError(Exception):
    """Remote transport or protocol failure, or bad configuration."""


@dataclass
class GeneratorConfig:
    kind: str = "baseline"
    beam_width: int = DEFAULT_BEAM_WIDTH
    fixture_path: str | Path | None = None
    endpoint: str | None = None
    timeout: float = 30.0

    def __post_init__(self):
        if self.kind not in GENERATOR_KINDS:
            raise GeneratorError(f"unknown generator kind {self.kind!r}")
        if self.beam_width < 1:
            raise GeneratorError("beam_width must be >= 1")
        if not self.timeout > 0:
            raise GeneratorError("timeout must be > 0")
        # A longer wait overflows the socket layer on every request.
        if self.timeout > threading.TIMEOUT_MAX:
            raise GeneratorError(f"timeout must be <= {threading.TIMEOUT_MAX:.0f}")
        if self.kind == "fixture":
            if self.fixture_path is None or not os.access(self.fixture_path, os.R_OK):
                raise GeneratorError(f"fixture path not readable: {self.fixture_path}")
        if self.kind == "remote" and not self.endpoint:
            raise GeneratorError("remote generator requires an endpoint")


def _ranked(raw: Iterable[tuple[str, float]], width: int) -> list[OutputSequence]:
    """The top ``width`` beams by descending score.  The sort is stable, so
    input order ranks equal scores: callers pass text-sorted input to break
    ties by text."""
    ordered = sorted(raw, key=lambda pair: -pair[1])[:width]
    return [OutputSequence(text, score, i + 1) for i, (text, score) in enumerate(ordered)]


def _beam(raw: object) -> tuple[str, float]:
    """One beam object as (text, score).  The score must be a JSON number: a
    string or a bool is rejected, not converted.  NaN has no place in the
    ranking and no log-probability is ``+Infinity``, so both are rejected;
    ``-Infinity`` is a log-probability and is kept."""
    raw = expect(raw, dict, "beam")
    score = float(expect(raw["score"], (int, float), "beam score"))
    if math.isnan(score):
        raise ValueError("beam score is NaN")
    if score == math.inf:
        raise ValueError("beam score is +Infinity")
    return expect(raw["text"], str, "beam text"), score


def read_beam_fixture(source: IO[str] | Iterable[str]) -> dict[str, list[tuple[str, float]]]:
    """Beam fixture JSON Lines: question_id to (text, score) lists."""
    beams: dict[str, list[tuple[str, float]]] = {}

    def parse(line: str) -> tuple[str, list[tuple[str, float]]]:
        qid, raw = json_record(line, beams)
        return qid, [_beam(b) for b in expect(raw["beams"], list, "beams")]

    for qid, ranked in read_lines(source, "beam fixture", parse, GeneratorError):
        beams[qid] = ranked
    return beams


class FixtureGenerator:
    """Replays pre-recorded beams keyed by question id."""

    def __init__(self, path: str | Path, beam_width: int = DEFAULT_BEAM_WIDTH):
        with open_input(path) as handle:
            self._beams = read_beam_fixture(handle)
        self.beam_width = beam_width

    def generate(self, enc: EncoderInput, question_id: str | None = None) -> list[OutputSequence]:
        # ``enc`` is never read, so its relations are never ranked.
        if question_id not in self._beams:
            logger.warning("no fixture beams for question %r", question_id)
            return []
        # File order ranks equal scores.
        return _ranked(self._beams[question_id], self.beam_width)


class RemoteGenerator:
    """POSTs the rendered input to a model server and maps the JSON reply.

    One HTTP session lives as long as the generator, so the questions of a
    run share a keep-alive connection.  ``requests`` is imported here, not at
    module level: no other generator and no other command needs it.
    """

    def __init__(self, endpoint: str, beam_width: int = DEFAULT_BEAM_WIDTH, timeout: float = 30.0):
        try:
            import requests
        except ImportError as exc:
            raise GeneratorError(f"remote generator needs the requests package: {exc}") from None
        self.endpoint = endpoint
        self.beam_width = beam_width
        self.timeout = timeout
        self._session = requests.Session()

    def generate(self, enc: EncoderInput, question_id: str | None = None) -> list[OutputSequence]:
        # Reading ``rendered`` may rank and fit the input; a fault there is
        # not a remote one, so it stays outside the ``try``.
        payload = {"input": enc.rendered, "beams": self.beam_width}
        import requests  # loaded by __init__, so this is a lookup

        try:
            reply = self._session.post(self.endpoint, json=payload, timeout=self.timeout)
            reply.raise_for_status()
            body = expect(reply.json(), dict, "reply")
            raw = [_beam(s) for s in expect(body["sequences"], list, "sequences")]
        except (requests.RequestException, *RECORD_ERRORS) as exc:
            raise GeneratorError(f"remote generation failed: {exc}") from None
        return _ranked(sorted(raw), self.beam_width)


def _best_first(choices: list[list[tuple[str, float]]], width: int) -> list[OutputSequence]:
    """The top ``width`` combinations of one ``(group, score)`` per choice
    list, as :func:`_ranked` would order all of them: by descending score,
    the combination's scores added left to right, ties broken by text.

    A node is a prefix of a combination, keyed by (-bound, groups so far),
    and carries its running total.  Its bound is that total plus each
    remaining list's best score, added left to right.  Float addition is
    monotone in each argument, so the bound is at least every completion's
    total, and a child's key never precedes its parent's: complete nodes pop
    in order.  No group is a proper prefix of another, so among equal totals
    the order of group tuples is the order of texts.  The builtin ``sum``
    compensates float rounding from CPython 3.12 on, so it would rank exact
    ties by interpreter.
    """
    best = tuple(max(score for _, score in options) for options in choices)
    heap: list[tuple[float, tuple[str, ...], float]] = [(-reduce(add, best, 0), (), 0)]
    beams: list[OutputSequence] = []
    while heap and len(beams) < width:
        _, groups, total = heapq.heappop(heap)
        depth = len(groups)
        if depth == len(choices):
            beams.append(OutputSequence(serialize_target(groups), total, len(beams) + 1))
            continue
        rest = best[depth + 1 :]
        for group, score in choices[depth]:
            taken = total + score
            heapq.heappush(heap, (-reduce(add, rest, taken), (*groups, group), taken))
    return beams


class BaselineGenerator:
    """Deterministic lexical stand-in for a trained sequence model.

    Takes the top-k candidate labels per entity (k chosen so the product can
    reach the beam width), scores each combination by the sum of its labels'
    similarities to the question, and returns the best ``beam_width`` of
    them without building the rest.  Each label's similarity is read from
    its entity structure, where the ranking left it.
    """

    def __init__(self, beam_width: int = DEFAULT_BEAM_WIDTH):
        self.beam_width = beam_width

    def generate(self, enc: EncoderInput, question_id: str | None = None) -> list[OutputSequence]:
        structures = [s for s in enc.structures if s.relations]
        if not structures:
            return []
        # Past the longest list a larger k takes no more labels.
        longest = max(len(s.relations) for s in structures)
        k = 1
        while k < longest and k ** len(structures) < self.beam_width:
            k += 1
        choices = [
            [(render_group(s.mention, label), score)
             for label, score in zip(s.relations[:k], s.scores)]
            for s in structures
        ]
        return _best_first(choices, self.beam_width)


Generator = FixtureGenerator | RemoteGenerator | BaselineGenerator


# ``similarity`` is unused; perfbench/worker.py still passes it positionally.
def make_generator(config: GeneratorConfig, similarity=None) -> Generator:
    if config.kind == "fixture":
        assert config.fixture_path is not None
        return FixtureGenerator(config.fixture_path, config.beam_width)
    if config.kind == "remote":
        assert config.endpoint is not None
        return RemoteGenerator(config.endpoint, config.beam_width, config.timeout)
    return BaselineGenerator(config.beam_width)
