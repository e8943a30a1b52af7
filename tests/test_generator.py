"""Fixture replay, the lexical baseline, and the remote client protocol."""

from __future__ import annotations

import hashlib
import json
import math
import random
import sys
import threading
from collections import Counter
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from itertools import product

import pytest
import requests

import rellink.generator as generator_module
from conftest import DBO, DBR, FORD_QUESTION, nt, ref_render_input
from rellink import brackets, knowledge_integration
from rellink.cli import main
from rellink.generator import (
    BaselineGenerator,
    FixtureGenerator,
    GeneratorConfig,
    GeneratorError,
    RemoteGenerator,
    _ranked,
    make_generator,
    read_beam_fixture,
)
from rellink.knowledge_integration import (
    EncoderInput,
    EntityStructure,
    build_encoder_input,
    rank_candidate_relations,
)
from rellink.sequence_grammar import OutputSequence, serialize_target
from rellink.similarity import Similarity, TrigramSimilarity, WordVectorSimilarity
from test_knowledge_integration import _outcome, _random_case, _read, _ref_shrink, _structure


def enc_input(question: str, structures=()) -> EncoderInput:
    structures = list(structures)
    return EncoderInput(question, lambda: (structures, question))


def ranked_input(question: str, mentions, similarity: Similarity | None = None) -> EncoderInput:
    """An input whose structures rank each (mention, labels) pair's labels,
    and carry their scores, as the encoder input does."""
    score = (similarity or TrigramSimilarity()).for_question(question)
    return enc_input(question, [
        EntityStructure(mention, None, *rank_candidate_relations(labels, score))
        for mention, labels in mentions
    ])


class TestGeneratorConfig:
    def test_rejects_unknown_kind(self):
        with pytest.raises(GeneratorError):
            GeneratorConfig(kind="oracle")

    def test_rejects_zero_beam_width(self):
        with pytest.raises(GeneratorError):
            GeneratorConfig(beam_width=0)

    @pytest.mark.parametrize("timeout", [0.0, -1.0, float("nan")])
    def test_rejects_timeout_not_above_zero(self, timeout):
        with pytest.raises(GeneratorError, match="^timeout must be > 0$"):
            GeneratorConfig(timeout=timeout)

    @pytest.mark.parametrize("timeout", [math.inf, 1e10, math.nextafter(threading.TIMEOUT_MAX, math.inf)])
    def test_rejects_timeout_past_the_socket_limit(self, timeout):
        # The socket layer overflows on such a wait, so every request would fail.
        with pytest.raises(GeneratorError, match=f"^timeout must be <= {threading.TIMEOUT_MAX:.0f}$"):
            GeneratorConfig(timeout=timeout)

    def test_accepts_the_longest_timeout(self):
        assert GeneratorConfig(timeout=threading.TIMEOUT_MAX).timeout == threading.TIMEOUT_MAX

    def test_fixture_requires_readable_path(self, tmp_path):
        with pytest.raises(GeneratorError):
            GeneratorConfig(kind="fixture", fixture_path=tmp_path / "absent.jsonl")

    def test_remote_requires_endpoint(self):
        with pytest.raises(GeneratorError):
            GeneratorConfig(kind="remote")


class TestFixtureGenerator:
    def write_fixture(self, tmp_path, beams):
        path = tmp_path / "beams.jsonl"
        record = {"question_id": "q1", "beams": beams}
        path.write_text(json.dumps(record) + "\n")
        return path

    def test_replays_in_file_order(self, tmp_path):
        path = self.write_fixture(
            tmp_path,
            [{"text": "[A | r1]", "score": -0.1}, {"text": "[A | r2]", "score": -0.5}],
        )
        beams = FixtureGenerator(path).generate(enc_input("q"), "q1")
        assert [b.text for b in beams] == ["[A | r1]", "[A | r2]"]
        assert [b.rank for b in beams] == [1, 2]

    def test_missing_question_id_empty(self, tmp_path, caplog):
        path = self.write_fixture(tmp_path, [{"text": "[A | r]", "score": -1.0}])
        beams = FixtureGenerator(path).generate(enc_input("q"), "q-other")
        assert beams == []

    def test_width_truncates(self, tmp_path):
        path = self.write_fixture(
            tmp_path,
            [{"text": f"[A | r{i}]", "score": -float(i)} for i in range(5)],
        )
        beams = FixtureGenerator(path, beam_width=2).generate(enc_input("q"), "q1")
        assert len(beams) == 2

    def test_duplicate_question_id(self, tmp_path):
        path = tmp_path / "beams.jsonl"
        path.write_text(
            '{"question_id": "q1", "beams": []}\n'
            '{"question_id": "q1", "beams": [{"text": "[A | r]", "score": 0}]}\n'
        )
        with path.open() as handle, pytest.raises(
            GeneratorError, match="^beam fixture line 2: duplicate question_id 'q1'$"
        ):
            read_beam_fixture(handle)

    def test_malformed_fixture(self, tmp_path):
        path = tmp_path / "beams.jsonl"
        path.write_text('{"question_id": "q1"}\n')
        with path.open() as handle, pytest.raises(GeneratorError, match="line 1"):
            read_beam_fixture(handle)

    def test_nan_score_is_located(self, tmp_path):
        # json reads a bare NaN; one NaN beam would break the descending sort.
        path = tmp_path / "beams.jsonl"
        path.write_text(
            '{"question_id": "q1", "beams": [{"text": "[a | low]", "score": 1.0}]}\n'
            '{"question_id": "q2", "beams": [{"text": "[a | low]", "score": 1.0},'
            ' {"text": "[a | bad]", "score": NaN}, {"text": "[a | high]", "score": 2.0}]}\n'
        )
        with pytest.raises(GeneratorError, match="^beam fixture line 2: beam score is NaN$"):
            FixtureGenerator(path)

    @pytest.mark.parametrize(
        "score, shown", [('"1e3"', "'1e3'"), ("true", "True")], ids=["string", "bool"]
    )
    def test_score_must_be_a_json_number(self, tmp_path, score, shown):
        # float() would read "1e3" as 1000.0 and true as 1.0.
        path = tmp_path / "beams.jsonl"
        path.write_text('{"question_id": "q1", "beams": [{"text": "[a | r]", "score": %s}]}\n' % score)
        with pytest.raises(
            GeneratorError, match=f"^beam fixture line 1: beam score must be a number, got {shown}$"
        ):
            FixtureGenerator(path)

    def test_negative_infinity_score_ranks_last(self, tmp_path):
        path = self.write_fixture(
            tmp_path,
            [{"text": "[A | never]", "score": float("-inf")}, {"text": "[A | r]", "score": -9.0}],
        )
        beams = FixtureGenerator(path).generate(enc_input("q"), "q1")
        assert beams == [
            OutputSequence("[A | r]", -9.0, 1),
            OutputSequence("[A | never]", float("-inf"), 2),
        ]


class TestBaselineGenerator:
    def test_single_entity_ranked_relations(self):
        enc = ranked_input("q", [("m", ["r1", "r2"])])
        beams = BaselineGenerator(beam_width=2).generate(enc)
        assert [b.text for b in beams] == ["[m | r1]", "[m | r2]"]

    def test_top_beam_pairs_top_relations(self, ford_store, ford_entities):
        from rellink.knowledge_integration import build_encoder_input
        from conftest import FORD_QUESTION

        enc = build_encoder_input(ford_store, FORD_QUESTION, ford_entities)
        beams = BaselineGenerator(beam_width=4).generate(enc)
        top = beams[0].text
        assert "[Ford Kansas City Assembly Plant | owningOrganisation]" in top
        assert "[Ford Y-block engine | manufacturer]" in top

    def test_product_scores_descending(self):
        # Hand-computed: label scores against "alpha beta" are
        # alpha=1, beta=1, gamma=0, delta=0, so products rank by sum.
        enc = ranked_input("alpha beta", [("A", ["alpha", "gamma"]), ("B", ["beta", "delta"])])
        beams = BaselineGenerator(beam_width=4).generate(enc)
        assert beams[0].text == "[A | alpha], [B | beta]"
        assert {beams[1].text, beams[2].text} == {
            "[A | alpha], [B | delta]",
            "[A | gamma], [B | beta]",
        }
        assert beams[3].text == "[A | gamma], [B | delta]"
        scores = [b.score for b in beams]
        assert scores == sorted(scores, reverse=True)

    def test_zero_entities_empty(self):
        assert BaselineGenerator().generate(enc_input("q", [])) == []

    def test_entities_without_candidates_skipped(self):
        enc = ranked_input("q", [("A", []), ("B", ["r"])])
        beams = BaselineGenerator(beam_width=2).generate(enc)
        assert beams[0].text == "[B | r]"

    def test_width_never_exceeded(self):
        enc = ranked_input("q", [(m, [f"{m}{i}" for i in range(10)]) for m in "AB"])
        beams = BaselineGenerator(beam_width=7).generate(enc)
        assert len(beams) == 7

    def test_deterministic(self):
        enc = ranked_input("q", [("A", ["r1", "r2"]), ("B", ["s"])])
        first = BaselineGenerator(beam_width=5).generate(enc)
        second = BaselineGenerator(beam_width=5).generate(enc)
        assert first == second

    def test_each_label_scored_once(self, monkeypatch):
        # Over building and generating, each question binds one scorer and
        # scores each distinct candidate label once, however many of its
        # entities share the label; the generator scores nothing.
        binds, scored = [], Counter()
        bind = Similarity.for_question

        def for_question(sim, question):
            binds.append(question)
            bound = bind(sim, question)
            return lambda label: scored.update([label]) or bound(label)

        rng = random.Random(5)
        words = ["birth", "place", "of", "year", "x", "a", "b", "c"]
        vectors = WordVectorSimilarity({w: [rng.uniform(-1, 1) for _ in range(3)] for w in words})
        shared = 0
        for seed in range(100):
            store, question, entities = _random_case(random.Random(seed))
            candidates = [set(_structure(store, question, e).relations) for e in entities]
            shared += any(a & b for i, a in enumerate(candidates) for b in candidates[i + 1 :])
            once = Counter(set().union(*candidates))
            for sim in (TrigramSimilarity(), vectors):
                with monkeypatch.context() as patch:
                    patch.setattr(Similarity, "for_question", for_question)
                    enc = build_encoder_input(store, question, entities, 10**6, sim)
                    structures = enc.structures
                    assert binds == [question] and scored == once
                    beams = BaselineGenerator(beam_width=9).generate(enc)
                    assert binds == [question] and scored == once
                expected = ReferenceBaselineGenerator(9, sim).generate(enc_input(question, structures))
                assert beams == expected
                binds.clear()
                scored.clear()
        assert shared >= 10, shared

    @pytest.mark.parametrize("lengths", [(3,), (3, 2)])
    def test_huge_width_costs_no_more_than_every_combination(self, lengths):
        # k stops at the longest list: past it a larger k takes no more labels.
        enc = ranked_input("birth place", [
            (f"E{i}", ["birthPlace", "deathPlace", "spouse"][:n]) for i, n in enumerate(lengths)
        ])
        beams = BaselineGenerator(beam_width=10**9).generate(enc)
        assert beams == BaselineGenerator(beam_width=10**5).generate(enc)
        assert len(beams) == math.prod(lengths)

    def test_wide_question_serializes_only_the_kept_beams(self, monkeypatch):
        serialized = []
        real = generator_module.serialize_target
        monkeypatch.setattr(
            generator_module, "serialize_target", lambda groups: serialized.append(groups) or real(groups)
        )
        # 20 entities with tied labels: k = 2 gives 2 ** 20 combinations, and
        # text ranks them as the binary numerals over the entities, b = 1.
        enc = ranked_input("q", [(f"E{i}", ["a", "b", "c"]) for i in range(20)], _Tied())
        beams = BaselineGenerator(50).generate(enc)
        assert [b.text for b in beams] == [
            ", ".join(f"[E{j} | {'ab'[(i >> (19 - j)) & 1]}]" for j in range(20)) for i in range(50)
        ]
        assert len(serialized) == 50


# -- the baseline against the generator it replaced ---------------------------
#
# Reference: the earlier baseline and its serializer, kept verbatim but for the
# serializer's name and the constructor the baseline no longer has, which
# built an ArgRelPair for every pair of every combination, escaped each
# mention and label again per combination, and scored the labels with its
# own similarity.  Beams must match in text, score and rank.  The pair
# classes it built are local stand-ins holding the fields it read; parsing
# yields (argument, label) tuples.


@dataclass(frozen=True)
class EntityArg:
    mention: str


@dataclass(frozen=True)
class PlaceholderArg:
    wh_term: str


Argument = EntityArg | PlaceholderArg


@dataclass(frozen=True)
class ArgRelPair:
    argument: Argument
    relation_label: str


def _ref_argument_text(argument: Argument) -> str:
    if isinstance(argument, PlaceholderArg):
        return argument.wh_term
    return argument.mention


def _ref_serialize_target(pairs: list[ArgRelPair]) -> str:
    if not pairs:
        raise ValueError("cannot serialize an empty pair list")
    rendered = []
    for pair in pairs:
        arg = brackets.escape(_ref_argument_text(pair.argument))
        rel = brackets.escape(pair.relation_label)
        rendered.append(f"[{arg} | {rel}]")
    return ", ".join(rendered)


class ReferenceBaselineGenerator:
    def __init__(self, beam_width: int, similarity: Similarity):
        self.beam_width = beam_width
        self.similarity = similarity

    def generate(self, enc: EncoderInput, question_id: str | None = None) -> list[OutputSequence]:
        structures = [s for s in enc.structures if s.relations]
        if not structures:
            return []
        k = 1
        while k ** len(structures) < self.beam_width:
            k += 1
        choices = [
            [(s.mention, label) for label in s.relations[:k]] for s in structures
        ]
        # Score each distinct label once; a combination sums its labels' scores.
        score_of = self.similarity.for_question(enc.question)
        labels = {label for options in choices for _, label in options}
        scores = {label: score_of(label) for label in labels}
        raw = []
        for combo in product(*choices):
            pairs = [ArgRelPair(EntityArg(mention), label) for mention, label in combo]
            # Added left to right, as the builtin ``sum`` does before CPython
            # 3.12, so the expected bytes are the same on every interpreter.
            score = 0
            for _, label in combo:
                score += scores[label]
            raw.append((_ref_serialize_target(pairs), score))
        return _ranked(sorted(raw), self.beam_width)


class _Tied(Similarity):
    """Every label scores alike, so text alone orders the beams."""

    def for_question(self, question):
        return lambda label: 0.1


# Reserved characters, spaces and few letters, so texts share prefixes and
# the trigram scorer ties some labels; labels come from a small per-question
# pool, so entities share them.
_WORDS = ["birth", "place", "of", "a", "ab", "ba", "x"]
_RESERVED = "\\[]|,"


def _random_text(rng: random.Random) -> str:
    parts = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.35:
            parts.append(rng.choice(_RESERVED) * rng.randint(1, 2))
        else:
            parts.append(rng.choice(_WORDS))
    return rng.choice(["", " "]).join(parts)


def _random_input(rng: random.Random) -> tuple[str, list[tuple[str, list[str]]]]:
    """A question and its mentions, each with its candidate labels."""
    question = " ".join(rng.choice(_WORDS) for _ in range(rng.randint(1, 6)))
    pool = sorted({_random_text(rng) for _ in range(rng.randint(1, 12))})
    mentions = [
        (_random_text(rng), rng.sample(pool, rng.randint(0, min(8, len(pool)))))
        for _ in range(rng.randint(0, 8))
    ]
    return question, mentions


def test_baseline_matches_reference():
    rng = random.Random(17)
    shared = truncated = whole = 0
    escaped = Counter()
    for _ in range(500):
        question, mentions = _random_input(rng)
        labels = [set(candidates) for _, candidates in mentions]
        shared += any(a & b for i, a in enumerate(labels) for b in labels[i + 1 :])
        lengths = [len(candidates) for candidates in labels if candidates]
        # Every label is taken, and no beam cut, once longest ** n reaches the
        # width; the reference's k rule would count up to 10**9 to see that.
        every = max(lengths, default=1) ** len(lengths)
        widths = [1, 3, 7, 50]
        if math.prod(lengths) <= 512:
            widths.append(10**9)
            whole += len(lengths) >= 5
        for similarity in (TrigramSimilarity(), _Tied()):
            enc = ranked_input(question, mentions, similarity)
            for width in widths:
                beams = BaselineGenerator(width).generate(enc)
                expected = ReferenceBaselineGenerator(min(width, every), similarity).generate(enc)
                assert beams == expected, (question, mentions, width)
                truncated += len(beams) == width
                escaped.update(c for b in beams for c in _RESERVED if "\\" + c in b.text)
    assert shared >= 100, shared
    assert truncated >= 500, truncated
    assert whole >= 50, whole
    assert set(escaped) == set(_RESERVED), escaped


# Each push comes from expanding a popped prefix, which pushes one child per
# label of the next list.  Only a proper prefix of a returned beam is
# expanded, and ``width`` beams of n groups have at most 1 + (n - 1) * width
# distinct proper prefixes: so at most labels * (1 + (n - 1) * width) pushes.
@pytest.mark.parametrize("n", [2, 4, 8])
@pytest.mark.parametrize("tied", [True, False], ids=["tied", "random"])
def test_best_first_pushes_are_linear_in_width(monkeypatch, n, tied):
    labels = 20
    rng = random.Random(n)
    choices = [
        [(f"[E{i} | l{j:02d}]", 0.0 if tied else -rng.random()) for j in range(labels)]
        for i in range(n)
    ]
    push = generator_module.heapq.heappush
    expanded = set()

    def counting(heap, item):
        expanded.add(item[1][:-1])
        counts[-1] += 1
        push(heap, item)

    monkeypatch.setattr(generator_module.heapq, "heappush", counting)
    counts = []
    for width in (10, 20, 40, 80, 160):
        counts.append(0)
        beams = generator_module._best_first(choices, width)
        assert len(beams) == width
        prefixes = {tuple(b.text.split(", "))[:d] for b in beams for d in range(n)}
        assert expanded <= prefixes, (width, expanded - prefixes)
        assert counts[-1] <= labels * (1 + (n - 1) * width), (width, counts)
        expanded.clear()
    # A product of every list would push labels ** n nodes whatever the width.
    assert counts[-1] < labels**n


def test_best_first_adds_left_to_right():
    # 0.3 + 0.2 + 0.1 is 0.6 but 0.1 + 0.2 + 0.3 is 0.6000000000000001, so
    # the later text ranks first; a compensated sum would tie them at 0.6.
    choices = [
        [("[a | p]", 0.3), ("[a | q]", 0.1)],
        [("[b | r]", 0.2)],
        [("[c | s]", 0.1), ("[c | t]", 0.3)],
    ]
    beams = generator_module._best_first(choices, 4)
    assert [(b.text, b.score) for b in beams] == [
        ("[a | p], [b | r], [c | t]", 0.8),
        ("[a | q], [b | r], [c | t]", 0.6000000000000001),
        ("[a | p], [b | r], [c | s]", 0.6),
        ("[a | q], [b | r], [c | s]", 0.4),
    ]


def test_best_first_breaks_a_rounding_tie_by_text():
    # 0.5 - 2**-54 is below 0.5, yet 1.0 plus either rounds to 1.5: the totals
    # tie, so text ranks "[b | y]" first although its list scores it lower.
    # A successor scheme over score-sorted lists would pop "[b | z]" first.
    choices = [[("[a | x]", 1.0)], [("[b | z]", 0.5), ("[b | y]", 0.5 - 2**-54)]]
    expected = [OutputSequence("[a | x], [b | y]", 1.5, 1), OutputSequence("[a | x], [b | z]", 1.5, 2)]
    assert generator_module._best_first(choices, 2) == expected
    every = sorted((serialize_target((a, b)), sa + sb) for (a, sa), (b, sb) in product(*choices))
    assert _ranked(every, 2) == expected


# Recorded under CPython 3.11, where the builtin ``sum`` adds left to right;
# it must hold on every interpreter.
TIED_BEAMS_SHA256 = "aa70b36a95a9c95c896870401a89476e7d099ada6d13de58b49b38791f78e950"


def test_best_first_bytes_do_not_depend_on_the_interpreter():
    """Seeded inputs whose scores come from a few one-decimal floats, so many
    combinations have equal exact sums that float rounding splits."""
    pool = [0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 0.9]
    digest = hashlib.sha256()
    for seed in range(300):
        rng = random.Random(seed)
        choices = [
            [(f"[e{i} | {label}]", rng.choice(pool)) for label in rng.sample("pqrstu", rng.randint(1, 4))]
            for i in range(rng.randint(2, 4))
        ]
        beams = generator_module._best_first(choices, rng.choice([1, 3, 10, 50]))
        for b in beams:
            digest.update(f"{seed}\t{b.rank}\t{b.text}\t{b.score!r}\n".encode())
    assert digest.hexdigest() == TIED_BEAMS_SHA256


class _FakeResponse:
    def __init__(self, payload, status=200):
        self._payload = payload
        self.status_code = status

    def raise_for_status(self):
        if self.status_code >= 400:
            raise requests.HTTPError("boom")

    def json(self):
        if isinstance(self._payload, Exception):
            raise self._payload
        return self._payload


class TestRemoteGenerator:
    def test_maps_reply(self, monkeypatch):
        sent = {}

        def fake_post(session, url, json=None, timeout=None):
            sent.update(url=url, body=json, timeout=timeout)
            return _FakeResponse(
                {"sequences": [{"text": "[A | r]", "score": -0.2}]}
            )

        monkeypatch.setattr(requests.Session, "post", fake_post)
        gen = RemoteGenerator("http://model/generate", beam_width=5, timeout=3.0)
        beams = gen.generate(enc_input("the question"), "q1")
        assert beams == [OutputSequence("[A | r]", -0.2, 1)]
        assert sent["body"] == {"input": "the question", "beams": 5}
        assert sent["timeout"] == 3.0

    def test_empty_reply(self, monkeypatch):
        monkeypatch.setattr(
            requests.Session,
            "post",
            lambda *a, **k: _FakeResponse({"sequences": []}),
        )
        assert RemoteGenerator("http://model").generate(enc_input("q")) == []

    def test_http_error_becomes_generator_error(self, monkeypatch):
        monkeypatch.setattr(
            requests.Session,
            "post",
            lambda *a, **k: _FakeResponse({}, status=500),
        )
        with pytest.raises(GeneratorError):
            RemoteGenerator("http://model").generate(enc_input("q"))

    def test_malformed_reply_becomes_generator_error(self, monkeypatch):
        monkeypatch.setattr(
            requests.Session,
            "post",
            lambda *a, **k: _FakeResponse({"unexpected": True}),
        )
        with pytest.raises(GeneratorError):
            RemoteGenerator("http://model").generate(enc_input("q"))

    def test_transport_error_becomes_generator_error(self, monkeypatch):
        def fail(*a, **k):
            raise requests.ConnectionError("no route")

        monkeypatch.setattr(requests.Session, "post", fail)
        with pytest.raises(GeneratorError):
            RemoteGenerator("http://model").generate(enc_input("q"))

    def test_missing_requests_is_a_generator_error(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "requests", None)  # import requests fails
        with pytest.raises(GeneratorError, match="^remote generator needs the requests package: "):
            RemoteGenerator("http://model")

    def test_missing_requests_fails_link_with_one_error_line(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setitem(sys.modules, "requests", None)
        kb = tmp_path / "kb.nt"
        kb.write_text(nt(DBR + "A", DBO + "r", DBR + "B") + "\n")
        questions = tmp_path / "q.jsonl"
        questions.write_text(json.dumps({"question_id": "q1", "question": "q"}) + "\n")
        out = tmp_path / "results.jsonl"
        # A closed local port: should the generator be built, nothing leaves the host.
        argv = ["link", "--kb", str(kb), "--generator", "remote", "--endpoint", "http://127.0.0.1:9/"]
        assert main(argv + ["-o", str(out), str(questions)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: remote generator needs the requests package: "), err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()


class _StubModelHandler(BaseHTTPRequestHandler):
    """A keep-alive model server: ``/ok`` answers, ``/fail`` and ``/garbled``
    reply with a 503 and with a body that is not JSON, ``/nan`` with a NaN
    score, ``/infinity`` with a ``+Infinity`` score, ``/bigint`` with a
    401-digit integer score that no float holds, ``/string`` and ``/bool``
    with a score that is a JSON string or bool, not a number, ``/object``
    with an object for the array of sequences, ``/list`` with an array for
    the reply object, ``/beam-string`` with a string for a beam object, and
    ``/deep`` with JSON nested past the parser's recursion limit."""

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def do_POST(self):
        self.server.posted.append(json.loads(self.rfile.read(int(self.headers["Content-Length"]))))
        status, body = 200, b"{not json"
        if self.path == "/ok":
            body = json.dumps({"sequences": [{"text": "[A | r]", "score": -0.5}]}).encode()
        elif self.path == "/fail":
            status, body = 503, b"overloaded"
        elif self.path == "/nan":
            body = b'{"sequences": [{"text": "[A | r]", "score": NaN}]}'
        elif self.path == "/infinity":
            body = b'{"sequences": [{"text": "[A | r]", "score": Infinity}]}'
        elif self.path == "/bigint":
            body = b'{"sequences": [{"text": "[A | r]", "score": 1' + b"0" * 400 + b"}]}"
        elif self.path == "/string":
            body = b'{"sequences": [{"text": "[A | r]", "score": "1e3"}]}'
        elif self.path == "/bool":
            body = b'{"sequences": [{"text": "[A | r]", "score": true}]}'
        elif self.path == "/object":
            body = b'{"sequences": {}}'
        elif self.path == "/list":
            body = b'[{"text": "[A | r]", "score": -0.5}]'
        elif self.path == "/beam-string":
            body = b'{"sequences": ["[A | r]"]}'
        elif self.path == "/deep":
            body = b"[" * 100_000
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


class _CountingServer(ThreadingHTTPServer):
    """Counts the connections it accepts and keeps each request body posted."""

    daemon_threads = True
    accepted = 0

    def __init__(self, *args):
        super().__init__(*args)
        self.posted: list = []

    def get_request(self):
        conn = super().get_request()
        self.accepted += 1
        return conn


@pytest.fixture
def model_server(monkeypatch):
    for var in ("HTTP_PROXY", "http_proxy", "ALL_PROXY", "all_proxy", "NO_PROXY", "no_proxy"):
        monkeypatch.delenv(var, raising=False)
    server = _CountingServer(("127.0.0.1", 0), _StubModelHandler)
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    yield server, f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()
    thread.join()


class TestRemoteGeneratorOverHttp:
    def test_questions_share_one_connection(self, model_server):
        server, base = model_server
        gen = RemoteGenerator(base + "/ok", beam_width=5, timeout=5.0)
        for i in range(8):
            beams = gen.generate(enc_input(f"question {i}"), f"q{i}")
            assert beams == [OutputSequence("[A | r]", -0.5, 1)]
        assert server.accepted == 1

    def test_posts_the_reference_rendering(self, model_server):
        # The input is ranked and fitted when the generator reads it; what is
        # posted must be the reference shrink loop's rendering.
        server, base = model_server
        gen = RemoteGenerator(base + "/ok", beam_width=5, timeout=5.0)
        outcomes = Counter()
        for seed in range(40):
            rng = random.Random(seed)
            store, question, entities = _random_case(rng)
            ordered = sorted(entities, key=lambda e: (e.start, e.end))
            structures = [_structure(store, question, e) for e in ordered]
            floor = len(question.split())
            full = len(ref_render_input(question, structures).split())
            budget = rng.randint(floor, full + 2)
            expected = _outcome(lambda: _ref_shrink(question, structures, budget))
            enc = _outcome(lambda: build_encoder_input(store, question, entities, budget))
            if isinstance(expected, str):
                assert enc == expected
                outcomes["too long"] += 1
                continue
            assert gen.generate(enc) == [OutputSequence("[A | r]", -0.5, 1)]
            assert server.posted[-1] == {"input": expected[1], "beams": 5}
            assert _read(enc) == expected
            outcomes["shrunk" if budget < full else "whole"] += 1
        assert len(server.posted) == outcomes["shrunk"] + outcomes["whole"]
        assert min(outcomes.values()) >= 5, outcomes

    def test_ranking_fault_is_not_a_remote_failure(
        self, model_server, monkeypatch, ford_store, ford_entities
    ):
        def broken(*args):
            raise ValueError("ranking broke")

        server, base = model_server
        enc = build_encoder_input(ford_store, FORD_QUESTION, ford_entities)
        monkeypatch.setattr(knowledge_integration, "rank_candidate_relations", broken)
        with pytest.raises(ValueError, match="^ranking broke$"):
            RemoteGenerator(base + "/ok", timeout=5.0).generate(enc)
        assert server.posted == []

    @pytest.mark.parametrize(
        "path",
        ["/fail", "/garbled", "/nan", "/infinity", "/bigint", "/string", "/bool", "/object", "/list",
         "/beam-string", "/deep"],
    )
    def test_bad_reply_becomes_generator_error(self, model_server, path):
        _, base = model_server
        with pytest.raises(GeneratorError, match="^remote generation failed: "):
            RemoteGenerator(base + path, timeout=5.0).generate(enc_input("q"))

    @pytest.mark.parametrize(
        "path", ["/nan", "/infinity", "/bigint", "/string", "/bool", "/object", "/list", "/beam-string", "/deep"]
    )
    def test_bad_reply_is_a_per_question_error(self, model_server, tmp_path, path):
        _, base = model_server
        kb = tmp_path / "kb.nt"
        kb.write_text(nt(DBR + "A", DBO + "r", DBR + "B") + "\n")
        questions = tmp_path / "q.jsonl"
        questions.write_text(json.dumps({"question_id": "q1", "question": "q"}) + "\n")
        out = tmp_path / "results.jsonl"
        argv = ["link", "--kb", str(kb), "--generator", "remote", "--endpoint", base + path]
        assert main(argv + ["--timeout", "5", "-o", str(out), str(questions)]) == 0
        record = json.loads(out.read_text())
        assert record["error"].startswith("remote generation failed: ")
        assert record["relations"] == []
        ending = {
            "/string": "beam score must be a number, got '1e3'",
            "/bool": "beam score must be a number, got True",
            "/object": "sequences must be an array, got {}",
            "/list": "reply must be a JSON object, got [{'text': '[A | r]', 'score': -0.5}]",
            "/beam-string": "beam must be a JSON object, got '[A | r]'",
        }.get(path, "")
        assert record["error"].endswith(ending)


class TestMakeGenerator:
    def test_kinds(self, tmp_path):
        path = tmp_path / "beams.jsonl"
        path.write_text("")
        assert isinstance(
            make_generator(GeneratorConfig(kind="fixture", fixture_path=path)),
            FixtureGenerator,
        )
        assert isinstance(
            make_generator(GeneratorConfig(kind="remote", endpoint="http://x")),
            RemoteGenerator,
        )
        assert isinstance(make_generator(GeneratorConfig(kind="baseline")), BaselineGenerator)
