"""Store loading, indexing, ontology metadata, and graph matching."""

from __future__ import annotations

import dataclasses
import gc
import io
import itertools
import random
import sys
import tracemalloc
from collections import Counter

import pytest

from conftest import DBO, DBP, DBR, P, PS, RDF_TYPE, RDFS_SUBCLASS, WD, WDS, WDT, nt
from rellink import kb_store
from rellink.kb_store import (
    HierarchyCycleError,
    KbLoadError,
    KbStore,
    load_kb,
    load_profile_config,
    load_triples,
    parse_nt_line,
)
from rellink.knowledge_validation import expand_pair, fallback_result, validate_sequence
from rellink.sequence_grammar import OutputSequence
from rellink.terms import (
    DBPEDIA,
    WIKIDATA,
    Iri,
    Literal,
    PropertyPath,
    Term,
    TriplePattern,
    Variable,
    local_name,
    namespace_of,
    normalize_iri,
    normalize_label,
    relation_uri,
)

VX = Variable("x")
VY = Variable("y")


class TestNtParsing:
    def test_basic_line(self):
        triple = parse_nt_line(nt(DBR + "A", DBO + "r", DBR + "B"), DBPEDIA, {})
        assert triple == (Iri("dbr:A"), Iri("dbo:r"), Iri("dbr:B"))

    def test_literal_object_with_datatype(self):
        line = f'<{DBR}A> <{DBO}r> "42"^^<http://www.w3.org/2001/XMLSchema#integer> .'
        _, _, obj = parse_nt_line(line, DBPEDIA, {})
        assert obj == Literal("42")

    def test_literal_with_language_tag(self):
        line = f'<{DBR}A> <{DBO}r> "hello"@en .'
        assert parse_nt_line(line, DBPEDIA, {})[2] == Literal("hello")
        typed = f'<{DBR}A> <{DBO}r> "1"^^<http://www.w3.org/2001/XMLSchema#integer> .'
        tagged = f'<{DBR}A> <{DBO}r> "1"@en .'
        assert len(load_kb(typed + "\n" + tagged)) == 1

    def test_escaped_quote_in_literal(self):
        line = f'<{DBR}A> <{DBO}r> "say \\"hi\\"" .'
        assert parse_nt_line(line, DBPEDIA, {})[2] == Literal('say "hi"')

    def test_comment_and_blank_lines(self):
        assert parse_nt_line("# comment", DBPEDIA, {}) is None
        assert parse_nt_line("   ", DBPEDIA, {}) is None

    def test_blank_node_subject(self):
        subject, _, _ = parse_nt_line(f"_:b1 <{DBO}r> <{DBR}B> .", DBPEDIA, {})
        assert subject == Iri("_:b1")

    def test_error_carries_line_number(self):
        bad = nt(DBR + "A", DBO + "r", DBR + "B") + "\nnot a triple\n"
        with pytest.raises(KbLoadError, match="line 2"):
            load_kb(bad)

    def test_missing_terminal_dot(self):
        with pytest.raises(KbLoadError):
            load_kb(f"<{DBR}A> <{DBO}r> <{DBR}B>")

    @pytest.mark.parametrize(
        "line",
        [f'"A" <{DBO}r> <{DBR}B> .', f"<{DBR}A> _:r <{DBR}B> ."],
        ids=["literal-subject", "blank-node-predicate"],
    )
    def test_subject_and_predicate_shapes_are_in_the_line_pattern(self, line):
        with pytest.raises(KbLoadError, match="^triples line 1: not a valid triple line: "):
            load_kb(line)


class TestNtEscapes:
    def literal(self, body: str) -> Literal:
        return parse_nt_line(f'<{DBR}A> <{DBO}r> "{body}" .', DBPEDIA, {})[2]

    def test_uchar_in_literal(self):
        assert self.literal("Caf\\u00E9") == Literal("Caf\u00e9")
        assert self.literal("smile \\U0001F600") == Literal("smile \U0001F600")

    def test_echars_in_literal(self):
        assert self.literal("a\\tb\\bc\\nd\\re\\ff") == Literal("a\tb\bc\nd\re\ff")
        assert self.literal("\\'q\\' \\\\u0041") == Literal("'q' \\u0041")

    def test_uchar_in_iri(self):
        subject, _, _ = parse_nt_line(f"<{DBR}Caf\\u00E9> <{DBO}r> <{DBR}B> .", DBPEDIA, {})
        assert subject == Iri("dbr:Caf\u00e9")

    @pytest.mark.parametrize(
        "body", ["bad \\u00G9", "short \\u12", "unknown \\q", "surrogate \\uD800"]
    )
    def test_bad_literal_escape_names_line(self, body):
        text = nt(DBR + "A", DBO + "r", DBR + "B") + f'\n<{DBR}A> <{DBO}r> "{body}" .\n'
        with pytest.raises(KbLoadError, match="triples line 2"):
            load_kb(text)

    def test_echar_in_iri_rejected(self):
        with pytest.raises(KbLoadError, match="triples line 1"):
            load_kb(f"<{DBR}A\\tB> <{DBO}r> <{DBR}B> .")


class TestLoading:
    def test_duplicates_deduplicated(self):
        line = nt(DBR + "A", DBO + "r", DBR + "B")
        store = load_kb(line + "\n" + line)
        assert len(store) == 1

    def test_iri_and_literal_of_one_text_stay_two_terms(self):
        # An IRI is a str, but a Literal is not: "a:b" never merges with <a:b>.
        store = load_kb(f'<{DBR}s> <{DBO}p> <a:b> .\n<{DBR}s> <{DBO}p> "a:b" .')
        assert len(store) == 2
        assert list(store._op) == [Iri("a:b"), Literal("a:b")]

    def test_load_is_idempotent(self):
        text = "\n".join(
            [
                nt(DBR + "A", DBO + "r", DBR + "B"),
                nt(DBR + "B", DBP + "s", ("lit", "two")),
            ]
        )
        once, twice = load_kb(text), load_kb(text + "\n" + text)
        assert len(once) == len(twice) == 2

        def contents(store):
            return (store.profile, store._spo, store._pos, store._op, store._parents,
                    store.instance_counts(), store._labels, store._lexicon)

        assert contents(once) == contents(twice)

    def test_accepts_file_object(self):
        store = load_kb(io.StringIO(nt(DBR + "A", DBO + "r", DBR + "B")))
        assert len(store) == 1

    def test_empty_input(self):
        assert len(load_kb("")) == 0

    def test_str_source_splits_lines_as_a_file_does(self, tmp_path):
        # N-Triples allows U+2028, U+0085, \x1c-\x1e, \v and \f raw in a
        # literal; a text file ends lines only at LF, CR LF and CR.
        odd = "x\u2028y\x85z\x1c\x1d\x1e\v\f"
        text = (
            nt(DBR + "A", DBO + "r", DBR + "B") + "\r\n"
            + nt(DBR + "A", DBO + "r", ("lit", odd)) + "\r"
            + nt(DBR + "B", DBO + "r", ("lit", "x y")) + "\n"
        )
        path = tmp_path / "kb.nt"
        path.write_bytes(text.encode())
        from_str = load_kb(text)
        with open(path, encoding="utf-8") as f:
            from_file = load_kb(f)
        assert Literal(odd) in from_str._op
        for name in STORE_INDEXES:
            assert _ordered(getattr(from_str, name)) == _ordered(getattr(from_file, name)), name
        path.write_bytes((text + "\x85not a triple\n").encode())
        with pytest.raises(KbLoadError, match="^triples line 4: ") as from_str_error:
            load_kb(text + "\x85not a triple\n")
        with open(path, encoding="utf-8") as f, pytest.raises(KbLoadError) as from_file_error:
            load_kb(f)
        assert str(from_str_error.value) == str(from_file_error.value)


class TestCollectorPause:
    """The cyclic collector is paused while a load builds the store and
    left as the caller had it, whether the load ends or fails."""

    LINES = [nt(DBR + "A", DBO + "r", DBR + "B"), nt(DBR + "B", DBO + "r", DBR + "C")]

    def _load(self, lines):
        seen = []

        def source():
            for line in lines:
                seen.append(gc.isenabled())
                yield line

        load_kb(source())
        return seen

    def test_paused_during_load_and_restored(self):
        assert gc.isenabled()
        assert self._load(self.LINES) == [False, False]
        assert gc.isenabled()

    def test_restored_after_a_failed_load(self):
        with pytest.raises(KbLoadError, match="^triples line 2: "):
            self._load([self.LINES[0], "not a triple", self.LINES[1]])
        assert gc.isenabled()

    def test_load_leaves_no_pass_for_later(self):
        # The load ends with a pass over the young generations, so the
        # objects it made do not start one in the first code that allocates.
        lines = [nt(DBR + f"E{i}", DBO + "r", DBR + f"F{i}") for i in range(3000)]
        load_triples(KbStore(DBPEDIA), lines)
        assert gc.get_count()[0] < gc.get_threshold()[0]

    def test_left_disabled_when_the_caller_disabled_it(self):
        gc.disable()
        try:
            self._load(self.LINES)
            assert not gc.isenabled()
            with pytest.raises(KbLoadError):
                self._load(["not a triple"])
            assert not gc.isenabled()
        finally:
            gc.enable()


class TestLoadErrorLines:
    @pytest.mark.parametrize(
        "bad_line",
        [f'<{DBR}A> <{DBO}r> "bad \\q" .', f"<{DBR}Bad\\u00G9> <{DBO}r> <{DBR}B> ."],
        ids=["literal", "iri"],
    )
    def test_repeated_bad_term_names_first_line(self, bad_line):
        good = nt(DBR + "A", DBO + "r", DBR + "B")
        text = "\n".join([good, bad_line, good, good, bad_line])
        with pytest.raises(KbLoadError, match="triples line 2:"):
            load_kb(text)

    def test_new_bad_term_after_good_repeats_names_its_line(self):
        good = [nt(DBR + f"E{i % 5}", DBO + "r", ("lit", "ok")) for i in range(200)]
        text = "\n".join(good + [f'<{DBR}E1> <{DBO}r> "ok\\q" .'] + good)
        with pytest.raises(KbLoadError, match="triples line 201:"):
            load_kb(text)


class TestTermSharing:
    def test_each_term_is_one_object_in_every_index(self):
        text = "\n".join(
            [
                nt(DBR + "A", DBO + "r", DBR + "B"),
                nt(DBR + "B", DBO + "r", ("lit", "shared")),
                f'_:b1 <{DBO}r> "shared" .',
                f"<{DBR}A> <{DBP}s> _:b1 .",
                f"_:b1 <{DBP}s> <{DBR}A> .",
                nt(DBR + "C", DBO + "r", ("lit", "shared")),
                nt(DBR + "C", RDF_TYPE, DBO + "Thing"),
                nt(DBR + "B", RDF_TYPE, DBO + "Thing"),
            ]
        )
        store = load_kb(text)
        occurrences = []
        for index in (store._spo, store._pos):
            for outer, inner in index.items():
                occurrences.append(outer)
                for middle, leaves in inner.items():
                    occurrences.append(middle)
                    occurrences.extend(leaves)
        for obj, preds in store._op.items():
            occurrences.append(obj)
            occurrences.extend(preds)
        first: dict = {}
        for term in occurrences:
            assert first.setdefault(term, term) is term, term
        assert {Iri("dbr:A"), Iri("_:b1"), Literal("shared"), Iri("dbo:r")} <= set(first)


class _CountingRegex:
    """A compiled pattern's ``match``, counted."""

    def __init__(self, regex):
        self.regex = regex
        self.calls = 0

    def match(self, line):
        self.calls += 1
        return self.regex.match(line)


def test_triple_regex_runs_once_per_line_with_a_new_token(monkeypatch):
    # Distinct tokens in load_triples: a line whose tokens all appeared on
    # earlier lines takes the split path, so the regex calls are the lines
    # that hold a token seen nowhere before.
    subjects = [f"<{DBR}S{i}>" for i in range(6)]
    predicates = [f"<{DBO}p{i}>" for i in range(3)]
    objects = subjects + ['"v"', '"w"@en', "_:b0", "_:b1"]
    regex = kb_store._TRIPLE_RE
    for seed in range(50):
        rng = random.Random(seed)
        lines = [
            f"{rng.choice(subjects)} {rng.choice(predicates)} {rng.choice(objects)} ."
            for _ in range(rng.randint(1, 60))
        ]
        seen: set = set()
        expected = 0
        for line in lines:
            tokens = set(line.split()[:3])
            expected += not tokens <= seen
            seen |= tokens
        counting = _CountingRegex(regex)
        monkeypatch.setattr(kb_store, "_TRIPLE_RE", counting)
        load_triples(KbStore(DBPEDIA), lines)
        assert counting.calls == expected, seed


# -- differential check of the term-table load against table-free parsing ----


def _random_nt_lines(rng: random.Random, profile) -> list[str]:
    """N-Triples text over small pools, so that terms, predicates and whole
    lines repeat; tokens spelled with and without escapes decode alike.

    Lines vary their separators (tab, ``\\x1c`` and U+3000 among them), their
    end (no space before the dot, a trailing comment, CR LF) and their
    literals' tags.  About one text in four also holds one bad line after a
    good line that brings its tokens into the load's term table: a literal
    seen as an object put in subject position, a blank node put in predicate
    position, or a line the regex rejects."""
    prefixes = profile.prefixes

    def full(iri: Iri) -> str:
        prefix, local = iri.split(":", 1)
        return f"<{prefixes[prefix]}{local}>"

    entity_ns = prefixes["dbr" if "dbr" in prefixes else "wd"]
    entities = [f"<{entity_ns}E{i}>" for i in range(4)] + [
        f"<{entity_ns}Caf\\u00E9>",
        f"<{entity_ns}Caf\\u00e9>",
        f"<{entity_ns}Caf\u00e9>",
        "<http://example.org/thing/X>",
        "_:b1",
        "_:b2",
    ]
    if profile.statement_namespace is not None:
        entities += [f"<{prefixes['wds']}S{i}>" for i in range(3)]
    classes = [f"<{entity_ns}Class{i}>" for i in range(3)]
    predicates = [
        f"<{prefixes[ns]}{local}>"
        for ns in profile.property_namespaces
        for local in ("P1", "birthPlace")
    ] + ["<http://example.org/prop/related>"]
    literals = [
        '"plain"',
        '"tab\\tand \\"quote\\""',
        '"Caf\\u00E9"',
        '"smile \\U0001F600"',
        '"back\\\\slash"',
        '"1"^^<http://www.w3.org/2001/XMLSchema#integer>',
        '"1"@en',
        '"plain"@en-GB',
        '"two words"',
        '"x"',
    ]
    separators = [" ", "\t", "  ", "\x1c", "\u3000"]
    ends = [" .", ".", "\t.", " . # a comment", " .#", "\x1c."]
    lines: list[str] = []
    for _ in range(rng.randint(0, 40)):
        roll = rng.random()
        if lines and roll < 0.15:
            lines.append(rng.choice(lines))
            continue
        if roll < 0.2:
            lines.append(rng.choice(["", "# a comment", "   "]))
            continue
        if roll < 0.3:
            triple = (rng.choice(entities), full(profile.type_predicate), rng.choice(classes))
        elif roll < 0.35:
            triple = (rng.choice(classes), full(profile.subclass_predicate), rng.choice(classes))
        else:
            triple = (
                rng.choice(entities),
                rng.choice(predicates),
                rng.choice(entities + literals),
            )
        lines.append(
            rng.choice(["", "", " "])
            + rng.choice(separators).join(triple)
            + rng.choice(ends)
            + rng.choice(["", "", "\r"])
        )
    if rng.random() < 0.25:
        e, p, lit = rng.choice(entities), rng.choice(predicates), rng.choice(literals)
        good, bad = rng.choice([
            (f"{e} {p} {lit} .", f"{lit} {p} {e} ."),
            (f"{e} {p} _:b1 .", f"{e} _:b1 {e} ."),
            (f"{e} {p} {e} .", f"{e} {p} {e}"),
            (f"{e} {p} {e} .", f"{e} {p} {e} {e} ."),
            (f"{e} {p} {e} .", f"{e} {p} {e} . ."),
            (f"{e} {p} {e} .", f"{e} {p} {e} ;"),
            (f"{e} {p} {lit} .", f'{e} {p} "bad \\q" .'),
        ])
        at = rng.randint(0, len(lines))
        lines[at:at] = [good, bad]
    return lines


def _ordered(index):
    """A nested index as nested lists of pairs, so equality checks order."""
    if isinstance(index, dict):
        return [(key, _ordered(value)) for key, value in index.items()]
    return index


STORE_INDEXES = ("_spo", "_pos", "_op", "_lexicon", "_parents")


@pytest.mark.parametrize("profile", [DBPEDIA, WIKIDATA], ids=lambda p: p.name)
def test_term_table_load_matches_per_line_parsing(profile):
    errors = 0
    for seed in range(200):
        lines = _random_nt_lines(random.Random(seed), profile)
        loaded = KbStore(profile)
        try:
            load_triples(loaded, "\n".join(lines))
            error = None
        except KbLoadError as exc:
            error = str(exc)
        # The reference parses every line with a fresh table and rebuilds the
        # lexicon entries on every triple, not only on a predicate's first.
        expected = KbStore(profile)
        expected_error = None
        lexicon: dict = {}
        for lineno, line in enumerate(lines, start=1):
            try:
                triple = parse_nt_line(line, profile, {})
            except ValueError as exc:
                expected_error = f"triples line {lineno}: {exc}"
                break
            if triple is None:
                continue
            expected.add_triple(*triple)
            _, p, _ = triple
            if namespace_of(p, profile) in profile.property_namespaces:
                lexicon.setdefault(normalize_label(local_name(p)), {})[p] = None
        assert error == expected_error, seed
        errors += error is not None
        assert len(loaded) == len(expected), seed
        for name in STORE_INDEXES:
            assert _ordered(getattr(loaded, name)) == _ordered(getattr(expected, name)), (seed, name)
        assert _ordered(loaded.instance_counts()) == _ordered(expected.instance_counts()), seed
        assert _ordered(loaded._lexicon) == _ordered(lexicon), seed
    assert 20 < errors < 100  # both outcomes are exercised


# -- the leaf layout against a store whose every leaf is a dict --------------


class _DictLeafStore(KbStore):
    """The store as it was before one-term leaves became 1-tuples: its
    ``add_triple`` is that version verbatim, so every leaf is a dict."""

    def add_triple(self, s: Iri, p: Iri, o: Term) -> None:
        objects = self._spo.setdefault(s, {}).setdefault(p, {})
        if o in objects:
            return
        objects[o] = None
        self._size += 1
        by_object = self._pos.get(p)
        if by_object is None:
            # First sight of the predicate: its lexicon entry and whether it
            # enters statements depend on nothing else, so both are made once.
            by_object = self._pos[p] = {}
            ns = namespace_of(p, self.profile)
            if ns in self.profile.property_namespaces:
                self._lexicon.setdefault(normalize_label(local_name(p)), {})[p] = None
            if ns is not None and ns == self.profile.statement_namespace:
                self._entries[p] = None
        by_object.setdefault(o, {})[s] = None
        self._op.setdefault(o, {})[p] = None
        if p == self.profile.subclass_predicate and isinstance(o, Iri):
            self._parents.setdefault(s, {})[o] = None
        self._route_memo.clear()


def _random_leaf_triples(rng: random.Random, profile) -> list[tuple]:
    """Triples over small pools with a hub subject and a hub object, blank
    nodes, an IRI and a literal of one text, statements under a reified
    profile, and repeats spelled as fresh but equal terms."""
    entities = [Iri(f"ex:E{i}") for i in range(8)] + [Iri("_:b1"), Iri("_:b2"), Iri("a:b")]
    hub_s, hub_o = Iri("ex:HubS"), Iri("ex:HubO")
    values = entities + [Literal("a:b"), Literal("plain"), Literal("")]
    predicates = [Iri(f"{ns}:P{i}") for ns in profile.property_namespaces for i in range(3)]
    predicates += [profile.type_predicate, profile.subclass_predicate]
    triples: list[tuple] = []
    for _ in range(rng.randint(0, 60)):
        roll = rng.random()
        if triples and roll < 0.15:
            s, p, o = rng.choice(triples)
            o = Literal(o.lexical) if isinstance(o, Literal) else Iri(str(o))
            triples.append((Iri(str(s)), Iri(str(p)), o))
            continue
        s = hub_s if roll < 0.4 else rng.choice(entities)
        o = hub_o if rng.random() < 0.3 else rng.choice(values)
        if profile.statement_namespace is not None and roll > 0.85:
            stmt = Iri(f"wds:S{rng.randrange(4)}")
            triples.append((s, Iri(f"p:P{rng.randrange(3)}"), stmt))
            s, p = stmt, Iri(f"{rng.choice(('ps', 'pq'))}:P{rng.randrange(3)}")
        else:
            p = rng.choice(predicates)
        triples.append((s, p, o))
    return triples


def _leaves(index: dict, depth: int):
    """An index as nested lists of (type, key, inner) triples down to its
    leaves, each leaf as the list of its terms with their types: equality
    then checks order and term kinds, whatever container a leaf is."""
    if depth == 0:
        return [(type(term), term) for term in index]
    return [(type(key), key, _leaves(inner, depth - 1)) for key, inner in index.items()]


LEAF_INDEXES = (("_spo", 2), ("_pos", 2), ("_op", 1))


@pytest.mark.parametrize("profile", [DBPEDIA, WIKIDATA], ids=lambda p: p.name)
def test_one_term_leaves_are_tuples_and_hold_what_dict_leaves_hold(profile):
    shapes = set()
    for seed in range(200):
        triples = _random_leaf_triples(random.Random(seed), profile)
        store, reference = KbStore(profile), _DictLeafStore(profile)
        for triple in triples:
            store.add_triple(*triple)
            reference.add_triple(*triple)
        assert len(store) == len(reference), seed
        for name, depth in LEAF_INDEXES:
            index = getattr(store, name)
            leaves = [index] if depth == 1 else list(index.values())
            for leaf in (leaf for inner in leaves for leaf in inner.values()):
                shape = (type(leaf), min(len(leaf), 2))
                assert shape in ((tuple, 1), (dict, 2)), (seed, name, leaf)
                shapes.add(shape)
            assert _leaves(index, depth) == _leaves(getattr(reference, name), depth), (seed, name)
        for name in ("_parents", "_lexicon", "_entries"):
            assert getattr(store, name) == getattr(reference, name), (seed, name)
    assert shapes == {(tuple, 1), (dict, 2)}


def _flat_kb(rng: random.Random, n_triples: int) -> list[tuple]:
    """A dbpedia-profile KB with Zipf-skewed predicate fan-out, every seventh
    predicate's objects literals, and one or two types per entity."""
    n_entities, n_predicates = n_triples // 4, 60
    entities = [Iri(f"dbr:E{i}") for i in range(n_entities)]
    predicates = [Iri(f"{('dbo', 'dbp')[i % 2]}:rel{i}") for i in range(n_predicates)]
    classes = [Iri(f"dbo:Kind{i}") for i in range(40)]
    type_p = DBPEDIA.type_predicate
    triples = []
    for e in entities:
        triples.append((e, type_p, rng.choice(classes)))
        if rng.random() < 0.3:
            triples.append((e, type_p, rng.choice(classes)))
    weights = [1.0 / (i + 1) for i in range(n_predicates)]
    for _ in range(n_triples - len(triples)):
        i = rng.choices(range(n_predicates), weights)[0]
        o = Literal(f"w{rng.randrange(5000)}") if i % 7 == 6 else rng.choice(entities)
        triples.append((rng.choice(entities), predicates[i], o))
    return triples


def test_store_heap_is_at_most_six_tenths_of_dict_leaves():
    # The terms exist before tracing starts, so each heap is the indexes'.
    triples = _flat_kb(random.Random(1), 20_000)
    heaps = []
    for cls in (KbStore, _DictLeafStore):
        tracemalloc.start()
        try:
            store = cls(DBPEDIA)
            for triple in triples:
                store.add_triple(*triple)
            heaps.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        del store
    assert heaps[0] <= 0.6 * heaps[1], heaps


class TestOntology:
    def test_bad_row_reports_line(self):
        with pytest.raises(KbLoadError, match="ontology line 1"):
            load_kb("", ontology="subclass\tonly-one-field")

    @pytest.mark.parametrize("kind", ["subclass", "count", "label"])
    @pytest.mark.parametrize("n_fields", [1, 3])
    def test_wrong_field_count_names_kind(self, kind, n_fields):
        row = "\t".join([kind] + [f"{DBO}A"] * n_fields)
        with pytest.raises(KbLoadError, match=f"^ontology line 2: {kind} rows take 2 fields$"):
            load_kb("", ontology=f"# header\n{row}")

    def test_unknown_kind(self):
        with pytest.raises(KbLoadError, match="unknown record"):
            load_kb("", ontology=f"superclass\t{DBO}A\t{DBO}B")

    def test_count_override_beats_derived(self):
        triples = "\n".join(
            nt(DBR + f"E{i}", RDF_TYPE, DBO + "City") for i in range(3)
        )
        store = load_kb(triples, ontology=f"count\t{DBO}City\t9000")
        assert store.instance_count(Iri("dbo:City")) == 9000

    def test_negative_count_is_located(self):
        with pytest.raises(
            KbLoadError, match="^ontology line 2: count rows take a non-negative count, got -5$"
        ):
            load_kb("", ontology=f"# header\ncount\t{DBO}City\t-5")

    def test_zero_count_is_kept(self):
        store = load_kb(nt(DBR + "E", RDF_TYPE, DBO + "City"), ontology=f"count\t{DBO}City\t0")
        assert store.instance_count(Iri("dbo:City")) == 0

    def test_derived_counts(self):
        triples = "\n".join(
            nt(DBR + f"E{i}", RDF_TYPE, DBO + "City") for i in range(3)
        )
        assert load_kb(triples).instance_count(Iri("dbo:City")) == 3

    @pytest.mark.parametrize("label", ["", "  "])
    def test_blank_label_is_located(self, label):
        with pytest.raises(KbLoadError, match="^ontology line 2: label rows take a non-empty label$"):
            load_kb("", ontology=f"# header\nlabel\t{DBO}foo\t{label}")

    def test_punctuation_label_routes_nowhere(self):
        # Such a label, or local name, has an empty lexicon key; filed under
        # it, every label of punctuation alone would route to it.
        store = load_kb(
            nt(DBR + "A", DBO + "--", DBR + "B"), ontology=f"label\t{DBO}foo\t---"
        )
        assert store.routes("-") == store.routes("?!") == store.routes("--") == []
        assert "" not in store._lexicon

    def test_label_row_overrides_local_name(self):
        store = load_kb(
            nt(DBR + "A", DBO + "almaMater", DBR + "B"),
            ontology=f"label\t{DBO}almaMater\talma mater",
        )
        assert store.label_of(Iri("dbo:almaMater")) == "alma mater"
        assert store.routes("alma mater") == [Iri("dbo:almaMater")]

    def test_cycle_detection(self):
        ontology = "\n".join(
            [
                f"subclass\t{DBO}A\t{DBO}B",
                f"subclass\t{DBO}B\t{DBO}C",
                f"subclass\t{DBO}C\t{DBO}A",
            ]
        )
        with pytest.raises(HierarchyCycleError):
            load_kb("", ontology=ontology)

    def test_cycle_message_names_path(self):
        ontology = "\n".join(
            [
                f"subclass\t{DBO}D\t{DBO}A",
                f"subclass\t{DBO}A\t{DBO}B",
                f"subclass\t{DBO}B\t{DBO}C",
                f"subclass\t{DBO}C\t{DBO}A",
            ]
        )
        with pytest.raises(
            HierarchyCycleError,
            match="^class hierarchy cycle: dbo:A -> dbo:B -> dbo:C -> dbo:A$",
        ):
            load_kb("", ontology=ontology)

    def test_cycle_below_deep_chain(self):
        depth = sys.getrecursionlimit() + 100
        triples = "\n".join(
            nt(f"{DBO}C{i}", RDFS_SUBCLASS, f"{DBO}C{i + 1}") for i in range(depth)
        )
        triples += "\n" + nt(f"{DBO}C{depth}", RDFS_SUBCLASS, f"{DBO}C{depth - 1}")
        with pytest.raises(
            HierarchyCycleError, match=f"cycle: dbo:C{depth - 1} -> dbo:C{depth} -> dbo:C{depth - 1}$"
        ):
            load_kb(triples)


class TestRelationsOf:
    def test_outgoing_and_incoming(self, ford_store):
        company = ford_store.relations_of(Iri("dbr:Ford_Motor_Company"))
        assert Iri("dbo:foundedBy") in company  # outgoing
        assert Iri("dbo:owningOrganisation") in company  # incoming
        assert Iri("dbo:manufacturer") in company  # incoming

    def test_unknown_entity_is_empty(self, ford_store):
        assert ford_store.relations_of(Iri("dbr:Nobody")) == set()

    def test_reified_traversal(self, wikidata_store):
        # (e, p:P176, s), (s, ps:P176, x): the entry edge is traversed, and
        # the statement's outgoing edges stand in for it.
        rels = wikidata_store.relations_of(Iri("wd:Q42"))
        assert Iri("ps:P176") in rels
        assert Iri("pq:P155") in rels
        assert Iri("p:P176") not in rels
        assert Iri("wdt:P31") in rels

    def test_value_side_sees_statement_edge(self, wikidata_store):
        rels = wikidata_store.relations_of(Iri("wd:Q99"))
        assert Iri("ps:P176") in rels


class TestMostSpecificType:
    def test_ancestor_pruned(self, ford_store):
        # Factory and Building both asserted; Building is Factory's ancestor.
        assert ford_store.most_specific_type(Iri("dbr:Kansas_City_Assembly")) == Iri(
            "dbo:Factory"
        )

    def test_untyped_entity(self, ford_store):
        assert ford_store.most_specific_type(Iri("dbr:Henry_Ford")) is None

    def test_count_breaks_incomparable_tie(self):
        triples = "\n".join(
            [
                nt(DBR + "E", RDF_TYPE, DBO + "Poet"),
                nt(DBR + "E", RDF_TYPE, DBO + "Politician"),
            ]
        )
        ontology = "\n".join(
            [f"count\t{DBO}Poet\t10", f"count\t{DBO}Politician\t70"]
        )
        store = load_kb(triples, ontology)
        assert store.most_specific_type(Iri("dbr:E")) == Iri("dbo:Politician")

    def test_lexicographic_final_tie(self):
        triples = "\n".join(
            [
                nt(DBR + "E", RDF_TYPE, DBO + "Beta"),
                nt(DBR + "E", RDF_TYPE, DBO + "Alpha"),
            ]
        )
        store = load_kb(triples)
        assert store.most_specific_type(Iri("dbr:E")) == Iri("dbo:Alpha")


class _CountingDict(dict):
    """A dict that counts its ``get`` and ``[]`` lookups."""

    lookups = 0

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)


def _hierarchy_store(depth: int, k: int, shape: str) -> tuple[KbStore, list[Iri]]:
    """A chain ``dbo:C0 <- ... <- dbo:C{depth-1}`` and an entity ``dbr:E``
    typed to ``k`` classes at its bottom: the chain's last ``k`` classes, or
    ``k`` sibling leaves under its last class.  Returns the store and the
    asserted classes."""
    store = KbStore(DBPEDIA)
    chain = [Iri(f"dbo:C{i}") for i in range(depth)]
    for parent, child in zip(chain, chain[1:]):
        store.add_subclass(child, parent)
    if shape == "chain":
        asserted = chain[depth - k:]
    else:
        asserted = [Iri(f"dbo:L{i}") for i in range(k)]
        for leaf in asserted:
            store.add_subclass(leaf, chain[-1])
    for cls in asserted:
        store.add_triple(Iri("dbr:E"), Iri("rdf:type"), cls)
    store.check_hierarchy()
    return store, asserted


@pytest.mark.parametrize("shape", ["chain", "siblings"])
@pytest.mark.parametrize("k", [1, 2, 32])
@pytest.mark.parametrize("depth", [100, 1000])
def test_most_specific_type_walks_each_ancestor_once(depth, k, shape):
    # Hierarchy depth x asserted classes: the parent lookups grow with the
    # ancestors reached plus the classes asserted, not with their product,
    # and one asserted class walks nothing.
    store, asserted = _hierarchy_store(depth, k, shape)
    store._parents = _CountingDict(store._parents)
    expected = asserted[-1] if shape == "chain" else Iri("dbo:L0")
    assert store.most_specific_type(Iri("dbr:E")) == expected
    lookups = store._parents.lookups
    if k == 1:
        assert lookups == 0
    else:
        assert lookups <= depth + k + 2, lookups


# -- differential check of most_specific_type against a brute force ---------


def _random_hierarchy_case(rng: random.Random) -> tuple[list[str], list[str], dict]:
    """N-Triples and ontology lines over a random class DAG, plus the facts
    the reference reads: ``edges`` (child, parent), ``typed`` (subject,
    class IRI) and ``counts`` (class, override).

    A class only takes parents of a lower index, so the DAG is acyclic; each
    edge is an ontology row, a triple, or both.  Entities take 0-5 classes,
    some take literal ``rdf:type`` objects, and some carry no type at all.
    """
    classes = [f"K{i}" for i in range(rng.randint(1, 9))]
    triples, ontology = [], []
    edges = []
    for j in range(1, len(classes)):
        for i in rng.sample(range(j), rng.randint(0, min(j, 3))):
            edges.append((f"dbo:{classes[j]}", f"dbo:{classes[i]}"))
            where = rng.choice(["ontology", "triple", "both"])
            if where != "triple":
                ontology.append(f"subclass\t{DBO}{classes[j]}\t{DBO}{classes[i]}")
            if where != "ontology":
                triples.append(nt(DBO + classes[j], RDFS_SUBCLASS, DBO + classes[i]))
    typed = []
    for e in range(6):
        for name in rng.sample(classes, rng.randint(0, min(5, len(classes)))):
            typed.append((f"dbr:E{e}", f"dbo:{name}"))
            triples.append(nt(f"{DBR}E{e}", RDF_TYPE, DBO + name))
        if rng.random() < 0.3:
            triples.append(nt(f"{DBR}E{e}", RDF_TYPE, ("lit", rng.choice(classes))))
        if rng.random() < 0.5:
            triples.append(nt(f"{DBR}E{e}", DBO + "rel", f"{DBR}E{rng.randrange(6)}"))
    counts = {}
    for name in rng.sample(classes, rng.randint(0, len(classes))):
        counts[f"dbo:{name}"] = rng.randint(0, 4)
        ontology.append(f"count\t{DBO}{name}\t{counts[f'dbo:{name}']}")
    rng.shuffle(triples)
    return triples, ontology, {"edges": edges, "typed": typed, "counts": counts}


def _reference_most_specific_type(facts: dict, entity: str) -> str | None:
    """Each asserted class's transitive closure, a pairwise prune of the
    classes in another's closure, then the order (-count, IRI)."""
    parents: dict = {}
    for child, parent in facts["edges"]:
        parents.setdefault(child, set()).add(parent)

    def closure(cls: str) -> set:
        found, frontier = set(), [cls]
        while frontier:
            for parent in parents.get(frontier.pop(), ()):
                if parent not in found:
                    found.add(parent)
                    frontier.append(parent)
        return found

    asserted = {cls for s, cls in facts["typed"] if s == entity}
    leaves = [c for c in asserted if not any(c in closure(d) for d in asserted if d != c)]

    def count(cls: str) -> int:
        if cls in facts["counts"]:
            return facts["counts"][cls]
        return len({s for s, c in facts["typed"] if c == cls})

    leaves.sort(key=lambda c: (-count(c), c))
    return leaves[0] if leaves else None


def test_most_specific_type_matches_brute_force():
    seen = Counter()
    for seed in range(500):
        triples, ontology, facts = _random_hierarchy_case(random.Random(seed))
        store = load_kb("\n".join(triples), "\n".join(ontology))
        for entity in [f"dbr:E{e}" for e in range(6)]:
            expected = _reference_most_specific_type(facts, entity)
            assert store.most_specific_type(Iri(entity)) == expected, (seed, entity)
            asserted = {c for s, c in facts["typed"] if s == entity}
            seen["untyped" if expected is None else "several" if len(asserted) > 1 else "one"] += 1
    assert min(seen[key] for key in ("untyped", "several", "one")) > 0, seen


class TestRoutes:
    def test_both_namespaces_found(self):
        triples = "\n".join(
            [
                nt(DBR + "C", DBP + "almaMater", DBR + "D"),
                nt(DBR + "A", DBO + "almaMater", DBR + "B"),
            ]
        )
        store = load_kb(triples)
        assert store.routes("almaMater") == [Iri("dbo:almaMater"), Iri("dbp:almaMater")]

    def test_lookup_is_normalized(self):
        store = load_kb(nt(DBR + "A", DBO + "owningOrganisation", DBR + "B"))
        assert store.routes("owning organisation") == [Iri("dbo:owningOrganisation")]

    def test_unknown_label(self, ford_store):
        assert ford_store.routes("nonexistent") == []

    def test_class_labels_are_not_routes(self):
        triples = "\n".join(
            [
                nt(DBR + "A", RDF_TYPE, DBO + "Place"),
                nt(DBR + "A", DBO + "location", DBR + "B"),
            ]
        )
        ontology = "\n".join(
            [
                f"label\t{DBO}Place\tplace",
                f"subclass\t{DBO}Town\t{DBO}Settlement",
                f"label\t{DBO}Settlement\tsettlement",
                f"count\t{DBO}City\t10",
                f"label\t{DBO}City\tcity",
                f"label\t{DBO}hometown\thome town",
                f"label\t{DBO}location\tsettlement",
            ]
        )
        store = load_kb(triples, ontology)
        # Typed to, a superclass only, or counted: a class, not a route.
        assert store.routes("place") == []
        assert store.routes("city") == []
        # A loaded predicate stays, and so does a labelled unloaded one.
        assert store.routes("settlement") == [Iri("dbo:location")]
        assert store.routes("home town") == [Iri("dbo:hometown")]
        beam = OutputSequence("[A | place], [A | home town]", -0.1, 1)
        assert fallback_result(store, [beam]).relations == [Iri("dbo:hometown")]

    def test_wikidata_variants_close_over_property(self, wikidata_store):
        # The label sits on wdt:P176 alone, which is not loaded; the loaded
        # p:/ps: pair of the same property still gives the statement route.
        assert wikidata_store.routes("manufacturer") == [
            Iri("wdt:P176"),
            PropertyPath(Iri("p:P176"), Iri("ps:P176")),
        ]


# -- differential check of routes against the lookup they replaced ---------

ROUTE_IDS = ("P1", "P2", "P31", "P279", "birthPlace", "birth_place")
ROUTE_LABELS = ("birth place", "Birth-Place", "place", "P1", "maker", "instance of")
ROUTE_ENTITIES = [Iri(f"ex:E{i}") for i in range(3)]
ROUTE_CLASSES = [Iri("dbo:Place"), Iri("dbo:Person"), Iri("dbo:Settlement"), Iri("wd:Q5")]


def _random_route_store(rng: random.Random, profile) -> KbStore:
    """Loaded and labelled properties over small pools: labelled but unloaded
    routes, P31/P279, a qualifier-only property, class labels in dbo:, classes
    the store knows (typed to, either end of a subclass edge, counted, or also
    loaded as a predicate), and local names that normalize alike across
    namespaces."""
    namespaces = profile.property_namespaces

    def prop() -> Iri:
        if "pq" in namespaces and rng.random() < 0.15:
            return Iri("pq:P9")
        return Iri(f"{rng.choice(namespaces)}:{rng.choice(ROUTE_IDS)}")

    store = KbStore(profile)
    for _ in range(rng.randint(0, 12)):
        store.add_triple(rng.choice(ROUTE_ENTITIES), prop(), rng.choice(ROUTE_ENTITIES))
    for _ in range(rng.randint(0, 6)):
        iri = rng.choice([prop(), *ROUTE_CLASSES])
        store.set_label(iri, rng.choice(ROUTE_LABELS))
    for _ in range(rng.randint(0, 2)):
        cls, other = rng.sample(ROUTE_CLASSES, 2)
        kind = rng.randrange(5)
        if kind == 0:
            store.add_triple(rng.choice(ROUTE_ENTITIES), profile.type_predicate, cls)
        elif kind == 1:
            store.add_subclass(cls, other)
        elif kind == 2:
            store.add_subclass(other, cls)
        elif kind == 3:
            store.set_instance_count(cls, 3)
        else:  # a class that is also a loaded predicate stays a route
            store.add_triple(rng.choice(ROUTE_ENTITIES), cls, rng.choice(ROUTE_ENTITIES))
    return store


def _reference_classes(store: KbStore) -> set[Iri]:
    """Every IRI a type triple points at, in a subclass edge, or counted."""
    classes = set(store._count_overrides)
    for child, parents in store._parents.items():
        classes.add(child)
        classes.update(parents)
    for predicates in store._spo.values():
        classes.update(o for o in predicates.get(store.profile.type_predicate, ()) if isinstance(o, Iri))
    return classes


def _reference_lookup(store: KbStore, label: str) -> set[Iri]:
    """The label lookup that ``routes`` replaced, with its index of property
    variants rebuilt from the loaded predicates."""
    variants: dict = {}
    for p in store._pos:
        if namespace_of(p, store.profile) in store.profile.property_namespaces:
            variants.setdefault(local_name(p), {})[p] = None
    hits = set(store._lexicon.get(normalize_label(label), ()))
    if store.profile.statement_namespace is not None:
        for iri in list(hits):
            if namespace_of(iri, store.profile) in store.profile.property_namespaces:
                hits.update(variants.get(local_name(iri), ()))
    return hits


def _reference_routes(store: KbStore, label: str) -> list:
    """The regrouping of lookup hits by property id that ``routes`` replaced."""
    profile = store.profile
    variants = [
        iri
        for iri in _reference_lookup(store, label)
        if namespace_of(iri, profile) in profile.property_namespaces
    ]
    if not variants:
        return []
    order = {ns: i for i, ns in enumerate(profile.property_namespaces)}

    if profile.statement_namespace is None:
        classes = _reference_classes(store)
        variants = [iri for iri in variants if iri in store._pos or iri not in classes]
        variants.sort(key=lambda iri: (order[namespace_of(iri, profile)], iri))
        return variants

    by_property: dict[str, set[str]] = {}
    for iri in variants:
        by_property.setdefault(local_name(iri), set()).add(namespace_of(iri, profile))
    routes: list = []
    for pid in sorted(by_property):
        spaces = by_property[pid]
        if pid in ("P31", "P279"):
            if "wdt" in spaces:
                routes.append(Iri(f"wdt:{pid}"))
            continue
        if "wdt" in spaces:
            routes.append(Iri(f"wdt:{pid}"))
        if "ps" in spaces:
            routes.append(PropertyPath(Iri(f"p:{pid}"), Iri(f"ps:{pid}")))
        if "pq" in spaces:
            routes.append(PropertyPath(None, Iri(f"pq:{pid}")))
    return routes


@pytest.mark.parametrize("profile", [DBPEDIA, WIKIDATA], ids=lambda p: p.name)
def test_routes_match_reference_lookup(profile):
    labels = ROUTE_LABELS + ROUTE_IDS + ("P9", "unknown")
    seen = set()
    for seed in range(300):
        store = _random_route_store(random.Random(seed), profile)
        for label in labels:
            routes = store.routes(label)
            assert routes == _reference_routes(store, label), (seed, label)
            seen.update(namespace_of(relation_uri(r), profile) for r in routes)
    assert seen == set(profile.property_namespaces) - {profile.statement_namespace}


def _every_route_kind_store(profile, pids) -> KbStore:
    """Each property id loaded as a direct edge, a statement and a qualifier."""
    store = KbStore(profile)
    for pid in pids:
        stmt = Iri(f"wds:S{pid}")
        store.add_triple(Iri("wd:Q1"), Iri(f"wdt:{pid}"), Iri("wd:Q2"))
        store.add_triple(Iri("wd:Q1"), Iri(f"p:{pid}"), stmt)
        store.add_triple(stmt, Iri(f"ps:{pid}"), Iri("wd:Q2"))
        store.add_triple(stmt, Iri(f"pq:{pid}"), Iri("wd:Q3"))
    return store


def _all_routes(pid: str) -> list:
    return [
        Iri(f"wdt:{pid}"),
        PropertyPath(Iri(f"p:{pid}"), Iri(f"ps:{pid}")),
        PropertyPath(None, Iri(f"pq:{pid}")),
    ]


def test_direct_only_ids_follow_the_typing_predicates():
    """Direct-only property ids are those of ``type_predicate`` and
    ``subclass_predicate``, not a fixed list."""
    pids = ("P9", "P31", "P279")
    store = _every_route_kind_store(WIKIDATA, pids)
    assert {pid: store.routes(pid) for pid in pids} == {
        "P9": _all_routes("P9"), "P31": [Iri("wdt:P31")], "P279": [Iri("wdt:P279")],
    }
    profile = dataclasses.replace(WIKIDATA, type_predicate=Iri("wdt:P9"))
    store = _every_route_kind_store(profile, pids)
    assert {pid: store.routes(pid) for pid in pids} == {
        "P9": [Iri("wdt:P9")], "P31": _all_routes("P31"), "P279": [Iri("wdt:P279")],
    }


MEMO_LABELS = ROUTE_LABELS + ("birth place", "city", "town", "P31", "unknown")


@pytest.mark.parametrize("profile", [DBPEDIA, WIKIDATA], ids=lambda p: p.name)
class TestRouteMemo:
    """``routes`` memoizes per label; every mutator must drop what it cached."""

    def test_each_mutator_clears_the_memo(self, profile):
        first, last = profile.property_namespaces[0], profile.property_namespaces[-1]
        e0, e1 = ROUTE_ENTITIES[:2]
        store = KbStore(profile)
        store.add_triple(e0, Iri(f"{first}:birthPlace"), e1)
        for name, label in (("Place", "place"), ("City", "city"), ("Town", "town")):
            store.set_label(Iri(f"{first}:{name}"), label)
        flat = profile.statement_namespace is None
        steps = [
            # (mutator, whether it changes some label's routes under this profile)
            (lambda: store.add_triple(e1, Iri(f"{last}:birthPlace"), e0), True),
            # A type triple turns the labelled dbo:Place into a class; under
            # wikidata its predicate, wdt:P31, is new and gains a route.
            (lambda: store.add_triple(e0, profile.type_predicate, Iri(f"{first}:Place")), True),
            (lambda: store.set_label(Iri(f"{first}:bornIn"), "birth place"), True),
            (lambda: store.set_instance_count(Iri(f"{first}:City"), 5), flat),
            (lambda: store.add_subclass(Iri(f"{first}:Town"), Iri("ex:Settlement")), flat),
        ]
        before = {label: store.routes(label) for label in MEMO_LABELS}
        for i, (mutate, changes) in enumerate(steps):
            mutate()
            after = {label: store.routes(label) for label in MEMO_LABELS}
            for label in MEMO_LABELS:
                assert after[label] == _reference_routes(store, label), (i, label)
            assert (after != before) == changes, i
            before = after

    def test_routes_hand_out_copies(self, profile):
        store = KbStore(profile)
        pred = Iri(f"{profile.property_namespaces[0]}:birthPlace")
        store.add_triple(ROUTE_ENTITIES[0], pred, ROUTE_ENTITIES[1])
        store.routes("birth place").append(Iri("ex:junk"))
        assert store.routes("birth place") == [pred]

    def test_memo_holds_lexicon_labels_only(self, profile):
        for seed in range(20):
            store = _random_route_store(random.Random(seed), profile)
            for label in MEMO_LABELS + tuple(store._lexicon):
                store.routes(label)
            for i in range(1000):
                assert store.routes(f"no such label {i}") == []
            assert len(store._route_memo) <= store.lexicon_size, seed


@pytest.mark.parametrize("profile", [DBPEDIA, WIKIDATA], ids=lambda p: p.name)
def test_pruning_matches_first_match_filter(profile):
    """``validate_sequence`` prunes patterns exactly as a first-match test
    would, for entity and placeholder arguments over every route kind, and
    validates the first joining graph of the pruned product."""
    arguments = [*ENTITIES, VY]
    kinds = set()
    for seed in range(200):
        rng = random.Random(seed)
        _, store = _random_store(rng, profile)
        for _ in range(10):
            pairs = [(rng.choice(arguments), rng.choice(PROPS)) for _ in range(rng.randint(1, 2))]
            surviving = [
                [p for p in expand_pair(store, pair) if next(store._extend(p, {}), None) is not None]
                for pair in pairs
            ]
            survivors = {}
            result = validate_sequence(store, pairs, 1, survivors)
            # Pairs are pruned in order, up to the first that none survives.
            kept = next((i + 1 for i, ps in enumerate(surviving) if not ps), len(pairs))
            assert survivors == dict(zip(pairs[:kept], surviving)), (seed, pairs)
            holds = any(store.match_graph(g) is not None for g in itertools.product(*surviving))
            assert (result is not None) == holds, (seed, pairs)
            for (arg, _), patterns in zip(pairs, surviving):
                kinds.update(
                    (arg == VY, namespace_of(relation_uri(p.predicate), profile))
                    for p in patterns
                )
    routed = set(profile.property_namespaces) - {profile.statement_namespace}
    assert kinds == {(placeholder, ns) for placeholder in (False, True) for ns in routed}


class TestMatchGraph:
    def test_single_pattern_binding(self, ford_store):
        pattern = TriplePattern(Iri("dbr:Kansas_City_Assembly"), Iri("dbo:owningOrganisation"), VX)
        binding = ford_store.match_graph([pattern])
        assert binding == {"x": Iri("dbr:Ford_Motor_Company")}

    def test_join_through_shared_variable(self, ford_store):
        graph = [
            TriplePattern(Iri("dbr:Kansas_City_Assembly"), Iri("dbo:owningOrganisation"), VX),
            TriplePattern(Iri("dbr:Ford_Y-block_engine"), Iri("dbo:manufacturer"), VX),
        ]
        assert ford_store.match_graph(graph) is not None

    def test_failed_join(self, ford_store):
        graph = [
            TriplePattern(Iri("dbr:Kansas_City_Assembly"), Iri("dbo:owningOrganisation"), VX),
            TriplePattern(Iri("dbr:Kansas_City_Assembly"), Iri("dbo:location"), VX),
        ]
        assert ford_store.match_graph(graph) is None

    def test_two_variable_pattern(self, ford_store):
        graph = [TriplePattern(VY, Iri("dbo:foundedBy"), VX)]
        binding = ford_store.match_graph(graph)
        assert binding == {"y": Iri("dbr:Ford_Motor_Company"), "x": Iri("dbr:Henry_Ford")}

    def test_empty_graph(self, ford_store):
        assert ford_store.match_graph([]) == {}

    def test_y_first_graph_binding_satisfies_every_pattern(self, ford_store):
        graph = [
            TriplePattern(VY, Iri("dbo:owningOrganisation"), VX),
            TriplePattern(Iri("dbr:Ford_Y-block_engine"), Iri("dbo:manufacturer"), VX),
        ]
        binding = ford_store.match_graph(graph)
        assert set(binding) == {"x", "y"}
        for p in graph:
            s, o = (binding[t.name] if isinstance(t, Variable) else t for t in (p.subject, p.object))
            assert ford_store.pattern_satisfiable(TriplePattern(s, p.predicate, o))

    def test_answers_collects_all(self):
        triples = "\n".join(
            [
                nt(DBR + "A", DBO + "child", DBR + "B"),
                nt(DBR + "A", DBO + "child", DBR + "C"),
            ]
        )
        store = load_kb(triples)
        graph = [TriplePattern(Iri("dbr:A"), Iri("dbo:child"), VX)]
        assert store.answers(graph, VX) == {Iri("dbr:B"), Iri("dbr:C")}

    def test_answers_without_a_variable_takes_one_solution(self, ford_store, monkeypatch):
        # Two statements link wd:Q1 to wd:Q2, so the reified graph has two
        # solutions, yet ``answers`` draws only the first from the join.
        reified = load_kb(
            "\n".join(
                [nt(WD + "Q1", P + "P1", WDS + s) for s in ("S1", "S2")]
                + [nt(WDS + s, PS + "P1", WD + "Q2") for s in ("S1", "S2")]
            ),
            profile="wikidata",
        )
        path = PropertyPath(Iri("p:P1"), Iri("ps:P1"))
        owner = TriplePattern(Iri("dbr:Kansas_City_Assembly"), Iri("dbo:owningOrganisation"),
                              Iri("dbr:Ford_Motor_Company"))
        cases = [
            (ford_store, [owner], {None}),
            (ford_store, [owner, TriplePattern(Iri("dbr:Ford_Motor_Company"),
                                               Iri("dbo:owningOrganisation"), Iri("dbr:Henry_Ford"))],
             set()),
            (reified, [TriplePattern(Iri("wd:Q1"), path, Iri("wd:Q2"))], {None}),
            (reified, [TriplePattern(Iri("wd:Q2"), path, Iri("wd:Q1"))], set()),
        ]
        assert len(list(reified._join(cases[2][1]))) == 2
        for store, graph, expected in cases:
            drawn = []
            join = store._join
            monkeypatch.setattr(store, "_join", lambda p: (drawn.append(s) or s for s in join(p)))
            assert store.answers(graph, None) == expected, graph
            assert len(drawn) == len(expected), graph
            monkeypatch.undo()

    def test_literal_object_exact_match(self):
        store = load_kb(nt(DBR + "A", DBP + "pop", ("lit", "5")))
        holds = TriplePattern(Iri("dbr:A"), Iri("dbp:pop"), Literal("5"))
        misses = TriplePattern(Iri("dbr:A"), Iri("dbp:pop"), Literal("05"))
        assert store.pattern_satisfiable(holds)
        assert not store.pattern_satisfiable(misses)

    def test_path_pattern_forward(self, wikidata_store):
        path = PropertyPath(Iri("p:P176"), Iri("ps:P176"))
        pattern = TriplePattern(Iri("wd:Q42"), path, VX)
        assert wikidata_store.match_graph([pattern]) == {"x": Iri("wd:Q99")}

    def test_path_pattern_bound_both_ends(self, wikidata_store):
        path = PropertyPath(Iri("p:P176"), Iri("ps:P176"))
        assert wikidata_store.pattern_satisfiable(
            TriplePattern(Iri("wd:Q42"), path, Iri("wd:Q99"))
        )
        assert not wikidata_store.pattern_satisfiable(
            TriplePattern(Iri("wd:Q99"), path, Iri("wd:Q42"))
        )

    def test_qualifier_path_any_entry(self, wikidata_store):
        path = PropertyPath(None, Iri("pq:P155"))
        pattern = TriplePattern(Iri("wd:Q42"), path, VX)
        assert wikidata_store.match_graph([pattern]) == {"x": Iri("wd:Q55")}

    def test_path_with_variable_subject(self, wikidata_store):
        path = PropertyPath(Iri("p:P176"), Iri("ps:P176"))
        pattern = TriplePattern(VY, path, Iri("wd:Q99"))
        assert wikidata_store.match_graph([pattern]) == {"y": Iri("wd:Q42")}

    def test_no_entry_edges_without_statement_namespace(self):
        # A foreign predicate has no namespace under dbpedia, which has no
        # statement namespace either; neither may make it an entry edge.
        store = load_kb(
            nt(DBR + "A", "http://ex.org/foo", DBR + "S") + "\n" + nt(DBR + "S", DBO + "bar", DBR + "O")
        )
        path = PropertyPath(None, Iri("dbo:bar"))
        assert list(store._extend(TriplePattern(Iri("dbr:A"), path, VX), {})) == []
        assert list(store._extend(TriplePattern(VY, path, Iri("dbr:O")), {})) == []


# -- differential check of the matcher against a scan of the raw triples ---

PROPS = ("P1", "P2")
ENTITIES = [Iri(f"wd:Q{i}") for i in range(5)]
LITERALS = [Literal(str(i)) for i in range(2)]
STATEMENTS = [Iri(f"wds:S{i}") for i in range(4)]
FLAT = [Iri(f"{ns}:{pid}") for ns in ("dbo", "dbp", "wdt", "p", "ps", "pq") for pid in PROPS]
TERM_KINDS = ("entity", "literal", "x", "y")
PREDICATE_KINDS = ("flat", "statement", "qualifier")


def _random_store(rng: random.Random, profile) -> tuple[list[tuple], KbStore]:
    """Flat edges, p:/ps: statements and pq: qualifiers over small pools, so
    that subjects, objects, statements and self-loops collide."""
    values = ENTITIES + LITERALS
    triples = []
    for _ in range(rng.randint(0, 12)):
        pred = Iri(f"{rng.choice(('dbo', 'dbp', 'wdt', 'p'))}:{rng.choice(PROPS)}")
        triples.append((rng.choice(ENTITIES), pred, rng.choice(values + STATEMENTS)))
    for _ in range(rng.randint(0, 8)):
        stmt = rng.choice(STATEMENTS)
        triples.append((rng.choice(ENTITIES), Iri(f"p:{rng.choice(PROPS)}"), stmt))
        triples.append((stmt, Iri(f"ps:{rng.choice(PROPS)}"), rng.choice(values)))
        if rng.random() < 0.5:
            triples.append((stmt, Iri(f"pq:{rng.choice(PROPS)}"), rng.choice(values)))
    rng.shuffle(triples)
    store = KbStore(profile)
    for s, p, o in triples:
        store.add_triple(s, p, o)
    return triples, store


def _random_pattern(rng: random.Random, s_kind: str, p_kind: str, o_kind: str) -> TriplePattern:
    def term(kind):
        if kind == "entity":
            return rng.choice(ENTITIES)
        if kind == "literal":
            return rng.choice(LITERALS)
        return Variable(kind)

    pid = rng.choice(PROPS)
    if p_kind == "flat":
        pred = rng.choice(FLAT)
    elif p_kind == "statement":
        pred = PropertyPath(Iri(f"p:{pid}"), Iri(f"ps:{pid}"))
    else:
        pred = PropertyPath(None, Iri(f"pq:{pid}"))
    return TriplePattern(term(s_kind), pred, term(o_kind))


def _scan_solutions(triples, profile, pattern: TriplePattern) -> list[dict]:
    pred = pattern.predicate
    if isinstance(pred, PropertyPath):
        def enters(p):
            if pred.via is not None:
                return p == pred.via
            stmt_ns = profile.statement_namespace
            return stmt_ns is not None and namespace_of(p, profile) == stmt_ns

        pairs = {
            (s, o)
            for s, p, stmt in triples
            if enters(p)
            for s2, p2, o in triples
            if s2 == stmt and p2 == pred.edge
        }
    else:
        pairs = {(s, o) for s, p, o in triples if p == pred}
    out = []
    for pair in pairs:
        binding = {}
        for term, value in zip((pattern.subject, pattern.object), pair):
            if isinstance(term, Variable):
                if binding.setdefault(term.name, value) != value:
                    break
            elif term != value:
                break
        else:
            out.append(binding)
    return out


def _scan_join(triples, profile, patterns) -> list[dict]:
    solutions = [{}]
    for pattern in patterns:
        solutions = [
            {**a, **b}
            for a in solutions
            for b in _scan_solutions(triples, profile, pattern)
            if all(a.get(k, v) == v for k, v in b.items())
        ]
    return solutions


def _ref_solutions(self, patterns, binding):
    """The store's recursive join before it became one loop, kept verbatim
    but for the self-call, as the reference for solution order."""
    if not patterns:
        yield binding
        return
    pattern, rest = patterns[0], patterns[1:]
    subj, obj = pattern.subject, pattern.object
    s = binding.get(subj.name) if isinstance(subj, Variable) else subj
    o = binding.get(obj.name) if isinstance(obj, Variable) else obj
    same = s is None and subj == obj  # ?x p ?x
    for ps, po in self._pairs(pattern.predicate, s, o):
        if same and ps != po:
            continue
        extended = dict(binding)
        if s is None:
            extended[subj.name] = ps
        if o is None:
            extended[obj.name] = po
        yield from _ref_solutions(self, rest, extended)


def _ref_join(store, patterns):
    """The bound-first guard of ``KbStore._join`` over the recursive join."""
    if patterns and kb_store._unbound(patterns[0]):
        patterns = sorted(patterns, key=kb_store._unbound)
    return _ref_solutions(store, patterns, {})


def _as_set(bindings) -> set[frozenset]:
    return {frozenset(b.items()) for b in bindings}


@pytest.mark.parametrize("profile", [DBPEDIA, WIKIDATA], ids=lambda p: p.name)
class TestMatcherDifferential:
    def test_every_pattern_shape(self, profile):
        shapes = list(itertools.product(TERM_KINDS, PREDICATE_KINDS, TERM_KINDS))
        for seed in range(150):
            rng = random.Random(seed)
            triples, store = _random_store(rng, profile)
            for shape in shapes:
                pattern = _random_pattern(rng, *shape)
                expected = _as_set(_scan_solutions(triples, profile, pattern))
                assert _as_set(store._extend(pattern, {})) == expected, (seed, str(pattern))
                assert store.pattern_satisfiable(pattern) == bool(expected), (seed, str(pattern))

    def test_graphs_of_one_to_four_patterns(self, profile):
        for seed in range(150):
            rng = random.Random(seed)
            triples, store = _random_store(rng, profile)
            for _ in range(10):
                graph = [
                    _random_pattern(
                        rng, rng.choice(TERM_KINDS), rng.choice(PREDICATE_KINDS), rng.choice(TERM_KINDS)
                    )
                    for _ in range(rng.randint(1, 4))
                ]
                expected = _scan_join(triples, profile, graph)
                first = store.match_graph(graph)
                assert (first is None) == (not expected), (seed, [str(p) for p in graph])
                assert first is None or first in expected
                # The same solutions, in the same order, as the recursive join.
                assert list(store._join(graph)) == list(_ref_join(store, graph)), (
                    seed, [str(p) for p in graph]
                )
                for var in (VX, VY):
                    assert store.answers(graph, var) == {
                        sol[var.name] for sol in expected if var.name in sol
                    }, (seed, [str(p) for p in graph])


CLASSES = [Iri(f"dbo:C{i}") for i in range(3)] + ENTITIES[:1]


def _random_typed_store(rng: random.Random, profile) -> tuple[list[tuple], dict, KbStore]:
    """A ``_random_store`` plus type triples (repeated ones, literal objects
    and classes that are also entities among them) and count overrides."""
    triples, store = _random_store(rng, profile)
    type_p = profile.type_predicate
    for _ in range(rng.randint(0, 10)):
        if triples and rng.random() < 0.2:
            triple = rng.choice(triples)
        else:
            triple = (rng.choice(ENTITIES + STATEMENTS), type_p, rng.choice(CLASSES + LITERALS))
        triples.append(triple)
        store.add_triple(*triple)
    overrides: dict = {}
    for _ in range(rng.randint(0, 3)):
        cls = rng.choice(CLASSES)
        overrides[cls] = rng.randint(0, 9)
        store.set_instance_count(cls, overrides[cls])
    return triples, overrides, store


@pytest.mark.parametrize("profile", [DBPEDIA, WIKIDATA], ids=lambda p: p.name)
class TestDerivedViewsDifferential:
    """Relations and instance counts against a scan of the raw triples."""

    def test_relations_of(self, profile):
        def entry(p):
            stmt_ns = profile.statement_namespace
            return stmt_ns is not None and namespace_of(p, profile) == stmt_ns

        for seed in range(300):
            triples, _, store = _random_typed_store(random.Random(seed), profile)
            for e in ENTITIES + STATEMENTS + CLASSES:
                entered = {o for s, p, o in triples if s == e and entry(p)}
                expected = {p for s, p, o in triples if e in (s, o) and not entry(p)} | {
                    p for s, p, _ in triples if s in entered and namespace_of(p, profile) in ("ps", "pq")
                }
                assert store.relations_of(e) == expected, (seed, e)

    def test_instance_counts(self, profile):
        for seed in range(300):
            triples, overrides, store = _random_typed_store(random.Random(seed), profile)
            typed: dict = {}
            for s, p, o in triples:
                if p == profile.type_predicate and isinstance(o, Iri):
                    typed.setdefault(o, set()).add(s)
            expected = {cls: len(subjects) for cls, subjects in typed.items()}
            expected.update(overrides)
            assert list(store.instance_counts().items()) == list(expected.items()), seed
            for cls in CLASSES + ENTITIES:
                assert store.instance_count(cls) == expected.get(cls, 0), (seed, cls)


class TestProfileConfig:
    def test_base_profile_only(self):
        profile = load_profile_config("profile = wikidata\n")
        assert profile.name == "wikidata"

    def test_extra_prefix_makes_a_different_profile(self):
        extended = load_profile_config("profile = dbpedia\nprefix.ex = http://example.org/\n")
        assert extended != DBPEDIA
        assert KbStore(extended) != KbStore(DBPEDIA)
        assert load_profile_config("profile = dbpedia\n") == DBPEDIA
        assert hash(extended) == hash(DBPEDIA)

    def test_extra_prefix(self):
        profile = load_profile_config(
            "profile = dbpedia\nprefix.ex = http://example.org/\n"
        )
        assert profile.prefixes["ex"] == "http://example.org/"
        assert profile.prefixes["dbo"] == "http://dbpedia.org/ontology/"

    def test_extra_prefix_keeps_reified_fields(self):
        profile = load_profile_config(
            "profile = wikidata\nprefix.ex = http://example.org/\n"
        )
        assert profile.prefixes["ex"] == "http://example.org/"
        assert profile.statement_namespace == WIKIDATA.statement_namespace == "p"
        assert profile.property_namespaces == WIKIDATA.property_namespaces

    def test_built_in_prefix_override(self):
        profile = load_profile_config(
            "profile = wikidata\nprefix.wd = http://kb.example.org/entity/\n"
        )
        assert profile.prefixes["wd"] == "http://kb.example.org/entity/"
        assert normalize_iri("http://kb.example.org/entity/Q42", profile) == "wd:Q42"

    def test_missing_base(self):
        with pytest.raises(KbLoadError):
            load_profile_config("prefix.ex = http://example.org/\n")

    def test_unknown_key(self):
        with pytest.raises(KbLoadError, match="line 1"):
            load_profile_config("endpoint = http://example.org/\n")
