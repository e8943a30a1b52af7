"""In-memory triple store with ontology metadata and conjunctive matching.

The store keeps each triple once, by subject (``_spo``) and by predicate
(``_pos``), and lists the predicates reaching each object (``_op``), all in
insertion-ordered dicts, so every enumeration is deterministic for a given
load order.  A leaf of those indexes that holds one term, as most do, is a
1-tuple instead, in the spirit of HDT's compact runs (Fernández et al., J.
Web Semantics 2013); its second term makes it a dict.  The store also
tracks the class hierarchy, reads per-class instance counts from the type
index, and keeps a label lexicon mapping normalized relation labels to the
IRIs that carry them.  The store alone turns a relation label into its
routes; no other module builds a route from namespace strings.

Validation asks the store the same two questions for every beam, so both
are answered from store-level state.  ``routes`` memoizes each lexicon
label's routes until the next mutator call.  ``pattern_satisfiable``
answers a flat pattern with one bound end by index membership: an entity's
predicate keys in ``_spo`` are its characteristic set (Neumann & Moerkotte,
ICDE 2011), and ``_op`` lists the predicates reaching each object.  Every
other shape takes the first binding of ``_extend``, the step of the store's
one join: a ``depth_first`` loop, entered by ``match_graph`` and ``answers``
through one bound-first guard; statement-entry predicates are kept as a set.

A load validates each distinct N-Triples token once, skips the line regex
for a line whose tokens are all known, and pauses the cyclic garbage
collector while it builds the store (see ``load_triples``).
"""

from __future__ import annotations

import dataclasses
import gc
import graphlib
import logging
import re
from typing import IO, Callable, Iterable, Iterator, Sequence

from .terms import (
    PREFIX_NAME_RE,
    Iri,
    Literal,
    Predicate,
    Profile,
    PropertyPath,
    Term,
    TriplePattern,
    Variable,
    get_profile,
    local_name,
    namespace_of,
    normalize_iri,
    normalize_label,
    read_lines,
)

logger = logging.getLogger(__name__)

_LITERAL_BODY = r'(?:[^"\\]|\\.)*'
_TRIPLE_RE = re.compile(
    r"^\s*"
    r"(<[^<>\s]+>|_:\S+)\s+"
    r"(<[^<>\s]+>)\s+"
    rf'(<[^<>\s]+>|_:\S+|"{_LITERAL_BODY}"(?:@[A-Za-z][A-Za-z0-9\-]*|\^\^<[^<>\s]+>)?)'
    r"\s*\.\s*(?:#.*)?$"
)
_LITERAL_RE = re.compile(f'"({_LITERAL_BODY})"')

# N-Triples ECHAR (literals only) and UCHAR (literals and IRIs) escapes.
_STRING_ESCAPES = {
    "t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f", '"': '"', "'": "'", "\\": "\\",
}
_ESCAPE_RE = re.compile(r"\\(?:u([0-9A-Fa-f]{4})|U([0-9A-Fa-f]{8})|(.?))", re.DOTALL)


class KbLoadError(Exception):
    """A malformed input line or record; the message names the line number."""


class HierarchyCycleError(KbLoadError):
    """The subclass hierarchy contains a cycle."""


def _unescape(raw: str, echars: bool) -> str:
    """Decode UCHAR escapes, plus ECHAR escapes when ``echars`` is set.

    Any other backslash sequence raises ValueError.
    """
    if "\\" not in raw:
        return raw

    def decode(m: re.Match) -> str:
        digits = m.group(1) or m.group(2)
        if digits is not None:
            code = int(digits, 16)
            if code > 0x10FFFF or 0xD800 <= code <= 0xDFFF:
                raise ValueError(f"escape {m.group(0)!r} is not a character")
            return chr(code)
        if echars and m.group(3) in _STRING_ESCAPES:
            return _STRING_ESCAPES[m.group(3)]
        raise ValueError(f"malformed or unknown escape {m.group(0)!r}")

    return _ESCAPE_RE.sub(decode, raw)


def _unbound(pattern: TriplePattern) -> bool:
    """Whether both ends of a pattern are variables."""
    return isinstance(pattern.subject, Variable) and isinstance(pattern.object, Variable)


def _add_to_leaf(index: dict, key: Term, term: Term) -> bool:
    """Add ``term`` to the leaf ``index[key]``; False when it is there already.

    A leaf holding one term is a 1-tuple, a quarter the size of a one-key
    dict; its second term makes it a dict with the first term first.  Either
    way it iterates in insertion order and answers ``in`` and ``len``.
    """
    leaf = index.get(key)
    if leaf is None:
        index[key] = (term,)
    elif term in leaf:
        return False
    elif type(leaf) is tuple:
        index[key] = {leaf[0]: None, term: None}
    else:
        leaf[term] = None
    return True


def depth_first(levels: Sequence, extend: Callable, root) -> Iterator:
    """Each node ``len(levels)`` steps below ``root``, in pre-order: step ``i``
    takes a node to the iterator ``extend(levels[i], node)``, kept on a list."""
    if len(levels) < 2:
        yield from (extend(levels[0], root) if levels else (root,))
        return
    stack = [extend(levels[0], root)]
    while stack:
        for node in stack[-1]:
            children = extend(levels[len(stack)], node)
            if len(stack) + 1 < len(levels):
                stack.append(children)
                break
            yield from children
        else:
            stack.pop()


class KbStore:
    """Triples plus ontology metadata for one knowledge-base profile."""

    def __init__(self, profile: Profile):
        self.profile = profile
        self._size = 0
        # subject -> predicate -> {object}; each leaf is a 1-tuple or a dict
        # of two or more terms, both ordered sets (see ``_add_to_leaf``).
        self._spo: dict[Iri, dict[Iri, tuple[Term] | dict[Term, None]]] = {}
        self._pos: dict[Iri, dict[Term, tuple[Iri] | dict[Iri, None]]] = {}
        # object -> {predicate}: the predicates that reach each object.
        self._op: dict[Term, tuple[Iri] | dict[Iri, None]] = {}
        self._parents: dict[Iri, dict[Iri, None]] = {}
        self._count_overrides: dict[Iri, int] = {}
        self._labels: dict[Iri, str] = {}
        self._lexicon: dict[str, dict[Iri, None]] = {}
        # Predicates in the statement namespace: the entry edges of a path.
        self._entries: dict[Iri, None] = {}
        # normalized label -> its routes, for lexicon keys only; every
        # mutator clears it, so it never outlives the state it was built from.
        self._route_memo: dict[str, tuple[Predicate, ...]] = {}

    def __len__(self) -> int:
        return self._size

    # -- construction -----------------------------------------------------

    def add_triple(self, s: Iri, p: Iri, o: Term) -> None:
        by_predicate = self._spo.get(s)
        if by_predicate is None:
            by_predicate = self._spo[s] = {}
        if not _add_to_leaf(by_predicate, p, o):
            return
        self._size += 1
        by_object = self._pos.get(p)
        if by_object is None:
            # First sight of the predicate: its lexicon entry and whether it
            # enters statements depend on nothing else, so both are made once.
            by_object = self._pos[p] = {}
            ns = namespace_of(p, self.profile)
            if ns in self.profile.property_namespaces:
                self._add_to_lexicon(local_name(p), p)
            if ns is not None and ns == self.profile.statement_namespace:
                self._entries[p] = None
        _add_to_leaf(by_object, o, s)
        _add_to_leaf(self._op, o, p)
        if p == self.profile.subclass_predicate and isinstance(o, Iri):
            self._parents.setdefault(s, {})[o] = None
        if self._route_memo:
            self._route_memo.clear()

    def _add_to_lexicon(self, label: str, iri: Iri) -> None:
        """File ``iri`` under the lexicon key of ``label``.  A label of
        punctuation alone files nothing: its key is the empty one, which
        every such label shares."""
        key = normalize_label(label)
        if key:
            self._lexicon.setdefault(key, {})[iri] = None

    def set_label(self, iri: Iri, label: str) -> None:
        self._labels[iri] = label
        self._add_to_lexicon(label, iri)
        self._route_memo.clear()

    def set_instance_count(self, cls: Iri, count: int) -> None:
        self._count_overrides[cls] = count
        self._route_memo.clear()

    def add_subclass(self, child: Iri, parent: Iri) -> None:
        self._parents.setdefault(child, {})[parent] = None
        self._route_memo.clear()

    def check_hierarchy(self) -> None:
        """Raise :class:`HierarchyCycleError` if subclass edges form a cycle."""
        try:
            graphlib.TopologicalSorter(self._parents).prepare()
        except graphlib.CycleError as exc:
            # The cycle runs from parent to child; report it child to parent.
            path = " -> ".join(reversed(exc.args[1]))
            raise HierarchyCycleError(f"class hierarchy cycle: {path}") from None

    # -- lookups ----------------------------------------------------------

    @property
    def lexicon_size(self) -> int:
        return len(self._lexicon)

    def instance_counts(self) -> dict[Iri, int]:
        typed = self._pos.get(self.profile.type_predicate, {})
        merged = {cls: len(subjects) for cls, subjects in typed.items() if isinstance(cls, Iri)}
        merged.update(self._count_overrides)
        return merged

    def instance_count(self, cls: Iri) -> int:
        if cls in self._count_overrides:
            return self._count_overrides[cls]
        return len(self._pos.get(self.profile.type_predicate, {}).get(cls, ()))

    def label_of(self, iri: Iri) -> str:
        label = self._labels.get(iri)
        return local_name(iri) if label is None else label

    def relations_of(self, entity: Iri) -> set[Iri]:
        """All relation IRIs attached to an entity, in either direction.

        Under a reified profile, statement-entry edges are traversed rather
        than reported: the statement's outgoing statement/qualifier
        predicates stand in for the entry edge itself.
        """
        linked = set(self._spo.get(entity, ())).union(self._op.get(entity, ()))
        found = linked.difference(self._entries)
        for stmt in self._statements_entered(entity, None):
            for sp in self._spo.get(stmt, ()):
                if namespace_of(sp, self.profile) in ("ps", "pq"):
                    found.add(sp)
        return found

    def _is_class(self, iri: Iri) -> bool:
        """Whether ``iri`` is typed to, in a subclass edge, or counted."""
        return (
            iri in self._pos.get(self.profile.type_predicate, {})
            or iri in self._count_overrides
            or iri in self._parents
            or any(iri in parents for parents in self._parents.values())
        )

    def most_specific_type(self, entity: Iri) -> Iri | None:
        """The most specific asserted class of an entity.

        Strict ancestors of other asserted classes are pruned; among the
        remainder the largest instance count wins, then the lexicographically
        smallest IRI.  One upward walk from the parents of every asserted
        class reaches exactly their strict ancestors, since ``check_hierarchy``
        keeps the hierarchy acyclic; one asserted class has nothing to prune.
        """
        classes = {
            o
            for o in self._spo.get(entity, {}).get(self.profile.type_predicate, ())
            if isinstance(o, Iri)
        }
        if len(classes) > 1:
            seen = {parent for c in classes for parent in self._parents.get(c, ())}
            frontier = list(seen)
            while frontier:
                for parent in self._parents.get(frontier.pop(), ()):
                    if parent not in seen:
                        seen.add(parent)
                        frontier.append(parent)
            classes -= seen
        return min(classes, key=lambda c: (-self.instance_count(c), c), default=None)

    def routes(self, label: str) -> list[Predicate]:
        """Ordered relation routes a label can take in this store.

        The routes start from the lexicon hits of ``label`` in the property
        namespaces.  A flat profile lists those hits by namespace order, then
        IRI, leaving out a hit that is not a loaded predicate but a known
        class (``label dbo:Place place`` names a class, not a relation).  A
        reified profile emits, per property id in sorted order: the direct
        edge, a statement route through the property's entry predicate, and a
        qualifier route through any entry predicate, each when its relation
        IRI is a hit or a loaded predicate.  The property ids of the type and
        subclass predicates stay direct-only.

        Each lexicon label's routes are compiled once and kept until the next
        mutator call; a label outside the lexicon has none and is not kept.
        """
        key = normalize_label(label)
        compiled = self._route_memo.get(key)
        if compiled is None:
            lexicon_hits = self._lexicon.get(key)
            if lexicon_hits is None:
                return []
            compiled = self._route_memo[key] = tuple(self._compile_routes(lexicon_hits))
        return list(compiled)

    def _compile_routes(self, lexicon_hits: Iterable[Iri]) -> list[Predicate]:
        """The routes of one lexicon entry, in the order ``routes`` documents."""
        profile = self.profile
        order = {ns: i for i, ns in enumerate(profile.property_namespaces)}
        hits = {iri: ns for iri in lexicon_hits if (ns := namespace_of(iri, profile)) in order}
        if profile.statement_namespace is None:
            return sorted(
                (iri for iri in hits if iri in self._pos or not self._is_class(iri)),
                key=lambda iri: (order[hits[iri]], iri),
            )

        def held(relation: Iri) -> bool:
            return relation in hits or relation in self._pos

        typing = (profile.type_predicate, profile.subclass_predicate)
        direct_only = {iri.partition(":")[2] for iri in typing}
        routes: list[Predicate] = []
        for pid in sorted({iri.partition(":")[2] for iri in hits}):
            direct, statement, qualifier = (Iri(f"{ns}:{pid}") for ns in ("wdt", "ps", "pq"))
            if held(direct):
                routes.append(direct)
            if pid in direct_only:
                continue
            if held(statement):
                routes.append(PropertyPath(Iri(f"{profile.statement_namespace}:{pid}"), statement))
            if held(qualifier):
                routes.append(PropertyPath(None, qualifier))
        return routes

    # -- pattern matching -------------------------------------------------

    def _statements_entered(self, s: Term, via: Iri | None) -> Iterator[Term]:
        """Statement nodes ``s`` enters through ``via``, in index order."""
        out = self._spo.get(s, {})
        if via is not None:
            yield from out.get(via, ())
        elif self._entries:  # a flat store enters no statements: skip the scan
            for p, stmts in out.items():
                if p in self._entries:
                    yield from stmts

    def _pairs(
        self, pred: Predicate, s: Term | None, o: Term | None
    ) -> Iterator[tuple[Iri, Term]]:
        """``(subject, object)`` pairs joined by ``pred``; ``None`` is unbound.

        Every walk starts from a bound end, so no index is scanned and
        filtered: a flat predicate reads ``_spo[s][pred]``, else
        ``_pos[pred][o]``, else all of ``_pos[pred]``.  A path with a bound
        subject follows its entry edges out of ``_spo[s]``; one with an
        unbound subject walks back from its edge step: the entry predicates
        in ``_op`` of each statement node, then their subjects in ``_pos``.
        """
        if isinstance(pred, PropertyPath):
            if s is not None:
                for stmt in self._statements_entered(s, pred.via):
                    for _, obj in self._pairs(pred.edge, stmt, o):
                        yield s, obj
                return
            entries = self._entries if pred.via is None else (pred.via,)
            for stmt, obj in self._pairs(pred.edge, None, o):
                for p in self._op.get(stmt, ()):
                    if p in entries:
                        for subj in self._pos[p][stmt]:
                            yield subj, obj
            return
        if s is not None:
            objects = self._spo.get(s, {}).get(pred, {})
            if o is None:
                for obj in objects:
                    yield s, obj
            elif o in objects:
                yield s, o
        elif o is not None:
            for subj in self._pos.get(pred, {}).get(o, {}):
                yield subj, o
        else:
            for obj, subjects in self._pos.get(pred, {}).items():
                for subj in subjects:
                    yield subj, obj

    def pattern_satisfiable(self, pattern: TriplePattern) -> bool:
        """Whether one pattern holds under some binding.

        A flat pattern with one bound end is answered by index membership:
        ``(e p ?)`` is ``p`` in ``_spo[e]``, ``(? p e)`` is ``p`` in
        ``_op[e]``.  Every other shape takes the first binding of
        :meth:`_extend`.
        """
        subj, pred, obj = pattern.subject, pattern.predicate, pattern.object
        if not isinstance(pred, PropertyPath):
            if isinstance(obj, Variable) and not isinstance(subj, Variable):
                return pred in self._spo.get(subj, ())
            if isinstance(subj, Variable) and not isinstance(obj, Variable):
                return pred in self._op.get(obj, ())
        return next(self._extend(pattern, {}), None) is not None

    def _extend(self, pattern: TriplePattern, binding: dict) -> Iterator[dict]:
        """Each binding that extends ``binding`` under one pattern, in index order."""
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
            yield extended

    def _join(self, patterns: Sequence[TriplePattern]) -> Iterator[dict[str, Term]]:
        """Every solution of ``patterns``.  If the first has two variables, the
        join starts from those with a bound end (RDF-3X, Neumann & Weikum,
        VLDB 2008), not from a whole predicate."""
        if patterns and _unbound(patterns[0]):
            patterns = sorted(patterns, key=_unbound)
        return depth_first(patterns, self._extend, {})

    def match_graph(self, patterns: Sequence[TriplePattern]) -> dict[str, Term] | None:
        """The first solution of :meth:`_join`, or None.  Callers read only
        ``is None``; the binding is deterministic."""
        return next(self._join(patterns), None)

    def answers(self, patterns: Sequence[TriplePattern], var: Variable | None) -> set[Term | None]:
        """All values ``var`` takes over the solutions of :meth:`_join`; with no
        ``var``, ``{None}`` if there is a first solution (one ``next``), else ``set()``."""
        if var is None:
            return set() if next(self._join(patterns), None) is None else {None}
        return {sol[var.name] for sol in self._join(patterns) if var.name in sol}


# -- loading ---------------------------------------------------------------


def _parse_nt_term(raw: str, profile: Profile) -> Term:
    if raw.startswith("<"):
        return normalize_iri(_unescape(raw[1:-1], echars=False), profile)
    if raw.startswith("_:"):
        return Iri(raw)
    # Literal: drop the quotes plus any language or datatype tag.
    return Literal(_unescape(_LITERAL_RE.match(raw).group(1), echars=True))


def parse_nt_line(
    line: str, profile: Profile, terms: dict[str, Term]
) -> tuple[Iri, Iri, Term] | None:
    """One N-Triples line to a ``(subject, predicate, object)`` tuple; None
    for blank and comment lines.  Errors quote the line.

    ``terms`` maps raw term tokens, delimiters and tags included, to terms
    already parsed under ``profile``; misses are parsed and added, so each
    distinct token is decoded and validated once and yields one object.
    """
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    m = _TRIPLE_RE.match(line)
    if m is None:
        raise ValueError(f"not a valid triple line: {stripped!r}")
    parsed = []
    for raw in m.groups():
        term = terms.get(raw)
        if term is None:
            try:
                term = terms[raw] = _parse_nt_term(raw, profile)
            except ValueError as exc:
                raise ValueError(f"{exc}: {stripped!r}") from None
        parsed.append(term)
    return tuple(parsed)


def load_triples(store: KbStore, source: str | IO[str] | Iterable[str]) -> None:
    """Add every triple of an N-Triples source to ``store``.

    One term table lives for the call, so a term repeated over many lines is
    parsed once and shared by all three indexes.  A line whose three
    whitespace-separated tokens are all in the table skips ``_TRIPLE_RE``:
    each token was captured by the alternative its first character names, so
    the regex would take the same three groups.  A subject token starting
    with ``"`` or a predicate not starting with ``<`` was captured in another
    position and takes the regex, which rejects it.  ``str.split`` and the
    regex's ``\\s`` agree on whitespace.

    The cyclic garbage collector is paused while the store is built: every
    term is a tracked object, so each pass walks the growing indexes, and a
    load makes no reference cycles for it to free.  When the load had it
    running, it resumes with one pass over the young generations, which hold
    the objects the load made; the first allocations after the load would
    otherwise start that walk, twice, in whatever code runs next.  The old
    generation, the caller's heap, is left to the collector's own schedule.
    """
    profile = store.profile
    terms: dict[str, Term] = {}

    def parse(line: str) -> tuple[Iri, Iri, Term] | None:
        parts = line.split()
        if len(parts) == 4 and parts[3] == "." and parts[0][0] != '"' and parts[1][0] == "<":
            s, p, o, _ = parts
            if s in terms and p in terms and o in terms:
                return terms[s], terms[p], terms[o]
        return parse_nt_line(line, profile, terms)

    collecting = gc.isenabled()
    gc.disable()
    try:
        for triple in read_lines(source, "triples", parse, KbLoadError):
            store.add_triple(*triple)
    finally:
        if collecting:
            gc.enable()
            gc.collect(1)


def load_ontology(store: KbStore, source: str | IO[str] | Iterable[str]) -> None:
    """Tab-separated ontology records: subclass, count, and label rows."""

    def parse(line: str) -> tuple[Callable, Iri, Iri | int | str] | None:
        if line.lstrip().startswith("#"):
            return None
        fields = line.strip("\n").split("\t")
        kind = fields[0].strip()
        if kind not in ("subclass", "count", "label"):
            raise ValueError(f"unknown record kind {kind!r}")
        if len(fields) != 3:
            raise ValueError(f"{kind} rows take 2 fields")
        iri = normalize_iri(fields[1].strip(), store.profile)
        if kind == "subclass":
            return store.add_subclass, iri, normalize_iri(fields[2].strip(), store.profile)
        if kind == "count":
            count = int(fields[2])
            if count < 0:
                raise ValueError(f"count rows take a non-negative count, got {count}")
            return store.set_instance_count, iri, count
        if not fields[2].strip():
            raise ValueError("label rows take a non-empty label")
        return store.set_label, iri, fields[2].strip()

    for setter, iri, value in read_lines(source, "ontology", parse, KbLoadError):
        setter(iri, value)


def load_kb(
    triples: str | IO[str] | Iterable[str],
    ontology: str | IO[str] | Iterable[str] | None = None,
    profile: str | Profile = "dbpedia",
) -> KbStore:
    """Build a store from N-Triples text plus an optional ontology table."""
    if isinstance(profile, str):
        profile = get_profile(profile)
    store = KbStore(profile)
    load_triples(store, triples)
    if ontology is not None:
        load_ontology(store, ontology)
    store.check_hierarchy()
    logger.info("loaded %d triples", len(store))
    return store


def load_profile_config(source: str | IO[str] | Iterable[str]) -> Profile:
    """Read a profile config file: a base profile name plus extra prefixes.

    Lines are ``key = value``; ``profile`` names the base and ``prefix.<p>``
    adds or overrides a non-empty namespace.  Unknown keys, keys given twice
    and prefix names that cannot start a prefixed IRI are errors.
    """
    seen: set[str] = set()

    def parse(line: str) -> tuple[str, str | Profile] | None:
        if line.lstrip().startswith("#"):
            return None
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep:
            raise ValueError("expected 'key = value'")
        if key != "profile" and not key.startswith("prefix."):
            raise ValueError(f"unknown key {key!r}")
        if key in seen:
            raise ValueError(f"{key!r} is given twice")
        seen.add(key)
        if key == "profile":
            return key, get_profile(value)
        name = key[len("prefix."):]
        if not PREFIX_NAME_RE.fullmatch(name):
            raise ValueError(f"prefix name {name!r} does not match {PREFIX_NAME_RE.pattern}")
        if not value:
            raise ValueError(f"prefix {name!r} has an empty namespace")
        return key, value

    settings = dict(read_lines(source, "profile", parse, KbLoadError))
    base = settings.pop("profile", None)
    if base is None:
        raise KbLoadError("profile config names no base profile")
    extra = {key[len("prefix."):]: value for key, value in settings.items()}
    return dataclasses.replace(base, prefixes={**base.prefixes, **extra})
