"""In-memory triple store with ontology metadata and conjunctive matching.

The store indexes triples three ways (by subject, by predicate, and by
object) using insertion-ordered dicts, so every enumeration is deterministic
for a given load order.  On top of the raw triples it tracks the class
hierarchy, per-class instance counts, and a label lexicon mapping normalized
relation labels to the IRIs that carry them.
"""

from __future__ import annotations

import dataclasses
import logging
import re
from typing import IO, Iterable, Iterator, Sequence

from .terms import (
    Iri,
    Literal,
    Predicate,
    Profile,
    PropertyPath,
    Term,
    Triple,
    TriplePattern,
    Variable,
    get_profile,
    local_name,
    namespace_of,
    normalize_iri,
    normalize_label,
)

logger = logging.getLogger(__name__)

_TRIPLE_RE = re.compile(
    r"^\s*"
    r"(<[^<>\s]+>|_:\S+)\s+"
    r"(<[^<>\s]+>)\s+"
    r'(<[^<>\s]+>|_:\S+|"(?:[^"\\]|\\.)*"(?:@[A-Za-z][A-Za-z0-9\-]*|\^\^<[^<>\s]+>)?)'
    r"\s*\.\s*(?:#.*)?$"
)

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


class KbStore:
    """Triples plus ontology metadata for one knowledge-base profile."""

    def __init__(self, profile: Profile):
        self.profile = profile
        self._size = 0
        # subject -> predicate -> {object}; dicts double as ordered sets.
        self._spo: dict[Iri, dict[Iri, dict[Term, None]]] = {}
        self._pos: dict[Iri, dict[Term, dict[Iri, None]]] = {}
        self._osp: dict[Term, dict[Iri, dict[Iri, None]]] = {}
        self._parents: dict[Iri, dict[Iri, None]] = {}
        self._instance_counts: dict[Iri, int] = {}
        self._count_overrides: dict[Iri, int] = {}
        self._labels: dict[Iri, str] = {}
        self._lexicon: dict[str, dict[Iri, None]] = {}
        self._property_variants: dict[str, dict[Iri, None]] = {}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KbStore):
            return NotImplemented
        return (
            self.profile == other.profile
            and self._spo == other._spo
            and self._parents == other._parents
            and self.instance_counts() == other.instance_counts()
            and self._labels == other._labels
            and self._lexicon == other._lexicon
        )

    def __len__(self) -> int:
        return self._size

    # -- construction -----------------------------------------------------

    def add_triple(self, triple: Triple) -> None:
        s, p, o = triple.subject, triple.predicate, triple.object
        objects = self._spo.setdefault(s, {}).setdefault(p, {})
        if o in objects:
            return
        objects[o] = None
        self._size += 1
        self._pos.setdefault(p, {}).setdefault(o, {})[s] = None
        self._osp.setdefault(o, {}).setdefault(s, {})[p] = None

        ns = namespace_of(p, self.profile)
        if ns in self.profile.property_namespaces:
            self._lexicon.setdefault(normalize_label(local_name(p)), {})[p] = None
            if self.profile.statement_namespace is not None:
                self._property_variants.setdefault(local_name(p), {})[p] = None
        if p == self.profile.type_predicate and isinstance(o, Iri):
            self._instance_counts[o] = self._instance_counts.get(o, 0) + 1
        if p == self.profile.subclass_predicate and isinstance(o, Iri):
            self._parents.setdefault(s, {})[o] = None

    def set_label(self, iri: Iri, label: str) -> None:
        self._labels[iri] = label
        self._lexicon.setdefault(normalize_label(label), {})[iri] = None

    def set_instance_count(self, cls: Iri, count: int) -> None:
        self._count_overrides[cls] = count

    def add_subclass(self, child: Iri, parent: Iri) -> None:
        self._parents.setdefault(child, {})[parent] = None

    def check_hierarchy(self) -> None:
        """Raise :class:`HierarchyCycleError` if subclass edges form a cycle.

        Depth-first over parents with an explicit stack, so hierarchies of
        any depth are checked without recursion.
        """
        state: dict[Iri, int] = {}  # 1 = on the trail, 2 = done
        for root in list(self._parents):
            if root in state:
                continue
            state[root] = 1
            trail = [root]
            pending = [iter(self._parents.get(root, {}))]
            while pending:
                parent = next(pending[-1], None)
                if parent is None:
                    state[trail.pop()] = 2
                    pending.pop()
                    continue
                mark = state.get(parent)
                if mark == 1:
                    cycle = trail[trail.index(parent):] + [parent]
                    path = " -> ".join(t.value for t in cycle)
                    raise HierarchyCycleError(f"class hierarchy cycle: {path}")
                if mark is None:
                    state[parent] = 1
                    trail.append(parent)
                    pending.append(iter(self._parents.get(parent, {})))

    # -- lookups ----------------------------------------------------------

    def has_triple(self, s: Iri, p: Iri, o: Term) -> bool:
        return o in self._spo.get(s, {}).get(p, {})

    @property
    def lexicon_size(self) -> int:
        return len(self._lexicon)

    def instance_counts(self) -> dict[Iri, int]:
        merged = dict(self._instance_counts)
        merged.update(self._count_overrides)
        return merged

    def instance_count(self, cls: Iri) -> int:
        if cls in self._count_overrides:
            return self._count_overrides[cls]
        return self._instance_counts.get(cls, 0)

    def label_of(self, iri: Iri) -> str:
        return self._labels.get(iri, local_name(iri))

    def relations_of(self, entity: Iri) -> set[Iri]:
        """All relation IRIs attached to an entity, in either direction.

        Under a reified profile, statement-entry edges are traversed rather
        than reported: the statement's outgoing statement/qualifier
        predicates stand in for the entry edge itself.
        """
        stmt_ns = self.profile.statement_namespace
        found: set[Iri] = set()
        for p, objects in self._spo.get(entity, {}).items():
            if stmt_ns is not None and namespace_of(p, self.profile) == stmt_ns:
                for stmt in objects:
                    if not isinstance(stmt, Iri):
                        continue
                    for sp in self._spo.get(stmt, {}):
                        if namespace_of(sp, self.profile) in ("ps", "pq"):
                            found.add(sp)
                continue
            found.add(p)
        for preds in self._osp.get(entity, {}).values():
            for p in preds:
                if stmt_ns is not None and namespace_of(p, self.profile) == stmt_ns:
                    continue
                found.add(p)
        return found

    def is_ancestor(self, ancestor: Iri, cls: Iri) -> bool:
        """True when ``ancestor`` is a strict transitive superclass of ``cls``."""
        seen = {cls}
        frontier = [cls]
        while frontier:
            node = frontier.pop()
            for parent in self._parents.get(node, {}):
                if parent == ancestor:
                    return True
                if parent not in seen:
                    seen.add(parent)
                    frontier.append(parent)
        return False

    def most_specific_type(self, entity: Iri) -> Iri | None:
        """The most specific asserted class of an entity.

        Strict ancestors of other asserted classes are pruned; among the
        remainder the largest instance count wins, then the lexicographically
        smallest IRI.
        """
        asserted = [
            o
            for o in self._spo.get(entity, {}).get(self.profile.type_predicate, {})
            if isinstance(o, Iri)
        ]
        if not asserted:
            return None
        classes = set(asserted)
        leaves = [
            c
            for c in classes
            if not any(c != d and self.is_ancestor(c, d) for d in classes)
        ]
        leaves.sort(key=lambda c: (-self.instance_count(c), c.value))
        return leaves[0]

    def lookup_relation_label(self, label: str) -> set[Iri]:
        """Relation IRIs whose label or local name normalizes like ``label``.

        Under a reified profile the hit set is closed over property variants:
        a hit on any route of a property pulls in every loaded route.
        """
        hits = set(self._lexicon.get(normalize_label(label), ()))
        if self.profile.statement_namespace is not None:
            for iri in list(hits):
                if namespace_of(iri, self.profile) in self.profile.property_namespaces:
                    hits.update(self._property_variants.get(local_name(iri), ()))
        return hits

    # -- pattern matching -------------------------------------------------

    def _enters(self, via: Iri | None, p: Iri) -> bool:
        """Whether ``p`` is an entry edge of a path through ``via``."""
        if via is not None:
            return p == via
        return namespace_of(p, self.profile) == self.profile.statement_namespace

    def _pairs(
        self, pred: Predicate, s: Term | None, o: Term | None
    ) -> Iterator[tuple[Iri, Term]]:
        """``(subject, object)`` pairs joined by ``pred``; ``None`` is unbound.

        Every walk starts from a bound end, so no index is scanned and
        filtered: a flat predicate reads ``_spo[s][pred]``, else
        ``_pos[pred][o]``, else all of ``_pos[pred]``.  A path with a bound
        subject follows its entry edges out of ``_spo[s]``; one with an
        unbound subject walks back from its edge step through ``_osp`` of
        each statement node.
        """
        if isinstance(pred, PropertyPath):
            if s is not None:
                for p, stmts in self._spo.get(s, {}).items():
                    if self._enters(pred.via, p):
                        for stmt in stmts:
                            for _, obj in self._pairs(pred.edge, stmt, o):
                                yield s, obj
                return
            for stmt, obj in self._pairs(pred.edge, None, o):
                for subj, entries in self._osp.get(stmt, {}).items():
                    if any(self._enters(pred.via, p) for p in entries):
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

    def match_pattern(
        self, pattern: TriplePattern, binding: dict[str, Term] | None = None
    ) -> Iterator[dict[str, Term]]:
        """Bindings (extending ``binding``) under which one pattern holds."""
        binding = binding or {}
        subj, obj = pattern.subject, pattern.object
        s = binding.get(subj.name) if isinstance(subj, Variable) else subj
        o = binding.get(obj.name) if isinstance(obj, Variable) else obj
        same = s is None and subj == obj  # ?x p ?x
        for ps, po in self._pairs(pattern.predicate, s, o):
            if same and ps != po:
                continue
            out = dict(binding)
            if s is None:
                out[subj.name] = ps
            if o is None:
                out[obj.name] = po
            yield out

    def pattern_satisfiable(self, pattern: TriplePattern) -> bool:
        return next(self.match_pattern(pattern), None) is not None

    def _solutions(
        self, patterns: Sequence[TriplePattern], binding: dict[str, Term]
    ) -> Iterator[dict[str, Term]]:
        if not patterns:
            yield binding
            return
        for extended in self.match_pattern(patterns[0], binding):
            yield from self._solutions(patterns[1:], extended)

    def match_graph(self, graph) -> dict[str, Term] | None:
        """First satisfying assignment for a conjunction of patterns, or None.

        Accepts a candidate graph or a bare sequence of patterns.  The first
        match is deterministic: indexes iterate in insertion order.
        """
        patterns = getattr(graph, "patterns", graph)
        return next(self._solutions(list(patterns), {}), None)

    def answers(self, graph, var: Variable) -> set[Term]:
        """All values a variable takes over every solution of the graph."""
        patterns = getattr(graph, "patterns", graph)
        return {
            sol[var.name]
            for sol in self._solutions(list(patterns), {})
            if var.name in sol
        }


# -- loading ---------------------------------------------------------------


def _parse_nt_term(raw: str, profile: Profile) -> Term:
    if raw.startswith("<"):
        return normalize_iri(_unescape(raw[1:-1], echars=False), profile)
    if raw.startswith("_:"):
        return Iri(raw)
    # Literal: strip the closing quote plus any language or datatype tag.
    body = raw[1:]
    end = None
    i = 0
    while i < len(body):
        if body[i] == "\\":
            i += 2
            continue
        if body[i] == '"':
            end = i
            break
        i += 1
    if end is None:
        raise ValueError("unterminated literal")
    return Literal(_unescape(body[:end], echars=True))


def parse_nt_line(line: str, profile: Profile) -> Triple | None:
    """One N-Triples line to a Triple; None for blank and comment lines."""
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    m = _TRIPLE_RE.match(line)
    if m is None:
        raise ValueError("not a valid triple line")
    subject = _parse_nt_term(m.group(1), profile)
    predicate = _parse_nt_term(m.group(2), profile)
    obj = _parse_nt_term(m.group(3), profile)
    if isinstance(subject, Literal) or not isinstance(predicate, Iri):
        raise ValueError("subject and predicate must be IRIs")
    return Triple(subject, predicate, obj)


def _as_lines(source: str | IO[str] | Iterable[str]) -> Iterable[str]:
    if isinstance(source, str):
        return source.splitlines()
    return source


def load_triples(store: KbStore, source: str | IO[str] | Iterable[str]) -> None:
    for lineno, line in enumerate(_as_lines(source), start=1):
        try:
            triple = parse_nt_line(line, store.profile)
        except ValueError as exc:
            raise KbLoadError(f"triples line {lineno}: {exc}: {line.strip()!r}") from None
        if triple is not None:
            store.add_triple(triple)


def load_ontology(store: KbStore, source: str | IO[str] | Iterable[str]) -> None:
    """Tab-separated ontology records: subclass, count, and label rows."""
    for lineno, line in enumerate(_as_lines(source), start=1):
        stripped = line.strip("\n")
        if not stripped.strip() or stripped.lstrip().startswith("#"):
            continue
        fields = stripped.split("\t")
        kind = fields[0].strip()
        try:
            if kind == "subclass":
                if len(fields) != 3:
                    raise ValueError("subclass rows take 2 fields")
                store.add_subclass(
                    normalize_iri(fields[1].strip(), store.profile),
                    normalize_iri(fields[2].strip(), store.profile),
                )
            elif kind == "count":
                if len(fields) != 3:
                    raise ValueError("count rows take 2 fields")
                store.set_instance_count(
                    normalize_iri(fields[1].strip(), store.profile),
                    int(fields[2]),
                )
            elif kind == "label":
                if len(fields) != 3:
                    raise ValueError("label rows take 2 fields")
                store.set_label(
                    normalize_iri(fields[1].strip(), store.profile),
                    fields[2].strip(),
                )
            else:
                raise ValueError(f"unknown record kind {kind!r}")
        except ValueError as exc:
            raise KbLoadError(f"ontology line {lineno}: {exc}") from None


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
    logger.info(
        "loaded %d triples, %d classes with instances", len(store), len(store.instance_counts())
    )
    return store


def load_profile_config(source: str | IO[str] | Iterable[str]) -> Profile:
    """Read a profile config file: a base profile name plus extra prefixes.

    Lines are ``key = value``; ``profile`` names the base and ``prefix.<p>``
    adds or overrides a namespace.  Unknown keys are errors.
    """
    base: Profile | None = None
    extra: dict[str, str] = {}
    for lineno, line in enumerate(_as_lines(source), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise KbLoadError(f"profile line {lineno}: expected 'key = value'")
        key, value = key.strip(), value.strip()
        if key == "profile":
            base = get_profile(value)
        elif key.startswith("prefix."):
            extra[key[len("prefix."):]] = value
        else:
            raise KbLoadError(f"profile line {lineno}: unknown key {key!r}")
    if base is None:
        raise KbLoadError("profile config names no base profile")
    if not extra:
        return base
    return dataclasses.replace(base, prefixes={**base.prefixes, **extra})
