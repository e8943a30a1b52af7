"""Core graph terms, triple patterns, and knowledge-base profiles.

IRIs inside a profile's known namespaces are kept in compact prefixed form
(``dbo:spouse``, ``wdt:P31``) so that equality, namespace tests, and local
names are cheap string operations.  Full IRIs are normalized at every
ingestion boundary via :func:`normalize_iri`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

_IRI_RE = re.compile(r"^(?:[A-Za-z][A-Za-z0-9+.\-]*:\S+|_:\S+)$")


@dataclass(frozen=True)
class Iri:
    """An IRI in full or prefixed form, or a blank/statement node id."""

    value: str

    def __post_init__(self):
        if not _IRI_RE.match(self.value):
            raise ValueError(f"not a valid IRI or prefixed name: {self.value!r}")

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Literal:
    """A literal node; identity is the lexical form only.

    Datatype and language tags are dropped at load, so ``"1"^^xsd:integer``
    and ``"1"@en`` on one subject and predicate load as one triple.  Gold
    graphs can only write plain ``"..."`` literals, and relaxed scoring needs
    them to match typed KB literals.
    """

    lexical: str

    def __str__(self) -> str:
        return f'"{self.lexical}"'


@dataclass(frozen=True)
class Variable:
    """A query variable; the pattern language only uses ``x`` and ``y``."""

    name: str

    def __post_init__(self):
        if self.name not in ("x", "y"):
            raise ValueError(f"variable must be 'x' or 'y', got {self.name!r}")

    def __str__(self) -> str:
        return f"?{self.name}"


VAR_X = Variable("x")
VAR_Y = Variable("y")

Term = Iri | Literal
PatternTerm = Iri | Literal | Variable


@dataclass(frozen=True)
class PropertyPath:
    """A two-step route through an intermediate statement node.

    Matches ``subject --via--> stmt --edge--> object``.  ``via`` of ``None``
    accepts any predicate in the statement-entry namespace (used for
    qualifier routes, where the statement may belong to any property).
    """

    via: Iri | None
    edge: Iri


Predicate = Iri | PropertyPath


@dataclass(frozen=True)
class Triple:
    subject: Iri
    predicate: Iri
    object: Term


@dataclass(frozen=True)
class TriplePattern:
    """One subject-predicate-object pattern; constants or ?x / ?y variables."""

    subject: PatternTerm
    predicate: Predicate
    object: PatternTerm

    def __str__(self) -> str:
        if isinstance(self.predicate, PropertyPath):
            via = self.predicate.via.value if self.predicate.via else "*"
            pred = f"{via}/{self.predicate.edge.value}"
        else:
            pred = self.predicate.value
        return f"({self.subject} {pred} {self.object})"


def relation_uri(predicate: Predicate) -> Iri:
    """The relation a pattern asserts: the edge step for two-step routes."""
    return predicate.edge if isinstance(predicate, PropertyPath) else predicate


@dataclass(frozen=True)
class Profile:
    """Namespace layout and traversal conventions of a knowledge base."""

    name: str
    prefixes: dict[str, str] = field(hash=False)
    property_namespaces: tuple[str, ...]
    preference: tuple[str, ...]
    type_predicate: Iri
    subclass_predicate: Iri
    statement_namespace: str | None = None
    direct_only: frozenset[str] = frozenset()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Profile) and self.name == other.name

    def __hash__(self) -> int:
        return hash(self.name)


_COMMON_PREFIXES = {
    "rdf": "http://www.w3.org/1999/02/22-rdf-syntax-ns#",
    "rdfs": "http://www.w3.org/2000/01/rdf-schema#",
    "xsd": "http://www.w3.org/2001/XMLSchema#",
}

DBPEDIA = Profile(
    name="dbpedia",
    prefixes={
        "dbo": "http://dbpedia.org/ontology/",
        "dbp": "http://dbpedia.org/property/",
        "dbr": "http://dbpedia.org/resource/",
        **_COMMON_PREFIXES,
    },
    property_namespaces=("dbo", "dbp"),
    preference=("dbo", "dbp"),
    type_predicate=Iri("rdf:type"),
    subclass_predicate=Iri("rdfs:subClassOf"),
)

WIKIDATA = Profile(
    name="wikidata",
    prefixes={
        "wd": "http://www.wikidata.org/entity/",
        "wds": "http://www.wikidata.org/entity/statement/",
        "wdt": "http://www.wikidata.org/prop/direct/",
        "p": "http://www.wikidata.org/prop/",
        "ps": "http://www.wikidata.org/prop/statement/",
        "pq": "http://www.wikidata.org/prop/qualifier/",
        **_COMMON_PREFIXES,
    },
    property_namespaces=("wdt", "p", "ps", "pq"),
    preference=("wdt", "p", "ps", "pq"),
    type_predicate=Iri("wdt:P31"),
    subclass_predicate=Iri("wdt:P279"),
    statement_namespace="p",
    direct_only=frozenset({"P31", "P279"}),
)

PROFILES = {"dbpedia": DBPEDIA, "wikidata": WIKIDATA}


def get_profile(name: str) -> Profile:
    try:
        return PROFILES[name]
    except KeyError:
        raise ValueError(f"unknown profile {name!r}; expected one of {sorted(PROFILES)}") from None


def normalize_iri(value: str, profile: Profile) -> Iri:
    """Compact a full IRI into prefixed form where a profile namespace applies.

    Longest namespace wins, so statement-entity IRIs compact to ``wds:`` and
    not to a truncated ``wd:`` form.  Values already prefixed pass through.
    """
    best: tuple[int, str] | None = None
    for prefix, ns in profile.prefixes.items():
        if value.startswith(ns) and (best is None or len(ns) > best[0]):
            best = (len(ns), prefix)
    if best is not None:
        _, prefix = best
        local = value[len(profile.prefixes[prefix]):]
        if local:
            return Iri(f"{prefix}:{local}")
    return Iri(value)


def namespace_of(iri: Iri, profile: Profile) -> str | None:
    """The profile prefix an IRI belongs to, or None for foreign IRIs."""
    head, sep, _ = iri.value.partition(":")
    if sep and head in profile.prefixes:
        return head
    return None


def local_name(iri: Iri) -> str:
    """The final path segment: after ``#``, else ``/``, else the prefix colon."""
    value = iri.value
    for sep in ("#", "/"):
        if sep in value:
            return value.rsplit(sep, 1)[1]
    return value.rsplit(":", 1)[1] if ":" in value else value


def normalize_label(text: str) -> str:
    """Case-fold and strip non-alphanumerics; the lexicon key for a label."""
    return "".join(ch for ch in text.casefold() if ch.isalnum())


def parse_term(text: str, profile: Profile) -> PatternTerm:
    """Read a pattern term from its text form: ``?x``, ``"lit"``, or an IRI."""
    text = text.strip()
    if text.startswith("?"):
        return Variable(text[1:])
    if len(text) >= 2 and text[0] == '"' and text[-1] == '"':
        return Literal(text[1:-1])
    if text.startswith("<") and text.endswith(">"):
        text = text[1:-1]
    return normalize_iri(text, profile)
