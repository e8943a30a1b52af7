"""Core graph terms, triple patterns, knowledge-base profiles, and input lines.

IRIs inside a profile's known namespaces are kept in compact prefixed form
(``dbo:spouse``, ``wdt:P31``) so that equality, namespace tests, and local
names are cheap string operations.  Full IRIs are normalized at every
ingestion boundary via :func:`normalize_iri`.

An :class:`Iri` is a validated ``str``, so ``Iri("dbo:x") == "dbo:x"``; a
:class:`Literal` is not, and never equals an ``Iri`` of its text.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import IO, Any, Callable, Container, Iterable, Iterator

# A prefix name is an IRI scheme, so a prefixed name is a valid IRI.
PREFIX_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9+.\-]*")
_IRI_RE = re.compile(rf"^(?:{PREFIX_NAME_RE.pattern}:\S+|_:\S+)$")


class Iri(str):
    """An IRI in full or prefixed form, or a blank/statement node id: a
    ``str`` whose text is validated when it is made."""

    __slots__ = ()

    def __new__(cls, value: str) -> Iri:
        if not _IRI_RE.match(value):
            raise ValueError(f"not a valid IRI or prefixed name: {value!r}")
        return super().__new__(cls, value)


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

    def __str__(self) -> str:
        return f"{self.via or '*'}/{self.edge}"


Predicate = Iri | PropertyPath


@dataclass(frozen=True)
class TriplePattern:
    """One subject-predicate-object pattern; constants or ?x / ?y variables."""

    subject: PatternTerm
    predicate: Predicate
    object: PatternTerm

    def __str__(self) -> str:
        return f"({self.subject} {self.predicate} {self.object})"


def relation_uri(predicate: Predicate) -> Iri:
    """The relation a pattern asserts: the edge step for two-step routes."""
    return predicate.edge if isinstance(predicate, PropertyPath) else predicate


@dataclass(frozen=True)
class Profile:
    """Namespace layout and traversal conventions of a knowledge base."""

    name: str
    prefixes: dict[str, str] = field(hash=False)
    property_namespaces: tuple[str, ...]
    type_predicate: Iri
    subclass_predicate: Iri
    statement_namespace: str | None = None


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
    type_predicate=Iri("wdt:P31"),
    subclass_predicate=Iri("wdt:P279"),
    statement_namespace="p",
)

PROFILES = {"dbpedia": DBPEDIA, "wikidata": WIKIDATA}


def expect_str(value: object, what: str) -> str:
    """``value`` itself when it is a string; otherwise a TypeError naming ``what``."""
    if not isinstance(value, str):
        raise TypeError(f"{what} must be a string, got {value!r}")
    return value


# Huge or infinite numbers raise OverflowError, JSON nested too deep RecursionError.
RECORD_ERRORS = (KeyError, TypeError, ValueError, OverflowError, RecursionError)


def read_lines(source: str | IO[str] | Iterable[str], kind: str, parse: Callable[[str], Any],
               error: type[Exception] = ValueError) -> Iterator[Any]:
    """``parse(line)`` for each line of ``source``, lazily, skipping blank lines
    and None results; a record error becomes ``error("<kind> line N: ...")``."""
    lines = source.splitlines() if isinstance(source, str) else source
    for lineno, line in enumerate(lines, start=1):
        if line.strip():
            try:
                record = parse(line)
            except RECORD_ERRORS as exc:
                raise error(f"{kind} line {lineno}: {exc}") from None
            if record is not None:
                yield record


def json_record(line: str, seen: Container[str] = ()) -> tuple[str, dict]:
    """A JSON Lines object record and its question id as text, which ``seen`` must not hold."""
    raw = json.loads(line)
    if not isinstance(raw, dict):
        raise TypeError("record must be a JSON object")
    qid = str(raw["question_id"])
    if qid in seen:
        raise ValueError(f"duplicate question_id {qid!r}")
    return qid, raw


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
    expect_str(value, "IRI")
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
    head, sep, _ = iri.partition(":")
    if sep and head in profile.prefixes:
        return head
    return None


def local_name(iri: Iri) -> str:
    """The final path segment: after ``#``, else ``/``, else the prefix colon."""
    for sep in ("#", "/"):
        if sep in iri:
            return iri.rsplit(sep, 1)[1]
    return iri.rsplit(":", 1)[1]  # every IRI holds a colon


def normalize_label(text: str) -> str:
    """Case-fold and strip non-alphanumerics; the lexicon key for a label."""
    return "".join(ch for ch in text.casefold() if ch.isalnum())


def parse_term(text: str, profile: Profile) -> PatternTerm:
    """Read a pattern term from its text form: ``?x``, ``"lit"``, or an IRI."""
    text = expect_str(text, "term").strip()
    if text.startswith("?"):
        return Variable(text[1:])
    if len(text) >= 2 and text[0] == '"' and text[-1] == '"':
        return Literal(text[1:-1])
    if text.startswith("<") and text.endswith(">"):
        text = text[1:-1]
    return normalize_iri(text, profile)
