"""Core graph terms, triple patterns, knowledge-base profiles, and input lines.

IRIs inside a profile's known namespaces are kept in compact prefixed form
(``dbo:spouse``, ``wdt:P31``) so that equality, namespace tests, and local
names are cheap string operations.  Full IRIs are normalized at every
ingestion boundary: each :class:`Profile` compiles its namespaces into one
regex when it is made, so compaction is one match.  The KB loaders call it
through :func:`normalize_iri`; record readers (questions, gold, predictions)
call it through :func:`record_iri`, which keeps the profile's last
``RECORD_IRI_MEMO`` IRIs, since records repeat their relations and entities.

An :class:`Iri` is a validated ``str``, so ``Iri("dbo:x") == "dbo:x"``; a
:class:`Literal` is not, and never equals an ``Iri`` of its text.
"""

from __future__ import annotations

import io
import json
import re
from dataclasses import dataclass, field, fields
from functools import lru_cache
from pathlib import Path
from typing import IO, Any, Callable, Container, Iterable, Iterator

# A prefix name is an IRI scheme, so a prefixed name is a valid IRI.
PREFIX_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9+.\-]*")
_IRI_RE = re.compile(rf"{PREFIX_NAME_RE.pattern}:\S+|_:\S+")
# Distinct IRIs each profile's record memo keeps: enough for the relations and
# frequent entities of a run, small enough that one-off entities do not crowd
# them out.
RECORD_IRI_MEMO = 1024


class Iri(str):
    """An IRI in full or prefixed form, or a blank/statement node id: a
    ``str`` whose text is validated when it is made."""

    __slots__ = ()

    def __new__(cls, value: str) -> Iri:
        if not _IRI_RE.fullmatch(value):
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
_VARIABLES = {"?x": VAR_X, "?y": VAR_Y}

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
    """Namespace layout and traversal conventions of a knowledge base.

    Its IRI compaction is built from ``prefixes`` when it is made, and kept
    off the fields, so ``==``, ``hash`` and ``dataclasses.replace`` see only
    the fields; ``prefixes`` is not to be changed in place.
    """

    name: str
    prefixes: dict[str, str] = field(hash=False)
    property_namespaces: tuple[str, ...]
    type_predicate: Iri
    subclass_predicate: Iri
    statement_namespace: str | None = None

    def __post_init__(self):
        compact = _compaction(self.prefixes)
        object.__setattr__(self, "_compact", compact)
        object.__setattr__(self, "_record_iri", lru_cache(RECORD_IRI_MEMO)(compact))

    def __reduce__(self):
        # Pickled as its fields; the compaction is rebuilt when it is loaded.
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


def _compaction(prefixes: dict[str, str]) -> Callable[[str], Iri]:
    """Compaction of a string into a profile's prefixed form, as one regex match.

    The alternation lists namespaces longest first, and a regex alternation
    takes its first alternative that matches, so the longest namespace wins.
    A namespace under two prefix names keeps the first name.
    """
    names: dict[str, str] = {}
    for prefix, ns in prefixes.items():
        names.setdefault(ns, prefix)
    alternation = "|".join(map(re.escape, sorted(names, key=len, reverse=True)))
    # (?!) never matches: with no namespaces, every value stays as it is.
    match = re.compile(alternation if names else "(?!)").match

    def compact(value: str) -> Iri:
        found = match(value)
        if found is not None:
            local = value[found.end():]
            if local:
                return Iri(f"{names[found.group()]}:{local}")
        return Iri(value)

    return compact


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


# What each ``expect`` kind is called in JSON (RFC 8259) terms.
_JSON_KINDS = {
    str: "a string", list: "an array", dict: "a JSON object", int: "an integer", (int, float): "a number",
}
# The most characters of a wrong value's repr that an ``expect`` error shows,
# so that one huge field cannot flood the error stream.
_SHOWN = 80


def expect(value: Any, kind: type | tuple[type, ...], what: str) -> Any:
    """``value`` itself when it is of JSON ``kind``: ``str``, ``list``,
    ``dict``, ``int`` or ``(int, float)``; otherwise a TypeError naming
    ``what``.  A bool is never one, as ``true`` is not a JSON number; nor is
    an object an array of its keys, or a string one of its characters.  The
    message shows at most ``_SHOWN`` characters of the value's repr, cut
    with an ellipsis."""
    if not isinstance(value, kind) or value is True or value is False:
        shown = repr(value)
        if len(shown) > _SHOWN:
            shown = shown[: _SHOWN - 3] + "..."
        raise TypeError(f"{what} must be {_JSON_KINDS[kind]}, got {shown}")
    return value


# Huge or infinite numbers raise OverflowError, JSON nested too deep RecursionError.
RECORD_ERRORS = (KeyError, TypeError, ValueError, OverflowError, RecursionError)


def open_input(path: str | Path) -> IO[str]:
    """An input file as UTF-8 text.  A byte that is not UTF-8 is read as a lone
    surrogate (``surrogateescape``), which :func:`read_lines` reports with its
    line number."""
    return open(path, encoding="utf-8", errors="surrogateescape")


def _check_utf8(line: str) -> None:
    """Reject a lone surrogate: a byte that was not UTF-8 in the file."""
    try:
        line.encode("utf-8")
    except UnicodeEncodeError as exc:
        code = ord(line[exc.start])
        what = f"byte {code - 0xDC00:#04x}" if 0xDC80 <= code <= 0xDCFF else f"U+{code:04X}"
        raise ValueError(f"invalid UTF-8 {what} at character {exc.start + 1}") from None


def read_lines(source: str | IO[str] | Iterable[str], kind: str, parse: Callable[..., Any],
               error: type[Exception] = ValueError, numbered: bool = False) -> Iterator[Any]:
    """``parse(line)``, or ``parse(line, N)`` when ``numbered``, for each line
    N of ``source``, lazily, skipping blank lines and None results; a record
    error, or text that is not UTF-8, becomes ``error("<kind> line N: ...")``.
    A ``str`` source is split as a text file is read: only LF, CR LF and CR
    end a line."""
    lines = io.StringIO(source, newline=None) if isinstance(source, str) else source
    for lineno, line in enumerate(lines, start=1):
        if line.strip():
            try:
                if not line.isascii():
                    _check_utf8(line)
                record = parse(line, lineno) if numbered else parse(line)
            except RECORD_ERRORS as exc:
                raise error(f"{kind} line {lineno}: {exc}") from None
            if record is not None:
                yield record


def json_record(line: str, seen: Container[str] = ()) -> tuple[str, dict]:
    """A JSON Lines object record and its question id, a JSON string ``seen`` must not hold."""
    raw = expect(json.loads(line), dict, "record")
    qid = expect(raw["question_id"], str, "question_id")
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
    return profile._compact(expect(value, str, "IRI"))


def record_iri(value: str, profile: Profile) -> Iri:
    """:func:`normalize_iri` through the profile's bounded memo, for record
    readers.  An error is never kept, so bad text raises the same every time."""
    return profile._record_iri(expect(value, str, "IRI"))


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
    """Read a record's pattern term from its text form: ``?x``, ``"lit"``, or
    an IRI, compacted as :func:`record_iri` does."""
    text = expect(text, str, "term").strip()
    if text.startswith("?"):
        return _VARIABLES.get(text) or Variable(text[1:])
    if len(text) >= 2 and text[0] == '"' and text[-1] == '"':
        return Literal(text[1:-1])
    if text.startswith("<") and text.endswith(">"):
        text = text[1:-1]
    return profile._record_iri(text)
