"""Shared fixtures: small hand-built knowledge bases and linked questions."""

from __future__ import annotations

import pytest

from rellink import brackets
from rellink.kb_store import load_kb
from rellink.knowledge_integration import EntityStructure, LinkedEntity
from rellink.terms import Iri

DBO = "http://dbpedia.org/ontology/"
DBP = "http://dbpedia.org/property/"
DBR = "http://dbpedia.org/resource/"
RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
RDFS_SUBCLASS = "http://www.w3.org/2000/01/rdf-schema#subClassOf"
WD = "http://www.wikidata.org/entity/"
WDS = "http://www.wikidata.org/entity/statement/"
WDT = "http://www.wikidata.org/prop/direct/"
P = "http://www.wikidata.org/prop/"
PS = "http://www.wikidata.org/prop/statement/"
PQ = "http://www.wikidata.org/prop/qualifier/"


def nt(subject: str, predicate: str, obj) -> str:
    """One N-Triples line; pass a plain string for IRIs, ("lit", s) for literals."""
    def term(t):
        if isinstance(t, tuple):
            return f'"{t[1]}"'
        return f"<{t}>"

    return f"{term(subject)} <{predicate}> {term(obj)} ."


def entity(question: str, mention: str, iri: str) -> LinkedEntity:
    start = question.index(mention)
    return LinkedEntity(mention, start, start + len(mention), Iri(iri))


def unscored(structures: list[EntityStructure]) -> list[tuple]:
    """Each structure's (mention, type label, relations): what a rendering
    holds, without the scores."""
    return [(s.mention, s.type_label, s.relations) for s in structures]


def parse_structures(text: str) -> list[tuple]:
    """Recover entity structures, as :func:`unscored` gives them, from their
    rendered bracket groups.

    The inverse of rendering, for round-trip tests.  The field count
    disambiguates: three fields are mention/type/relations, two are
    mention/relations (type omitted), one is a bare mention.
    """
    out = []
    for group in brackets.bracket_groups(text):
        fields = [f.strip() for f in brackets.split_unescaped(group, "|")]
        if len(fields) > 3:
            raise brackets.OutputParseError("too many '|' fields", group)
        mention = brackets.unescape(fields[0])
        type_label: str | None = None
        rel_field = ""
        if len(fields) == 3:
            type_label = brackets.unescape(fields[1]) or None
            rel_field = fields[2]
        elif len(fields) == 2:
            rel_field = fields[1]
        relations = [
            brackets.unescape(r.strip())
            for r in brackets.split_unescaped(rel_field, ",")
            if r.strip()
        ]
        out.append((mention, type_label, relations))
    return out


# Reference rendering, the oracle for build_encoder_input: the earlier
# renderer, kept verbatim, which escapes every field afresh on each call.


def ref_render_structure(structure: EntityStructure) -> str:
    parts = [brackets.escape(structure.mention)]
    if structure.type_label is not None:
        parts.append(brackets.escape(structure.type_label))
    parts.append(", ".join(brackets.escape(r) for r in structure.relations))
    return "[" + " | ".join(parts) + "]"


def ref_render_input(question, structures) -> str:
    chunks = [question.strip()]
    chunks.extend(ref_render_structure(s) for s in structures)
    return " ".join(chunks)


FORD_QUESTION = (
    "What is the owning organization of the Ford Kansas City Assembly Plant "
    "and also the builder of the Ford Y-block engine?"
)

FORD_TRIPLES = "\n".join(
    [
        nt(DBR + "Kansas_City_Assembly", DBO + "owningOrganisation", DBR + "Ford_Motor_Company"),
        nt(DBR + "Ford_Y-block_engine", DBO + "manufacturer", DBR + "Ford_Motor_Company"),
        nt(DBR + "Kansas_City_Assembly", DBO + "location", DBR + "Missouri"),
        nt(DBR + "Kansas_City_Assembly", RDF_TYPE, DBO + "Factory"),
        nt(DBR + "Kansas_City_Assembly", RDF_TYPE, DBO + "Building"),
        nt(DBR + "Ford_Y-block_engine", RDF_TYPE, DBO + "AutomobileEngine"),
        nt(DBR + "Ford_Motor_Company", RDF_TYPE, DBO + "Company"),
        nt(DBR + "Ford_Motor_Company", DBO + "foundedBy", DBR + "Henry_Ford"),
    ]
)

FORD_ONTOLOGY = "\n".join(
    [
        f"subclass\t{DBO}Factory\t{DBO}Building",
        f"subclass\t{DBO}Building\t{DBO}ArchitecturalStructure",
        f"count\t{DBO}Factory\t500",
        f"count\t{DBO}Building\t5000",
    ]
)

FORD_BEAM_1 = (
    "[Ford Kansas City Assembly Plant | owningOrganisation], "
    "[Ford Y-block engine | manufacturer]"
)


@pytest.fixture(scope="session")
def ford_store():
    return load_kb(FORD_TRIPLES, FORD_ONTOLOGY, "dbpedia")


@pytest.fixture(scope="session")
def ford_entities():
    return [
        entity(FORD_QUESTION, "Ford Kansas City Assembly Plant", "dbr:Kansas_City_Assembly"),
        entity(FORD_QUESTION, "Ford Y-block engine", "dbr:Ford_Y-block_engine"),
    ]


WIKIDATA_TRIPLES = "\n".join(
    [
        nt(WD + "Q42", P + "P176", WDS + "S1"),
        nt(WDS + "S1", PS + "P176", WD + "Q99"),
        nt(WDS + "S1", PQ + "P155", WD + "Q55"),
        nt(WD + "Q42", WDT + "P31", WD + "Q5"),
        nt(WD + "Q99", WDT + "P31", WD + "Q6"),
    ]
)

WIKIDATA_ONTOLOGY = "\n".join(
    [
        f"label\t{WDT}P176\tmanufacturer",
        f"label\t{PQ}P155\tfollows",
        f"label\t{WD}Q5\thuman",
    ]
)


@pytest.fixture(scope="session")
def wikidata_store():
    return load_kb(WIKIDATA_TRIPLES, WIKIDATA_ONTOLOGY, "wikidata")


OBAMA_QUESTION = "Was Barack Obama president of Canada?"

OBAMA_TRIPLES = "\n".join(
    [
        nt(DBR + "United_States", DBO + "president", DBR + "Barack_Obama"),
        nt(DBR + "Barack_Obama", DBO + "birthPlace", DBR + "Hawaii"),
        nt(DBR + "Canada", DBO + "capital", DBR + "Ottawa"),
    ]
)


@pytest.fixture(scope="session")
def obama_store():
    return load_kb(OBAMA_TRIPLES, None, "dbpedia")


@pytest.fixture(scope="session")
def obama_true_store():
    extra = nt(DBR + "Barack_Obama", DBO + "president", DBR + "Canada")
    return load_kb(OBAMA_TRIPLES + "\n" + extra, None, "dbpedia")


@pytest.fixture
def obama_entities():
    return [
        entity(OBAMA_QUESTION, "Barack Obama", "dbr:Barack_Obama"),
        entity(OBAMA_QUESTION, "Canada", "dbr:Canada"),
    ]


ALMA_QUESTION = "In which state is the alma mater of Ben Ysursa located?"

ALMA_TRIPLES = "\n".join(
    [
        nt(DBR + "Ben_Ysursa", DBP + "almaMater", DBR + "Gonzaga_University"),
        nt(DBR + "Ben_Ysursa", DBO + "almaMater", DBR + "Gonzaga_University"),
        nt(DBR + "Gonzaga_University", DBO + "state", DBR + "Washington"),
    ]
)

ALMA_GOLD_GRAPH = [
    ["dbr:Ben_Ysursa", "dbp:almaMater", "?x"],
    ["?x", "dbo:state", "?y"],
]


@pytest.fixture(scope="session")
def alma_store():
    return load_kb(ALMA_TRIPLES, None, "dbpedia")
