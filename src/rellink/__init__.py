"""Relation linking for KB question answering.

Pipeline: load a knowledge base, enrich each question with its entities'
types and candidate relations, obtain ranked structured sequences from a
generator, validate them against the KB, and emit relation URIs.
"""

from .evaluation import (
    EvalReport,
    GoldRecord,
    read_gold,
    relaxed_score,
    render_table,
    score_sets,
)
from .generator import (
    BaselineGenerator,
    FixtureGenerator,
    GeneratorConfig,
    GeneratorError,
    RemoteGenerator,
    make_generator,
)
from .kb_store import (
    HierarchyCycleError,
    KbLoadError,
    KbStore,
    load_kb,
    load_profile_config,
)
from .knowledge_integration import (
    EncoderInput,
    EntityStructure,
    InputTooLongError,
    LinkedEntity,
    build_encoder_input,
    build_entity_structure,
    rank_candidate_relations,
    read_question_records,
    render_input,
    token_count,
)
from .knowledge_validation import (
    LinkingResult,
    ValidationConfig,
    enumerate_graphs,
    expand_pair,
    link,
    validate_sequence,
)
from .sequence_grammar import (
    ArgRelPair,
    EntityArg,
    OutputParseError,
    OutputSequence,
    PlaceholderArg,
    WH_LEXICON,
    detect_ask,
    parse_output,
    serialize_target,
)
from .similarity import TrigramSimilarity, WordVectorSimilarity
from .terms import (
    DBPEDIA,
    VAR_X,
    VAR_Y,
    WIKIDATA,
    Iri,
    Literal,
    Profile,
    PropertyPath,
    TriplePattern,
    Variable,
)

__version__ = "0.1.0"

__all__ = [
    "ArgRelPair",
    "BaselineGenerator",
    "DBPEDIA",
    "EncoderInput",
    "EntityArg",
    "EntityStructure",
    "EvalReport",
    "FixtureGenerator",
    "GeneratorConfig",
    "GeneratorError",
    "GoldRecord",
    "HierarchyCycleError",
    "InputTooLongError",
    "Iri",
    "KbLoadError",
    "KbStore",
    "LinkedEntity",
    "LinkingResult",
    "Literal",
    "OutputParseError",
    "OutputSequence",
    "PlaceholderArg",
    "Profile",
    "PropertyPath",
    "RemoteGenerator",
    "TriplePattern",
    "VAR_X",
    "VAR_Y",
    "ValidationConfig",
    "Variable",
    "WH_LEXICON",
    "WIKIDATA",
    "WordVectorSimilarity",
    "TrigramSimilarity",
    "build_encoder_input",
    "build_entity_structure",
    "detect_ask",
    "enumerate_graphs",
    "expand_pair",
    "link",
    "load_kb",
    "load_profile_config",
    "make_generator",
    "parse_output",
    "rank_candidate_relations",
    "read_gold",
    "read_question_records",
    "relaxed_score",
    "render_input",
    "render_table",
    "score_sets",
    "serialize_target",
    "token_count",
    "validate_sequence",
]
