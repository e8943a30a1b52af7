"""Spans around rellink's public functions, recorded from the benchmark side.

``Tracer.install`` replaces each traced function on the module or class
where its callers look it up, with a wrapper that records a span: name,
start, end, parent span and operation id.  Spans stay in memory until
``write`` dumps them as JSON Lines.  ``layer_metrics`` turns them into the
per-layer figures the benchmark reports.
"""

from __future__ import annotations

import json
from array import array
from time import perf_counter

# (span name, module or module:Class where callers look the function up,
# attribute).  Setup targets are installed before the store loads; operation
# targets after the untraced pass.
SETUP_TARGETS = [
    ("kb_store.load_triples", "rellink.kb_store", "load_triples"),
    ("kb_store.load_ontology", "rellink.kb_store", "load_ontology"),
    ("kb_store.check_hierarchy", "rellink.kb_store:KbStore", "check_hierarchy"),
]
SETUP_NAMES = {name for name, _, _ in SETUP_TARGETS}
OP_TARGETS = [
    ("kb_store.pattern_satisfiable", "rellink.kb_store:KbStore", "pattern_satisfiable"),
    ("kb_store.match_graph", "rellink.kb_store:KbStore", "match_graph"),
    ("kb_store.answers", "rellink.kb_store:KbStore", "answers"),
    ("kb_store.relations_of", "rellink.kb_store:KbStore", "relations_of"),
    ("kb_store.most_specific_type", "rellink.kb_store:KbStore", "most_specific_type"),
    ("knowledge_integration.build_encoder_input", "rellink.knowledge_integration", "build_encoder_input"),
    ("knowledge_integration.build_entity_structure", "rellink.knowledge_integration", "build_entity_structure"),
    ("knowledge_integration.rank_candidate_relations", "rellink.knowledge_integration", "rank_candidate_relations"),
    ("similarity.score", "rellink.similarity:TrigramSimilarity", "score"),
    ("generator.generate", "rellink.generator:FixtureGenerator", "generate"),
    ("generator.generate", "rellink.generator:BaselineGenerator", "generate"),
    ("sequence_grammar.parse_output", "rellink.knowledge_validation", "parse_output"),
    ("knowledge_validation.link", "rellink.knowledge_validation", "link"),
    ("knowledge_validation.validate_sequence", "rellink.knowledge_validation", "validate_sequence"),
    ("knowledge_validation.expand_pair", "rellink.knowledge_validation", "expand_pair"),
    ("knowledge_validation.fallback_result", "rellink.knowledge_validation", "fallback_result"),
    ("evaluation.relaxed_score", "rellink.evaluation", "relaxed_score"),
]

# What a span keeps of its function's result, for hit and yield ratios.
OUTCOME = {
    "kb_store.pattern_satisfiable": bool,
    "kb_store.match_graph": lambda r: r is not None,
    "generator.generate": len,
    "knowledge_integration.build_entity_structure": lambda s: len(s.relations),
    "knowledge_integration.build_encoder_input": lambda e: sum(len(s.relations) for s in e.structures),
    "knowledge_validation.expand_pair": len,
}
RAISED = "raised"


def _resolve(path: str):
    import importlib

    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Spans:
    """Spans in parallel flat arrays: a few large containers rather than one
    object per span, so the cyclic garbage collector does not slow down as
    spans pile up."""

    def __init__(self):
        self.name: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")   # index of the parent span, or -1
        self.op = array("q")       # operation id, or -1 during setup
        self.outcome: list = []    # see OUTCOME; RAISED when the call raised

    def __len__(self) -> int:
        return len(self.name)

    def open(self, name: str, parent: int, op: int) -> int:
        index = len(self.name)
        self.name.append(name)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.parent.append(parent)
        self.op.append(op)
        self.outcome.append(None)
        return index


class Tracer:
    """Installs span-recording wrappers.  While ``enabled`` is false a
    wrapper only forwards the call, so traced and untraced executions of
    the same operation can alternate in one process."""

    def __init__(self):
        self.spans = Spans()
        self._stack: list[int] = []
        self.op_id = -1
        self.enabled = True
        self.missing: list[str] = []

    def install(self, targets) -> None:
        for name, path, attr in targets:
            self.wrap_attr(_resolve(path), attr, name)

    def wrap_attr(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        setattr(owner, attr, self._wrap(name, original))

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        ends, outcomes = spans.end, spans.outcome
        outcome = OUTCOME.get(name)

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = spans.open(name, stack[-1] if stack else -1, self.op_id)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[index] = perf_counter()
                outcomes[index] = RAISED
                stack.pop()
                raise
            ends[index] = perf_counter()
            stack.pop()
            if outcome is not None:
                outcomes[index] = outcome(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self._stack.append(self.spans.open("operation", -1, op_id))

    def end_op(self) -> None:
        self.spans.end[self._stack.pop()] = perf_counter()

    def write(self, path) -> None:
        s = self.spans
        with open(path, "w", encoding="utf-8") as sink:
            for i in range(len(s)):
                sink.write(json.dumps([i, s.name[i], s.start[i], s.end[i], s.parent[i], s.op[i]]) + "\n")


def layer_metrics(spans: Spans, ops, setup: dict) -> dict[str, float]:
    """Per-layer figures from the spans of one traced run.

    ``ops`` tallies the traced operations: ``latency`` (one entry each),
    ``scanned`` (beams ``link`` examined) and ``validated`` (results that
    validated).  ``setup`` holds the load figures measured around set-up.
    Times and counts are per traced operation unless the name says otherwise.
    """
    n_ops = max(1, len(ops.latency))
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    hits: dict[str, int] = {}    # sum of bool or count outcomes
    raised: dict[str, int] = {}
    rows = list(zip(spans.name, spans.start, spans.end, spans.parent, spans.outcome))
    child_time = [0.0] * len(rows)
    under: dict[tuple[str, str], list] = {}
    for name, start, end, parent, outcome in rows:
        if parent >= 0:
            child_time[parent] += end - start
            under.setdefault((spans.name[parent], name), []).append(outcome)
    for i, (name, start, end, _, outcome) in enumerate(rows):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start - child_time[i])
        if outcome == RAISED:
            raised[name] = raised.get(name, 0) + 1
        elif outcome is not None:
            hits[name] = hits.get(name, 0) + int(outcome)

    def per_op(name):
        return calls.get(name, 0) / n_ops

    def ms(name):
        return 1000.0 * self_s.get(name, 0.0) / n_ops

    def ratio(a, b):
        return a / b if b else 0.0

    m: dict[str, float] = {}
    m["kb_store.load_triples_per_s"] = ratio(setup["triples"], setup["load_triples_s"])
    m["kb_store.bytes_per_triple"] = ratio(setup["load_rss_bytes"], setup["triples"])
    m["kb_store.load_ontology_ms"] = 1000.0 * setup["load_ontology_s"]
    m["kb_store.check_hierarchy_ms"] = 1000.0 * setup["check_hierarchy_s"]
    for fn in ("pattern_satisfiable", "match_graph"):
        name = f"kb_store.{fn}"
        m[f"{name}.calls"] = per_op(name)
        m[f"{name}.self_ms"] = ms(name)
        m[f"{name}.hit_frac"] = ratio(hits.get(name, 0), calls.get(name, 0))
    for fn in ("answers", "relations_of"):
        m[f"kb_store.{fn}.calls"] = per_op(f"kb_store.{fn}")
        m[f"kb_store.{fn}.self_ms"] = ms(f"kb_store.{fn}")
    m["kb_store.most_specific_type.self_ms"] = ms("kb_store.most_specific_type")
    m["kb_store.self_ms"] = sum(
        ms(n) for n in self_s if n.startswith("kb_store.") and n not in SETUP_NAMES
    )

    ki = "knowledge_integration"
    m[f"{ki}.build_encoder_input.self_ms"] = ms(f"{ki}.build_encoder_input")
    m[f"{ki}.rank_candidate_relations.self_ms"] = ms(f"{ki}.rank_candidate_relations")
    m[f"{ki}.kept_relation_frac"] = ratio(
        hits.get(f"{ki}.build_encoder_input", 0), hits.get(f"{ki}.build_entity_structure", 0)
    )
    m["similarity.score.calls"] = per_op("similarity.score")
    m["similarity.score.self_ms"] = ms("similarity.score")
    m["generator.generate.self_ms"] = ms("generator.generate")
    m["generator.beams_per_question"] = ratio(hits.get("generator.generate", 0), calls.get("generator.generate", 0))

    scanned, validated = ops.scanned, ops.validated
    sg = "sequence_grammar.parse_output"
    m[f"{sg}.calls"] = per_op(sg)
    m[f"{sg}.self_ms"] = ms(sg)
    m[f"{sg}.error_frac"] = ratio(raised.get(sg, 0), calls.get(sg, 0))
    m["sequence_grammar.parses_per_beam_scanned"] = ratio(calls.get(sg, 0), scanned)

    kv = "knowledge_validation"
    expanded = hits.get(f"{kv}.expand_pair", 0)
    surviving = sum(1 for o in under.get((f"{kv}.validate_sequence", "kb_store.pattern_satisfiable"), []) if o)
    tried = under.get((f"{kv}.validate_sequence", "kb_store.match_graph"), [])
    m[f"{kv}.link.self_ms"] = ms(f"{kv}.link")
    m[f"{kv}.beams_scanned"] = scanned / n_ops
    m[f"{kv}.beam_validated_frac"] = ratio(validated, scanned)
    m[f"{kv}.patterns_expanded"] = expanded / n_ops
    m[f"{kv}.patterns_surviving_frac"] = ratio(surviving, expanded)
    m[f"{kv}.graphs_tried"] = len(tried) / n_ops
    m[f"{kv}.graph_hit_frac"] = ratio(sum(1 for o in tried if o), len(tried))
    m[f"{kv}.fallback_result.self_ms"] = ms(f"{kv}.fallback_result")

    scored = calls.get("evaluation.relaxed_score", 0)
    variants = len(under.get(("evaluation.relaxed_score", "kb_store.match_graph"), [])) - scored
    m["evaluation.relaxed_score.self_ms"] = ms("evaluation.relaxed_score")
    m["evaluation.variants_per_record"] = ratio(variants, scored)

    m["cli.read_ms"] = ms("cli.read")
    m["cli.write_ms"] = ms("cli.write")
    op_total = sum(end - start for name, start, end, *_ in rows if name == "operation")
    m["trace.uncovered_frac"] = ratio(self_s.get("operation", 0.0), op_total)
    return m
