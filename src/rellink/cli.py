"""Batch command-line interface: ingest a KB, link questions, evaluate runs.

Questions and results flow as JSON Lines, one record per question, streamed
so large runs never hold the whole set in memory: each record is read,
linked and written before the next is read, and only the question ids read
so far are kept, to refuse a repeated one.  Output records keep the input
order, so identical inputs produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from contextlib import contextmanager, nullcontext
from pathlib import Path

from .evaluation import (
    OVERLAP_MODES,
    build_report,
    label_sets,
    read_gold,
    relaxed_score,
    render_table,
    report_to_dict,
    score_sets,
)
from .generator import GENERATOR_KINDS, GeneratorConfig, GeneratorError, make_generator
from .kb_store import KbLoadError, KbStore, load_kb, load_profile_config
from .knowledge_integration import (
    DEFAULT_BUDGET,
    InputTooLongError,
    QuestionRecord,
    build_encoder_input,
    read_question_records,
)
from .knowledge_validation import (
    DEFAULT_ASK_LIMIT,
    DEFAULT_BEAM_LIMIT,
    LinkingResult,
    ValidationConfig,
    fallback_result,
    link,
    result_record,
)
from .similarity import WordVectorSimilarity
from .terms import (
    PROFILES, Profile, expect, get_profile, json_record, open_input, read_lines, record_iri,
)

logger = logging.getLogger(__name__)

EVAL_MODES = ("strict", "relaxed", "label-level")
ENV_PREFIX = "RELLINK_"


def _resolve_profile(value: str) -> Profile:
    if value in PROFILES:
        return get_profile(value)
    path = Path(value)
    if path.exists():
        with open_input(path) as handle:
            return load_profile_config(handle)
    raise KbLoadError(f"profile {value!r} is neither a known name nor a config file")


def _load_store(args: argparse.Namespace) -> KbStore:
    profile = _resolve_profile(args.profile)
    with open_input(args.kb) as triples, (
        open_input(args.ontology) if args.ontology else nullcontext()
    ) as ontology:
        return load_kb(triples, ontology, profile)


def _generator_config(args: argparse.Namespace) -> GeneratorConfig:
    return GeneratorConfig(
        kind=args.generator,
        beam_width=args.beams,
        fixture_path=args.fixtures,
        endpoint=args.endpoint,
        timeout=args.timeout,
    )


@contextmanager
def _opened(path: str, mode: str = "r"):
    """The file at ``path``, closed on exit; ``-`` is stdin or stdout, left open."""
    if path == "-":
        yield sys.stdin if mode == "r" else sys.stdout
    else:
        with open_input(path) if mode == "r" else open(path, mode, encoding="utf-8") as handle:
            yield handle


# -- subcommands ------------------------------------------------------------


def cmd_ingest(args: argparse.Namespace) -> int:
    store = _load_store(args)
    counts = store.instance_counts()
    print(f"triples:        {len(store)}")
    print(f"classes:        {len(counts)}")
    print(f"instances:      {sum(counts.values())}")
    print(f"relation labels: {store.lexicon_size}")
    return 0


def _process_question(
    record: QuestionRecord,
    store: KbStore,
    generator,
    similarity,
    args: argparse.Namespace,
    vconfig: ValidationConfig,
) -> dict:
    try:
        # The ablation feeds the bare question: no entity structures.
        entities = [] if args.wo_kb else record.entities
        enc = build_encoder_input(store, record.question, entities, args.budget, similarity)
        beams = generator.generate(enc, record.question_id)
        if args.wo_kb:
            result = fallback_result(store, beams, record.entities)
        else:
            result = link(store, record.question, beams, record.entities, vconfig)
        return result_record(record.question_id, result)
    except (InputTooLongError, GeneratorError) as exc:
        logger.error("question %s failed: %s", record.question_id, exc)
        failed = result_record(record.question_id, LinkingResult([], False, 0))
        failed["error"] = str(exc)
        return failed


def _check_out(args: argparse.Namespace) -> None:
    """Refuse an ``--out`` that is one of the run's input files: opening it
    for writing would empty it before it is read."""
    if args.out == "-" or not os.path.isfile(args.out):
        return  # stdout, a device such as /dev/null, or a file yet to be made
    profile = None if args.profile in PROFILES else args.profile
    for path in (args.questions, args.kb, args.ontology, args.fixtures, args.vectors, profile):
        if path and path != "-" and os.path.exists(path) and os.path.samefile(args.out, path):
            raise ValueError(f"--out {args.out} would overwrite the input file {path}")


def cmd_link(args: argparse.Namespace) -> int:
    if args.budget < 1:
        raise ValueError("--budget must be >= 1")
    _check_out(args)
    config = _generator_config(args)
    vconfig = ValidationConfig(beam_limit=args.beams, ask_limit=args.ask_beams)
    similarity = None
    if args.vectors:
        with open_input(args.vectors) as handle:
            similarity = WordVectorSimilarity.load(handle)
    generator = make_generator(config)
    store = _load_store(args)

    with _opened(args.questions) as source, _opened(args.out, "w") as sink:
        for record in read_question_records(source, store.profile):
            output = _process_question(record, store, generator, similarity, args, vconfig)
            sink.write(json.dumps(output) + "\n")
    return 0


def _read_predictions(path: str, profile: Profile) -> dict[str, set]:
    predictions: dict[str, set] = {}

    def parse(line: str) -> tuple[str, set]:
        qid, raw = json_record(line, predictions)
        return qid, {record_iri(r, profile) for r in expect(raw["relations"], list, "relations")}

    with _opened(path) as source:
        for qid, relations in read_lines(source, "predictions", parse):
            predictions[qid] = relations
    return predictions


def cmd_eval(args: argparse.Namespace) -> int:
    profile = _resolve_profile(args.profile)
    with _opened(args.gold) as handle:
        gold_records = list(read_gold(handle, profile))
    if not gold_records:
        raise ValueError("gold has no records")
    predictions = _read_predictions(args.pred, profile)

    gold_ids = {g.question_id for g in gold_records}
    missing_pred = sorted(gold_ids - set(predictions))
    missing_gold = sorted(set(predictions) - gold_ids)
    if missing_pred or missing_gold:
        if missing_pred:
            print(f"missing from predictions: {', '.join(missing_pred)}", file=sys.stderr)
        if missing_gold:
            print(f"missing from gold: {', '.join(missing_gold)}", file=sys.stderr)
        return 2

    if args.eval_mode == "relaxed":
        if not args.kb:
            print("relaxed mode requires --kb", file=sys.stderr)
            return 2
        overlap = os.environ.get(ENV_PREFIX + "RELAXED_OVERLAP", "equal")
        if overlap not in OVERLAP_MODES:
            raise ValueError(f"unknown overlap mode {overlap!r}")
        store = _load_store(args)

    gold_records.sort(key=lambda g: g.question_id)
    scores = []
    sizes = []
    for gold in gold_records:
        pred = predictions[gold.question_id]
        if args.eval_mode == "label-level":
            scores.append(score_sets(label_sets(gold.relations), label_sets(pred)))
        elif args.eval_mode == "relaxed":
            scores.append(relaxed_score(store, gold, pred, overlap))
        else:
            scores.append(score_sets(gold.relations, pred))
        sizes.append((len(gold.relations), len(pred)))
    report = build_report(scores, sizes)
    if args.json:
        print(json.dumps(report_to_dict(report), indent=2))
    else:
        print(render_table(report))
    return 0


# -- argument parsing --------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rellink",
        description="Relation linking over a local KB: ingest, link, evaluate.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="info-level logging")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_kb_flags(p: argparse.ArgumentParser, kb_required: bool) -> None:
        p.add_argument("--kb", required=kb_required, help="N-Triples file")
        p.add_argument("--ontology", help="ontology TSV (subclass/count/label rows)")
        p.add_argument(
            "--profile",
            default="dbpedia",
            help="profile name (dbpedia, wikidata) or profile config file",
        )

    p_ingest = sub.add_parser("ingest", help="load a KB and print index counts")
    add_kb_flags(p_ingest, kb_required=True)
    p_ingest.set_defaults(func=cmd_ingest)

    p_link = sub.add_parser("link", help="link questions to KB relations")
    add_kb_flags(p_link, kb_required=True)
    p_link.add_argument("questions", help="questions JSONL ('-' for stdin)")
    p_link.add_argument("-o", "--out", default="-", help="results JSONL ('-' for stdout)")
    p_link.add_argument("--generator", choices=GENERATOR_KINDS, default="baseline")
    p_link.add_argument("--fixtures", help="beam fixture JSONL (fixture generator)")
    p_link.add_argument("--endpoint", help="remote generator URL")
    p_link.add_argument("--timeout", type=float, default=30.0, help="remote timeout (s)")
    p_link.add_argument("--beams", type=int, default=DEFAULT_BEAM_LIMIT)
    p_link.add_argument("--ask-beams", type=int, default=DEFAULT_ASK_LIMIT)
    p_link.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p_link.add_argument("--vectors", help="word-vector text file for ranking")
    p_link.add_argument(
        "--wo-kb",
        action="store_true",
        help="ablation: raw question input, no KB validation",
    )
    p_link.set_defaults(func=cmd_link)

    p_eval = sub.add_parser("eval", help="score predictions against gold")
    add_kb_flags(p_eval, kb_required=False)
    p_eval.add_argument("--gold", required=True, help="gold JSONL")
    p_eval.add_argument("--pred", required=True, help="predictions JSONL")
    p_eval.add_argument("--eval-mode", choices=EVAL_MODES, default="strict")
    p_eval.add_argument("--json", action="store_true", help="JSON report instead of table")
    p_eval.set_defaults(func=cmd_eval)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (KbLoadError, GeneratorError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
