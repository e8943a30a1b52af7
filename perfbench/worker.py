"""One measured workload run, in a process of its own.

Run by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src`` and a
fixed ``PYTHONHASHSEED``.  ``--mode setup`` only loads the store and the
generator and reports the time; ``--mode measure`` also runs the closed loop
(one client, the next operation starts when the previous one returns) and
writes the first pass's output for the correctness checks.  The result is
written as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import resource
import sys
from pathlib import Path
from time import perf_counter

import gen
import speed
import tracing

from rellink import evaluation as ev
from rellink import kb_store
from rellink import knowledge_integration as ki
from rellink import knowledge_validation as kv
from rellink.generator import GeneratorConfig, GeneratorError, make_generator
from rellink.sequence_grammar import detect_ask
from rellink.terms import get_profile, normalize_iri

# Latency tail: the highest of these percentiles with at least 10 of the
# records beyond it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 50.0)
# Speed slices run just before and just after set-up, each side about 0.15 s.
SETUP_SLICES = 800
SETUP_SPANS = {
    "kb_store.load_triples": "load_triples_s",
    "kb_store.load_ontology": "load_ontology_s",
    "kb_store.check_hierarchy": "check_hierarchy_s",
}


def rss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


class Io:
    """Reading one input record and writing one output line, as the CLI does."""

    def __init__(self, profile, sink):
        self.profile = profile
        self.sink = sink

    def read_question(self, line: str):
        return next(ki.read_question_records([line], self.profile))

    def read_gold(self, line: str):
        return next(ev.read_gold([line], self.profile))

    def write(self, record: dict) -> str:
        text = json.dumps(record) + "\n"
        self.sink.write(text)
        return text


class Tally:
    """Latencies of every operation, their sum and count per input record;
    outputs of the first pass only, so that memory does not grow with the
    number of passes."""

    def __init__(self, records: int):
        self.latency: list[float] = []
        self.record_sum = [0.0] * records
        self.record_runs = [0] * records
        self.first: list[str] = []
        self.info: list[dict] = []
        self.scanned = 0
        self.validated = 0

    def add(self, record: int, elapsed: float, info: dict, text: str | None) -> None:
        self.latency.append(elapsed)
        self.record_sum[record] += elapsed
        self.record_runs[record] += 1
        self.scanned += info.get("scanned", 0)
        self.validated += bool(info.get("validated"))
        if text is not None:
            self.first.append(text)
            self.info.append(info)


class Run:
    def __init__(self, workload: str, directory: Path):
        self.cfg = gen.WORKLOADS[workload]
        self.dir = directory

    def setup(self) -> float:
        """Load the store and ready the generator; return seconds taken."""
        start = perf_counter()
        self.profile = get_profile(self.cfg["profile"])
        with open(self.dir / "kb.nt", encoding="utf-8") as triples, \
                open(self.dir / "ontology.tsv", encoding="utf-8") as ontology:
            self.store = kb_store.load_kb(triples, ontology, self.profile)
        if self.cfg["op"] == "link":
            fixtures = self.dir / "beams.jsonl" if self.cfg["generator"] == "fixture" else None
            config = GeneratorConfig(kind=self.cfg["generator"], fixture_path=fixtures)
            self.generator = make_generator(config, None)
            self.vconfig = kv.ValidationConfig()
            self.lines = (self.dir / "questions.jsonl").read_text(encoding="utf-8").splitlines(True)
        else:
            self.preds = {}
            with open(self.dir / "pred.jsonl", encoding="utf-8") as source:
                for line in source:
                    raw = json.loads(line)
                    self.preds[raw["question_id"]] = {
                        normalize_iri(r, self.profile) for r in raw["relations"]
                    }
            self.lines = (self.dir / "gold.jsonl").read_text(encoding="utf-8").splitlines(True)
        return perf_counter() - start

    # One operation: read a record, process it, write the result line.  It
    # mirrors ``rellink.cli`` and calls the package through module attributes,
    # so traced wrappers apply.

    def link_op(self, io: Io, line: str) -> tuple[str, dict]:
        record = io.read_question(line)
        beams = []
        try:
            enc = ki.build_encoder_input(self.store, record.question, record.entities, ki.DEFAULT_BUDGET, None)
            beams = self.generator.generate(enc, record.question_id)
            result = kv.link(self.store, record.question, beams, record.entities, self.vconfig)
            out = kv.result_record(record.question_id, result)
        except (ki.InputTooLongError, GeneratorError) as exc:
            out = kv.result_record(record.question_id, kv.fallback_result(self.store, []))
            out["error"] = str(exc)
        limit = self.vconfig.ask_limit if detect_ask(record.question) else self.vconfig.beam_limit
        scanned = out["source_rank"] if out["validated"] else min(len(beams), limit)
        info = {"scanned": scanned, "validated": out["validated"], "error": "error" in out,
                "question_id": record.question_id, "beams": beams}
        return io.write(out), info

    def eval_op(self, io: Io, line: str) -> tuple[str, dict]:
        gold = io.read_gold(line)
        pred = self.preds[gold.question_id]
        score = ev.relaxed_score(self.store, gold, pred)
        text = io.write({"question_id": gold.question_id, "score": list(score)})
        return text, {"scored": (gold, pred, score)}

    def loop(self, io: Io, seconds: float, meter: speed.Meter, tracer: tracing.Tracer | None = None):
        """Closed loop over the input records for ``seconds`` and at least one
        full pass.  After each operation, untimed, ``meter`` samples the
        machine's speed.  With a tracer, each operation runs twice in a row,
        traced and untraced, in alternating order so that neither execution
        gains from the other warming the caches."""
        op = self.link_op if self.cfg["op"] == "link" else self.eval_op
        lines, n = self.lines, len(self.lines)
        runs = {True: Tally(n)}
        if tracer is not None:
            runs[False] = Tally(n)
        raised = 0
        start = perf_counter()
        deadline = start + seconds
        i = 0
        while i < n or perf_counter() < deadline:
            line = lines[i % n]
            for traced in ((True,) if tracer is None else (i % 2 == 0, i % 2 != 0)):
                if tracer is not None:
                    tracer.enabled = traced
                    if traced:
                        tracer.begin_op(i)
                text, info, elapsed = self._timed(op, io, line, tracer if traced else None)
                meter.charge(elapsed)
                raised += "raised" in info
                runs[traced].add(i % n, elapsed, info, text if i < n else None)
            i += 1
        wall = perf_counter() - start
        if tracer is not None:
            tracer.enabled = False
        return runs[True], runs.get(False), raised, wall

    @staticmethod
    def _timed(op, io, line, tracer):
        t0 = perf_counter()
        try:
            text, info = op(io, line)
        except Exception:  # counted as a failed operation
            logging.exception("operation raised")
            text, info = "", {"raised": True}
        finally:
            if tracer is not None:
                tracer.end_op()
        return text, info, perf_counter() - t0


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = max(0, min(len(sorted_values) - 1, int(-(-pct * len(sorted_values) // 100)) - 1))
    return sorted_values[k]


def loop_figures(tally: Tally, slowdown: float) -> dict:
    """Throughput and latencies of the loop, at the reference speed.

    Each input record counts once, with the mean latency of its runs, so the
    figures do not depend on how far into its last pass the loop got: records
    cost very different amounts, and a partial pass covers only the first
    ones.  ``qps`` is records over the summed record latencies; the latency
    percentiles are over the records, and the tail percentile is picked from
    the number of records, so it is the same in every run of a workload."""
    means = [total / runs for total, runs in zip(tally.record_sum, tally.record_runs)]
    ordered = sorted(means)
    tail = next((p for p in TAIL_LADDER if len(ordered) * (100.0 - p) / 100.0 >= 10), 50.0)
    raw = {
        "qps": len(ordered) / sum(ordered),
        "p50_ms": 1000.0 * percentile(ordered, 50.0),
        "tail_ms": 1000.0 * percentile(ordered, tail),
    }
    return {
        "qps": raw["qps"] * slowdown,
        "p50_ms": raw["p50_ms"] / slowdown,
        "tail_ms": raw["tail_ms"] / slowdown,
        "raw": raw,
        "slowdown": slowdown,
        "tail_pct": tail,
        "samples": len(tally.latency),
    }


def first_pass_outputs(run: Run, first: list[str], infos: list[dict]) -> dict:
    """Digest, validated and failed shares of the first pass."""
    n = len(first)
    if run.cfg["op"] == "link":
        data = "".join(first)
        validated = sum(1 for info in infos[:n] if info.get("validated"))
        failed = sum(1 for info in infos[:n] if info.get("error") or info.get("raised"))
        results = data
    else:
        # The relaxed report as ``rellink eval --json`` prints it; records
        # are already in question-id order.
        scored = [info["scored"] for info in infos[:n] if "scored" in info]
        report = ev.build_report(
            [score for _, _, score in scored],
            [(len(gold.relations), len(pred)) for gold, pred, _ in scored],
        )
        data = json.dumps(ev.report_to_dict(report), indent=2) + "\n"
        sat = [run.store.match_graph(gold.graph) is not None for gold, _, _ in scored]
        validated = sum(sat)
        # An unsatisfiable gold graph takes relaxed scoring's failure path:
        # a logged warning and a strict score.
        failed = n - validated + sum(1 for info in infos[:n] if info.get("raised"))
        results = "".join(
            json.dumps({
                "question_id": gold.question_id,
                "satisfiable": ok,
                "precision": score[0],
                "recall": score[1],
                "f1": score[2],
            }) + "\n"
            for (gold, _, score), ok in zip(scored, sat)
        )
    return {
        "first_pass": n,
        "digest": hashlib.sha256(data.encode("utf-8")).hexdigest(),
        "results": results,
        "validated_frac": validated / n,
        "failed_frac": failed / n,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--dir", required=True, type=Path)
    parser.add_argument("--mode", choices=("setup", "measure"), required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")

    run = Run(args.workload, args.dir)
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install(tracing.SETUP_TARGETS)
    rss_before = rss_bytes()
    # Speed samples just before and after set-up scale its time.
    meter = speed.Meter()
    meter.sample(SETUP_SLICES)
    setup_s = run.setup()
    meter.sample(SETUP_SLICES)
    result = {"setup_s": setup_s / meter.slowdown(), "setup_raw_s": setup_s, "triples": len(run.store)}
    if args.mode == "setup":
        args.out.write_text(json.dumps(result))
        return 0
    load_rss = rss_bytes() - rss_before

    with open(args.dir / "loop-output.jsonl", "w", encoding="utf-8") as sink:
        io = Io(run.profile, sink)
        if tracer is not None:
            tracer.install(tracing.OP_TARGETS)
            tracer.wrap_attr(io, "read_question", "cli.read")
            tracer.wrap_attr(io, "read_gold", "cli.read")
            tracer.wrap_attr(io, "write", "cli.write")
        meter = speed.Meter()
        loop, untraced, raised, wall = run.loop(io, args.seconds, meter, tracer)
    peak_rss_mb = rss_bytes() / 2**20
    if tracer is not None:
        result["untraced_digest"] = first_pass_outputs(run, untraced.first, untraced.info)["digest"]
        spans = tracer.spans
        setup = {"triples": len(run.store), "load_rss_bytes": load_rss}
        for i, name in enumerate(spans.name):
            key = SETUP_SPANS.get(name)
            if key is not None and key not in setup:
                setup[key] = spans.end[i] - spans.start[i]
        layers = tracing.layer_metrics(spans, loop, setup)
        layers["trace.overhead_frac"] = sum(loop.latency) / sum(untraced.latency) - 1.0
        result["layers"] = layers
        result["missing"] = tracer.missing
        tracer.write(args.dir / "spans.jsonl")
    outputs = first_pass_outputs(run, loop.first, loop.info)
    (args.dir / "results.out").write_text(outputs.pop("results"), encoding="utf-8")
    if run.cfg["op"] == "link":
        # The generator's beams, for the oracle of workloads whose beams
        # rellink generates.
        with open(args.dir / "beams.out", "w", encoding="utf-8") as sink:
            for info in loop.info:
                if "question_id" in info:
                    texts = [b.text for b in info["beams"]]
                    sink.write(json.dumps({"question_id": info["question_id"], "beams": texts}) + "\n")
    result.update(outputs)
    result.update(loop_figures(loop, meter.slowdown()))
    result.update({
        "attempted": len(loop.latency) + (len(untraced.latency) if untraced else 0),
        "raised": raised,
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb,
    })
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
