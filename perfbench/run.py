"""Benchmark for rellink's ``link`` and relaxed ``eval`` paths.

    python3 perfbench/run.py --workload flat-fixture --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  It generates the workload's inputs from the
seed, measures setup and a closed loop in fresh child processes, checks the
results, prints a report on stderr and, as the last line of stdout, one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
per-layer ones from a traced run.  ``--workload all`` runs every workload.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import gen
import oracle

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"
DEFAULT_SEED = 1
# setup_s is the median over fresh processes: at least SETUP_MIN of them,
# more while their set-up time sums to under SETUP_BUDGET_S (small stores
# load in a fraction of a second, and a median of few such samples is noisy).
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 9, 5.0
CHILD_TIMEOUT_S = 150
CLI_SHARE = 5           # the CLI cross-check runs 1/CLI_SHARE of the questions
HASH_SEED = "0"


def log(*parts) -> None:
    print(*parts, file=sys.stderr, flush=True)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = HASH_SEED
    return env


def run_child(argv: list[str], work: Path, tag: str) -> None:
    """Run one child process to completion; its stderr goes to a log file."""
    with open(work / f"{tag}.log", "w", encoding="utf-8") as err:
        proc = subprocess.run(
            [sys.executable, *argv], cwd=ROOT, env=child_env(), stdout=err, stderr=err,
            timeout=CHILD_TIMEOUT_S,
        )
    if proc.returncode != 0:
        log((work / f"{tag}.log").read_text(encoding="utf-8")[-3000:])
        raise RuntimeError(f"{tag} exited with code {proc.returncode}")


def worker(workload: str, work: Path, mode: str, seconds: float, trace: int, tag: str) -> dict:
    out = work / f"{tag}.json"
    run_child(
        [str(HERE / "worker.py"), "--workload", workload, "--dir", str(work), "--mode", mode,
         "--seconds", str(seconds), "--trace", str(trace), "--out", str(out)],
        work, tag,
    )
    return json.loads(out.read_text(encoding="utf-8"))


def cli_digest(workload: str, work: Path, questions: int) -> str:
    """Results digest of the first ``questions`` questions run through
    ``python3 -m rellink.cli link``, that is ``rellink.cli.main``."""
    cfg = gen.WORKLOADS[workload]
    lines = (work / "questions.jsonl").read_text(encoding="utf-8").splitlines(True)
    (work / "cli-questions.jsonl").write_text("".join(lines[:questions]), encoding="utf-8")
    out = work / "cli-results.jsonl"
    argv = ["-m", "rellink.cli", "link", "--kb", str(work / "kb.nt"), "--ontology",
            str(work / "ontology.tsv"), "--profile", cfg["profile"], "--generator", cfg["generator"],
            str(work / "cli-questions.jsonl"), "-o", str(out)]
    if cfg["generator"] == "fixture":
        argv[7:7] = ["--fixtures", str(work / "beams.jsonl")]
    run_child(argv, work, "cli")
    return hashlib.sha256(out.read_bytes()).hexdigest()


def expected_digests() -> dict:
    return json.loads((HERE / "expected.json").read_text(encoding="utf-8"))


def metric_units(kind: str) -> dict[str, str]:
    """Names and units of the ``end_to_end`` or ``per_layer`` metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def run_workload(workload: str, seed: int, seconds: float, trace: int, scale: str) -> dict:
    work = WORK / f"{workload}-{scale}-{seed}-t{trace}"
    shutil.rmtree(work, ignore_errors=True)
    inputs = gen.build(workload, seed, scale)
    input_digest = gen.write(inputs, work)
    log(f"[{workload}] seed {seed} scale {scale}: {len(inputs.triples)} triples, "
        f"{len(inputs.questions) or len(inputs.gold)} records, input sha256 {input_digest}")

    m = worker(workload, work, "measure", seconds, trace, "measure")
    children = [m]
    while not trace and len(children) < SETUP_MAX and (
        len(children) < SETUP_MIN or sum(c["setup_raw_s"] for c in children) < SETUP_BUDGET_S
    ):
        children.append(worker(workload, work, "setup", 0, 0, f"setup{len(children)}"))
    setups = [c["setup_s"] for c in children]
    raw_setups = [c["setup_raw_s"] for c in children]
    results = (work / "results.out").read_bytes()

    checks = {}
    expected = expected_digests().get(f"{workload}@{scale}")
    if seed == DEFAULT_SEED and expected is not None:
        checks["expected digest"] = m["digest"] == expected
    if workload == "flat-fixture":
        checks["oracle"] = results == oracle.expected_link_bytes(inputs)
    elif workload == "flat-relaxed-eval":
        checks["oracle"] = results == oracle.expected_relaxed_lines(inputs)
    else:
        with open(work / "beams.out", encoding="utf-8") as source:
            beams = {r["question_id"]: r["beams"] for r in map(json.loads, source)}
        checks["oracle"] = results == oracle.expected_reified_link_bytes(inputs, beams)
    if trace:
        checks["traced == untraced"] = m["digest"] == m["untraced_digest"]
    elif gen.WORKLOADS[workload]["op"] == "link":
        # The CLI runs a prefix of the questions, to keep the run short.
        k = max(1, len(inputs.questions) // CLI_SHARE)
        prefix = b"".join(results.splitlines(True)[:k])
        checks["cli == in-process"] = cli_digest(workload, work, k) == hashlib.sha256(prefix).hexdigest()
    checks["no operation raised"] = m["raised"] == 0

    metrics = {}
    if trace:
        layers = m["layers"]
        (work / "trace-summary.json").write_text(json.dumps(layers, indent=2), encoding="utf-8")
        # Self times of layers that only some workloads use stay out of the
        # JSON line: they would read 0 on every run of the other workloads.
        for name, unit in metric_units("per_layer").items():
            metrics[name] = {"value": layers[name], "unit": unit}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "qps": m["qps"],
            "latency_p50_ms": m["p50_ms"],
            "latency_tail_ms": m["tail_ms"],
            "peak_rss_mb": m["peak_rss_mb"],
            "failed_frac": m["failed_frac"],
            "validated_frac": m["validated_frac"],
        }
        for name, unit in metric_units("end_to_end").items():
            metrics[name] = {"value": values[name], "unit": unit}

    log(f"[{workload}] results sha256 {m['digest']}")
    log(f"[{workload}] first pass: {m['first_pass']} operations")
    for name, ok in checks.items():
        log(f"[{workload}] check {name}: {'ok' if ok else 'FAILED'}")
    log(f"[{workload}] operations attempted {m['attempted']}, succeeded "
        f"{m['attempted'] - m['raised']}, failed {m['raised']}")
    if trace:
        log(f"[{workload}] traced run ({m['samples']} operations); spans in {work / 'spans.jsonl'}")
        for name in sorted(m["layers"]):
            log(f"  {name:55s} {m['layers'][name]:.6g}")
        if m["missing"]:
            log(f"[{workload}] not traced (missing): {', '.join(m['missing'])}")
    else:
        log(f"[{workload}] setup_s samples {', '.join(f'{s:.4f}' for s in setups)} "
            f"(as measured: {', '.join(f'{s:.4f}' for s in raw_setups)})")
        log(f"[{workload}] loop: {m['samples']} operations in {m['wall_s']:.2f} s, machine "
            f"{m['slowdown']:.3f}x slower than the reference; as measured: qps "
            f"{m['raw']['qps']:.6g}, p50 {m['raw']['p50_ms']:.6g} ms, tail {m['raw']['tail_ms']:.6g} ms; "
            f"latency tail is p{m['tail_pct']:g} over {len(inputs.questions) or len(inputs.gold)} records")
        for name, metric in metrics.items():
            log(f"  {name:20s} {metric['value']:.6g} {metric['unit']}")
    return {
        "correct": all(checks.values()),
        "attempted": m["attempted"],
        "failed": m["raised"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*gen.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "rellink" / "__init__.py").is_file():
        log(f"error: no rellink sources under {ROOT / 'src'}; run from a full checkout")
        return 2
    names = list(gen.WORKLOADS) if args.workload == "all" else [args.workload]
    outcomes = {w: run_workload(w, args.seed, args.seconds, args.trace, args.scale) for w in names}
    if len(names) == 1:
        print(json.dumps(outcomes[names[0]]))
    else:
        print(json.dumps({
            "correct": all(o["correct"] for o in outcomes.values()),
            "attempted": sum(o["attempted"] for o in outcomes.values()),
            "failed": sum(o["failed"] for o in outcomes.values()),
            "metrics": {f"{w}.{k}": v for w, o in outcomes.items() for k, v in o["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
