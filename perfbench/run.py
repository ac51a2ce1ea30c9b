#!/usr/bin/env python3
"""End-to-end benchmark of the Nezha full node.

Usage (from the repository root)::

    python3 perfbench/run.py --workload live_wide_lsm --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (see README.md).  A run is a fixed amount of work, ROUNDS rounds of
EPOCHS_PER_ROUND epochs, whatever ``--seconds`` says.  The last line of
standard output is one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
ROUNDS = 3
TRACED_ROUNDS = 2
EPOCHS_PER_ROUND = 14
TAIL_BEYOND = 10
TAIL_MIN_EPOCHS = 40

END_TO_END = {
    "committed_tps": "1/s",
    "epoch_ms_p50": "ms",
    "epoch_ms_tail": "ms",
    "committed_txns": "count",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "dag.mine_ms": "ms/epoch",
    "dag.append_ms": "ms/epoch",
    "exec.ms": "ms/epoch",
    "exec.txns": "count/epoch",
    "exec.reverted": "count/epoch",
    "exec.sync_ms": "ms/epoch",
    "cc.ms": "ms/epoch",
    "cc.acg_build_ms": "ms/epoch",
    "cc.rank_ms": "ms/epoch",
    "cc.sorting_ms": "ms/epoch",
    "cc.validate_ms": "ms/epoch",
    "cc.aborted": "count/epoch",
    "cc.reordered": "count/epoch",
    "cc.revived": "count/epoch",
    "cc.groups": "count/epoch",
    "engine.speculated": "count/epoch",
    "engine.reexecuted": "count/epoch",
    "engine.hit_rate": "ratio",
    "engine.wait_ms": "ms/epoch",
    "engine.fallback_epochs": "count/epoch",
    "commit.ms": "ms/epoch",
    "commit.self_ms": "ms/epoch",
    "commit.delta_folds": "count/epoch",
    "commit.guard_aborts": "count/epoch",
    "state.seal_ms": "ms/epoch",
    "state.sealed_keys": "count/epoch",
    "storage.write_ms": "ms/epoch",
    "storage.bytes_written": "bytes/epoch",
    "storage.reads": "count/epoch",
    "storage.flushes": "count/epoch",
    "storage.flush_ms": "ms/epoch",
    "storage.compactions": "count/epoch",
    "storage.compact_ms": "ms/epoch",
    "certify.ms": "ms/epoch",
    "ledger.ms": "ms/epoch",
    "ledger.events": "count/epoch",
    "pipeline.self_ms": "ms/epoch",
    "node.unattributed_ms": "ms/epoch",
    "trace.untraced_p50_ms": "ms",
    "trace.traced_p50_ms": "ms",
    "trace.overhead_ms": "ms",
}


def one_round(workload, seed: int, epochs: int, recorder=None, keep_reference: bool = True):
    gc.collect()
    start = time.perf_counter()
    ctx = workload.setup(seed, epochs, recorder)
    setup_s = time.perf_counter() - start
    try:
        result = workload.run(ctx, recorder)
    finally:
        if recorder is not None:
            recorder.restore()
        workload.teardown(ctx)
    result.setup_s = setup_s
    if not keep_reference:
        # Only the first round's reference feeds the final root check.
        result.reference = None
    return result


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest reaped worker.

    Worker processes are reaped when their node closes; a node without
    workers adds nothing.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    worker = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + worker) / 1024


def check_roots(workload, rounds) -> list[str]:
    """Recompute the final root with one trie insert per key.

    Every round of a run replays the same inputs from genesis, so one
    recomputation serves them all.
    """
    from reference import SequentialRoot
    from repro.workload.smallbank import SmallBankConfig, initial_state

    sequential = SequentialRoot(initial_state(SmallBankConfig(account_count=workload.accounts)))
    reference = rounds[0].reference
    final = sequential.root_after(reference.state, reference.changed)
    errors = []
    for index, result in enumerate(rounds):
        if result.genesis_root != sequential.genesis_root:
            errors.append(f"round {index}: genesis root differs from sequential inserts")
        if result.final_root != final:
            errors.append(f"round {index}: final root differs from sequential inserts")
    return errors


def tail(latencies: list[float]) -> tuple[float, float]:
    """The value with exactly TAIL_BEYOND samples above it, and its percentile."""
    ordered = sorted(latencies)
    n = len(ordered)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(workload, seed: int) -> tuple[list, dict, list[str]]:
    # Every round repeats the same inputs from a fresh genesis: set-up is
    # timed several times, and the final root is recomputed only once.
    rounds = [
        one_round(workload, seed, EPOCHS_PER_ROUND, keep_reference=index == 0)
        for index in range(ROUNDS)
    ]
    notes = []
    latencies = [x for r in rounds for x in r.latencies]
    committed = sum(r.committed for r in rounds)
    metrics = {
        "committed_tps": committed / sum(r.node_s for r in rounds),
        "epoch_ms_p50": 1000 * statistics.median(latencies),
        "committed_txns": committed,
        "setup_s": statistics.median(r.setup_s for r in rounds),
        "peak_rss_mb": peak_rss_mb(),
    }
    if len(latencies) >= TAIL_MIN_EPOCHS:
        value, percentile = tail(latencies)
        metrics["epoch_ms_tail"] = 1000 * value
        notes.append(f"epoch_ms_tail is p{percentile:.1f} of {len(latencies)} epochs")
    return rounds, metrics, notes


def traced(workload, seed: int, spans_path: Path) -> tuple[list, dict, list[str]]:
    from spans import Recorder, layer_metrics

    recorder = Recorder()
    plain, marked = [], []
    for index in range(TRACED_ROUNDS):
        plain.append(one_round(workload, seed, EPOCHS_PER_ROUND, keep_reference=index == 0))
        marked.append(one_round(workload, seed, EPOCHS_PER_ROUND, recorder, keep_reference=False))
    stats = [r.engine_stats for r in marked if r.engine_stats is not None]
    engine = SimpleNamespace(
        **{
            key: sum(getattr(s, key) for s in stats)
            for key in ("speculated", "kept", "reexecuted", "epochs_fallback")
        }
    )
    metrics = layer_metrics(recorder, sum(len(r.latencies) for r in marked), engine)
    untraced = 1000 * statistics.median(x for r in plain for x in r.latencies)
    with_spans = 1000 * statistics.median(x for r in marked for x in r.latencies)
    metrics["trace.untraced_p50_ms"] = untraced
    metrics["trace.traced_p50_ms"] = with_spans
    metrics["trace.overhead_ms"] = with_spans - untraced
    recorder.dump(spans_path)
    return plain + marked, metrics, [f"spans written to {spans_path.relative_to(ROOT)}"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--seconds", type=int, required=True,
        help="accepted for the harness; the run length is fixed in epochs",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: the program's sources (src/repro) are missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")
    workdir = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](workdir)
    started = time.perf_counter()
    try:
        if args.trace:
            spans_path = ROOT / ".perfbench" / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
            rounds, metrics, notes = traced(workload, args.seed, spans_path)
            units = PER_LAYER
        else:
            rounds, metrics, notes = end_to_end(workload, args.seed)
            units = END_TO_END
        errors = [e for r in rounds for e in r.errors] + check_roots(workload, rounds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wall = time.perf_counter() - started
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    print(
        f"{args.workload} seed {args.seed}: {len(rounds)} rounds x "
        f"{rounds[0].attempted} epochs; epochs attempted {attempted}, failed {failed}"
    )
    print(
        f"wall {wall:.1f} s; set-up per round "
        + " ".join(f"{r.setup_s:.2f}" for r in rounds)
        + " s; node per round "
        + " ".join(f"{r.node_s:.2f}" for r in rounds)
        + " s; the rest is mining and checks"
    )
    for note in notes:
        print(note)
    for name, unit in units.items():
        if name in metrics:
            print(f"{name} = {metrics[name]:.6g} {unit}")
    for error in errors[:20]:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not errors,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                    if name in metrics
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
