"""Span recorder for the traced run.

Wrappers are installed from here onto the node's objects at their public
entry points (and onto the module global a caller looks a name up in),
never inside ``src/``, and only in the traced run.  Each call becomes a
frame on a per-thread stack; a frame's self time is its duration minus
the frames that ran inside it on the same thread.  Frames marked
``record=False`` (per-key storage calls, thousands per epoch) are only
aggregated, so the span list stays small; everything else is kept as a
span with its name, start, end, parent and thread, and written out when
the run ends.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable


@dataclass
class Frame:
    name: str
    parent: int | None
    thread: str
    start: float = 0.0
    end: float = 0.0
    child: float = 0.0


@dataclass
class Aggregate:
    calls: int = 0
    total: float = 0.0
    own: float = 0.0


@dataclass
class Recorder:
    spans: list[Frame] = field(default_factory=list)
    totals: dict[str, Aggregate] = field(default_factory=lambda: defaultdict(Aggregate))
    counts: dict[str, float] = field(default_factory=lambda: defaultdict(float))

    def __post_init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[tuple[Frame, int | None]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        *,
        record: bool = True,
        before: Callable[..., Any] | None = None,
        after: Callable[..., None] | None = None,
        args_hook: Callable[..., tuple] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a timing wrapper.

        ``before(*args, **kwargs)`` runs first and its value reaches
        ``after(value, result, *args, **kwargs)``; ``args_hook`` may
        rewrite the positional arguments (to materialise a generator it
        must count).
        """
        original = getattr(owner, attr)
        recorder = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if args_hook is not None:
                args = args_hook(*args)
            token = before(*args, **kwargs) if before is not None else None
            stack = recorder._stack()
            parent = stack[-1] if stack else None
            frame = Frame(
                name,
                parent[1] if parent else None,
                threading.current_thread().name,
            )
            index = None
            if record:
                with recorder._lock:
                    index = len(recorder.spans)
                    recorder.spans.append(frame)
            stack.append((frame, index))
            frame.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                frame.end = time.perf_counter()
                stack.pop()
                duration = frame.end - frame.start
                if parent is not None:
                    parent[0].child += duration
                with recorder._lock:
                    aggregate = recorder.totals[name]
                    aggregate.calls += 1
                    aggregate.total += duration
                    aggregate.own += duration - frame.child
            if after is not None:
                after(token, result, *args, **kwargs)
            return result

        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every wrapped attribute back (newest first)."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def total_ms(self, name: str) -> float:
        return 1000 * self.totals[name].total

    def own_ms(self, name: str) -> float:
        return 1000 * self.totals[name].own

    def dump(self, path: Path) -> None:
        """Write every recorded span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for index, frame in enumerate(self.spans):
                out.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": frame.name,
                            "start": frame.start,
                            "end": frame.end,
                            "parent": frame.parent,
                            "thread": frame.thread,
                        }
                    )
                    + "\n"
                )


def install_node(recorder: Recorder, node: Any, store: Any) -> None:
    """Wrap the entry points of every layer one node uses."""
    import repro.node.pipeline as pipeline_module

    rec = recorder
    rec.wrap(node, "receive_epoch", "node.epoch")
    rec.wrap(node, "submit_epoch", "node.epoch")
    rec.wrap(node, "drain", "node.epoch")
    rec.wrap(node.chains, "append", "dag.append")

    pipeline = node.pipeline
    rec.wrap(pipeline, "process_epoch", "pipeline")
    # The streaming back stage enters the pipeline here (there is no
    # public per-epoch entry point on that path).
    rec.wrap(pipeline, "_commit_and_report", "pipeline")

    def executed(_token: Any, batch: Any, *args: Any, **kwargs: Any) -> None:
        rec.count("exec.txns", len(batch.results))
        rec.count("exec.reverted", batch.failed_count)

    rec.wrap(pipeline.executor, "execute_batch", "exec", after=executed)
    rec.wrap(pipeline.executor, "apply_delta", "exec.sync")

    def scheduled(_token: Any, result: Any, *args: Any, **kwargs: Any) -> None:
        timings = result.timings
        schedule = result.schedule
        rec.count("cc.acg_build_s", timings.graph_construction)
        rec.count("cc.rank_s", timings.rank_division)
        rec.count("cc.sorting_s", timings.transaction_sorting)
        rec.count("cc.validate_s", timings.validation)
        rec.count("cc.aborted", schedule.aborted_count)
        rec.count("cc.reordered", len(schedule.reordered))
        rec.count("cc.revived", result.revived)
        rec.count("cc.groups", len(schedule.groups))

    rec.wrap(node.scheduler, "schedule", "cc", after=scheduled)
    rec.wrap(node.scheduler, "schedule_dense", "cc", after=scheduled)

    def folds(_token: Any, report: Any, schedule: Any, _writes: Any, _state: Any,
              delta_values: Any = None) -> None:
        guard = set(report.guard_aborted)
        if delta_values:
            rec.count(
                "commit.delta_folds",
                sum(
                    len(delta_values.get(txid, ()))
                    for txid in schedule.committed
                    if txid not in guard
                ),
            )
        rec.count("commit.guard_aborts", len(guard))

    rec.wrap(pipeline.committer, "commit", "commit", after=folds)
    rec.wrap(
        node.state,
        "commit",
        "state.seal",
        before=lambda: node.state.dirty_count,
        after=lambda dirty, _root: rec.count("state.sealed_keys", dirty),
    )

    rec.wrap(
        store,
        "put",
        "storage.put",
        record=False,
        before=lambda key, value: rec.count("storage.bytes_written", len(key) + len(value)),
    )
    rec.wrap(store, "get", "storage.get", record=False)
    if hasattr(store, "compact"):
        def flushed(tables: int, _result: Any) -> None:
            if store.table_count != tables:
                rec.count("storage.flushes")

        # The store calls ``self.flush()`` / ``self.compact()``, which
        # resolve to these instance attributes first.
        rec.wrap(store, "flush", "storage.flush", before=lambda: store.table_count, after=flushed)
        rec.wrap(store, "compact", "storage.compact")

    # ``certify_epoch`` is imported by name into the pipeline module.
    rec.wrap(pipeline_module, "certify_epoch", "certify")
    if node.ledger is not None:
        def materialise(events: Any) -> tuple:
            events = list(events)
            rec.count("ledger.events", len(events))
            return (events,)

        rec.wrap(node.ledger, "record_many", "ledger", args_hook=materialise)
    if node.engine is not None:
        # The engine calls these through ``self``; the join's own time
        # is the wait for the back stage.
        rec.wrap(node.engine, "_join", "engine.join")
        rec.wrap(node.engine, "_run_back_stage", "engine.back_stage")


def layer_metrics(rec: Recorder, epochs: int, engine: Any) -> dict[str, float]:
    """Per-epoch layer figures from the traced rounds (see the README).

    ``engine`` carries the streaming engine's summed ``EngineStats``
    counters (all zero on a barrier node).
    """
    per = 1.0 / max(epochs, 1)
    counts = rec.counts
    totals = rec.totals
    return {
        "dag.mine_ms": rec.total_ms("dag.mine") * per,
        "dag.append_ms": rec.total_ms("dag.append") * per,
        "exec.ms": rec.total_ms("exec") * per,
        "exec.txns": counts["exec.txns"] * per,
        "exec.reverted": counts["exec.reverted"] * per,
        "exec.sync_ms": rec.total_ms("exec.sync") * per,
        "cc.ms": rec.total_ms("cc") * per,
        "cc.acg_build_ms": 1000 * counts["cc.acg_build_s"] * per,
        "cc.rank_ms": 1000 * counts["cc.rank_s"] * per,
        "cc.sorting_ms": 1000 * counts["cc.sorting_s"] * per,
        "cc.validate_ms": 1000 * counts["cc.validate_s"] * per,
        "cc.aborted": counts["cc.aborted"] * per,
        "cc.reordered": counts["cc.reordered"] * per,
        "cc.revived": counts["cc.revived"] * per,
        "cc.groups": counts["cc.groups"] * per,
        "engine.speculated": engine.speculated * per,
        "engine.reexecuted": engine.reexecuted * per,
        "engine.hit_rate": engine.kept / engine.speculated if engine.speculated else 0.0,
        "engine.wait_ms": rec.own_ms("engine.join") * per,
        "engine.fallback_epochs": engine.epochs_fallback * per,
        "commit.ms": rec.total_ms("commit") * per,
        "commit.self_ms": rec.own_ms("commit") * per,
        "commit.delta_folds": counts["commit.delta_folds"] * per,
        "commit.guard_aborts": counts["commit.guard_aborts"] * per,
        "state.seal_ms": rec.total_ms("state.seal") * per,
        "state.sealed_keys": counts["state.sealed_keys"] * per,
        "storage.write_ms": rec.own_ms("storage.put") * per,
        "storage.bytes_written": counts["storage.bytes_written"] * per,
        "storage.reads": totals["storage.get"].calls * per,
        "storage.flushes": counts["storage.flushes"] * per,
        "storage.flush_ms": rec.own_ms("storage.flush") * per,
        "storage.compactions": totals["storage.compact"].calls * per,
        "storage.compact_ms": rec.total_ms("storage.compact") * per,
        "certify.ms": rec.total_ms("certify") * per,
        "ledger.ms": rec.total_ms("ledger") * per,
        "ledger.events": counts["ledger.events"] * per,
        "pipeline.self_ms": rec.own_ms("pipeline") * per,
        "node.unattributed_ms": rec.own_ms("node.epoch") * per,
    }
