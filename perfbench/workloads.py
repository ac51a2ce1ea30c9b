"""The two closed-loop SmallBank workloads, driven through the public API.

A round sets a node up from genesis (timed; ``run.py`` reports it as
``setup_s``), feeds it a fixed number of epochs (timed), and then checks
every epoch against the reference in ``reference.py`` (untimed).  The
transactions come from the run's seed; the node receives only the mined
blocks.
"""

from __future__ import annotations

import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from reference import ReferenceLedger
from spans import Recorder, install_node

from repro.core.scheduler import NezhaScheduler
from repro.dag.chain import ParallelChains
from repro.dag.mempool import Mempool
from repro.dag.ohie import EpochCoordinator
from repro.dag.pow import PoWParams
from repro.node import FullNode, PipelineConfig
from repro.obs.ledger import FlightLedger
from repro.state.flat import FlatStateDB
from repro.storage.lsm import LSMStore
from repro.storage.memstore import MemStore
from repro.txn.transaction import Transaction
from repro.vm.contracts.smallbank import default_registry
from repro.workload.smallbank import SmallBankConfig, SmallBankWorkload, initial_state

OMEGA = 12
BLOCK_SIZE = 100


@dataclass
class Round:
    """What one round measured and what its checks found."""

    attempted: int
    genesis_root: bytes
    reference: ReferenceLedger
    setup_s: float = 0.0
    latencies: list[float] = field(default_factory=list)
    node_s: float = 0.0
    failed: int = 0
    committed: int = 0
    errors: list[str] = field(default_factory=list)
    final_root: bytes = b""
    engine_stats: Any = None


@dataclass
class Claims:
    """One epoch's outcome as the node reports it, before it is checked.

    ``read`` serves the node's values after the epoch and ``written`` the
    addresses the node says it wrote; both are compared with the
    reference wherever the node's state can be read at that epoch.
    """

    index: int
    offered: list[Transaction]
    order: list[int]
    aborted: list[int]
    reverted: list[int]
    read: Callable[[str], int] | None = None
    written: set[str] = field(default_factory=set)


def verify(reference: ReferenceLedger, claims: Claims) -> list[str]:
    errors, written = reference.check_epoch(
        claims.index, claims.offered, claims.order, claims.aborted, claims.reverted
    )
    if claims.read is not None:
        keys = sorted(written | claims.written)
        errors += reference.compare(claims.read, keys, f"epoch {claims.index}")
    return errors


def no_tamper(stage: str, value: Any) -> Any:
    """The identity; the self-test swaps in corruptions of captured output."""
    return value


def _coordinator(recorder: Recorder | None) -> EpochCoordinator:
    coordinator = EpochCoordinator(
        chains=ParallelChains(chain_count=OMEGA, pow_params=PoWParams()),
        miners=[f"miner-{i}" for i in range(OMEGA)],
        block_size=BLOCK_SIZE,
    )
    if recorder is not None:
        recorder.wrap(coordinator, "mine_epoch", "dag.mine")
    return coordinator


def _mine(coordinator: EpochCoordinator, txns: list[Transaction], root: bytes) -> list:
    """One epoch of OMEGA blocks holding exactly ``txns``."""
    mempool = Mempool()
    mempool.submit_many(txns)
    blocks = coordinator.mine_epoch(mempool, state_root=root)
    if len(mempool):
        raise RuntimeError("the mined epoch left transactions behind")
    return blocks


def _capture_commits(node: FullNode) -> list:
    """Record ``(schedule, CommitReport)`` of every commit the node makes.

    The checks take the commit order and write deltas at the committer
    boundary; the capture stays on in timed runs (one call per epoch).
    """
    captured: list = []
    commit = node.pipeline.committer.commit

    def capture(schedule, *args, **kwargs):
        report = commit(schedule, *args, **kwargs)
        captured.append((schedule, report))
        return report

    node.pipeline.committer.commit = capture
    return captured


def _offered(blocks: list) -> list[Transaction]:
    return [txn for block in blocks for txn in block.transactions]


def _node(state: FlatStateDB, config: PipelineConfig, ledger: FlightLedger | None = None) -> FullNode:
    return FullNode(
        chains=ParallelChains(chain_count=OMEGA, pow_params=PoWParams()),
        state=state,
        scheduler=NezhaScheduler(),
        # Delta-CC's static classifier reads the bytecode even when
        # execution is native.
        registry=default_registry(include_bytecode=config.use_vm or config.delta_cc),
        config=config,
        ledger=ledger,
    )


class Workload:
    name: str
    accounts: int
    skew: float

    def __init__(self, workdir: Path, tamper: Callable[[str, Any], Any] = no_tamper) -> None:
        self.workdir = workdir
        # Applied to the node's output between capture and checking:
        # ("epoch", Claims), ("final", read function), ("root", bytes).
        self.tamper = tamper

    def transactions(self, seed: int, epochs: int) -> tuple[list[list[Transaction]], dict]:
        config = SmallBankConfig(account_count=self.accounts, skew=self.skew, seed=seed)
        workload = SmallBankWorkload(config)
        plan = [workload.generate(OMEGA * BLOCK_SIZE) for _ in range(epochs)]
        return plan, initial_state(config)


class LiveWideLSM(Workload):
    """A barrier node on ``LSMStore`` with a wide, lightly skewed state.

    Each epoch is mined with the node's current root (untimed) and handed
    to ``receive_epoch`` (timed).  The memtable is small enough that a
    round flushes 11 times, and compaction runs in the foreground at
    every second flush from the third: five stalls per round, so more
    than ten of a run's epochs stall and the tail lands on one.
    """

    name = "live_wide_lsm"
    accounts = 50_000
    skew = 0.2
    flush_bytes = 1024 * 1024
    compaction_threshold = 2

    def setup(self, seed: int, epochs: int, recorder: Recorder | None) -> dict:
        plan, genesis = self.transactions(seed, epochs)
        directory = self.workdir / f"lsm-{seed}"
        shutil.rmtree(directory, ignore_errors=True)
        store = LSMStore(
            directory,
            flush_bytes=self.flush_bytes,
            compaction_threshold=self.compaction_threshold,
        )
        return {
            "plan": plan,
            "genesis": genesis,
            "store": store,
            "directory": directory,
            "node": _node(_seeded(store, genesis), PipelineConfig()),
            "coordinator": _coordinator(recorder),
        }

    def run(self, ctx: dict, recorder: Recorder | None) -> Round:
        node, plan, coordinator = ctx["node"], ctx["plan"], ctx["coordinator"]
        out = Round(len(plan), node.state_root, ReferenceLedger(ctx["genesis"]))
        captured = _capture_commits(node)
        if recorder is not None:
            install_node(recorder, node, ctx["store"])
        for index, txns in enumerate(plan):
            blocks = _mine(coordinator, txns, node.state_root)
            captured.clear()
            start = time.perf_counter()
            try:
                report = node.receive_epoch(blocks)
            except Exception as exc:  # a failed operation: counted, run goes on
                out.errors.append(f"epoch {index}: node raised {exc!r}")
                out.failed += len(plan) - index
                break
            elapsed = time.perf_counter() - start
            out.latencies.append(elapsed)
            out.node_s += elapsed
            out.committed += report.committed
            errors = self._check(index, blocks, report, captured, out.reference, node)
            if errors:
                out.errors.extend(errors)
                out.failed += 1
        read = self.tamper("final", node.state.snapshot().get)
        out.errors += out.reference.compare(read, ctx["genesis"], "final state")
        out.final_root = self.tamper("root", node.state_root)
        return out

    def _check(self, index, blocks, report, captured, reference, node) -> list[str]:
        if len(captured) != 1:
            return [f"epoch {index}: expected one commit, saw {len(captured)}"]
        schedule, commit_report = captured[0]
        guard = set(commit_report.guard_aborted)
        offered = _offered(blocks)
        order = [txid for txid in schedule.committed if txid not in guard]
        aborted = sorted(set(schedule.aborted) | guard)
        scheduled = set(order) | set(aborted)
        claims = Claims(
            index,
            offered,
            order,
            aborted,
            reverted=[txn.txid for txn in offered if txn.txid not in scheduled],
            read=node.state.snapshot().get,
            written=set(commit_report.write_delta or ()),
        )
        claims = self.tamper("epoch", claims)
        errors = verify(reference, claims)
        if report.committed != len(claims.order) or report.failed_simulation != len(
            claims.reverted
        ):
            errors.append(f"epoch {index}: report counts disagree with the schedule")
        return errors

    def teardown(self, ctx: dict) -> None:
        ctx["node"].close()
        ctx["store"].close()
        shutil.rmtree(ctx["directory"], ignore_errors=True)


class CatchupHotVM(Workload):
    """A streaming VM node replaying pre-mined epochs back to back.

    Set-up mines the epochs with a barrier probe node (native execution,
    delta-CC) and keeps its roots; the timed part feeds the same blocks
    through ``submit_epoch``/``drain`` of a streaming node running SVM
    bytecode on the process backend, with delta-CC, the certifier and
    the flight ledger on.
    """

    name = "catchup_hot_vm"
    accounts = 10_000
    skew = 0.9

    def setup(self, seed: int, epochs: int, recorder: Recorder | None) -> dict:
        plan, genesis = self.transactions(seed, epochs)
        coordinator = _coordinator(recorder)
        probe = _node(_seeded(MemStore(), genesis), PipelineConfig(delta_cc=True))
        mined, roots = [], []
        try:
            for txns in plan:
                blocks = _mine(coordinator, txns, probe.state_root)
                roots.append(probe.receive_epoch(blocks).state_root)
                mined.append(blocks)
        finally:
            probe.close()
        store = MemStore()
        config = PipelineConfig(
            workers=len(os.sched_getaffinity(0)),
            use_vm=True,
            backend="process",
            delta_cc=True,
            streaming=True,
            certify=True,
        )
        # Large enough that no event of a round is evicted.
        ledger = FlightLedger(max_events=20 * OMEGA * BLOCK_SIZE * (epochs + 1))
        # The worker pool starts, and syncs its replicas, inside the first
        # epoch: the node has no public call that starts it earlier.
        node = _node(_seeded(store, genesis), config, ledger)
        return {
            "epochs": mined,
            "roots": roots,
            "genesis": genesis,
            "store": store,
            "node": node,
            "ledger": ledger,
        }

    def run(self, ctx: dict, recorder: Recorder | None) -> Round:
        node, epochs = ctx["node"], ctx["epochs"]
        out = Round(len(epochs), node.state_root, ReferenceLedger(ctx["genesis"]))
        # The back stage commits epochs in order; their write deltas
        # rebuild the node's state after each epoch for the checks.
        ctx["commits"] = _capture_commits(node)
        if recorder is not None:
            install_node(recorder, node, ctx["store"])
        submitted: dict[int, float] = {}
        reports: dict[int, Any] = {}

        def landed(report) -> None:
            now = time.perf_counter()
            out.latencies.append(now - submitted[report.epoch_index])
            reports[report.epoch_index] = report

        start = time.perf_counter()
        try:
            for index, blocks in enumerate(epochs):
                submitted[index] = time.perf_counter()
                previous = node.submit_epoch(blocks)
                if previous is not None:
                    landed(previous)
            for report in node.drain():
                landed(report)
        except Exception as exc:  # a failed operation: counted below
            out.errors.append(f"epoch {len(submitted) - 1}: node raised {exc!r}")
        out.node_s = time.perf_counter() - start
        out.engine_stats = node.engine.stats
        self._check(ctx, out, reports)
        out.final_root = self.tamper("root", node.state_root)
        return out

    def _check(self, ctx: dict, out: Round, reports: dict) -> None:
        ledger, epochs, roots = ctx["ledger"], ctx["epochs"], ctx["roots"]
        if ledger.evicted:
            out.errors.append(f"flight ledger evicted {ledger.evicted} events")
        commits: dict[int, list] = {}
        aborts: dict[int, list] = {}
        reverted: dict[int, list] = {}
        for event in ledger.events():
            kind, epoch = event["kind"], event["epoch"]
            if kind == "commit":
                commits.setdefault(epoch, []).append((event["group"], event["txid"]))
            elif kind == "abort":
                aborts.setdefault(epoch, []).append(event["txid"])
            elif kind == "execute" and not event["ok"]:
                reverted.setdefault(epoch, []).append(event["txid"])
        values = dict(ctx["genesis"])
        for index, blocks in enumerate(epochs):
            report = reports.get(index)
            if report is None or index >= len(ctx["commits"]):
                out.failed += 1
                continue
            delta = ctx["commits"][index][1].write_delta
            values.update(delta)
            claims = Claims(
                index,
                _offered(blocks),
                order=[txid for _, txid in sorted(commits.get(index, []))],
                aborted=aborts.get(index, []),
                reverted=reverted.get(index, []),
                read=lambda address: values.get(address, 0),
                written=set(delta),
            )
            claims = self.tamper("epoch", claims)
            errors = verify(out.reference, claims)
            if report.state_root != roots[index]:
                errors.append(f"epoch {index}: streamed root differs from the probe's")
            if report.committed != len(claims.order):
                errors.append(f"epoch {index}: report counts disagree with the ledger")
            if report.certificate is None or not report.certificate.ok:
                errors.append(f"epoch {index}: no accepted certificate")
            if errors:
                out.errors.extend(errors)
                out.failed += 1
            out.committed += report.committed
        read = self.tamper("final", ctx["node"].state.snapshot().get)
        out.errors += out.reference.compare(read, ctx["genesis"], "final state")

    def teardown(self, ctx: dict) -> None:
        ctx["node"].close()


def _seeded(store, genesis: dict) -> FlatStateDB:
    state = FlatStateDB(store=store)
    state.seed(genesis)
    return state


WORKLOADS = {cls.name: cls for cls in (LiveWideLSM, CatchupHotVM)}
