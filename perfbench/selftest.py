#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

Usage (from the repository root)::

    python3 perfbench/selftest.py

Runs one small round of each workload honestly (the checks must pass),
then once per corruption of the captured output (the checks must fail):

* ``swap``   - two committed transactions that conflict trade places in
  the commit order;
* ``drop``   - one commit disappears from the output;
* ``revert`` - a committed transaction is reported as reverted;
* ``alter``  - one account of the final state is off by one;
* ``root``   - one byte of the final state root flips.

It also checks that the metric names and units ``run.py`` prints are the
ones ``BENCHMARK.json`` lists.  Exits 1 if any corruption is accepted.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from reference import observed  # noqa: E402
from run import END_TO_END, PER_LAYER, check_roots, one_round  # noqa: E402
from workloads import CatchupHotVM, LiveWideLSM, no_tamper  # noqa: E402

SEED = 7
EPOCHS = 3


class SmallLive(LiveWideLSM):
    accounts = 2_000
    skew = 0.9


class SmallCatchup(CatchupHotVM):
    accounts = 2_000


def swap(stage, value):
    """Move a committed writer in front of a committed reader it conflicts with."""
    if stage != "epoch" or value.index != 1:
        return value
    by_id = {txn.txid: txn for txn in value.offered}
    order = value.order
    for i, txid in enumerate(order):
        reads = observed(by_id[txid].function, by_id[txid].args)
        for j in range(i + 1, len(order)):
            if reads & set(by_id[order[j]].rwset.writes):
                order[i], order[j] = order[j], order[i]
                return value
    raise AssertionError("epoch 1 has no conflicting committed pair")


def drop(stage, value):
    if stage == "epoch" and value.index == 1:
        value.order = value.order[:-1]
    return value


def revert(stage, value):
    if stage == "epoch" and value.index == 1:
        value.reverted = value.reverted + [value.order[0]]
        value.order = value.order[1:]
    return value


def alter(stage, value):
    if stage != "final":
        return value
    return lambda address: value(address) + (address == "chk:000000")


def flip_root(stage, value):
    if stage != "root":
        return value
    return bytes([value[0] ^ 1]) + value[1:]


def errors_of(workload_type, tamper, workdir: Path) -> list[str]:
    workload = workload_type(workdir, tamper)
    result = one_round(workload, SEED, EPOCHS)
    return result.errors + check_roots(workload, [result])


def main() -> int:
    workdir = ROOT / ".perfbench" / "selftest"
    failures = []
    try:
        for workload_type in (SmallLive, SmallCatchup):
            honest = errors_of(workload_type, no_tamper, workdir)
            status = "passes" if not honest else f"FAILS: {honest[:3]}"
            print(f"{workload_type.name} honest output {status}")
            if honest:
                failures.append(f"{workload_type.name}: honest output rejected")
            corruptions = {
                "swap": swap,
                "drop": drop,
                "revert": revert,
                "alter": alter,
                "root": flip_root,
            }
            for name, tamper in corruptions.items():
                found = errors_of(workload_type, tamper, workdir)
                verdict = f"rejected ({found[0]})" if found else "ACCEPTED"
                print(f"{workload_type.name} {name}: {verdict}")
                if not found:
                    failures.append(f"{workload_type.name}: {name} accepted")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    declared = ROOT / "BENCHMARK.json"
    if declared.is_file():
        spec = json.loads(declared.read_text())
        for key, emitted in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
            listed = {m["name"]: m["unit"] for m in spec[key]}
            if listed != emitted:
                failures.append(f"BENCHMARK.json {key} differs from what run.py prints")
    for failure in failures:
        print(f"FAILED: {failure}")
    print("self-test passed" if not failures else "self-test failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
