"""Output checks that do not trust the node.

The SmallBank reference below is plain Python written from the contract's
specification; it shares no execution, scheduling or state code with the
node.  Every epoch is checked against it:

* the committed transactions, replayed one by one in commit-schedule
  order against the pre-epoch state, must all succeed and must leave
  every account with the value the node holds;
* no committed transaction may depend on a value an earlier committed
  transaction of the same epoch wrote (the node executed every
  transaction on the pre-epoch snapshot, so its commit order must not
  place a writer before a reader of the same address);
* every transaction the node reports as reverted must revert on the
  pre-epoch state;
* every offered txid must be committed, aborted or reverted exactly once
  across the run.

The final state root is recomputed by inserting keys one at a time with
``MerklePatriciaTrie.put`` (never the node's batched seal).
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence

WORD_LIMIT = 1 << 64


def savings(customer: int) -> str:
    return f"sav:{customer:06d}"


def checking(customer: int) -> str:
    return f"chk:{customer:06d}"


def smallbank_call(
    state: Mapping[str, int], function: str, args: tuple
) -> dict[str, int] | None:
    """The writes of one SmallBank call on ``state``; ``None`` if it reverts.

    Writes are returned in program order, so a later write to the same
    address wins, exactly as sequential execution would leave it.
    """
    get = state.get
    if function == "updateSavings":
        customer, amount = args
        return {savings(customer): get(savings(customer), 0) + amount}
    if function == "updateBalance":
        customer, amount = args
        return {checking(customer): get(checking(customer), 0) + amount}
    if function == "sendPayment":
        src, dst, amount = args
        balance = get(checking(src), 0)
        if balance < amount:
            return None
        writes = {checking(src): balance - amount}
        target = writes.get(checking(dst), get(checking(dst), 0))
        writes[checking(dst)] = target + amount
        return writes
    if function == "writeCheck":
        customer, amount = args
        sav, chk = get(savings(customer), 0), get(checking(customer), 0)
        if sav + chk < amount or chk < amount:
            return None
        return {checking(customer): chk - amount}
    if function == "almagate":
        src, dst = args
        sav, chk = get(savings(src), 0), get(checking(src), 0)
        writes = {checking(dst): get(checking(dst), 0) + sav + chk}
        writes[checking(src)] = 0
        writes[savings(src)] = 0
        return writes
    if function == "getBalance":
        return {}
    raise ValueError(f"unknown SmallBank function {function!r}")


def observed(function: str, args: tuple) -> set[str]:
    """Addresses whose value a call's outcome depends on.

    Increments (``x += amount``) are left out: the order of commutative
    increments does not matter.  Every other read does.
    """
    if function == "sendPayment":
        return {checking(args[0])}
    if function in ("writeCheck", "getBalance", "almagate"):
        return {savings(args[0]), checking(args[0])}
    return set()


class ReferenceLedger:
    """Replays one node's epochs against the reference and reports mismatches.

    ``state`` is the reference world state after the last checked epoch;
    ``changed`` collects every address the run has written, which is
    what the final root check re-inserts over the genesis trie.
    """

    def __init__(self, genesis: Mapping[str, int]) -> None:
        self.state = dict(genesis)
        self.changed: set[str] = set()
        self._outcome: dict[int, str] = {}

    def check_epoch(
        self,
        index: int,
        offered: Sequence,
        order: Sequence[int],
        aborted: Iterable[int],
        reverted: Iterable[int],
    ) -> tuple[list[str], set[str]]:
        """Check one epoch; returns (errors, addresses the replay wrote).

        ``offered`` holds the transactions handed to the node, ``order``
        the committed txids in commit-schedule order, and ``aborted`` /
        ``reverted`` the node's other two outcomes.
        """
        errors: list[str] = []
        by_id = {txn.txid: txn for txn in offered}
        claims = [(txid, "committed") for txid in order]
        claims += [(txid, "aborted") for txid in aborted]
        claims += [(txid, "reverted") for txid in reverted]
        for txid, outcome in claims:
            if txid not in by_id:
                errors.append(f"epoch {index}: T{txid} {outcome} but never offered")
            elif txid in self._outcome:
                errors.append(
                    f"epoch {index}: T{txid} {outcome} after already being "
                    f"{self._outcome[txid]}"
                )
            else:
                self._outcome[txid] = outcome
        for txid in sorted(set(by_id) - {txid for txid, _ in claims}):
            errors.append(f"epoch {index}: T{txid} offered but has no outcome")

        state = self.state
        for txid, outcome in claims:
            if outcome == "reverted" and txid in by_id:
                txn = by_id[txid]
                if smallbank_call(state, txn.function, txn.args) is not None:
                    errors.append(
                        f"epoch {index}: T{txid} reverted by the node but "
                        "succeeds on the pre-epoch state"
                    )
        written: set[str] = set()
        for txid in order:
            txn = by_id.get(txid)
            if txn is None:
                continue
            stale = observed(txn.function, txn.args) & written
            if stale:
                errors.append(
                    f"epoch {index}: committed T{txid} depends on "
                    f"{min(stale)}, which an earlier commit of the epoch wrote"
                )
            writes = smallbank_call(state, txn.function, txn.args)
            if writes is None:
                errors.append(
                    f"epoch {index}: committed T{txid} reverts in serial replay"
                )
                continue
            for address, value in writes.items():
                if not 0 <= value < WORD_LIMIT:
                    errors.append(
                        f"epoch {index}: T{txid} leaves {address} out of range"
                    )
            state.update(writes)
            written.update(writes)
        self.changed |= written
        return errors, written

    def compare(
        self, read: Callable[[str], int], addresses: Iterable[str], where: str
    ) -> list[str]:
        """Mismatches between the node's values and the reference's."""
        errors = []
        for address in addresses:
            mine, theirs = self.state.get(address, 0), read(address)
            if mine != theirs:
                errors.append(
                    f"{where}: {address} is {theirs} on the node, "
                    f"{mine} in the reference"
                )
                if len(errors) >= 5:
                    break
        return errors


class SequentialRoot:
    """State roots recomputed with one ``MerklePatriciaTrie.put`` per key.

    The genesis trie is built once and shared: the trie is copy-on-write,
    so each run's final root is genesis plus its changed keys inserted
    one by one.
    """

    def __init__(self, genesis: Mapping[str, int]) -> None:
        from repro.state.account import encode_int
        from repro.state.mpt.trie import MerklePatriciaTrie, NodeStore

        self._encode = encode_int
        self._trie_type = MerklePatriciaTrie
        self._store = NodeStore(decoded_cache_size=1 << 22)
        trie = MerklePatriciaTrie(store=self._store)
        for address in sorted(genesis):
            trie.put(address.encode(), encode_int(genesis[address]))
        self.genesis_root = trie.root

    def root_after(self, values: Mapping[str, int], changed: Iterable[str]) -> bytes:
        trie = self._trie_type(store=self._store, root=self.genesis_root)
        for address in sorted(changed):
            trie.put(address.encode(), self._encode(values.get(address, 0)))
        return trie.root
