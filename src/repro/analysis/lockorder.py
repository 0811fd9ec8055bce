"""Lock-order recorder: the acquired-before graph and its cycles.

Its only scope is the :class:`~repro.concurrency.locks.LockManager`
that :class:`~repro.recovery.RecoveryManager` owns: the paper's
byte-range locks and §4.5 segment release locks, held by concurrent
transactions inside one database.  (The server has no lock table; its
shard workers order every op.)  The table is try-acquire — a conflict
raises :class:`~repro.errors.LockConflict` to the caller — so a true
blocking deadlock cannot form.  What *can* form is its moral
equivalent: two transactions that acquire the same resources in
opposite orders will, under load, make each other retry forever.  The
classic detector for this is the acquired-before graph
[Havender68-style ordering]: every time a transaction that already
holds lock A acquires lock B, add edge A -> B; a cycle in the graph
means the locking protocol admits a deadlock, even if this particular
run got lucky with timing.

The sanitizer keys the graph by *resource*, not by individual lock
(all byte-range locks of one object share the object's key; all
segment release locks share one key), because ordering is a property
of resources.  On detecting a cycle it either raises
:class:`~repro.errors.LockOrderViolation` immediately (``mode="raise"``,
the default — you want the failing acquire's stack) or records it for
later inspection (``mode="record"``).
"""

from __future__ import annotations

import threading
from repro.errors import LockOrderViolation

#: A resource key: hashable, self-describing (e.g. ``("object", 7)``).
Key = tuple[object, ...]


class LockOrderSanitizer:
    """Build the acquired-before graph; detect and report cycles."""

    def __init__(self, mode: str = "raise") -> None:
        if mode not in ("raise", "record"):
            raise ValueError(f"mode must be 'raise' or 'record', got {mode!r}")
        self.mode = mode
        self._mutex = threading.Lock()
        self._held: dict[int, list[Key]] = {}   # txn -> keys, in order
        self._edges: dict[Key, set[Key]] = {}   # acquired-before edges
        #: Cycles seen so far (each a key path a -> ... -> a).  In
        #: ``raise`` mode the first one also raises.
        self.cycles: list[list[Key]] = []

    # -- recording -----------------------------------------------------------

    def record_acquire(self, txn_id: int, key: Key) -> None:
        """Note that ``txn_id`` acquired ``key``; add held -> key edges."""
        with self._mutex:
            held = self._held.setdefault(txn_id, [])
            if key in held:
                return  # re-acquiring a resource adds no ordering
            new_cycle: list[Key] | None = None
            for prior in held:
                targets = self._edges.setdefault(prior, set())
                if key not in targets:
                    targets.add(key)
                    cycle = self._find_cycle(key, prior)
                    if cycle is not None and new_cycle is None:
                        new_cycle = cycle
            held.append(key)
            if new_cycle is not None:
                self.cycles.append(new_cycle)
        if new_cycle is not None and self.mode == "raise":
            raise LockOrderViolation(self._describe(new_cycle))

    def record_release_all(self, txn_id: int) -> None:
        """The transaction dropped everything; its held list resets.

        The graph keeps its edges — ordering evidence accumulates across
        transactions; that is the entire point.
        """
        with self._mutex:
            self._held.pop(txn_id, None)

    # -- cycle detection -----------------------------------------------------

    def _find_cycle(self, start: Key, target: Key) -> list[Key] | None:
        """DFS from ``start``; a path back to ``target`` closes a cycle
        through the just-added edge ``target -> start``."""
        stack = [(start, [target, start])]
        seen = {start}
        while stack:
            node, path = stack.pop()
            if node == target:
                return path
            for nxt in self._edges.get(node, ()):
                if nxt == target:
                    return path + [nxt]
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, path + [nxt]))
        return None

    # -- reporting -----------------------------------------------------------

    @staticmethod
    def _describe(cycle: list[Key]) -> str:
        chain = " -> ".join(repr(key) for key in cycle)
        return (
            f"lock-order cycle (potential deadlock): {chain}; transactions "
            f"acquire these resources in conflicting orders"
        )

    def edges(self) -> dict[Key, set[Key]]:
        """A copy of the acquired-before graph (for tests/inspection)."""
        with self._mutex:
            return {a: set(bs) for a, bs in self._edges.items()}

    def report(self) -> str:
        """Human-readable summary of recorded cycles ('' when clean)."""
        with self._mutex:
            cycles = list(self.cycles)
        if not cycles:
            return ""
        lines = [f"{len(cycles)} lock-order cycle(s) recorded:"]
        lines.extend(f"  {self._describe(cycle)}" for cycle in cycles)
        return "\n".join(lines)

    def assert_no_cycles(self) -> None:
        """Raise :class:`~repro.errors.LockOrderViolation` on any cycle."""
        report = self.report()
        if report:
            raise LockOrderViolation(report)

    def reset(self) -> None:
        """Forget all held locks, edges and recorded cycles."""
        with self._mutex:
            self._held.clear()
            self._edges.clear()
            self.cycles.clear()
