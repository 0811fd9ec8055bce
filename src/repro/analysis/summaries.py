"""Module-local call graph and one-level function summaries.

The flow rules are intraprocedural, but most real violations hide one
call away: ``async`` code calling a sync helper that dumps the flight
recorder, or the metrics walker handing ``shard.db`` to a function that
pokes its buffer pool.  This module computes just enough interprocedural
context to catch those without whole-program analysis:

* a **call graph** over the functions of one module (edges by bare
  callee name — receivers are ignored, so ``self._incident()`` links to
  ``_incident``);
* a **may-block** bit per sync function, seeded by direct blocking
  primitives (disk page I/O, ``LockManager.acquire_*``, ``time.sleep``,
  ``open``, flight-recorder dumps, pool flushes) and closed transitively
  over module-local calls (EOS009);
* **substrate parameters**: which parameters of a function have shard
  substrate attributes (``pool``/``buddy``/``volume``/...) touched on
  them, so a call passing ``shard.db`` can be flagged one level deep
  (EOS008);
* a **returns-borrowed** bit for functions whose return value is a
  zero-copy view straight from ``view_pages``/``view_run`` (EOS007
  treats calls to them as borrow sources);
* **worker/unit executor sets**: functions and lambdas handed to
  ``Shard.submit(...)`` run on the shard worker thread (sanctioned for
  EOS008), and ones handed to ``VersionManager.mutate(...)`` run inside
  a version unit (sanctioned for EOS010).

Cross-module calls stay opaque on purpose: the one-level summaries are
a precision/soundness trade documented in INTERNALS.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.dataflow import scoped_walk

__all__ = [
    "FunctionSummary",
    "ModuleSummaries",
    "summarize_module",
    "blocking_reason",
    "SUBSTRATE_ATTRS",
    "BORROW_VIEW_SOURCES",
]

FunctionNode = ast.FunctionDef | ast.AsyncFunctionDef

#: Shard-owned substrate attributes (EOS008): reaching one of these on a
#: shard's database outside its worker thread breaks shared-nothing.
SUBSTRATE_ATTRS = frozenset(
    {"pool", "buddy", "volume", "disk", "pager", "segio"}
)
#: Methods on the database facade that walk substrate state directly.
SUBSTRATE_METHODS = frozenset({"free_pages"})

#: Calls that hand out a zero-copy view over pool/disk-owned memory.
BORROW_VIEW_SOURCES = frozenset({"view_pages", "view_run"})

_BLOCKING_ATTRS = frozenset(
    {
        # Disk page I/O (DiskVolume / SegmentIO primitives).
        "read_page",
        "write_page",
        "write_pages_v",
        "read_span",
        # LockManager acquisition (can wait on a contended range).
        "acquire_root",
        "acquire_range",
        "acquire_release_lock",
        # Pool/database flushing walks frames and writes pages.
        "flush_page",
        "flush_all",
        "checkpoint",
        "fsync",
    }
)
_FLIGHT_DUMPS = frozenset({"dump", "maybe_dump"})


def _mentions(expr: ast.AST, word: str) -> bool:
    for node in ast.walk(expr):
        if isinstance(node, ast.Name) and node.id == word:
            return True
        if isinstance(node, ast.Attribute) and node.attr == word:
            return True
    return False


def blocking_reason(call: ast.Call) -> str | None:
    """Why this call blocks the calling thread, or None if it doesn't."""
    func = call.func
    if isinstance(func, ast.Name) and func.id == "open":
        return "open()"
    if not isinstance(func, ast.Attribute):
        return None
    if (
        func.attr == "sleep"
        and isinstance(func.value, ast.Name)
        and func.value.id == "time"
    ):
        return "time.sleep()"
    if func.attr in _BLOCKING_ATTRS:
        return f".{func.attr}()"
    if func.attr in _FLIGHT_DUMPS and _mentions(func.value, "flight"):
        return f"flight recorder .{func.attr}()"
    return None


@dataclass
class FunctionSummary:
    """One-level facts about a single module-local function."""

    name: str
    node: FunctionNode
    is_async: bool
    #: Bare names of everything this function calls (receivers ignored).
    calls: frozenset[str]
    #: Direct blocking primitive in the body, if any.
    direct_block: str | None
    #: Closed over module-local calls; async callees don't propagate
    #: (awaiting them yields the loop instead of blocking it).
    may_block: bool = False
    #: Explains may_block: "<primitive>" or "calls <name>, which blocks".
    block_reason: str = ""
    #: Returns a zero-copy borrowed view (one syntactic level deep).
    returns_borrowed: bool = False
    #: Names of parameters whose substrate attributes the body touches.
    substrate_params: frozenset[str] = frozenset()

    def param_names(self) -> list[str]:
        """Positional parameter names, in declaration order."""
        args = self.node.args
        return [
            a.arg for a in (list(args.posonlyargs) + list(args.args))
        ]


@dataclass
class ModuleSummaries:
    """Summaries for every function of one module, keyed by bare name.

    Name collisions (same method name on two classes) keep every
    definition; queries answer conservatively over all of them.
    """

    by_name: dict[str, list[FunctionSummary]] = field(default_factory=dict)
    #: Functions/lambdas that run on a shard worker (``.submit`` args).
    worker_functions: set[str] = field(default_factory=set)
    worker_lambdas: set[ast.Lambda] = field(default_factory=set)
    #: Functions/lambdas that run inside a version unit (``.mutate`` args).
    unit_functions: set[str] = field(default_factory=set)
    unit_lambdas: set[ast.Lambda] = field(default_factory=set)

    def blocking(self, name: str) -> FunctionSummary | None:
        """A sync module-local function by this name that may block."""
        for summary in self.by_name.get(name, []):
            if not summary.is_async and summary.may_block:
                return summary
        return None

    def substrate_positions(self, name: str) -> dict[str, int]:
        """Substrate parameter name -> positional index, over all defs."""
        positions: dict[str, int] = {}
        for summary in self.by_name.get(name, []):
            params = summary.param_names()
            for pname in summary.substrate_params:
                if pname in params:
                    positions[pname] = params.index(pname)
        return positions

    def returns_borrowed(self, name: str) -> bool:
        """Does any function by this name return a borrowed view?"""
        return any(s.returns_borrowed for s in self.by_name.get(name, []))


def _body_nodes(func: FunctionNode) -> list[ast.AST]:
    """Every AST node of the function body, nested scopes excluded."""
    out: list[ast.AST] = []
    for stmt in func.body:
        out.extend(scoped_walk(stmt))
    return out


def _summarize_function(func: FunctionNode) -> FunctionSummary:
    calls: set[str] = set()
    direct_block: str | None = None
    params = {
        a.arg
        for a in (
            list(func.args.posonlyargs)
            + list(func.args.args)
            + list(func.args.kwonlyargs)
        )
    }
    substrate_params: set[str] = set()
    returns_borrowed = False
    for node in _body_nodes(func):
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name):
                calls.add(node.func.id)
            elif isinstance(node.func, ast.Attribute):
                calls.add(node.func.attr)
            if direct_block is None:
                direct_block = blocking_reason(node)
        if isinstance(node, ast.Attribute) and isinstance(
            node.value, ast.Name
        ):
            base = node.value.id
            if base in params and (
                node.attr in SUBSTRATE_ATTRS or node.attr in SUBSTRATE_METHODS
            ):
                substrate_params.add(base)
        if isinstance(node, ast.Return) and node.value is not None:
            for sub in scoped_walk(node.value):
                if (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr in BORROW_VIEW_SOURCES
                ):
                    returns_borrowed = True
    return FunctionSummary(
        name=func.name,
        node=func,
        is_async=isinstance(func, ast.AsyncFunctionDef),
        calls=frozenset(calls),
        direct_block=direct_block,
        returns_borrowed=returns_borrowed,
        substrate_params=frozenset(substrate_params),
    )


def _collect_executor_args(
    tree: ast.AST, method: str, names: set[str], lambdas: set[ast.Lambda]
) -> None:
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == method
        ):
            continue
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            if isinstance(arg, ast.Lambda):
                lambdas.add(arg)
            elif isinstance(arg, ast.Name):
                names.add(arg.id)
            elif isinstance(arg, ast.Attribute):
                names.add(arg.attr)
            # A lambda *inside* a larger arg expression still runs on
            # the executor (e.g. wrapped in functools.partial).
            for sub in ast.walk(arg):
                if isinstance(sub, ast.Lambda):
                    lambdas.add(sub)


def summarize_module(tree: ast.AST) -> ModuleSummaries:
    """Summarize every function in a module and close may-block facts."""
    summaries = ModuleSummaries()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            summary = _summarize_function(node)
            summaries.by_name.setdefault(node.name, []).append(summary)
    # Transitive may-block over the module-local call graph.  Seeds are
    # direct primitives; only sync callees propagate.
    for group in summaries.by_name.values():
        for summary in group:
            if summary.direct_block is not None:
                summary.may_block = True
                summary.block_reason = summary.direct_block
    changed = True
    while changed:
        changed = False
        for group in summaries.by_name.values():
            for summary in group:
                if summary.may_block:
                    continue
                for callee in summary.calls:
                    blocked = summaries.blocking(callee)
                    if blocked is not None and callee != summary.name:
                        summary.may_block = True
                        summary.block_reason = (
                            f"calls {callee}(), which blocks via "
                            f"{blocked.block_reason}"
                        )
                        changed = True
                        break
    _collect_executor_args(
        tree, "submit", summaries.worker_functions, summaries.worker_lambdas
    )
    _collect_executor_args(
        tree, "mutate", summaries.unit_functions, summaries.unit_lambdas
    )
    return summaries
