"""Flow-sensitive invariant lint rules (EOS007-EOS010).

These rules run on the CFG/dataflow layer (:mod:`repro.analysis.cfg`,
:mod:`repro.analysis.dataflow`) plus one-level module summaries
(:mod:`repro.analysis.summaries`).  They complement the per-statement
rules in :mod:`repro.analysis.rules`:

EOS007  A borrowed zero-copy buffer (``memoryview`` from
        ``view_pages``/``view_run``, a pinned image from
        ``fetch``/``fetch_new`` or ``pool.page(...)``) escapes its
        borrow scope: stored into ``self.*``/a module global, returned
        after its ``unpin``/outside its ``with`` scope, or captured by
        a closure handed to another thread or executor.
EOS008  Shard-owned substrate (``pool``/``buddy``/``volume``/``disk``/
        ``pager``/``segio`` and the shard's ``locks``) reached from
        server code outside the shard's worker thread.  Work submitted
        via ``shard.submit(...)`` runs *on* the worker and is
        sanctioned; the snapshot-read pagers never touch these.
EOS009  A blocking call (disk page I/O, ``LockManager.acquire_*``,
        ``time.sleep``, ``open``, flight-recorder dumps, pool flushes)
        directly in an ``async def`` body of server code, including one
        module-local call away, without an executor hop.
EOS010  A ``LargeObject`` mutation (``append``/``insert``/``delete``/
        ``replace``/``destroy``) on a path where ``versions`` may be
        enabled, outside a ``VersionManager.mutate(...)`` unit.

Precision trades (documented in ``docs/INTERNALS.md``): unknown calls
launder borrows, cross-module calls are opaque, and EOS008/EOS010 only
apply to the modules that can actually hold shard handles or the
versioning switch.  Extra paths in the CFG only make the rules more
conservative, never less.
"""

from __future__ import annotations

import ast
from typing import Callable

from repro.analysis.cfg import CFG, FunctionNode, build_cfg
from repro.analysis.dataflow import (
    PARAM_DEF,
    own_expressions,
    reaching_definitions,
    scoped_walk,
    solve_forward,
)
from repro.analysis.lintcore import Finding, register_rule
from repro.analysis.summaries import (
    BORROW_VIEW_SOURCES,
    SUBSTRATE_ATTRS,
    ModuleSummaries,
    blocking_reason,
    summarize_module,
)

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)

BorrowFact = tuple[str, int | None, bool]  # (kind, with-origin node, dead)
BorrowState = dict[str, frozenset[BorrowFact]]
BorrowTransfer = Callable[[int, BorrowState], BorrowState]

_PIN_SOURCES = frozenset({"fetch", "fetch_new"})
_WITH_SOURCES = frozenset({"page", "pinned"})
_VIEW_PROPAGATORS = frozenset({"cast", "toreadonly"})
_WEAK_APPENDS = frozenset({"append", "add", "appendleft"})
_THREAD_SINKS = frozenset(
    {
        "submit",
        "run_in_executor",
        "to_thread",
        "Thread",
        "call_soon_threadsafe",
        "run_coroutine_threadsafe",
        "apply_async",
    }
)

#: Modules allowed to return a still-alive borrow: the zero-copy data
#: path hands views up the stack by design (EOS006 polices the copies).
_BORROW_RETURN_OK_PREFIXES = ("storage/",)
_BORROW_RETURN_OK_FILES = frozenset({"core/segio.py", "versions/pager.py"})
#: The pool itself manufactures and retires borrows; its internal frame
#: bookkeeping is the thing every other module borrows *from*.
_EOS007_EXEMPT = frozenset({"storage/buffer.py"})


def _finding(node: ast.AST, message: str) -> Finding:
    return Finding(
        rule="",
        path="",
        line=getattr(node, "lineno", 0),
        col=getattr(node, "col_offset", 0),
        message=message,
    )


def _functions(tree: ast.AST) -> list[FunctionNode]:
    return [
        node for node in ast.walk(tree) if isinstance(node, _FUNCTION_NODES)
    ]


def _module_globals(tree: ast.AST) -> frozenset[str]:
    names: set[str] = set()
    for stmt in getattr(tree, "body", []):
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(stmt, ast.AnnAssign):
            if isinstance(stmt.target, ast.Name):
                names.add(stmt.target.id)
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            names.update(node.names)
    return frozenset(names)


def _node_calls(stmt: ast.stmt) -> list[ast.Call]:
    """Calls evaluated at this statement's own CFG node."""
    out: list[ast.Call] = []
    for expr in own_expressions(stmt):
        for node in scoped_walk(expr):
            if isinstance(node, ast.Call):
                out.append(node)
    return out


def _call_attr(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _call_name(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Name):
        return call.func.id
    return None


# ---------------------------------------------------------------------------
# EOS007 — borrowed-view escape
# ---------------------------------------------------------------------------


def _borrows(
    expr: ast.AST, state: BorrowState, summaries: ModuleSummaries
) -> frozenset[BorrowFact]:
    """Which borrow facts the value of this expression may carry."""
    empty: frozenset[BorrowFact] = frozenset()
    if isinstance(expr, ast.Name):
        return state.get(expr.id, empty)
    if isinstance(expr, (ast.Starred, ast.Await, ast.NamedExpr)):
        return _borrows(expr.value, state, summaries)
    if isinstance(expr, ast.Subscript):
        return _borrows(expr.value, state, summaries)
    if isinstance(expr, ast.Call):
        attr = _call_attr(expr)
        name = _call_name(expr)
        if attr in BORROW_VIEW_SOURCES:
            return frozenset({("view", None, False)})
        if attr in _PIN_SOURCES:
            return frozenset({("pin", None, False)})
        if attr in _VIEW_PROPAGATORS and isinstance(expr.func, ast.Attribute):
            return _borrows(expr.func.value, state, summaries)
        if name == "memoryview" and expr.args:
            return _borrows(expr.args[0], state, summaries)
        for called in (attr, name):
            if called is not None and summaries.returns_borrowed(called):
                return frozenset({("view", None, False)})
        # Every other call launders: bytes()/bytearray()/b"".join()/
        # materialize() genuinely copy, and unknown calls are assumed
        # to as well (precision trade).
        return empty
    if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
        facts = empty
        for elt in expr.elts:
            facts |= _borrows(elt, state, summaries)
        return facts
    if isinstance(expr, ast.IfExp):
        return _borrows(expr.body, state, summaries) | _borrows(
            expr.orelse, state, summaries
        )
    if isinstance(expr, ast.BoolOp):
        facts = empty
        for value in expr.values:
            facts |= _borrows(value, state, summaries)
        return facts
    return empty


def _assign_parts(stmt: ast.stmt) -> tuple[list[ast.expr], ast.expr] | None:
    if isinstance(stmt, ast.Assign):
        return stmt.targets, stmt.value
    if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
        return [stmt.target], stmt.value
    if isinstance(stmt, ast.AugAssign):
        return [stmt.target], stmt.value
    return None


def _kill_pins(state: BorrowState) -> BorrowState:
    """Mark every pinned-image fact dead (an unpin just ran)."""
    new: BorrowState = {}
    for var, facts in state.items():
        new[var] = frozenset(
            (kind, origin, True) if kind == "pin" else (kind, origin, dead)
            for (kind, origin, dead) in facts
        )
    return new


def _store_target_names(target: ast.expr) -> list[str]:
    return [
        node.id
        for node in ast.walk(target)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
    ]


def _borrow_transfer(
    cfg: CFG, summaries: ModuleSummaries
) -> BorrowTransfer:
    def transfer(node: int, state: BorrowState) -> BorrowState:
        stmt = cfg.stmt_of[node]
        new = dict(state)
        # unpin retires the pinned image (receiver-insensitive: one
        # statement unpinning *anything* marks pinned borrows dead).
        if any(_call_attr(call) == "unpin" for call in _node_calls(stmt)):
            new = dict(_kill_pins(new))
        parts = _assign_parts(stmt)
        if parts is not None:
            targets, value = parts
            facts = _borrows(value, state, summaries)
            weak = isinstance(stmt, ast.AugAssign)
            for target in targets:
                for name in _store_target_names(target):
                    if weak:
                        new[name] = new.get(name, frozenset()) | facts
                    else:
                        new[name] = facts
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                ctx = item.context_expr
                if (
                    isinstance(ctx, ast.Call)
                    and _call_attr(ctx) in _WITH_SOURCES
                    and isinstance(item.optional_vars, ast.Name)
                ):
                    new[item.optional_vars.id] = frozenset(
                        {("pin", node, False)}
                    )
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            facts = _borrows(stmt.iter, state, summaries)
            for name in _store_target_names(stmt.target):
                new[name] = facts
        # container.append(view) propagates the borrow into the
        # container (weak update: the container keeps older facts too).
        for call in _node_calls(stmt):
            if (
                _call_attr(call) in _WEAK_APPENDS
                and isinstance(call.func, ast.Attribute)
                and isinstance(call.func.value, ast.Name)
                and call.args
            ):
                receiver = call.func.value.id
                facts = frozenset()
                for arg in call.args:
                    facts |= _borrows(arg, state, summaries)
                if facts:
                    new[receiver] = new.get(receiver, frozenset()) | facts
        return new

    return transfer


def _join_borrows(a: BorrowState, b: BorrowState) -> BorrowState:
    if a == b:
        return a
    merged = dict(a)
    for name, facts in b.items():
        merged[name] = merged.get(name, frozenset()) | facts
    return merged


def _free_loads(func: ast.AST) -> set[str]:
    """Names a lambda/nested def reads from the enclosing scope."""
    if isinstance(func, ast.Lambda):
        body: list[ast.AST] = [func.body]
        args = func.args
    elif isinstance(func, _FUNCTION_NODES):
        body = list(func.body)
        args = func.args
    else:
        return set()
    bound = {
        a.arg
        for a in (
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        )
    }
    if args.vararg:
        bound.add(args.vararg.arg)
    if args.kwarg:
        bound.add(args.kwarg.arg)
    loads: set[str] = set()
    for part in body:
        for node in scoped_walk(part):
            if isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Store):
                    bound.add(node.id)
                elif isinstance(node.ctx, ast.Load):
                    loads.add(node.id)
    return loads - bound


def _borrow_return_allowed(mod: str) -> bool:
    return mod in _BORROW_RETURN_OK_FILES or any(
        mod.startswith(prefix) for prefix in _BORROW_RETURN_OK_PREFIXES
    )


def _returns_under_finally_unpin(func: FunctionNode) -> set[ast.stmt]:
    """Return statements lexically inside a try whose finally unpins.

    Such a return always hands the value out *after* the unpin runs —
    even a still-alive borrow fact at the return node is an escape.
    """
    out: set[ast.stmt] = set()
    for node in ast.walk(func):
        if not (isinstance(node, ast.Try) and node.finalbody):
            continue
        unpins = any(
            isinstance(sub, ast.Call) and _call_attr(sub) == "unpin"
            for fin in node.finalbody
            for sub in ast.walk(fin)
        )
        if not unpins:
            continue
        for body_stmt in node.body:
            for sub in ast.walk(body_stmt):
                if isinstance(sub, ast.Return):
                    out.add(sub)
    return out


@register_rule("EOS007")
def rule_eos007(tree: ast.AST, mod: str, lines: list[str]) -> list[Finding]:
    """Borrowed view escapes its pin/with scope (store, return, thread).

    A ``memoryview`` from ``view_pages``/``view_run`` or a pinned image
    from ``fetch``/``pool.page(...)`` is only valid while the pin is
    held.  Storing one into ``self.*``/a module global, returning it
    past its ``unpin``/``with`` scope, or capturing it in a closure
    handed to another thread lets it outlive the borrow.
    """
    if mod in _EOS007_EXEMPT:
        return []
    summaries = summarize_module(tree)
    module_globals = _module_globals(tree)
    findings: list[Finding] = []
    for func in _functions(tree):
        cfg = build_cfg(func)
        in_states = solve_forward(
            cfg, {}, _borrow_transfer(cfg, summaries), _join_borrows
        )
        local_defs = {
            stmt.name: stmt
            for stmt in ast.walk(func)
            if isinstance(stmt, _FUNCTION_NODES) and stmt is not func
        }
        finally_returns = _returns_under_finally_unpin(func)
        for node, state in in_states.items():
            if node in (CFG.ENTRY, CFG.EXIT):
                continue
            findings.extend(
                _eos007_check_node(
                    cfg.stmt_of[node],
                    state,
                    summaries,
                    module_globals,
                    mod,
                    local_defs,
                    finally_returns,
                )
            )
    return findings


def _eos007_check_node(
    stmt: ast.stmt,
    state: BorrowState,
    summaries: ModuleSummaries,
    module_globals: frozenset[str],
    mod: str,
    local_defs: dict[str, FunctionNode],
    finally_returns: set[ast.stmt],
) -> list[Finding]:
    findings: list[Finding] = []
    parts = _assign_parts(stmt)
    if parts is not None:
        targets, value = parts
        facts = _borrows(value, state, summaries)
        if facts:
            for target in targets:
                place = _escape_place(target, module_globals)
                if place is not None:
                    findings.append(
                        _finding(
                            stmt,
                            "borrowed view escapes into "
                            f"{place}; copy it (bytes()/materialize) "
                            "or keep it pin-scoped",
                        )
                    )
    if isinstance(stmt, ast.Return) and stmt.value is not None:
        findings.extend(
            _eos007_check_return(
                stmt, state, summaries, mod, finally_returns
            )
        )
    for call in _node_calls(stmt):
        sink = _call_attr(call) or _call_name(call)
        if sink not in _THREAD_SINKS:
            continue
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            captured: set[str] = set()
            for sub in ast.walk(arg):
                if isinstance(sub, ast.Lambda):
                    captured |= _free_loads(sub)
            if isinstance(arg, ast.Name) and arg.id in local_defs:
                captured |= _free_loads(local_defs[arg.id])
            borrowed = sorted(
                name for name in captured if state.get(name)
            )
            if borrowed:
                findings.append(
                    _finding(
                        call,
                        "closure handed to another thread captures "
                        f"borrowed view(s) {', '.join(borrowed)}; the "
                        "pin is thread-local — materialize first",
                    )
                )
    return findings


def _eos007_check_return(
    stmt: ast.Return,
    state: BorrowState,
    summaries: ModuleSummaries,
    mod: str,
    finally_returns: set[ast.stmt],
) -> list[Finding]:
    assert stmt.value is not None
    facts = _borrows(stmt.value, state, summaries)
    if not facts:
        return []
    if any(dead for (_kind, _origin, dead) in facts):
        message = (
            "borrowed view returned after its unpin; the frame may be "
            "recycled — materialize before unpinning"
        )
    elif any(origin is not None for (_kind, origin, _dead) in facts):
        message = (
            "borrowed image escapes its with-scope via return; the "
            "context manager unpins before the caller sees it — "
            "materialize inside the with block"
        )
    elif stmt in finally_returns:
        message = (
            "borrowed view returned from inside a try whose finally "
            "unpins it; the unpin runs before the caller sees the "
            "view — materialize first"
        )
    elif not _borrow_return_allowed(mod):
        message = (
            "borrowed view returned from a module outside the "
            "zero-copy data path; materialize it or move the helper "
            "into storage/"
        )
    else:
        return []
    return [_finding(stmt, message)]


def _escape_place(
    target: ast.expr, module_globals: frozenset[str]
) -> str | None:
    if isinstance(target, ast.Attribute):
        return f"attribute .{target.attr}"
    if isinstance(target, ast.Subscript) and isinstance(
        target.value, ast.Attribute
    ):
        return f"container .{target.value.attr}[...]"
    if isinstance(target, ast.Name) and target.id in module_globals:
        return f"module global {target.id}"
    if isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            place = _escape_place(elt, module_globals)
            if place is not None:
                return place
    return None


# ---------------------------------------------------------------------------
# EOS008 — shard confinement
# ---------------------------------------------------------------------------

#: LockManager is internally mutex-protected; the scheduler's lock
#: stage in server.py owns lock admission by design, and sharding.py
#: defines the shard itself.
_LOCKS_OK_MODULES = frozenset({"server/server.py", "server/sharding.py"})
_SHARD_SOURCE_CALLS = frozenset({"shard_for", "pick_for_create"})


def _eos008_in_scope(mod: str) -> bool:
    if mod == "server/sharding.py":
        return False  # the shard's own definition
    return (
        mod == ""
        or mod.startswith("server/")
        or mod.startswith("compact/")
        or mod == "tools/servectl.py"
    )


def _is_shards_collection(expr: ast.AST) -> bool:
    """``X.shards``, ``X.shards[i]``, ``X.live_shards()`` and friends."""
    for node in ast.walk(expr):
        if isinstance(node, ast.Attribute) and node.attr == "shards":
            return True
        if isinstance(node, ast.Call) and _call_attr(node) == "live_shards":
            return True
    return False


def _collect_shard_names(func: FunctionNode) -> tuple[set[str], set[str]]:
    """(shard handle names, shard-owned database names) in a function.

    Flow-insensitive over definition sites: a name that is ever bound
    to a shard (``Shard(...)``, ``shard_for(...)``, iteration over a
    ``.shards`` collection, or literally named ``shard``) taints every
    use — may-analysis, like everything else here.
    """
    shard_names: set[str] = {"shard"}
    for stmt in ast.walk(func):
        value: ast.expr | None = None
        target_names: list[str] = []
        if isinstance(stmt, ast.Assign):
            value = stmt.value
            for target in stmt.targets:
                target_names.extend(
                    n.id for n in ast.walk(target) if isinstance(n, ast.Name)
                )
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            value = stmt.iter
            target_names.extend(
                n.id
                for n in ast.walk(stmt.target)
                if isinstance(n, ast.Name)
            )
        if value is None or not target_names:
            continue
        is_shard = (
            (isinstance(value, ast.Call) and _call_name(value) == "Shard")
            or (
                isinstance(value, ast.Call)
                and _call_attr(value) in _SHARD_SOURCE_CALLS
            )
            or _is_shards_collection(value)
        )
        if is_shard:
            shard_names.update(target_names)
    shard_db_names: set[str] = set()
    for stmt in ast.walk(func):
        if not isinstance(stmt, ast.Assign):
            continue
        pairs: list[tuple[ast.expr, ast.expr]] = []
        for target in stmt.targets:
            if (
                isinstance(target, ast.Tuple)
                and isinstance(stmt.value, ast.Tuple)
                and len(target.elts) == len(stmt.value.elts)
            ):
                pairs.extend(zip(target.elts, stmt.value.elts))
            else:
                pairs.append((target, stmt.value))
        for tgt, val in pairs:
            if (
                isinstance(tgt, ast.Name)
                and isinstance(val, ast.Attribute)
                and val.attr == "db"
                and _is_shard_expr(val.value, shard_names)
            ):
                shard_db_names.add(tgt.id)
    return shard_names, shard_db_names


def _is_shard_expr(expr: ast.AST, shard_names: set[str]) -> bool:
    if isinstance(expr, ast.Name):
        return expr.id in shard_names
    if isinstance(expr, ast.Subscript):
        return _is_shards_collection(expr)
    if isinstance(expr, ast.Call):
        return _call_attr(expr) in _SHARD_SOURCE_CALLS
    return False


def _is_shard_db_expr(
    expr: ast.AST, shard_names: set[str], shard_db_names: set[str]
) -> bool:
    if isinstance(expr, ast.Name):
        return expr.id in shard_db_names
    if isinstance(expr, ast.Attribute) and expr.attr == "db":
        return _is_shard_expr(expr.value, shard_names)
    return False


def _inside_submit_args(
    node: ast.AST, parents: dict[ast.AST, ast.AST]
) -> bool:
    """Is this expression evaluated as (part of) a ``.submit(...)`` arg?

    Arguments to ``shard.submit`` are references shipped to the worker;
    substrate touched *inside* them (a lambda body) runs worker-side.
    """
    current = node
    while current in parents:
        parent = parents[current]
        if (
            isinstance(parent, ast.Call)
            and _call_attr(parent) == "submit"
            and current is not parent.func
        ):
            return True
        current = parent
    return False


@register_rule("EOS008")
def rule_eos008(tree: ast.AST, mod: str, lines: list[str]) -> list[Finding]:
    """Shard-owned substrate touched outside the shard's worker thread.

    A shard's ``pool``/``buddy``/``volume``/``disk``/``pager``/
    ``segio`` (and its ``locks``, outside the scheduler) are
    shared-nothing: only the worker thread may touch them.  Route the
    access through ``shard.submit(...)`` — or the snapshot-read pagers,
    which bypass this state entirely.
    """
    if not _eos008_in_scope(mod):
        return []
    summaries = summarize_module(tree)
    parents: dict[ast.AST, ast.AST] = {}
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            parents[child] = parent
    findings: list[Finding] = []
    for func in _functions(tree):
        if func.name in summaries.worker_functions:
            continue  # this function is shipped to the worker
        shard_names, shard_db_names = _collect_shard_names(func)
        for stmt in func.body:
            for node in scoped_walk(stmt):
                if isinstance(node, ast.Attribute):
                    findings.extend(
                        _eos008_check_attribute(
                            node, mod, shard_names, shard_db_names, parents
                        )
                    )
                elif isinstance(node, ast.Call):
                    findings.extend(
                        _eos008_check_call(
                            node,
                            summaries,
                            shard_names,
                            shard_db_names,
                            parents,
                        )
                    )
    return findings


def _eos008_check_attribute(
    node: ast.Attribute,
    mod: str,
    shard_names: set[str],
    shard_db_names: set[str],
    parents: dict[ast.AST, ast.AST],
) -> list[Finding]:
    if node.attr in SUBSTRATE_ATTRS and _is_shard_db_expr(
        node.value, shard_names, shard_db_names
    ):
        if _inside_submit_args(node, parents):
            return []
        return [
            _finding(
                node,
                f"shard-owned substrate .{node.attr} reached outside "
                "the shard worker; route through shard.submit(...) or "
                "the snapshot-read pagers",
            )
        ]
    if (
        node.attr == "locks"
        and mod not in _LOCKS_OK_MODULES
        and _is_shard_expr(node.value, shard_names)
    ):
        if _inside_submit_args(node, parents):
            return []
        return [
            _finding(
                node,
                "shard .locks reached outside the scheduler; lock "
                "admission belongs to the server's lock stage",
            )
        ]
    return []


def _eos008_check_call(
    node: ast.Call,
    summaries: ModuleSummaries,
    shard_names: set[str],
    shard_db_names: set[str],
    parents: dict[ast.AST, ast.AST],
) -> list[Finding]:
    name = _call_name(node)
    if name is None:
        return []
    positions = summaries.substrate_positions(name)
    if not positions:
        return []
    if _inside_submit_args(node, parents):
        return []
    message = (
        f"{name}() walks the substrate of a shard-owned database "
        "off-worker; submit the walk to the owning shard instead"
    )
    findings: list[Finding] = []
    flagged_positions = set(positions.values())
    for index, arg in enumerate(node.args):
        if index in flagged_positions and _is_shard_db_expr(
            arg, shard_names, shard_db_names
        ):
            findings.append(_finding(node, message))
    for kw in node.keywords:
        if kw.arg in positions and _is_shard_db_expr(
            kw.value, shard_names, shard_db_names
        ):
            findings.append(_finding(node, message))
    return findings


# ---------------------------------------------------------------------------
# EOS009 — blocking call in async server code
# ---------------------------------------------------------------------------


def _eos009_in_scope(mod: str) -> bool:
    return mod == "" or mod.startswith("server/") or mod == "tools/servectl.py"


@register_rule("EOS009")
def rule_eos009(tree: ast.AST, mod: str, lines: list[str]) -> list[Finding]:
    """Blocking call inside ``async def`` server code, no executor hop.

    Disk page I/O, ``LockManager.acquire_*``, ``time.sleep``, ``open``,
    flight-recorder dumps and pool flushes block the whole event loop.
    Hop through ``loop.run_in_executor``/``asyncio.to_thread`` (their
    arguments are function references, never calls, so hopped work is
    naturally exempt) or route the work to a shard worker.  Module-
    local sync helpers are summarized transitively: calling a helper
    that blocks is flagged at the call site.
    """
    if not _eos009_in_scope(mod):
        return []
    summaries = summarize_module(tree)
    findings: list[Finding] = []
    for func in _functions(tree):
        if not isinstance(func, ast.AsyncFunctionDef):
            continue
        for stmt in func.body:
            for node in scoped_walk(stmt):
                if not isinstance(node, ast.Call):
                    continue
                reason = blocking_reason(node)
                if reason is not None:
                    findings.append(
                        _finding(
                            node,
                            f"blocking {reason} on the event loop in "
                            f"async {func.name}(); hop through an "
                            "executor or a shard worker",
                        )
                    )
                    continue
                called = _call_attr(node) or _call_name(node)
                if called is None or called == func.name:
                    continue
                blocked = summaries.blocking(called)
                if blocked is not None:
                    findings.append(
                        _finding(
                            node,
                            f"async {func.name}() calls {called}(), "
                            f"which blocks ({blocked.block_reason}); "
                            "hop through an executor or a shard worker",
                        )
                    )
    return findings


# ---------------------------------------------------------------------------
# EOS010 — version-unit discipline
# ---------------------------------------------------------------------------

_MUTATORS = frozenset(
    {"append", "insert", "delete", "replace", "destroy", "replace_leaf_range"}
)
_HANDLE_CALLS = frozenset({"get_object", "create_object", "open_root"})
_HANDLE_TYPES = frozenset({"LargeObject", "ObjectFile"})
# Versions-enabled lattice: NONE and SOME join to MAYBE.
_V_NONE, _V_SOME, _V_MAYBE = "none", "some", "maybe"


def _eos010_in_scope(mod: str) -> bool:
    return mod in {"", "api.py"} or mod.startswith("compact/")


def _versions_test(expr: ast.AST) -> tuple[bool, bool] | None:
    """(enabled-when-true, enabled-when-false) for a ``versions`` test.

    Returns what the test proves about "versioning is enabled" on its
    true/false edges, or None when it says nothing about it.
    """
    if isinstance(expr, ast.UnaryOp) and isinstance(expr.op, ast.Not):
        inner = _versions_test(expr.operand)
        if inner is not None:
            return (inner[1], inner[0])
        return None
    if isinstance(expr, ast.Compare) and len(expr.ops) == 1:
        left, op, right = expr.left, expr.ops[0], expr.comparators[0]
        tests_versions = (_mentions_versions(left) and _is_none(right)) or (
            _mentions_versions(right) and _is_none(left)
        )
        if tests_versions:
            if isinstance(op, ast.Is):
                return (False, True)  # "versions is None" true => off
            if isinstance(op, ast.IsNot):
                return (True, False)
        return None
    if _mentions_versions(expr):
        return (True, False)  # truthiness: a manager object is truthy
    return None


def _mentions_versions(expr: ast.AST) -> bool:
    if isinstance(expr, ast.Attribute):
        return expr.attr == "versions"
    if isinstance(expr, ast.Name):
        return expr.id == "versions"
    return False


def _is_none(expr: ast.AST) -> bool:
    return isinstance(expr, ast.Constant) and expr.value is None


@register_rule("EOS010")
def rule_eos010(tree: ast.AST, mod: str, lines: list[str]) -> list[Finding]:
    """Object mutation outside a version unit on a versioning path.

    When ``db.versions`` is (or may be) enabled, every mutation must go
    through ``EOSDatabase.mutate(...)`` (which hands it to
    ``VersionManager.mutate``) so index pages are written inside a
    ``VersionPager`` unit and a frozen version is published.  Direct
    ``obj.append/insert/delete/replace/destroy`` is only legal on paths
    where the rule can prove ``versions is None`` — in ``src/`` that is
    the unversioned branch of ``EOSDatabase.mutate`` alone; callables
    handed to ``mutate(...)`` run inside the unit and are sanctioned.
    """
    if not _eos010_in_scope(mod):
        return []
    summaries = summarize_module(tree)
    findings: list[Finding] = []
    for func in _functions(tree):
        if (
            func.name in summaries.unit_functions
            or func.name in summaries.worker_functions
        ):
            continue  # runs inside a mutate(...) unit by construction
        cfg = build_cfg(func)
        reaching = reaching_definitions(cfg)
        versions_in = _solve_versions(cfg)
        for node in cfg.nodes():
            if node in (CFG.ENTRY, CFG.EXIT) or node not in versions_in:
                continue
            for call in _node_calls(cfg.stmt_of[node]):
                attr = _call_attr(call)
                if attr not in _MUTATORS or not isinstance(
                    call.func, ast.Attribute
                ):
                    continue
                receiver = call.func.value
                if (
                    isinstance(receiver, ast.Attribute)
                    and receiver.attr == "tree"
                ):
                    # ``obj.tree.replace_leaf_range(...)`` relocates
                    # the handle's extents just as surely as
                    # ``obj.replace(...)`` does.
                    receiver = receiver.value
                if not isinstance(receiver, ast.Name):
                    continue
                defs = reaching.get(node, {}).get(receiver.id, frozenset())
                if not _any_handle_def(defs, cfg):
                    continue
                if versions_in[node] == _V_NONE:
                    continue
                qualifier = (
                    "possibly-" if versions_in[node] == _V_MAYBE else ""
                )
                findings.append(
                    _finding(
                        call,
                        f"direct .{attr}() on an object handle on a "
                        f"{qualifier}versioning-enabled path; route "
                        "the mutation through db.mutate(...) so it runs "
                        "as a versions.mutate(...) unit under a "
                        "VersionPager",
                    )
                )
    return findings


def _any_handle_def(defs: frozenset[int], cfg: CFG) -> bool:
    for def_node in defs:
        if def_node == PARAM_DEF:
            continue  # the caller owns parameter handles
        stmt = cfg.stmt_of.get(def_node)
        if stmt is None:
            continue
        parts = _assign_parts(stmt)
        if parts is None:
            continue
        _targets, value = parts
        for sub in scoped_walk(value):
            if isinstance(sub, ast.Call) and (
                _call_attr(sub) in _HANDLE_CALLS
                or _call_name(sub) in _HANDLE_TYPES
            ):
                return True
    return False


def _solve_versions(cfg: CFG) -> dict[int, str]:
    def transfer(node: int, state: str) -> str | tuple[str, dict[int, str]]:
        if node in cfg.branches:
            test = getattr(cfg.stmt_of[node], "test", None)
            if test is not None:
                refined = _versions_test(test)
                if refined is not None:
                    true_entry, false_entry = cfg.branches[node]
                    if true_entry != false_entry:
                        return (
                            state,
                            {
                                true_entry: (
                                    _V_SOME if refined[0] else _V_NONE
                                ),
                                false_entry: (
                                    _V_SOME if refined[1] else _V_NONE
                                ),
                            },
                        )
        return state

    def join(a: str, b: str) -> str:
        return a if a == b else _V_MAYBE

    return solve_forward(cfg, _V_MAYBE, transfer, join)
