"""The six syntactic lint rules, EOS001-EOS006.

The flow-sensitive rules EOS007-EOS010 (borrow escapes, shard
confinement, async blocking, version discipline) live in
:mod:`repro.analysis.flowrules`; they run over the CFG/dataflow layer
instead of per-statement matching.

Each rule here guards one invariant the type system cannot express:

* **EOS001** — every ``BufferPool.fetch``/``fetch_new`` must be paired
  with an ``unpin`` that runs on *all* paths: either the fetch sits
  inside a ``try`` whose ``finally`` unpins, or the very next statement
  is such a ``try``.  Prefer ``pool.page(pid, dirty=...)``, which pairs
  for you.  (Pin leaks surface much later as AllPagesPinned — see the
  pin-leak sanitizer for the dynamic half of this rule.)
* **EOS002** — page I/O is confined to the storage substrate.  Only
  ``storage/``, ``core/pager.py``, ``core/segio.py``,
  ``versions/pager.py`` (the snapshot-read pagers), ``buddy/``,
  ``recovery/``, ``api.py`` (the page-0 catalog) and ``tools/fsck.py``
  may touch ``*.disk.read_page``-style primitives or construct
  ``DiskVolume``/``BufferPool``.  Everyone else goes through the pager,
  the buffer pool or :class:`~repro.core.segio.SegmentIO` — the paper's
  Section 3 premise is that the tree and the buddy directory share one
  page substrate.
* **EOS003** — a broad ``except:``/``except Exception`` handler must
  not silently swallow :mod:`repro.errors` types: it must re-raise,
  inspect the caught exception, or follow a narrower handler for the
  library's errors.
* **EOS004** — a function calling ``LockManager.acquire_*`` must
  guarantee ``release_all`` on exception paths: its own
  ``finally``/handler, a caller's ``finally`` in the same module, or a
  module-level commit/abort protocol that releases.
* **EOS005** — buddy directory state (``counts``, ``amap``, the
  superdirectory ``_super``) is mutated only inside ``buddy/``.  The
  sanitizer in :mod:`repro.analysis.buddycheck` checks the *result*;
  this rule checks the *access path*.
* **EOS006** — no bare ``bytes(...)`` materialization of page-sized
  buffers in the data-path hot modules (``storage/disk.py``,
  ``storage/buffer.py`` and the ``core/`` object-operation modules).
  The zero-copy discipline is that payload moves as ``memoryview``
  slices; the one sanctioned way to hand a caller an owning copy is
  :func:`repro.util.copytrace.materialize`, which keeps the copy
  explicit and accounted.  Zero-fill constructors (``bytes(n)``) and
  literals are not copies and are not flagged.

Every rule is suppressable with ``# eos-lint: disable=EOS00x`` on the
finding's line (file-wide within the first five lines) — see
:mod:`repro.analysis.lintcore`.
"""

from __future__ import annotations

import ast
from typing import Iterator

import repro.errors as _errors_module
from repro.analysis.lintcore import Finding, register_rule

# ---------------------------------------------------------------------------
# Shared AST helpers
# ---------------------------------------------------------------------------

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def _parents(tree: ast.AST) -> dict[ast.AST, ast.AST]:
    parents: dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def _ancestors(
    node: ast.AST, parents: dict[ast.AST, ast.AST]
) -> Iterator[ast.AST]:
    while node in parents:
        node = parents[node]
        yield node


def _call_attr(node: ast.AST) -> str | None:
    """The called name for ``x.y.attr(...)`` or ``attr(...)`` calls."""
    if not isinstance(node, ast.Call):
        return None
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    if isinstance(node.func, ast.Name):
        return node.func.id
    return None


def _contains_call(node: ast.AST, names: set[str]) -> bool:
    return any(_call_attr(sub) in names for sub in ast.walk(node))


def _statement_of(node: ast.AST, parents: dict[ast.AST, ast.AST]) -> ast.stmt | None:
    """The outermost statement containing ``node`` within its block."""
    current: ast.AST = node
    for parent in _ancestors(node, parents):
        if isinstance(current, ast.stmt) and _block_of(parent, current) is not None:
            return current
        current = parent
    return None


def _block_of(parent: ast.AST, stmt: ast.stmt) -> list[ast.stmt] | None:
    for field in ("body", "orelse", "finalbody"):
        block = getattr(parent, field, None)
        if isinstance(block, list) and stmt in block:
            return block
    if isinstance(parent, ast.Try):
        for handler in parent.handlers:
            if stmt in handler.body:
                return handler.body
    return None


def _enclosing_function(
    node: ast.AST, parents: dict[ast.AST, ast.AST]
) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
    for ancestor in _ancestors(node, parents):
        if isinstance(ancestor, _FUNCTION_NODES):
            return ancestor
    return None


def _finding(node: ast.AST, message: str) -> Finding:
    return Finding("", "", node.lineno, node.col_offset, message)


# ---------------------------------------------------------------------------
# EOS001 — fetch without a guaranteed unpin
# ---------------------------------------------------------------------------

_PIN_CALLS = {"fetch", "fetch_new"}


@register_rule("EOS001")
def rule_eos001(tree: ast.AST, mod: str, lines: list[str]) -> list[Finding]:
    """fetch/fetch_new pin without an unpin guaranteed on all paths."""
    if mod == "storage/buffer.py":  # the defining module pairs internally
        return []
    parents = _parents(tree)
    findings = []
    for node in ast.walk(tree):
        if _call_attr(node) not in _PIN_CALLS or not isinstance(
            node.func, ast.Attribute
        ):
            continue
        if _pin_is_guarded(node, parents):
            continue
        findings.append(
            _finding(
                node,
                f"{node.func.attr}() pins a page with no unpin guaranteed on "
                f"all paths; wrap in try/finally or use pool.page(...) / "
                f"pool.put_new(...)",
            )
        )
    return findings


def _pin_is_guarded(call: ast.Call, parents: dict[ast.AST, ast.AST]) -> bool:
    # Form 1: the fetch happens inside a try whose finally unpins.
    stmt: ast.AST = call
    for ancestor in _ancestors(call, parents):
        if (
            isinstance(ancestor, ast.Try)
            and isinstance(stmt, ast.stmt)
            and stmt in ancestor.body
            and any(_contains_call(f, {"unpin"}) for f in ancestor.finalbody)
        ):
            return True
        stmt = ancestor
    # Form 2: `image = pool.fetch(p)` immediately followed by such a try.
    statement = _statement_of(call, parents)
    if statement is None:
        return False
    parent = parents.get(statement)
    block = _block_of(parent, statement) if parent is not None else None
    if block is None:
        return False
    index = block.index(statement)
    if index + 1 < len(block):
        nxt = block[index + 1]
        if isinstance(nxt, ast.Try) and any(
            _contains_call(f, {"unpin"}) for f in nxt.finalbody
        ):
            return True
    return False


# ---------------------------------------------------------------------------
# EOS002 — page I/O outside the storage substrate
# ---------------------------------------------------------------------------

_SUBSTRATE_PREFIXES = ("storage/", "recovery/", "buddy/")
_SUBSTRATE_FILES = {
    "core/pager.py",
    "core/segio.py",
    "versions/pager.py",  # snapshot pagers over immutable flushed pages
    "api.py",        # owns the page-0 catalog region
    "tools/fsck.py",  # validates raw pages by design
}
_DISK_PRIMITIVES = {
    "read_page",
    "write_page",
    "view_pages",
    "write_pages_v",
}
_SUBSTRATE_TYPES = {"DiskVolume", "BufferPool"}


def _is_substrate(mod: str) -> bool:
    return mod in _SUBSTRATE_FILES or any(
        mod.startswith(prefix) for prefix in _SUBSTRATE_PREFIXES
    )


@register_rule("EOS002")
def rule_eos002(tree: ast.AST, mod: str, lines: list[str]) -> list[Finding]:
    """direct page I/O or substrate construction outside the storage substrate."""
    if _is_substrate(mod):
        return []
    findings = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _DISK_PRIMITIVES
            and _receiver_is_disk(func.value)
        ):
            findings.append(
                _finding(
                    node,
                    f"direct disk access ({func.attr}) outside the storage "
                    f"substrate; route leaf I/O through SegmentIO and index "
                    f"I/O through the pager/buffer pool",
                )
            )
        elif isinstance(func, ast.Name) and func.id in _SUBSTRATE_TYPES:
            findings.append(
                _finding(
                    node,
                    f"constructing {func.id} outside the storage substrate; "
                    f"only the facade and substrate modules own these",
                )
            )
    return findings


def _receiver_is_disk(node: ast.AST) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "disk") or (
        isinstance(node, ast.Name) and node.id == "disk"
    )


# ---------------------------------------------------------------------------
# EOS003 — broad except that swallows repro.errors
# ---------------------------------------------------------------------------

_REPRO_ERROR_NAMES = {
    name
    for name, obj in vars(_errors_module).items()
    if isinstance(obj, type) and issubclass(obj, Exception)
}
_BROAD_NAMES = {"Exception", "BaseException"}


def _handler_type_names(handler: ast.ExceptHandler) -> set[str]:
    node = handler.type
    if node is None:
        return set()
    elements = node.elts if isinstance(node, ast.Tuple) else [node]
    names = set()
    for element in elements:
        if isinstance(element, ast.Name):
            names.add(element.id)
        elif isinstance(element, ast.Attribute):
            names.add(element.attr)
    return names


@register_rule("EOS003")
def rule_eos003(tree: ast.AST, mod: str, lines: list[str]) -> list[Finding]:
    """broad except handler that silently swallows repro.errors types."""
    findings = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Try):
            continue
        repro_handled = False
        for handler in node.handlers:
            names = _handler_type_names(handler)
            is_broad = handler.type is None or (names & _BROAD_NAMES)
            if not is_broad:
                if names & _REPRO_ERROR_NAMES:
                    repro_handled = True
                continue
            if repro_handled:
                continue  # repro errors already routed to a narrower handler
            if any(isinstance(sub, ast.Raise) for sub in ast.walk(handler)):
                continue  # re-raises: nothing is swallowed
            if handler.name is not None and any(
                isinstance(sub, ast.Name) and sub.id == handler.name
                for sub in ast.walk(handler)
            ):
                continue  # the exception is inspected/recorded, not dropped
            what = "bare except:" if handler.type is None else "except Exception"
            findings.append(
                _finding(
                    handler,
                    f"{what} silently swallows repro.errors types; re-raise, "
                    f"record the exception, or catch ReproError explicitly",
                )
            )
    return findings


# ---------------------------------------------------------------------------
# EOS004 — lock acquisition without exception-safe release
# ---------------------------------------------------------------------------

_ACQUIRE_CALLS = {"acquire_root", "acquire_range", "acquire_release_lock"}
_TXN_RELEASE_METHODS = {"commit", "abort", "rollback", "close", "stop", "release"}


@register_rule("EOS004")
def rule_eos004(tree: ast.AST, mod: str, lines: list[str]) -> list[Finding]:
    """lock acquisition without release_all on exception paths."""
    if mod == "concurrency/locks.py":  # the defining module
        return []
    parents = _parents(tree)
    functions = [n for n in ast.walk(tree) if isinstance(n, _FUNCTION_NODES)]
    # Functions invoked inside a try whose finally calls release_all are
    # covered by their caller (the server's scheduler pattern).
    covered: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Try) and any(
            _contains_call(f, {"release_all"}) for f in node.finalbody
        ):
            for stmt in node.body:
                for sub in ast.walk(stmt):
                    name = _call_attr(sub)
                    if name is not None:
                        covered.add(name)
    # A module whose commit/abort protocol releases covers its acquires
    # (locks are transaction-duration there, by design).
    txn_scoped = any(
        f.name in _TXN_RELEASE_METHODS and _contains_call(f, {"release_all"})
        for f in functions
    )
    findings = []
    for node in ast.walk(tree):
        if _call_attr(node) not in _ACQUIRE_CALLS:
            continue
        function = _enclosing_function(node, parents)
        if function is None:
            continue  # module-level experiments manage locks explicitly
        if txn_scoped or function.name in covered:
            continue
        if _releases_on_exception(function):
            continue
        findings.append(
            _finding(
                node,
                f"{_call_attr(node)}() without release_all() on exception "
                f"paths; release in a finally, or route through a caller "
                f"that does",
            )
        )
    return findings


def _releases_on_exception(function: ast.AST) -> bool:
    for node in ast.walk(function):
        if isinstance(node, ast.Try):
            blocks = list(node.finalbody) + [h for h in node.handlers]
            if any(_contains_call(b, {"release_all"}) for b in blocks):
                return True
    return False


# ---------------------------------------------------------------------------
# EOS005 — buddy directory state mutated outside buddy/
# ---------------------------------------------------------------------------

_BUDDY_STATE_ATTRS = {"counts", "amap", "_super"}
_AMAP_MUTATORS = {"set_segment", "write_quad_bits", "break_large"}


def _is_buddy_state(node: ast.AST) -> bool:
    """True for ``x.counts``, ``x.amap``, ``x._super`` or a subscript of one."""
    if isinstance(node, ast.Subscript):
        node = node.value
    return isinstance(node, ast.Attribute) and node.attr in _BUDDY_STATE_ATTRS


@register_rule("EOS005")
def rule_eos005(tree: ast.AST, mod: str, lines: list[str]) -> list[Finding]:
    """buddy directory state (counts/amap/superdirectory) mutated outside buddy/."""
    if mod.startswith("buddy/"):
        return []
    findings = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _AMAP_MUTATORS
                and _is_amap_receiver(func.value)
            ):
                findings.append(
                    _finding(
                        node,
                        f"{func.attr}() mutates the buddy allocation map from "
                        f"outside buddy/; go through BuddySpace/BuddyManager",
                    )
                )
            continue
        else:
            continue
        for target in targets:
            if _is_buddy_state(target):
                findings.append(
                    _finding(
                        node,
                        "assignment to buddy directory state (counts/amap/"
                        "superdirectory) outside buddy/; the count array and "
                        "map must only change together, inside the allocator",
                    )
                )
    return findings


def _is_amap_receiver(node: ast.AST) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "amap") or (
        isinstance(node, ast.Name) and node.id == "amap"
    )


# ---------------------------------------------------------------------------
# EOS006 — bytes() materialization on the data path
# ---------------------------------------------------------------------------

#: Modules whose reads/writes carry whole-object payloads: a stray
#: ``bytes(...)`` here re-copies megabytes per scan.
_HOT_MODULES = {
    "storage/disk.py",
    "storage/buffer.py",
    "core/segio.py",
    "core/search.py",
    "core/stream.py",
    "core/append.py",
    "core/insert.py",
    "core/delete.py",
    "core/splice.py",
    "core/reshuffle.py",
    "core/object.py",
}

#: Argument shapes that name an existing buffer (conversion = a copy).
#: ``bytes(Constant)`` and ``bytes(BinOp)`` are zero-fill constructors
#: (``bytes(n_pages * ps - len(data))``), not copies.
_BUFFER_ARG_NODES = (ast.Name, ast.Attribute, ast.Subscript, ast.Call)


@register_rule("EOS006")
def rule_eos006(tree: ast.AST, mod: str, lines: list[str]) -> list[Finding]:
    """bytes() conversion of a buffer inside a data-path hot module."""
    if mod not in _HOT_MODULES:
        return []
    findings = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if not (isinstance(node.func, ast.Name) and node.func.id == "bytes"):
            continue
        if len(node.args) != 1 or node.keywords:
            continue
        if not isinstance(node.args[0], _BUFFER_ARG_NODES):
            continue
        findings.append(
            _finding(
                node,
                "bytes(...) materializes a buffer copy on the data path; "
                "pass memoryview slices through, or make the contract copy "
                "explicit with copytrace.materialize()",
            )
        )
    return findings
