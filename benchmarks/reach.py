#!/usr/bin/env python3
"""Which ``src/`` functions does anything reach?  A stdlib call profile.

Runs the repository's own entry points — the tier-1 tests, every
``benchmarks/bench_*.py``, the e2e workloads (``--quick``, trace 0 and
1), the examples and the served smoke runs — each as a subprocess with
a generated ``sitecustomize`` directory first on ``PYTHONPATH``.  That
hook installs ``sys.setprofile`` and ``threading.setprofile`` in every
Python process the runs start, child processes included, and at exit
writes down which code objects were entered.  The report lists the
functions defined under ``src/repro`` that no run entered, and those
that only the tests entered::

    python3 benchmarks/reach.py                # -> benchmarks/results/REACH.md
    python3 benchmarks/reach.py --out r.md     # the same report, elsewhere

A function counts as defined when it is a module-level function or a
method of a (possibly nested) class; nested functions and lambdas are
counted with their parents.  Interface stubs — bodies holding only a
docstring, ``...`` or ``pass`` — are never listed.  A process that ends
by a signal or ``os._exit`` writes nothing, so its calls are lost;
every run here exits normally.  Profiling slows the runs several times
over, so timing-gated tests and benches may fail under it; their calls
are still counted.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PY = sys.executable

#: The hook every profiled process imports at start-up.
SITECUSTOMIZE = '''\
import atexit, os, sys, threading

_seen = set()

def _profile(frame, event, arg):
    if event == "call":
        _seen.add(frame.f_code)

def _dump():
    sys.setprofile(None)
    threading.setprofile(None)
    src = os.environ["REACH_SRC"]
    lines = {
        f"{code.co_filename}\\t{code.co_firstlineno}\\n"
        for code in _seen if code.co_filename.startswith(src)
    }
    name = f"{os.environ['REACH_LABEL']}-{os.getpid()}-{id(_seen)}.txt"
    with open(os.path.join(os.environ["REACH_OUT"], name), "w") as out:
        out.writelines(sorted(lines))

atexit.register(_dump)
threading.setprofile(_profile)
sys.setprofile(_profile)
'''


def _runs() -> dict[str, list[list[str]]]:
    """Run label -> the commands it is made of (run from the repo root)."""
    workloads = [
        w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    ]
    servectl = [PY, "-m", "repro.tools.servectl", "bench-smoke", "--spawn", "--clients", "8",
                "--ops", "25"]
    return {
        "tests": [[PY, "-m", "pytest", "-q", "-p", "no:cacheprovider", "tests"]],
        "benches": [
            [PY, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(p.relative_to(ROOT))]
            for p in sorted((ROOT / "benchmarks").glob("bench_*.py"))
        ],
        "e2e": [
            [PY, "benchmarks/e2e/run.py", "--workload", w, "--quick", "--trace", t]
            for w in workloads for t in ("0", "1")
        ],
        "examples": [
            [PY, str(p.relative_to(ROOT))] for p in sorted((ROOT / "examples").glob("*.py"))
        ],
        "smoke": [
            servectl,
            servectl + ["--shards", "4", "--pages", "8192"],
            servectl + ["--shards", "2", "--pages", "8192", "--versioning"],
        ],
    }


def _is_stub(node: ast.AST) -> bool:
    body = list(node.body)
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
            and isinstance(body[0].value.value, str):
        body = body[1:]
    return all(
        isinstance(stmt, ast.Pass)
        or (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
            and stmt.value.value is Ellipsis)
        for stmt in body
    )


def defined_functions() -> dict[tuple[str, int], str]:
    """``(absolute file, first line) -> qualified name`` for every
    non-stub function or method under ``src/repro``.  The first line is
    the first decorator's, as in ``code.co_firstlineno``."""
    out: dict[tuple[str, int], str] = {}

    def visit(body, path: str, prefix: str) -> None:
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, path, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _is_stub(node):
                    continue
                first = min([d.lineno for d in node.decorator_list] + [node.lineno])
                out[(path, first)] = f"{prefix}{node.name}"

    for file in sorted((SRC / "repro").rglob("*.py")):
        visit(ast.parse(file.read_text()).body, str(file), "")
    return out


def profile(runs: dict[str, list[list[str]]], out_dir: Path) -> list[dict]:
    """Run each group under the hook; one summary row per group."""
    hook = out_dir / "hook"
    hook.mkdir()
    (hook / "sitecustomize.py").write_text(SITECUSTOMIZE)
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([str(hook), str(SRC)]),
        "REACH_SRC": str(SRC) + os.sep,
        "REACH_OUT": str(out_dir),
    }
    rows = []
    for label, commands in runs.items():
        t0 = time.perf_counter()
        codes = []
        for command in commands:
            done = subprocess.run(
                command, cwd=ROOT, env={**env, "REACH_LABEL": label},
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            )
            codes.append(done.returncode)
        rows.append({
            "run": label,
            "commands": len(codes),
            "failed": sum(1 for c in codes if c),
            "seconds": round(time.perf_counter() - t0, 1),
        })
        print(f"{label}: {rows[-1]}", file=sys.stderr)
    return rows


def entered(out_dir: Path) -> dict[str, set[tuple[str, int]]]:
    """Run label -> the ``(file, first line)`` code objects it entered."""
    seen: dict[str, set[tuple[str, int]]] = defaultdict(set)
    for dump in out_dir.glob("*.txt"):
        label = dump.name.split("-", 1)[0]
        for line in dump.read_text().splitlines():
            file, first = line.rsplit("\t", 1)
            seen[label].add((file, int(first)))
    return seen


def report(rows: list[dict], functions: dict, seen: dict) -> str:
    everywhere = set().union(*seen.values())
    others = set().union(*(v for k, v in seen.items() if k != "tests"))
    never = sorted(k for k in functions if k not in everywhere)
    tests_only = sorted(
        k for k in functions if k in seen.get("tests", set()) and k not in others
    )

    def listing(keys) -> list[str]:
        return [
            f"- `{Path(file).relative_to(ROOT)}:{line}` `{functions[(file, line)]}`"
            for file, line in keys
        ]

    lines = [
        "# Reach: `src/` functions nothing enters",
        "",
        "A snapshot of the tree it was generated from: the `file:line` "
        "keys go stale with the next edit under `src/`, and nothing "
        "checks them.  Rerun the tool to refresh it.",
        "",
        f"Generated by `python3 benchmarks/reach.py` (Python "
        f"{platform.python_version()}, {platform.system()}).  Every run "
        "below executes with `sys.setprofile`/`threading.setprofile` "
        "installed in each Python process it starts; a function is "
        "*entered* when any of them calls it.  Interface stubs are not "
        "listed.  A failed command still counts its calls (profiling "
        "slows timing-gated checks).  Property-based tests draw new "
        "examples each run, so an entry can move between the two lists "
        "from one run to the next.",
        "",
        "| run | commands | failed under profiling | seconds |",
        "|---|---:|---:|---:|",
    ]
    lines += [
        f"| {r['run']} | {r['commands']} | {r['failed']} | {r['seconds']} |" for r in rows
    ]
    lines += [
        "",
        f"{len(functions)} functions defined; {len(never)} never entered; "
        f"{len(tests_only)} entered only by the tests.",
        "",
        f"## Never entered ({len(never)})",
        "",
        *listing(never),
        "",
        f"## Entered only by the tests ({len(tests_only)})",
        "",
        *listing(tests_only),
        "",
    ]
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=ROOT / "benchmarks" / "results" / "REACH.md",
                        help="report path (default: benchmarks/results/REACH.md)")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        rows = profile(_runs(), Path(tmp))
        text = report(rows, defined_functions(), entered(Path(tmp)))
    args.out.write_text(text)
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
