"""Determinism lint for the simulator's own source tree.

The whole point of a discrete-event simulator is that a (seed,
workload) pair replays to the same cycle counts and the same state
hashes — that is what the crash-recovery drills diff against and what
makes a reported Figure reproducible.  These classes of Python-level
nondeterminism quietly break that contract, and all have appeared in
real simulator codebases:

``wall-clock``
    reading host time (``time.time``, ``time.monotonic``,
    ``perf_counter``, ``datetime.now`` …) anywhere results can depend
    on it.  Simulated time comes from the event queue, never the host.
``unseeded-random``
    the module-level ``random.*`` functions (shared global RNG) or
    ``random.Random()`` with no seed.  Every RNG must be constructed
    as ``random.Random(seed)`` from a named seed.
``set-order``
    iterating a ``set``/``frozenset`` where the order can reach
    results: Python set iteration order depends on insertion history
    and per-process hash randomisation.  Iteration feeding an
    order-insensitive sink (``sorted``, ``set``, ``frozenset``,
    ``sum``, ``min``, ``max``, ``any``, ``all``, ``len``, set
    comprehensions) is fine.
``fault-latch``
    a function that raises an injected crash (``<plan>.crash(...)``)
    without first consulting the latch (``<plan>.check_alive()``): a
    machine that already crashed must not accept further durable
    writes from unwinding cleanup code (see
    :mod:`repro.faults.plan`).
``arbitrary-pop``
    ``set.pop()`` removes an *arbitrary* element (hash-order
    dependent), and ``dict.popitem()`` couples results to insertion
    history; both leak container order into simulation state.  Pop a
    chosen key, or sort first.
``hash-randomisation``
    the builtin ``hash()`` is salted per process for ``str``/``bytes``
    (PYTHONHASHSEED), so any result derived from it — bucket choice,
    partition id, fingerprint — differs between runs.  Use a stable
    digest (``zlib.crc32``, ``hashlib``) for values that reach state.
``fs-order``
    ``os.listdir``/``os.scandir``/``Path.iterdir``/``glob``/``rglob``
    return entries in platform-dependent order; feeding them to an
    order-insensitive sink (``sorted`` …) is fine, iterating them
    directly is not.
``id-order``
    ``id(...)`` inside the ``key`` of a ``sorted``/``.sort``/``min``/
    ``max`` call orders by memory address, which differs between
    processes.  Order by a value the objects carry (table id, key).

Suppression: append ``# det: allow(<rule>)`` to the offending line for
a reviewed exception, or put ``# det: skip-file`` on its own line to
skip a whole file.  Run as::

    python -m repro.analysis.lint [--json] src/repro

exits 0 when clean, 1 when any finding survives its pragmas.
``--json`` prints machine-readable findings (rule id, file, line,
severity) for CI artifacts instead of the human lines.
"""

from __future__ import annotations

import ast
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set

__all__ = ["LintFinding", "lint_source", "lint_file", "lint_paths",
           "findings_json", "main"]

RULES = ("wall-clock", "unseeded-random", "set-order", "fault-latch",
         "arbitrary-pop", "hash-randomisation", "fs-order", "id-order")

_ALLOW_RE = re.compile(r"#\s*det:\s*allow\(([a-z-]+)\)")
_SKIP_FILE_RE = re.compile(r"#\s*det:\s*skip-file")

#: host-time attribute names on the ``time`` module
_TIME_ATTRS = {"time", "time_ns", "monotonic", "monotonic_ns",
               "perf_counter", "perf_counter_ns"}
#: nondeterministic constructors on ``datetime``/``datetime.datetime``
_DATETIME_ATTRS = {"now", "utcnow", "today"}
#: module-level random functions using the shared global RNG
_RANDOM_FUNCS = {"random", "randint", "randrange", "uniform", "choice",
                 "choices", "shuffle", "sample", "gauss", "betavariate",
                 "expovariate", "seed", "getrandbits", "normalvariate"}
#: callables whose result does not depend on iteration order
_ORDER_FREE_SINKS = {"sorted", "set", "frozenset", "sum", "min", "max",
                     "any", "all", "len"}
#: Path methods yielding entries in platform-dependent order
_FS_ITER_ATTRS = {"iterdir", "glob", "rglob"}
#: os-level directory listers (same hazard)
_FS_ITER_FUNCS = {"os.listdir", "os.scandir"}
#: calls whose ``key=`` decides an order
_KEYED_ORDER = {"sorted", "sort", "min", "max"}


@dataclass(frozen=True)
class LintFinding:
    path: str
    line: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.rule}: {self.message}"


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` -> "a.b.c" for Name/Attribute chains, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _is_set_expr(node: ast.AST, set_bindings: Set[str]) -> bool:
    """Conservatively: does ``node`` evaluate to a set/frozenset?"""
    if isinstance(node, ast.Set) or isinstance(node, ast.SetComp):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("set", "frozenset"):
            return True
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
        return (_is_set_expr(node.left, set_bindings)
                or _is_set_expr(node.right, set_bindings))
    if isinstance(node, ast.BoolOp):        # ``set(x) or {default}``
        return any(_is_set_expr(v, set_bindings) for v in node.values)
    if isinstance(node, ast.Name):
        return node.id in set_bindings
    return False


class _Linter(ast.NodeVisitor):
    def __init__(self, path: str):
        self.path = path
        self.findings: List[LintFinding] = []
        #: local names single-assigned from a set expression, per scope
        self._set_bindings: List[Set[str]] = [set()]
        self._reassigned: List[Set[str]] = [set()]
        #: nesting depth inside order-insensitive sink calls
        self._order_free = 0

    # -- helpers ------------------------------------------------------------
    def _report(self, node: ast.AST, rule: str, message: str) -> None:
        self.findings.append(
            LintFinding(self.path, getattr(node, "lineno", 0), rule, message))

    def _bound_sets(self) -> Set[str]:
        out: Set[str] = set()
        for bound, dirty in zip(self._set_bindings, self._reassigned):
            out |= bound - dirty
        return out

    # -- scope tracking ------------------------------------------------------
    def _visit_scope(self, node, crash_check) -> None:
        self._set_bindings.append(set())
        self._reassigned.append(set())
        self.generic_visit(node)
        self._set_bindings.pop()
        self._reassigned.pop()
        crash_check()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_scope(
            node,
            lambda: self._check_fault_latch(node.name, ast.walk(node)))

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._visit_scope(node, lambda: None)

    # -- assignments feed the set-binding map --------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        for tgt in node.targets:
            if isinstance(tgt, ast.Name):
                if (tgt.id in self._set_bindings[-1]
                        or tgt.id in self._reassigned[-1]):
                    self._reassigned[-1].add(tgt.id)   # not single-assigned
                elif _is_set_expr(node.value, self._bound_sets()):
                    self._set_bindings[-1].add(tgt.id)
                else:
                    self._reassigned[-1].add(tgt.id)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if isinstance(node.target, ast.Name):
            self._reassigned[-1].add(node.target.id)
        self.generic_visit(node)

    # -- rule: set-order ------------------------------------------------------
    def _check_iter(self, iter_node: ast.AST, where: ast.AST) -> None:
        if self._order_free:
            return
        if _is_set_expr(iter_node, self._bound_sets()):
            self._report(where, "set-order",
                         "iteration over a set leaks insertion/hash order "
                         "into results; wrap in sorted(...)")

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter, node)
        self.generic_visit(node)

    visit_AsyncFor = visit_For

    def _visit_comp(self, node) -> None:
        order_free = isinstance(node, ast.SetComp)
        if order_free:
            self._order_free += 1
        for gen in node.generators:
            self._check_iter(gen.iter, node)
        self.generic_visit(node)
        if order_free:
            self._order_free -= 1

    visit_ListComp = _visit_comp
    visit_SetComp = _visit_comp
    visit_DictComp = _visit_comp
    visit_GeneratorExp = _visit_comp

    # -- rules anchored on calls ---------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted(node.func)

        if dotted is not None:
            parts = dotted.split(".")
            if len(parts) == 2 and parts[0] == "time" and parts[1] in _TIME_ATTRS:
                self._report(node, "wall-clock",
                             f"{dotted}() reads host time; use the "
                             f"simulated clock")
            elif parts[-1] in _DATETIME_ATTRS and "datetime" in parts[:-1]:
                self._report(node, "wall-clock",
                             f"{dotted}() reads host time; use the "
                             f"simulated clock")
            elif (len(parts) == 2 and parts[0] == "random"
                    and parts[1] in _RANDOM_FUNCS):
                self._report(node, "unseeded-random",
                             f"{dotted}() uses the shared global RNG; "
                             f"construct random.Random(seed)")
            elif dotted == "random.Random" and not node.args and not node.keywords:
                self._report(node, "unseeded-random",
                             "random.Random() with no seed is "
                             "time-seeded; pass an explicit seed")
            elif dotted in _FS_ITER_FUNCS and not self._order_free:
                self._report(node, "fs-order",
                             f"{dotted}() yields entries in "
                             f"platform-dependent order; wrap in sorted(...)")

        if isinstance(node.func, ast.Name) and node.func.id == "hash" \
                and len(node.args) == 1:
            self._report(node, "hash-randomisation",
                         "builtin hash() is salted per process for "
                         "str/bytes (PYTHONHASHSEED); use a stable digest "
                         "for values that reach state")

        if isinstance(node.func, ast.Attribute):
            attr = node.func.attr
            bare = not node.args and not node.keywords
            if attr == "pop" and bare and _is_set_expr(node.func.value,
                                                       self._bound_sets()):
                self._report(node, "arbitrary-pop",
                             "set.pop() removes a hash-order-dependent "
                             "element; pop a chosen key instead")
            elif attr == "popitem" and bare:
                self._report(node, "arbitrary-pop",
                             ".popitem() couples results to container "
                             "insertion/hash order; pop a chosen key "
                             "instead")
            elif attr in _FS_ITER_ATTRS and not self._order_free:
                self._report(node, "fs-order",
                             f".{attr}() yields entries in "
                             f"platform-dependent order; wrap in sorted(...)")

        if dotted is not None and dotted.split(".")[-1] in _KEYED_ORDER:
            self._check_id_order(node)

        sink = (isinstance(node.func, ast.Name)
                and node.func.id in _ORDER_FREE_SINKS)
        if sink:
            self._order_free += 1
        self.generic_visit(node)
        if sink:
            self._order_free -= 1

    # -- rule: id-order --------------------------------------------------------
    def _check_id_order(self, call: ast.Call) -> None:
        for kw in call.keywords:
            if kw.arg != "key":
                continue
            for sub in ast.walk(kw.value):
                if isinstance(sub, ast.Name) and sub.id == "id":
                    self._report(sub, "id-order",
                                 "id() is a memory address, which differs "
                                 "between processes; order by a value the "
                                 "objects carry")

    # -- rule: fault-latch ----------------------------------------------------
    def _check_fault_latch(self, name: str,
                           nodes: Iterable[ast.AST]) -> None:
        crashes: Dict[str, ast.Call] = {}
        latched: Dict[str, int] = {}
        for sub in nodes:
            if not isinstance(sub, ast.Call):
                continue
            if not isinstance(sub.func, ast.Attribute):
                continue
            owner = _dotted(sub.func.value)
            if owner is None:
                continue
            if sub.func.attr == "crash":
                crashes.setdefault(owner, sub)
            elif sub.func.attr == "check_alive":
                latched[owner] = min(latched.get(owner, sub.lineno),
                                     sub.lineno)
        for owner, call in crashes.items():
            first = latched.get(owner)
            if first is None or first > call.lineno:
                self._report(
                    call, "fault-latch",
                    f"{owner}.crash(...) without a preceding "
                    f"{owner}.check_alive() in {name}(): a crashed "
                    f"machine must not keep acting")


def lint_source(source: str, path: str = "<string>") -> List[LintFinding]:
    """Lint one module's source text; pragmas already applied."""
    lines = source.splitlines()
    if any(_SKIP_FILE_RE.search(ln) for ln in lines[:20]):
        return []
    tree = ast.parse(source, filename=path)
    linter = _Linter(path)
    linter.visit(tree)
    linter.findings.extend(_finish_module_latch(tree, linter))

    out: List[LintFinding] = []
    for f in sorted(linter.findings, key=lambda f: (f.line, f.rule)):
        line_text = lines[f.line - 1] if 0 < f.line <= len(lines) else ""
        allowed = {m.group(1) for m in _ALLOW_RE.finditer(line_text)}
        if f.rule not in allowed:
            out.append(f)
    return out


def _finish_module_latch(tree: ast.Module, linter: _Linter
                         ) -> List[LintFinding]:
    """Module-level code has no enclosing function; latch-check it too."""
    skip = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

    def top_level(node: ast.AST):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, skip):
                continue
            yield child
            yield from top_level(child)

    probe = _Linter(linter.path)
    probe._check_fault_latch("<module>", top_level(tree))
    return probe.findings


def lint_file(path) -> List[LintFinding]:
    path = Path(path)
    return lint_source(path.read_text(encoding="utf-8"), str(path))


def lint_paths(paths: Iterable) -> List[LintFinding]:
    """Lint files and (recursively) directories of ``*.py`` files."""
    findings: List[LintFinding] = []
    for p in paths:
        p = Path(p)
        files = sorted(p.rglob("*.py")) if p.is_dir() else [p]
        for f in files:
            findings.extend(lint_file(f))
    return findings


def findings_json(findings: Sequence[LintFinding]) -> dict:
    """Stable machine-readable findings document (CI artifact shape)."""
    return {
        "tool": "repro.analysis.lint",
        "rules": list(RULES),
        "findings": [{
            "rule": f.rule, "severity": "error", "path": f.path,
            "line": f.line, "message": f.message,
        } for f in findings],
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    as_json = "--json" in argv
    argv = [a for a in argv if a != "--json"]
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        return 0 if argv else 2
    findings = lint_paths(argv)
    if as_json:
        import json
        print(json.dumps(findings_json(findings), indent=2, sort_keys=True))
        return 1 if findings else 0
    for f in findings:
        print(f)
    if findings:
        print(f"{len(findings)} determinism finding(s)")
        return 1
    print("determinism lint: clean")
    return 0


if __name__ == "__main__":                     # pragma: no cover
    sys.exit(main())
