#!/usr/bin/env python3
"""Which functions of ``src/repro`` does the program never call?

    python tools/reach.py

Runs the program's surface with a profile hook in every interpreter it
starts, then lists each top-level function and method of
``src/repro`` whose code never ran.  The surface (``SURFACE``) is the
eight examples, ``repro.bench --quick``, the 25-seed drill of every
suite, the analysis CLI (``gate``, ``lint``, ``report`` in text and
JSON, ``list``), the four paper-scale sweep points of CI's perf-smoke
job and the repo benchmark at half a second.  Commands run from the
repository root with ``src`` on ``PYTHONPATH``; ``{tmp}`` in a command
names a temporary directory.  The whole surface takes about eight
minutes on a two-core machine.

The hook is a generated ``sitecustomize`` module that installs
``sys.setprofile`` and ``threading.setprofile`` and appends each
``src/repro`` code object's ``co_filename`` and ``co_firstlineno``,
once per process, to a line-buffered file named after the pid.  A
forked child (a ``ProcessPoolExecutor`` worker, which leaves through
``os._exit``) opens its own file, so what it runs is recorded too.
A process that replaces the hook with its own profiler (the repo
benchmark's ``--trace 1`` child, under ``cProfile``) records nothing
while that profiler is on.

The records are matched against an ``ast`` walk of every top-level
function and of every method of a top-level class (nested functions
count with their parent).  A decorated function's code starts at its
first decorator, and that is the line matched.  ``unreached.txt``, at
the repository root, gets one line per unreached function, in path and
line order: its length in lines (``def`` to last line), ``path:line``
of the ``def`` and the qualified name.  The last line totals the listed
lines.

Only the standard library is used; nothing in ``src/repro`` imports
this file.
"""

from __future__ import annotations

import ast
import os
import shlex
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"

#: the program surface, one command a line
SURFACE = (
    *(f"python examples/{name}.py" for name in (
        "quickstart", "custom_procedure", "recovery_demo", "tpcc_demo",
        "ycsb_comparison", "scale_out_demo", "frontend_demo",
        "trace_demo")),
    "python -m repro.bench --quick",
    "python -m repro.faults.drill --seeds 25 --suite all -v",
    "python -m repro.analysis gate --json {tmp}/analysis-report.json",
    "python -m repro.analysis lint --json src/repro",
    "python -m repro.analysis report tpcc_payment",
    "python -m repro.analysis report tpcc_payment --json",
    "python -m repro.analysis list",
    *(f"python -m repro.perf --points {point} --out {{tmp}}/sweep.json"
      for point in ("ycsb_paper_300k", "skiplist_paper_300k",
                    "bptree_paper_300k", "tpcc_full_districts")),
    "python bench/run.py --seconds 0.5",
)

HOOK = '''\
"""Records which src/repro code objects run (written by tools/reach.py)."""
import os
import sys
import threading

_PACKAGE = {package!r}
_RECORDS = {records!r}
_known = {{}}
_out = []


def _note(code):
    _known[id(code)] = code
    path = os.path.realpath(code.co_filename)
    if not path.startswith(_PACKAGE):
        return
    if not _out:
        name = os.path.join(_RECORDS, "%d.txt" % os.getpid())
        _out.append(open(name, "a", buffering=1, encoding="utf-8"))
    _out[0].write("%s\\t%d\\n" % (path, code.co_firstlineno))


def _hook(frame, event, arg):
    if event == "call" and id(frame.f_code) not in _known:
        _note(frame.f_code)


def _forked():
    _known.clear()
    _out.clear()


os.register_at_fork(after_in_child=_forked)
sys.setprofile(_hook)
threading.setprofile(_hook)
'''


def functions():
    """Yield ``(path, first_line, def_line, n_lines, qualname)`` for every
    top-level function and every method of a top-level class."""
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                members = [(f"{node.name}.", m) for m in node.body]
            else:
                members = [("", node)]
            for prefix, fn in members:
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                first = min([fn.lineno]
                            + [d.lineno for d in fn.decorator_list])
                yield (path, first, fn.lineno,
                       fn.end_lineno - fn.lineno + 1, prefix + fn.name)


def reached(records: Path):
    """The ``(path, first_line)`` pairs the hook wrote, over all pids."""
    seen = set()
    for name in records.iterdir():
        for line in name.read_text(encoding="utf-8").splitlines():
            path, first = line.split("\t")
            seen.add((path, int(first)))
    return seen


def run_surface(commands, records: Path, tmp: Path) -> list:
    """Run each command under the hook; returns the ones that failed."""
    (tmp / "hook").mkdir()
    (tmp / "hook" / "sitecustomize.py").write_text(HOOK.format(
        package=str(PACKAGE.resolve()) + os.sep, records=str(records)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(tmp / "hook"), str(ROOT / "src")])}
    failed = []
    for command in commands:
        argv = shlex.split(command.replace("{tmp}", str(tmp)))
        if argv[0] == "python":
            argv[0] = sys.executable
        start = time.monotonic()
        code = subprocess.run(argv, cwd=ROOT, env=env,
                              stdout=subprocess.DEVNULL).returncode
        print(f"{time.monotonic() - start:7.1f} s  exit {code}  {command}",
              flush=True)
        if code:
            failed.append(command)
    return failed


def audit(commands, out: Path) -> int:
    """Run ``commands`` and write the unreached list to ``out``; returns
    the process exit status (1 if a command failed)."""
    with tempfile.TemporaryDirectory(prefix="reach-") as tmpdir:
        tmp = Path(tmpdir)
        records = tmp / "records"
        records.mkdir()
        failed = run_surface(commands, records, tmp)
        seen = reached(records)
    rows, total, body = [], 0, 0
    for path, first, line, n_lines, qualname in functions():
        body += n_lines
        if (str(path.resolve()), first) in seen:
            continue
        total += n_lines
        rows.append(f"{n_lines:5d}  {path.relative_to(ROOT)}:{line}  "
                    f"{qualname}\n")
    rows.append(f"{total:5d}  total lines in {len(rows)} unreached "
                f"functions (of {body} lines in functions)\n")
    out.write_text("".join(rows), encoding="utf-8")
    print(rows[-1], end="")
    for command in failed:
        print(f"failed: {command}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(audit(SURFACE, ROOT / "unreached.txt"))
