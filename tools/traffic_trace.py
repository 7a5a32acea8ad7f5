"""Which statements of the package its traffic never reaches.

    python3 tools/traffic_trace.py [SRC]

Runs, with the package imported from SRC (default: this checkout's
``src``) and a line tracer (``sys.settrace``) on every frame of a file under
SRC/advectbench, the traffic the project answers for:

* every invocation of ``tools/cli_digest.py``'s matrix, each in a fresh
  temporary directory, as the digest runs it;
* one pass of the ``sweep``, ``refine`` and ``causal`` requests that
  ``bench/harness.py`` builds at seed 1009, through ``harness.call_cli``;
* ``tests/test_acceptance.py``, through ``pytest.main`` (its timing
  criteria may fail under the tracer; only the lines it reaches count, and
  its report goes to stderr).

Then it prints each executable statement of SRC/advectbench that none of
these reached, as ``file:line: source``.  A statement is executable when
the compiler emits code on one of its own lines (a compound statement's
own lines are its header); it is reached when a line or call event lands
on one of them.  The bench and test files are read from this checkout and
nothing is written beside them: no bytecode and no pytest cache.  A run
takes under a minute.
"""

import ast
import contextlib
import os
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "tools"))
import cli_digest  # noqa: E402  (fixes one BLAS thread before numpy loads)

SEED = 1009
WORKLOADS = ("sweep", "refine", "causal")


def _own_lines(node):
    """The lines of a statement that are its own: all of a simple
    statement's, a compound statement's header (decorators included)."""
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    body = getattr(node, "body", None)
    last = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
    return range(first, last + 1)


def _code_lines(code):
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def executable_statements(path):
    """(line, own lines) of each statement of the file that has code."""
    source = path.read_text(encoding="utf-8")
    code = _code_lines(compile(source, str(path), "exec"))
    return [(node.lineno, set(_own_lines(node)))
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.stmt) and code.intersection(_own_lines(node))]


def traced(package, run):
    """Run run() with a line tracer on the package's frames; returns the
    lines reached, by file."""
    reached = {}

    def tracer(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(package):
            return None
        lines = reached.setdefault(path, set())
        lines.add(frame.f_lineno)

        def local(frame, event, arg):
            lines.add(frame.f_lineno)
            return local
        return local

    sys.settrace(tracer)
    try:
        run()
    finally:
        sys.settrace(None)
    return reached


def traffic(src):
    sys.path.insert(0, str(src))
    from advectbench import cli
    for argv in cli_digest.matrix():
        cli_digest.run(cli, argv)
    sys.path.insert(0, str(ROOT / "bench"))
    import harness
    for name in WORKLOADS:
        for req in harness.WORKLOADS[name](random.Random(SEED)):
            harness.call_cli(req.argv)
    import pytest
    with contextlib.redirect_stdout(sys.stderr):  # stdout is the report
        pytest.main([str(ROOT / "tests" / "test_acceptance.py"), "-q",
                     "-p", "no:cacheprovider", "--rootdir", str(ROOT)])


def main(argv):
    src = Path(argv[0] if argv else ROOT / "src").resolve()
    package = src / "advectbench"
    if not (package / "__init__.py").is_file():
        print(f"error: no advectbench sources under {src}", file=sys.stderr)
        return 2
    reached = traced(str(package) + os.sep, lambda: traffic(src))
    total = unreached = 0
    for path in sorted(package.glob("*.py")):
        lines = reached.get(str(path), set())
        source = path.read_text(encoding="utf-8").splitlines()
        for line, own in sorted(executable_statements(path)):
            total += 1
            if not own & lines:
                unreached += 1
                print(f"{path.name}:{line}: {source[line - 1].strip()}")
    print(f"unreached: {unreached} of {total} executable statements")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
