"""List the statements of the package that a benchmark replay never runs.

    python3 tools/traffic_lines.py WORKLOAD SEED PARTS

Replays parts ``0..PARTS-1`` of ``replaybench`` workload ``WORKLOAD`` for
``SEED`` through ``replay.Replay`` (read only), one pass each as a timed
run replays them, the slot probe and the end checks included, with
``sys.settrace`` recording every line of this checkout's ``src/dynreach``
that runs from the replay's construction on.  Then it prints, module by
module and per function in source order, the statements that never ran
as line ranges, a function none of whose statements ran as never called,
and last the totals.  Functions whose statements all ran are not
printed.

A statement here is a simple statement, or the header of a compound one
(an ``if`` or ``while`` test, a ``for`` target and iterable, a ``with``
item, a ``try:``, an ``except`` clause, a nested ``def``); it ran if a
line event fell on one of its lines.  Docstrings, ``global`` and
``nonlocal`` are not statements, and module and class bodies are left
out: they run at import.  Tracing slows the index by about ten times,
so a ``churn`` part takes seconds, not the 0.1 s it takes untraced.
"""
from __future__ import annotations

import ast
import sys
from collections.abc import Callable, Iterator
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "replaybench")]  # this checkout's package first

import dynreach  # noqa: E402

from replay import Replay  # noqa: E402
from workloads import SPECS, Spec  # noqa: E402

PACKAGE = Path(dynreach.__file__).parent
_SILENT = (ast.Global, ast.Nonlocal)

Span = tuple[int, int]


def traced_lines(files: list[Path], call: Callable[[], object]) -> dict[Path, set[int]]:
    """Run ``call()`` under ``sys.settrace``; return, per file, the lines
    on which a line event fell.  The previous trace function is restored
    afterwards."""
    ran = {path: set() for path in files}

    def tracer(add: Callable[[int], None]):
        def local(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return local

        return local

    tracers = {str(path): tracer(lines.add) for path, lines in ran.items()}

    def dispatch(frame, event, arg):
        return tracers.get(frame.f_code.co_filename)

    previous = sys.gettrace()
    sys.settrace(dispatch)
    try:
        call()
    finally:
        sys.settrace(previous)
    return ran


def functions(source: str) -> Iterator[tuple[str, list[Span]]]:
    """(qualified name, line spans of its statements) for every function
    of the source, in source order; a nested function is one of its own,
    and its ``def`` a statement of the function around it."""

    def header(node: ast.stmt) -> Span:
        first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
        return first, max(node.lineno, node.body[0].lineno - 1)

    def body(stmts: list[ast.stmt], qual: str, spans: list[Span]) -> Iterator[tuple[str, list[Span]]]:
        for node in stmts:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                spans.append(header(node))
                yield from function(node, f"{qual}.{node.name}")
            elif isinstance(node, ast.ClassDef):
                spans.append(header(node))
                yield from members(node.body, f"{qual}.{node.name}.")
            elif hasattr(node, "body"):
                spans.append(header(node))
                yield from body(node.body, qual, spans)
                for handler in getattr(node, "handlers", ()):
                    spans.append(header(handler))
                    yield from body(handler.body, qual, spans)
                yield from body(getattr(node, "orelse", []), qual, spans)
                yield from body(getattr(node, "finalbody", []), qual, spans)
            elif not isinstance(node, _SILENT):
                spans.append((node.lineno, node.end_lineno))

    def function(node: ast.FunctionDef | ast.AsyncFunctionDef, qual: str) -> Iterator[tuple[str, list[Span]]]:
        stmts = node.body
        if ast.get_docstring(node, clean=False) is not None:
            stmts = stmts[1:]
        spans: list[Span] = []
        inner = list(body(stmts, qual, spans))
        yield qual, spans
        yield from inner

    def members(stmts: list[ast.stmt], prefix: str) -> Iterator[tuple[str, list[Span]]]:
        for node in stmts:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from function(node, f"{prefix}{node.name}")
            elif isinstance(node, ast.ClassDef):
                yield from members(node.body, f"{prefix}{node.name}.")

    yield from members(ast.parse(source).body, "")


def unrun(source: str, ran: set[int]) -> Iterator[tuple[str, list[Span], int]]:
    """(function, spans of the statements of it that never ran, its
    statement count) for every function of the source, in source order."""
    for qual, spans in functions(source):
        missed = [(a, b) for a, b in spans if not any(line in ran for line in range(a, b + 1))]
        yield qual, missed, len(spans)


def ranges(spans: list[Span]) -> str:
    """The spans as ``a-b`` ranges, joining a span that starts on the line
    after the last one ended."""
    joined: list[list[int]] = []
    for a, b in spans:
        if joined and a == joined[-1][1] + 1:
            joined[-1][1] = b
        else:
            joined.append([a, b])
    return ", ".join(f"{a}" if a == b else f"{a}-{b}" for a, b in joined)


def replay_lines(spec: Spec, seed: int, parts: int) -> dict[Path, set[int]]:
    """Lines of each package module that a replay of the parts ran."""
    return traced_lines(sorted(PACKAGE.glob("*.py")), lambda: Replay(spec, seed).run(parts))


def main(argv: list[str]) -> int:
    if len(argv) != 3 or argv[0] not in SPECS:
        sys.exit(__doc__)
    ran = replay_lines(SPECS[argv[0]], int(argv[1]), int(argv[2]))
    statements = missed = functions_missed = functions_seen = 0
    for path, lines in ran.items():
        for qual, spans, count in unrun(path.read_text(), lines):
            functions_seen += 1
            statements += count
            missed += len(spans)
            if spans:
                functions_missed += 1
                what = "never called" if len(spans) == count else ranges(spans)
                print(f"{path.name} {qual}: {what}")
    print(f"{missed} of {statements} statements in {functions_missed} of {functions_seen} functions never ran")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
