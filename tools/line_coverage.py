"""The lines of ``src/tailcal`` that a Tier-1 test run never executes.

Run from anywhere:

    python3 tools/line_coverage.py [PYTEST_ARGS ...]

It runs pytest in this process, with ``src/`` first on ``sys.path`` and a
``sys.settrace`` hook on every thread that records each line executed in a
``src/tailcal`` file. It needs no package beyond pytest; ``coverage`` is
not used. It then prints one ``path:line: source`` line per executable
line that never ran, in file and line order, and a count to stderr. It
exits with pytest's exit code. Without PYTEST_ARGS pytest runs the Tier-1
suite: the ``tests/`` directory next to this script, with ``-q
--continue-on-collection-errors -p no:cacheprovider``. PYTEST_ARGS replace
all of that, so ``tests/test_oracle.py -q`` traces one file's tests.

Lines count as executable when the compiled module maps bytecode to them,
so blank lines, comments and docstrings are never listed. A child forked by
``dataset._forked`` (split CSV writes, the train-dump fold of
``ingest-logits``, toy-experiment trials) keeps tracing, and sends the lines
it has run back with its result: the tool wraps ``_forked`` in ``dataset``
and ``cli``, and the child pickles its line set as it pickles its result or
exception. So the child's part of ``_forked`` reads as run, up to its
``os._exit``. On a machine with one usable CPU nothing forks, and that part
is listed as never run. A test's ``python -m tailcal`` subprocess is not
traced, so lines that only such a subprocess runs are listed as never run.
Tracing makes the suite several times slower.
"""

from __future__ import annotations

import sys
import threading
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tailcal"
TIER_1 = [str(ROOT / "tests"), "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]


def executable_lines(path: Path) -> set[int]:
    """The line numbers that the compiled code of ``path`` maps bytecode to."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0: no source line
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def traced_run(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code and, per package file, the lines executed."""
    import pytest

    prefix = str(PACKAGE) + "/"
    seen: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):  # called once per new frame
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None  # no line events outside the package
        seen.setdefault(name, set()).add(frame.f_lineno)
        return local

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        from tailcal import dataset  # traced: its module-level lines run here

        dataset._forked = _merging(dataset._forked, seen)
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), seen


class _Lines:
    """Pickles as a copy of ``seen`` at the time it is pickled: in a forked
    child, the lines the child has run when it sends its outcome back."""

    def __init__(self, seen: dict[str, set[int]]):
        self.seen = seen

    def __reduce__(self):
        return dict, ({name: set(lines) for name, lines in self.seen.items()},)


def _merging(forked, seen: dict[str, set[int]]):
    """``forked`` with each child's lines merged into ``seen`` when it is
    waited for. The child returns ``(result, lines)``, or raises its
    exception with the lines attached; run in this process, the lines are
    ``seen`` itself, and nothing is merged."""

    def merge(lines) -> None:
        if isinstance(lines, dict):
            for name, numbers in lines.items():
                seen.setdefault(name, set()).update(numbers)

    @contextmanager
    def merging(fn, *args):
        def child(*args):
            try:
                return fn(*args), _Lines(seen)
            except BaseException as exc:
                exc.traced_lines = _Lines(seen)
                raise

        child.__name__ = fn.__name__  # as a child that dies is named

        def wait_merged():
            try:
                result, lines = wait()
            except BaseException as exc:
                merge(exc.__dict__.pop("traced_lines", None))
                raise
            merge(lines)
            return result

        with forked(child, *args) as wait:
            yield wait_merged

    return merging


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    code, seen = traced_run(args or TIER_1)
    missed = total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        source = path.read_text().splitlines()
        total += len(lines)
        for line in sorted(lines - seen.get(str(path), set())):
            missed += 1
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    print(f"{total - missed} of {total} executable lines ran, {missed} never",
          file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
