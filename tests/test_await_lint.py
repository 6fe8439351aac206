"""Lint: every context call and lock-handle call in the package is awaited.

Context methods and lock-handle methods are coroutines.  A call that is not
awaited only creates a coroutine object: the operation never runs, and a
program built that way can finish having issued no RMA call at all.  This
test walks the AST of ``src/repro`` and ``examples/`` and fails on any such
call that is not the operand of ``await``:

* a context RMA call, ``spin_on_cells``/``spin_while``, ``compute`` or
  ``barrier`` on a receiver named ``ctx`` (``ctx.get``, ``self.ctx.put``,
  ``self._ctx.flush``, ...), or a bare ``compute``/``barrier`` alias;
* a lock handle's ``acquire*``/``release*``;
* ``held()``/``reading()``/``writing()`` outside an ``async with``.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Iterator, List

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCANNED = [ROOT / "src" / "repro", ROOT / "examples"]

CONTEXT_CALLS = {
    "put", "get", "accumulate", "fao", "cas", "flush",
    "spin_on_cells", "spin_while", "compute", "barrier",
}
ALIASED_CALLS = {"compute", "barrier"}
HANDLE_CALLS = {
    "acquire", "release", "acquire_read", "release_read", "acquire_write", "release_write",
}
GUARD_CALLS = {"held", "reading", "writing"}
CONTEXT_RECEIVER = re.compile(r"(^|\.)_?ctx$")


def _python_files() -> Iterator[Path]:
    for root in SCANNED:
        yield from sorted(root.rglob("*.py"))


def _unawaited_calls(path: Path) -> List[str]:
    text = path.read_text()
    tree = ast.parse(text)
    awaited = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Await)}
    guarded = {
        id(item.context_expr)
        for node in ast.walk(tree)
        if isinstance(node, ast.AsyncWith)
        for item in node.items
    }
    problems = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute):
            name = func.attr
            receiver = ast.get_source_segment(text, func.value) or ""
            if name in GUARD_CALLS:
                bad = id(node) not in guarded
            elif name in HANDLE_CALLS or (
                name in CONTEXT_CALLS and CONTEXT_RECEIVER.search(receiver)
            ):
                bad = id(node) not in awaited
            else:
                continue
        elif isinstance(func, ast.Name) and func.id in ALIASED_CALLS:
            bad = id(node) not in awaited
        else:
            continue
        if bad:
            call = ast.get_source_segment(text, node) or "<call>"
            problems.append((node.lineno, f"{path.name}:{node.lineno}: {call}"))
    return [problem for _, problem in sorted(problems)]


def test_every_context_and_lock_call_is_awaited():
    problems = [
        f"{path.parent.relative_to(ROOT)}/{problem}"
        for path in _python_files()
        for problem in _unawaited_calls(path)
    ]
    assert not problems, (
        "calls to coroutine methods that are not awaited (they would never "
        "run):\n" + "\n".join(problems)
    )


def test_lint_catches_a_missing_await(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "async def program(ctx, lock):\n"
        "    ctx.put(1, 0, 0)\n"
        "    await ctx.flush(0)\n"
        "    lock.acquire()\n"
        "    with lock.held():\n"
        "        pass\n"
        "    compute = ctx.compute\n"
        "    compute(1.0)\n"
    )
    found = _unawaited_calls(sample)
    assert [line.split(": ", 1)[1] for line in found] == [
        "ctx.put(1, 0, 0)", "lock.acquire()", "lock.held()", "compute(1.0)",
    ]


@pytest.mark.parametrize(
    "statement",
    [
        "self.ctx.fao(1, 0, 0, op)",
        "self._ctx.spin_while(0, 0, lambda v: v == 0)",
        "ctx.barrier()",
        "handle.release_write()",
        "async with lock.held():\n        lock.reading()",
    ],
    ids=["context-rma", "spin", "barrier", "handle-release", "guard-outside-async-with"],
)
def test_lint_flags_each_kind_of_unawaited_call(tmp_path, statement):
    sample = tmp_path / "sample.py"
    sample.write_text(f"async def program(self, ctx, handle, lock, op):\n    {statement}\n")
    found = _unawaited_calls(sample)
    assert len(found) == 1, found


def test_lint_accepts_awaited_calls_and_other_receivers(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "async def program(self, ctx, handle, lock, op, cache):\n"
        "    await self.ctx.fao(1, 0, 0, op)\n"
        "    value = await ctx.get(0, 0)\n"
        "    await handle.acquire_read()\n"
        "    async with lock.writing():\n"
        "        await ctx.spin_on_cells([(0, 0)], lambda vs: vs[0] == 0)\n"
        "    cache.get(value)\n"
        "    cache.put(1, 2)\n"
        "    return ctx.now(), ctx.rng.random()\n"
    )
    assert _unawaited_calls(sample) == []
