"""Tests for the lock spec/handle abstractions."""

from __future__ import annotations

import pytest

from repro.core.baselines import FompiRWLockSpec, FompiSpinLockSpec
from repro.core.lock_base import LockSpec
from repro.rma.sim_runtime import SimRuntime
from repro.topology.machine import Machine


class TestMergeInits:
    def test_merges_disjoint(self):
        merged = LockSpec.merge_inits({0: 1}, {1: 2}, {2: 3})
        assert merged == {0: 1, 1: 2, 2: 3}

    def test_identical_values_allowed(self):
        assert LockSpec.merge_inits({0: 5}, {0: 5}) == {0: 5}

    def test_conflicting_values_rejected(self):
        with pytest.raises(ValueError):
            LockSpec.merge_inits({0: 5}, {0: 6})

    def test_empty(self):
        assert LockSpec.merge_inits() == {}


class TestContextManagers:
    def test_held_acquires_and_releases(self):
        machine = Machine.single_node(3)
        spec = FompiSpinLockSpec(num_processes=3)
        rt = SimRuntime(machine, window_words=spec.window_words + 1)

        async def program(ctx):
            lock = spec.make(ctx)
            await ctx.barrier()
            async with lock.held():
                await ctx.accumulate(1, 0, spec.window_words)
                await ctx.flush(0)

        rt.run(program, window_init=spec.init_window)
        assert rt.window(0).read(spec.window_words) == 3
        # lock word must be free again
        assert rt.window(0).read(spec.lock_offset) == 0

    def test_held_releases_on_exception(self):
        machine = Machine.single_node(2)
        spec = FompiSpinLockSpec(num_processes=2)
        rt = SimRuntime(machine, window_words=spec.window_words + 1)

        async def program(ctx):
            lock = spec.make(ctx)
            await ctx.barrier()
            if ctx.rank == 0:
                try:
                    async with lock.held():
                        raise KeyError("inside CS")
                except KeyError:
                    pass
            await ctx.barrier()
            # If rank 0 leaked the lock, rank 1 would deadlock here.
            async with lock.held():
                await ctx.accumulate(1, 0, spec.window_words)
                await ctx.flush(0)

        rt.run(program, window_init=spec.init_window)
        assert rt.window(0).read(spec.window_words) == 2

    def test_reading_and_writing_context_managers(self):
        machine = Machine.single_node(4)
        spec = FompiRWLockSpec(num_processes=4)
        rt = SimRuntime(machine, window_words=spec.window_words + 1)

        async def program(ctx):
            lock = spec.make(ctx)
            await ctx.barrier()
            if ctx.rank == 0:
                async with lock.writing():
                    await ctx.accumulate(10, 0, spec.window_words)
                    await ctx.flush(0)
            else:
                async with lock.reading():
                    await ctx.get(0, spec.window_words)
                    await ctx.flush(0)

        rt.run(program, window_init=spec.init_window)
        assert rt.window(0).read(spec.window_words) == 10

    def test_rw_lock_usable_as_plain_lock(self):
        """acquire()/release() on an RW lock take the writer (exclusive) path."""
        machine = Machine.single_node(3)
        spec = FompiRWLockSpec(num_processes=3)
        rt = SimRuntime(machine, window_words=spec.window_words + 1)

        async def program(ctx):
            lock = spec.make(ctx)
            await ctx.barrier()
            await lock.acquire()
            value = await ctx.get(0, spec.window_words)
            await ctx.flush(0)
            await ctx.put(value + 1, 0, spec.window_words)
            await ctx.flush(0)
            await lock.release()

        rt.run(program, window_init=spec.init_window)
        assert rt.window(0).read(spec.window_words) == 3
