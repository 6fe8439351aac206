"""Tests for the runtime-agnostic pieces: RunResult and the spin convenience wrapper."""

from __future__ import annotations

import pytest

from repro.rma.runtime_base import RunResult
from repro.rma.sim_runtime import SimRuntime
from repro.topology.machine import Machine


class TestRunResult:
    def test_counts_and_totals(self):
        result = RunResult(
            returns=[1, 2, 3],
            finish_times_us=[5.0, 7.0, 6.0],
            total_time_us=7.0,
            op_counts={"put": 3, "get": 2},
            per_rank_op_counts=[{"put": 1}, {"put": 1, "get": 2}, {"put": 1}],
        )
        assert result.num_ranks == 3
        assert result.total_ops() == 5

    def test_empty_op_counts(self):
        result = RunResult(returns=[], finish_times_us=[], total_time_us=0.0)
        assert result.total_ops() == 0
        assert result.num_ranks == 0


class TestSpinWhileWrapper:
    def test_single_cell_wrapper_delegates_to_multi_cell(self):
        machine = Machine.single_node(2)
        rt = SimRuntime(machine, window_words=4)

        async def program(ctx):
            if ctx.rank == 0:
                await ctx.compute(5.0)
                await ctx.put(3, 1, 2)
                await ctx.flush(1)
                return None
            return await ctx.spin_while(1, 2, lambda v: v < 3)

        result = rt.run(program)
        assert result.returns[1] == 3

    def test_spin_returns_immediately_when_condition_already_false(self):
        machine = Machine.single_node(2)
        rt = SimRuntime(machine, window_words=4)

        async def program(ctx):
            start = ctx.now()
            value = await ctx.spin_while(ctx.rank, 0, lambda v: v != 0)  # already 0
            return value, ctx.now() - start

        result = rt.run(program)
        for value, elapsed in result.returns:
            assert value == 0
            assert elapsed < 5.0  # one local get + flush, no parking


class TestCoroutineCallingConvention:
    @pytest.mark.parametrize("runtime_name", ["horizon", "baseline", "thread"])
    def test_plain_function_program_is_rejected(self, runtime_name):
        """A program written without ``async`` would run zero operations."""
        from repro.api.registry import get_runtime

        rt = get_runtime(runtime_name).factory(Machine.single_node(2), window_words=4)

        def program(ctx):  # missing ``async``: ctx.put only makes a coroutine
            return ctx.rank

        with pytest.raises(TypeError, match="not a coroutine"):
            rt.run(program)

    @pytest.mark.parametrize("runtime_name", ["horizon", "baseline", "thread"])
    def test_async_program_runs_on_every_runtime(self, runtime_name):
        from repro.api.registry import get_runtime

        rt = get_runtime(runtime_name).factory(Machine.single_node(2), window_words=4)

        async def program(ctx):
            await ctx.put(ctx.rank + 1, ctx.rank, 0)
            await ctx.flush(ctx.rank)
            await ctx.barrier()
            value = await ctx.get(1 - ctx.rank, 0)
            await ctx.flush(1 - ctx.rank)
            return value

        assert rt.run(program).returns == [2, 1]

    def test_faulted_horizon_run_rejects_a_plain_function_program(self):
        from repro.fault import FaultPlan, RankFault

        plan = FaultPlan(faults=(RankFault(rank=1, kill_us=1000.0),))
        rt = SimRuntime(Machine.single_node(2), window_words=4, fault_plan=plan)
        with pytest.raises(TypeError, match="not a coroutine"):
            rt.run(lambda ctx: None)


class TestRunToCompletion:
    """The trampoline that drives a rank program on a thread-per-rank runtime."""

    def test_returns_the_value_of_a_coroutine_that_never_suspends(self):
        from repro.rma.runtime_base import run_to_completion

        async def inner(x):
            return x * 2

        async def outer():
            return await inner(21)

        assert run_to_completion(outer()) == 42

    def test_a_suspending_coroutine_is_closed_and_rejected(self):
        import types

        from repro.rma.runtime_base import RuntimeError_, run_to_completion

        unwound = []

        @types.coroutine
        def foreign_suspend():
            yield

        async def program():
            try:
                await foreign_suspend()
            finally:
                unwound.append(True)

        with pytest.raises(RuntimeError_, match="suspended on a thread-per-rank runtime"):
            run_to_completion(program())
        assert unwound == [True]

    @pytest.mark.parametrize("runtime_name", ["baseline", "thread"])
    def test_foreign_await_fails_the_run(self, runtime_name):
        """A program that awaits something other than its context cannot hang."""
        import asyncio

        from repro.api.registry import get_runtime
        from repro.rma.runtime_base import RuntimeError_

        rt = get_runtime(runtime_name).factory(Machine.single_node(2), window_words=4)

        async def program(ctx):
            await ctx.put(1, ctx.rank, 0)
            await asyncio.sleep(0)  # not a context call: would suspend the rank
            return ctx.rank

        with pytest.raises(RuntimeError_, match="suspended"):
            rt.run(program)
