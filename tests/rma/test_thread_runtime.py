"""Tests for the real-thread RMA runtime."""

from __future__ import annotations

import pytest

from repro.rma.ops import AtomicOp
from repro.rma.thread_runtime import ThreadRuntime
from repro.topology.machine import Machine


def make_runtime(**kwargs) -> ThreadRuntime:
    machine = kwargs.pop("machine", Machine.cluster(nodes=2, procs_per_node=2))
    kwargs.setdefault("window_words", 8)
    return ThreadRuntime(machine, **kwargs)


class TestBasics:
    def test_put_get_round_trip(self):
        rt = make_runtime()

        async def program(ctx):
            await ctx.put(ctx.rank + 50, ctx.rank, 0)
            await ctx.flush(ctx.rank)
            await ctx.barrier()
            value = await ctx.get((ctx.rank + 1) % ctx.nranks, 0)
            await ctx.flush((ctx.rank + 1) % ctx.nranks)
            return value

        result = rt.run(program)
        assert sorted(result.returns) == [50, 51, 52, 53]

    def test_concurrent_fao_never_loses_updates(self):
        rt = make_runtime()
        increments = 200

        async def program(ctx):
            for _ in range(increments):
                await ctx.fao(1, 0, 0, AtomicOp.SUM)
            await ctx.flush(0)

        rt.run(program)
        assert rt.window(0).read(0) == increments * rt.num_ranks

    def test_concurrent_cas_single_winner_per_round(self):
        rt = make_runtime()

        async def program(ctx):
            wins = 0
            for round_no in range(50):
                prev = await ctx.cas(ctx.rank + 1, 0, 0, 1)
                if prev == 0:
                    wins += 1
                    await ctx.put(0, 0, 1)  # release the slot for the next round
                await ctx.flush(0)
            return wins

        result = rt.run(program)
        assert sum(result.returns) >= 1  # at least somebody won

    def test_window_init_applied(self):
        rt = make_runtime()
        result = rt.run(
            lambda ctx: ctx.get(ctx.rank, 2),
            window_init=lambda rank: {2: rank * 7},
        )
        assert result.returns == [0, 7, 14, 21]

    def test_program_args(self):
        rt = make_runtime()

        async def program(ctx, arg):
            return arg + ctx.rank

        result = rt.run(program, program_args=[10, 10, 10, 10])
        assert result.returns == [10, 11, 12, 13]

    def test_invalid_target_raises(self):
        rt = make_runtime()
        with pytest.raises(ValueError):
            rt.run(lambda ctx: ctx.get(42, 0))

    def test_exception_propagates(self):
        rt = make_runtime()

        async def program(ctx):
            if ctx.rank == 0:
                raise RuntimeError("rank 0 exploded")
            await ctx.barrier()

        with pytest.raises(RuntimeError, match="rank 0 exploded"):
            rt.run(program)


class TestSpinning:
    def test_spin_while_wakes_on_remote_write(self):
        rt = make_runtime()

        async def program(ctx):
            if ctx.rank == 0:
                await ctx.compute(2000.0)  # 2 ms
                await ctx.put(9, 1, 4)
                await ctx.flush(1)
                return None
            if ctx.rank == 1:
                return await ctx.spin_while(1, 4, lambda v: v == 0)
            return None

        result = rt.run(program)
        assert result.returns[1] == 9

    def test_spin_timeout_raises(self):
        rt = make_runtime(spin_timeout_s=0.2)

        async def program(ctx):
            if ctx.rank == 0:
                await ctx.spin_while(0, 0, lambda v: v == 0)

        with pytest.raises(TimeoutError):
            rt.run(program)


class TestAccounting:
    def test_op_counts(self):
        rt = make_runtime()

        async def program(ctx):
            await ctx.put(1, 0, 0)
            await ctx.get(0, 0)
            await ctx.flush(0)

        result = rt.run(program)
        assert result.op_counts["put"] == 4
        assert result.op_counts["get"] == 4
        assert result.op_counts["flush"] == 4

    def test_now_progresses(self):
        rt = make_runtime()

        async def program(ctx):
            start = ctx.now()
            await ctx.compute(500.0)
            return ctx.now() - start

        result = rt.run(program)
        assert all(delta > 0 for delta in result.returns)

    def test_injected_delay_slows_operations(self):
        machine = Machine.cluster(nodes=1, procs_per_node=2)
        fast = ThreadRuntime(machine, window_words=4)
        slow = ThreadRuntime(machine, window_words=4, injected_delay_us=300.0)

        async def program(ctx):
            start = ctx.now()
            for _ in range(10):
                await ctx.get(0, 0)
            return ctx.now() - start

        fast_avg = sum(fast.run(program).returns) / 2
        slow_avg = sum(slow.run(program).returns) / 2
        assert slow_avg > fast_avg

    def test_window_words_validated(self):
        with pytest.raises(ValueError):
            make_runtime(window_words=0)
