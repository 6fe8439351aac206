"""Tests for the Table-3 portability layer and the SHMEM/UPC facades."""

from __future__ import annotations

import pytest

from repro.rma.portability import (
    PORTABILITY_TABLE,
    ShmemFacade,
    UpcFacade,
    environments,
    operations,
    supports_all_required_ops,
)
from repro.rma.sim_runtime import SimRuntime
from repro.topology.machine import Machine

REQUIRED_OPS = {"put", "get", "accumulate", "fao_sum", "fao_replace", "cas"}


class TestTable3:
    def test_all_six_environments_present(self):
        assert environments() == [
            "upc", "berkeley-upc", "shmem", "fortran-2008", "rdma-ib", "iwarp",
        ]

    def test_every_environment_covers_every_operation(self):
        for env in environments():
            assert set(operations(env)) == REQUIRED_OPS

    def test_fortran_swap_caveat(self):
        fortran = operations("fortran-2008")
        assert not fortran["fao_replace"].supported
        assert "swap" in fortran["fao_replace"].note

    def test_all_other_environments_fully_supported(self):
        for env in environments():
            if env == "fortran-2008":
                assert not supports_all_required_ops(env)
            else:
                assert supports_all_required_ops(env)

    def test_unknown_environment(self):
        with pytest.raises(KeyError):
            operations("openmp")

    def test_table_rows_are_unique(self):
        keys = [(e.environment, e.operation) for e in PORTABILITY_TABLE]
        assert len(keys) == len(set(keys)) == 36


class TestFacades:
    def test_shmem_facade_round_trip(self):
        machine = Machine.cluster(nodes=1, procs_per_node=2)
        rt = SimRuntime(machine, window_words=4)

        async def program(ctx):
            shmem = ShmemFacade(ctx)
            assert shmem.my_pe == ctx.rank
            assert shmem.n_pes == 2
            if shmem.my_pe == 0:
                await shmem.shmem_put(41, 1, 0)
                await shmem.shmem_quiet(1)
                old = await shmem.shmem_fadd(1, 0, 1)
                await shmem.shmem_quiet(1)
                assert old == 41
            await shmem.shmem_barrier_all()
            return await shmem.shmem_get(1, 0)

        result = rt.run(program)
        assert result.returns == [42, 42]

    def test_shmem_swap_and_cswap(self):
        machine = Machine.single_node(2)
        rt = SimRuntime(machine, window_words=4)

        async def program(ctx):
            shmem = ShmemFacade(ctx)
            if ctx.rank == 0:
                first = await shmem.shmem_swap(0, 1, 7)
                await shmem.shmem_quiet(0)
                second = await shmem.shmem_cswap(0, 1, cond=7, value=9)
                await shmem.shmem_quiet(0)
                failed = await shmem.shmem_cswap(0, 1, cond=7, value=11)
                await shmem.shmem_quiet(0)
                return first, second, failed
            return None

        result = rt.run(program)
        assert result.returns[0] == (0, 7, 9)
        assert rt.window(0).read(1) == 9

    def test_upc_facade_counter(self):
        machine = Machine.cluster(nodes=2, procs_per_node=2)
        rt = SimRuntime(machine, window_words=4)

        async def program(ctx):
            upc = UpcFacade(ctx)
            assert upc.threads == 4
            await upc.upc_inc(0, 2, 1)
            await upc.upc_fence(0)
            await upc.upc_barrier()
            return await upc.upc_get(0, 2)

        result = rt.run(program)
        assert result.returns == [4, 4, 4, 4]

    def test_upc_cswap_single_winner(self):
        machine = Machine.single_node(4)
        rt = SimRuntime(machine, window_words=4)

        async def program(ctx):
            upc = UpcFacade(ctx)
            won = await upc.upc_cswap(0, 3, compare=0, value=upc.mythread + 1) == 0
            await upc.upc_fence(0)
            return won

        result = rt.run(program)
        assert sum(result.returns) == 1

    def test_mcs_lock_runs_on_top_of_shmem_style_calls(self):
        """The D-MCS protocol expressed through the SHMEM facade still works."""
        machine = Machine.cluster(nodes=2, procs_per_node=2)
        rt = SimRuntime(machine, window_words=8)
        NEXT, WAIT, TAIL, COUNTER = 0, 1, 2, 3

        def window_init(rank):
            values = {NEXT: -1, WAIT: 0}
            if rank == 0:
                values[TAIL] = -1
            return values

        async def program(ctx):
            shmem = ShmemFacade(ctx)
            me = shmem.my_pe
            await shmem.shmem_barrier_all()
            for _ in range(3):
                # acquire (Listing 2, SHMEM spelling)
                await shmem.shmem_put(-1, me, NEXT)
                await shmem.shmem_put(1, me, WAIT)
                await shmem.shmem_quiet(me)
                pred = await shmem.shmem_swap(0, TAIL, me)
                await shmem.shmem_quiet(0)
                if pred != -1:
                    await shmem.shmem_put(me, pred, NEXT)
                    await shmem.shmem_quiet(pred)
                    await ctx.spin_while(me, WAIT, lambda v: v == 1)
                # critical section
                count = await shmem.shmem_get(0, COUNTER)
                await shmem.shmem_quiet(0)
                await shmem.shmem_put(count + 1, 0, COUNTER)
                await shmem.shmem_quiet(0)
                # release (Listing 3)
                succ = await shmem.shmem_get(me, NEXT)
                await shmem.shmem_quiet(me)
                if succ == -1:
                    if await shmem.shmem_cswap(0, TAIL, cond=me, value=-1) == me:
                        continue
                    succ = await ctx.spin_while(me, NEXT, lambda v: v == -1)
                await shmem.shmem_put(0, succ, WAIT)
                await shmem.shmem_quiet(succ)
            await shmem.shmem_barrier_all()

        rt.run(program, window_init=window_init)
        assert rt.window(0).read(COUNTER) == machine.num_processes * 3
