"""Tests for the lock-table service layer."""

from __future__ import annotations

import pytest

from repro.api.registry import register_scheme, unregister
from repro.core.lock_base import LockSpec
from repro.rma.sim_runtime import SimRuntime
from repro.topology.builder import xc30_like
from repro.traffic.table import (
    LockTableSpec,
    StripedLockTableSpec,
    as_lock_table,
    build_lock_table,
)

REPLICABLE_SCHEMES = (
    "fompi-spin",
    "fompi-rw",
    "d-mcs",
    "rma-mcs",
    "rma-rw",
    "ticket",
    "hbo",
    "cohort",
    "numa-rw",
)


@pytest.fixture
def machine():
    return xc30_like(8, procs_per_node=4)


class TestReplication:
    @pytest.mark.parametrize("scheme", REPLICABLE_SCHEMES)
    def test_every_builtin_scheme_forms_a_table(self, machine, scheme):
        table, is_rw = build_lock_table(machine, scheme, 8)
        assert isinstance(table, LockTableSpec)
        assert table.num_locks == 8
        stride = table.specs[0].window_words
        assert table.window_words == 8 * stride
        # Entry layouts must be disjoint: the merged init has no conflicts
        # (merge_inits raises on any) and every entry's words sit in its slab.
        for rank in range(machine.num_processes):
            table.init_window(rank)
        for index, spec in enumerate(table.specs):
            for offset in spec.init_window(0):
                assert index * stride <= offset < (index + 1) * stride

    def test_home_ranks_rotate_across_the_machine(self, machine):
        table, _ = build_lock_table(machine, "fompi-spin", 8)
        homes = [spec.home_rank for spec in table.specs]
        assert homes == [i % machine.num_processes for i in range(8)]

    def test_dmcs_tail_ranks_rotate(self, machine):
        table, _ = build_lock_table(machine, "d-mcs", 4)
        assert [spec.tail_rank for spec in table.specs] == [0, 1, 2, 3]

    def test_scheme_params_reach_every_entry(self, machine):
        table, _ = build_lock_table(machine, "rma-rw", 4, params={"t_r": 16})
        assert all(spec.t_r == 16 for spec in table.specs)

    def test_entries_are_independent_locks(self, machine):
        table, _ = build_lock_table(machine, "fompi-spin", 4)
        runtime = SimRuntime(machine, window_words=table.window_words + 4, seed=0)
        counter_base = table.window_words

        async def program(ctx):
            handle = table.make(ctx)
            index = ctx.rank % 4
            lock = handle.lock(index)
            await ctx.barrier()
            for _ in range(3):
                await lock.acquire()
                await ctx.accumulate(1, 0, counter_base + index)
                await ctx.flush(0)
                await ctx.compute(0.5)
                await lock.release()
            await ctx.barrier()

        runtime.run(program, window_init=table.init_window)
        window = runtime.window(0)
        counts = [window.read(counter_base + i) for i in range(4)]
        assert counts == [6, 6, 6, 6]  # 8 ranks, 2 per entry, 3 acquires each

    def test_out_of_range_entry_rejected(self, machine):
        table, _ = build_lock_table(machine, "fompi-spin", 4)
        runtime = SimRuntime(machine, window_words=table.window_words, seed=0)

        async def program(ctx):
            handle = table.make(ctx)
            if ctx.rank == 0:
                with pytest.raises(ValueError, match="out of range"):
                    handle.lock(4)

        runtime.run(program, window_init=table.init_window)


class TestSchemeSlots:
    def _table(self, machine, scheme="fompi-spin", num_locks=4, **kw):
        from repro.control.policy import policy_min_entry_words
        from repro.traffic.scenarios import ADAPTIVE_POLICY

        kw.setdefault("min_entry_words", policy_min_entry_words(machine, ADAPTIVE_POLICY))
        table, _ = build_lock_table(machine, scheme, num_locks, **kw)
        return table

    def test_swap_rebases_and_rotates_the_new_spec(self, machine):
        from repro.api.registry import get_scheme

        table = self._table(machine, "fompi-spin")
        entry = table.entry(2)
        base = get_scheme("d-mcs").build(machine)
        placed = entry.swap_spec(base, rw=False, scheme="d-mcs")
        assert placed is not None
        assert entry.version == 1 and entry.scheme == "d-mcs"
        assert placed.base_offset == entry.base_offset
        assert placed.tail_rank == 2 % machine.num_processes

    def test_swap_is_idempotent_per_planned_version(self, machine):
        from repro.api.registry import get_scheme

        table = self._table(machine)
        entry = table.entry(1)
        base = get_scheme("d-mcs").build(machine)
        assert entry.swap_spec(base, version=1) is not None
        assert entry.swap_spec(base, version=1) is None  # another rank lost the race
        assert entry.version == 1

    def test_reset_restores_construction_state(self, machine):
        from repro.api.registry import get_scheme

        table = self._table(machine)
        original = table.entry(1).spec
        table.entry(1).swap_spec(get_scheme("d-mcs").build(machine), scheme="d-mcs")
        table.reset_entries()
        entry = table.entry(1)
        assert entry.version == 0
        assert entry.spec is original and entry.scheme == "fompi-spin"

    def test_oversized_spec_rejected_with_remedy(self, machine):
        from repro.api.registry import get_scheme

        table, _ = build_lock_table(machine, "fompi-spin", 4)  # no slab floor
        with pytest.raises(ValueError, match="min_entry_words"):
            table.entry(1).place(get_scheme("rma-rw").build(machine))

    def test_handles_rebuild_on_version_bump(self, machine):
        from repro.api.registry import get_scheme
        from repro.rma.sim_runtime import SimRuntime

        table = self._table(machine, "fompi-spin", num_locks=2)
        runtime = SimRuntime(machine, window_words=table.window_words, seed=0)
        kinds = {}

        async def program(ctx):
            table.reset_entries()
            handle = table.make(ctx)
            before = type(handle.lock(1)).__name__
            await ctx.barrier()
            entry = table.entry(1)
            placed = entry.place(get_scheme("d-mcs").build(machine), nranks=ctx.nranks)
            for offset in range(entry.base_offset, entry.base_offset + entry.stride):
                await ctx.put(int(placed.init_window(ctx.rank).get(offset, 0)), ctx.rank, offset)
            await ctx.flush(ctx.rank)
            entry.swap_spec(
                get_scheme("d-mcs").build(machine), rw=False, scheme="d-mcs",
                nranks=ctx.nranks, version=1,
            )
            await ctx.barrier()
            after = type(handle.lock(1)).__name__
            lock = handle.lock(1)
            await lock.acquire()
            await ctx.compute(0.5)
            await lock.release()
            await ctx.barrier()
            if ctx.rank == 0:
                kinds["before"], kinds["after"] = before, after

        runtime.run(program, window_init=table.init_window)
        assert kinds["before"] != kinds["after"]

    def test_striped_entries_reject_swaps(self, machine):
        from repro.api.registry import get_scheme

        table, _ = build_lock_table(machine, "striped-rw", 16)
        with pytest.raises(ValueError, match="striped"):
            table.entry(3).swap_spec(get_scheme("d-mcs").build(machine))


class TestStripedTable:
    def test_striped_scheme_becomes_a_striped_table(self, machine):
        table, is_rw = build_lock_table(machine, "striped-rw", 64)
        assert isinstance(table, StripedLockTableSpec)
        assert is_rw and table.rw
        assert table.num_locks == 64
        # One lock word per rank: the window does not grow with num_locks.
        assert table.window_words == table.inner.window_words

    def test_entries_fold_onto_stripes(self, machine):
        table, _ = build_lock_table(machine, "striped-rw", 64)
        runtime = SimRuntime(machine, window_words=table.window_words + 2, seed=0)
        results = {}

        async def program(ctx):
            handle = table.make(ctx)
            await ctx.barrier()
            lock = handle.lock(ctx.rank + machine.num_processes)  # wraps mod P
            await lock.acquire_write()
            await ctx.compute(0.2)
            await lock.release_write()
            await ctx.barrier()
            return lock.volume

        result = runtime.run(program, window_init=table.init_window)
        results = result.returns
        assert results == list(range(machine.num_processes))


class TestErrorsAndCoercion:
    def test_single_lock_coerces_to_one_entry_table(self, machine):
        from repro.bench.harness import build_lock_spec
        from repro.bench.workloads import LockBenchConfig

        spec, is_rw = build_lock_spec(LockBenchConfig(machine=machine, scheme="rma-mcs"))
        table = as_lock_table(spec, is_rw)
        assert table.num_locks == 1
        assert as_lock_table(table, is_rw) is table  # idempotent

    def test_non_rebasable_spec_rejected(self, machine):
        class PlainSpec(LockSpec):
            @property
            def window_words(self):
                return 1

            def init_window(self, rank):
                return {}

            def make(self, ctx):  # pragma: no cover - never reached
                raise AssertionError

        @register_scheme("table-plain-lock")
        def _build(m):
            return PlainSpec()

        try:
            with pytest.raises(ValueError, match="non-dataclass spec"):
                build_lock_table(machine, "table-plain-lock", 4)
            # A single entry needs no re-basing and still works.
            table, _ = build_lock_table(machine, "table-plain-lock", 1)
            assert table.num_locks == 1
        finally:
            unregister("scheme", "table-plain-lock")

    def test_zero_locks_rejected(self, machine):
        with pytest.raises(ValueError, match="num_locks"):
            build_lock_table(machine, "fompi-spin", 0)
