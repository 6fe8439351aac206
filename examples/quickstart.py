#!/usr/bin/env python3
"""Quickstart: protect a shared counter with the RMA-RW lock via the public API.

This example uses the :class:`repro.api.Cluster` facade: it builds a small
simulated cluster (4 compute nodes with 8 processes each), creates one
topology-aware reader-writer lock (RMA-RW) through the scheme registry, runs
a registered microbenchmark on it, and then drives a custom SPMD program
through a :class:`repro.api.Session` whose window layout is merged
automatically.  Most ranks only read a shared value, a few write it; at the
end it prints the aggregate statistics of the simulated run.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import os

from repro.api import Cluster

#: Shrink the example when invoked from the test-suite.
ITERATIONS = int(os.environ.get("REPRO_EXAMPLE_ITERATIONS", "10"))
NODES = int(os.environ.get("REPRO_EXAMPLE_NODES", "4"))
PROCS_PER_NODE = int(os.environ.get("REPRO_EXAMPLE_PROCS_PER_NODE", "8"))


def main() -> None:
    with Cluster(procs=NODES * PROCS_PER_NODE, procs_per_node=PROCS_PER_NODE, seed=42) as c:
        print(f"Simulated machine: {c.describe()}")

        # One physical counter per node, a little locality at the node level,
        # and up to 64 consecutive readers per counter before a writer wins.
        lock = c.lock("rma-rw", t_dc=PROCS_PER_NODE, t_l=(4, 4), t_r=64)

        # 1. Run a registered microbenchmark on the lock: the work-critical-
        #    section benchmark with 2% writers, straight to a result row.
        result = c.bench(lock, "wcsb", fw=0.02, iterations=ITERATIONS)
        print(f"WCSB benchmark            : {result.throughput_mln_per_s:.3f} mln acquires/s "
              f"at P={result.num_processes} (F_W={result.fw:g})")

        # 2. Drive a custom SPMD program.  The session merges the lock's
        #    window layout and reserves one extra word for the shared value.
        session = c.session(lock, extra_words=1)
        shared_offset = lock.window_words

        async def program(ctx):
            handle = lock.make(ctx)
            await ctx.barrier()
            observed = 0
            # One writer per node; everyone else only reads.
            is_writer = ctx.rank % PROCS_PER_NODE == 0
            for _ in range(ITERATIONS):
                if is_writer:
                    async with handle.writing():
                        current = await ctx.get(0, shared_offset)
                        await ctx.flush(0)
                        await ctx.put(current + 1, 0, shared_offset)
                        await ctx.flush(0)
                else:
                    async with handle.reading():
                        observed = await ctx.get(0, shared_offset)
                        await ctx.flush(0)
            await ctx.barrier()
            return observed

        run = session.run(program)

        final_value = session.window(0).read(shared_offset)
        writers = c.num_processes // PROCS_PER_NODE
        print(f"Final shared value        : {final_value} "
              f"(expected {writers * ITERATIONS} = {writers} writers x {ITERATIONS} increments)")
        print(f"Virtual makespan          : {run.total_time_us:.1f} us")
        print(f"Total RMA operations      : {run.total_ops()}")
        print(f"Operations by type        : {dict(sorted(run.op_counts.items()))}")
        assert final_value == writers * ITERATIONS, "lost update: the lock failed!"
        print("OK: no lost updates, readers and writers were correctly synchronized.")


if __name__ == "__main__":
    main()
