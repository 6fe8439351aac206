#!/usr/bin/env python3
"""Trace analysis: where do the lock protocols spend their communication time?

The paper's performance argument is about traffic placement: topology-aware
locks keep most RMA operations inside a compute node and avoid hammering a
single remote hot spot.  This example makes that visible by tracing every RMA
call of three locks under the same contended workload:

* foMPI-Spin  — centralized spinning, every operation hits one home rank;
* D-MCS       — queue lock, local spinning, but hand-offs ignore topology;
* RMA-MCS     — the paper's topology-aware tree of queues.

For each lock it prints the call mix, the breakdown of operations by
topological distance (self / same node / remote), the hottest target ranks
and an ASCII activity strip per rank.

Run with:  python examples/trace_analysis.py
"""

from __future__ import annotations

import os

from repro import Machine
from repro.bench.ascii_plot import bar_chart
from repro.bench.report import format_table
from repro.bench.trace import (
    TraceRecorder,
    distance_breakdown,
    hottest_targets,
    render_rank_activity,
    summarize_trace,
    trace_rows_by_distance,
)
from repro.core.baselines import FompiSpinLockSpec
from repro.core.dmcs import DMCSLockSpec
from repro.core.rma_mcs import RMAMCSLockSpec
from repro.rma.sim_runtime import SimRuntime

NODES = int(os.environ.get("REPRO_EXAMPLE_NODES", "4"))
PROCS_PER_NODE = int(os.environ.get("REPRO_EXAMPLE_PROCS_PER_NODE", "8"))
ITERATIONS = int(os.environ.get("REPRO_EXAMPLE_ITERATIONS", "8"))


def trace_lock(machine: Machine, spec, label: str) -> None:
    recorder = TraceRecorder()
    runtime = SimRuntime(machine, window_words=spec.window_words, tracer=recorder, seed=7)

    async def program(ctx):
        lock = spec.make(ctx)
        await ctx.barrier()
        for _ in range(ITERATIONS):
            async with lock.held():
                await ctx.compute(0.3)
        await ctx.barrier()

    result = runtime.run(program, window_init=spec.init_window)
    summary = summarize_trace(recorder.events)
    breakdown = distance_breakdown(recorder.events, machine)

    print(f"=== {label} ===")
    print(f"total virtual time: {result.total_time_us:.1f} us, RMA calls: {summary.num_events}")
    print(format_table(summary.as_rows()))
    print()
    print(format_table(trace_rows_by_distance(breakdown)))
    print()
    print(
        bar_chart(
            {cls: values["ops_share_pct"] for cls, values in breakdown.items()},
            title="operation share by distance [%]",
            unit="%",
            width=40,
        )
    )
    print()
    print("hottest remote targets:")
    print(format_table(hottest_targets(recorder.events, top=3)))
    print()
    print(render_rank_activity(recorder.events, machine.num_processes, width=60))
    print()


def main() -> None:
    machine = Machine.cluster(nodes=NODES, procs_per_node=PROCS_PER_NODE)
    print(f"Simulated machine: {machine.describe()}")
    print(f"{ITERATIONS} lock acquisitions per rank, 0.3 us critical sections\n")

    p = machine.num_processes
    trace_lock(machine, FompiSpinLockSpec(num_processes=p), "foMPI-Spin (centralized)")
    trace_lock(machine, DMCSLockSpec(num_processes=p), "D-MCS (topology-oblivious queue)")
    trace_lock(machine, RMAMCSLockSpec(machine, t_l=(4, 8)), "RMA-MCS (topology-aware tree)")

    print(
        "Reading the tables: the topology-aware lock shifts the operation mix away\n"
        "from 'remote' towards 'same_node', which is exactly the effect that turns\n"
        "into the throughput and latency gaps of Figure 3 at scale."
    )


if __name__ == "__main__":
    main()
