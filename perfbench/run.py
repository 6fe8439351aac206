#!/usr/bin/env python3
"""Lock-simulator benchmark: one workload per process, pinned to one CPU.

Usage (from the repository root)::

    python3 perfbench/run.py --workload rw-wcsb-p64 --seed 7 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs untraced and
traced simulations in pairs and prints the per-layer metrics.  Both check the
outputs.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``attempted`` and
``failed`` count simulations.  See ``perfbench/README.md`` for the workloads,
the metrics and the layer map.
"""

import time

# The set-up clock starts before the first ``repro`` import.
_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable, Dict, List, Optional  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
BENCHMARK = ROOT / "BENCHMARK.json"
SPANS_DIR = HERE / "out"

#: Seed whose reference digests are recorded in ``reference.json``; any other
#: seed is certified on the fly against the ``baseline`` scheduler.
DEFAULT_SEED = 1
#: Fresh processes that repeat the set-up: at least ``SETUP_PROBES_MIN``, and
#: more while their set-up time totals under ``SETUP_PROBE_SECONDS``.
#: ``setup_s`` is the median of these and the measuring process's own set-up.
SETUP_PROBES_MIN = 2
SETUP_PROBES_MAX = 10
SETUP_PROBE_SECONDS = 6.0
#: Size of one reference batch (see ``reference_batch``): loop steps of
#: pure-Python arithmetic, and handoffs between two threads.
REF_LOOP_STEPS = 600_000
REF_HANDOFFS = 4_000
#: After each timed simulation, reference batches run for at least this
#: share of its wall time, so the batches sample the host in proportion.
REF_SHARE = 0.15
#: ``setup_s`` is scaled to a host on which one reference batch takes this
#: long (about its time on the 2-CPU KVM host the benchmark was written on).
REF_NOMINAL_S = 0.060

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, Prepared, prepare  # noqa: E402


def pin_to_one_cpu() -> int:
    """Pin this process (and every child it starts) to one allowed CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Session:
    """Counts simulations and failures; every simulation goes through here."""

    def __init__(self, prepared: Prepared):
        from repro.bench.campaign import run_result_sha

        self.prepared = prepared
        self.sha = run_result_sha
        self.attempted = 0
        self.failed = 0
        self.digest: Optional[str] = None
        self.sim_metrics: Dict[str, float] = {}

    def fail(self, why: str) -> None:
        self.failed += 1
        print(f"FAILED: {why}", file=sys.stderr)

    def simulate(self, label: str, run: Optional[Callable] = None, **kwargs):
        """One simulation; returns ``(bench_result, run_result)`` or None."""
        self.attempted += 1
        try:
            return (run or self.prepared.simulate)(**kwargs)
        except Exception:  # a raising or deadlocked simulation is a failed one
            traceback.print_exc()
            self.fail(f"{label}: simulation raised")
            return None

    def check(self, label: str, outcome, *, ok: bool = True, why: str = "") -> bool:
        """Fold one simulation into the output check (digest included)."""
        if outcome is None:
            return False
        br, rr = outcome
        digest = self.sha(rr)
        problems = [why] if not ok else []
        problems += self._count_problems(br)
        if self.digest is None:
            self.digest = digest
            self.sim_metrics = virtual_time_metrics(self.prepared, br, rr)
        elif digest != self.digest:
            problems.append(f"digest {digest[:12]} != {self.digest[:12]}")
        if problems:
            self.fail(f"{label}: {'; '.join(problems)}")
            return False
        return True

    def _count_problems(self, br) -> List[str]:
        expected = self.prepared.expected_acquires
        served = br.reads + br.writes
        problems = []
        if br.total_acquires != expected or served != expected:
            problems.append(f"acquisitions {br.total_acquires}/{served} != P x iterations {expected}")
        if self.prepared.workload.open_loop:
            by_phase = sum(int(p["requests"]) for p in br.phases)
            if by_phase != expected:
                problems.append(f"served requests {by_phase} != scheduled {expected}")
        return problems

    def verify(self) -> None:
        """The untimed checks: oracle-observed run and the reference digest."""
        from repro.verification.oracles import LockOracleObserver

        observer = LockOracleObserver()
        outcome = self.simulate("oracle", observer=observer)
        report = observer.report()
        self.check("oracle", outcome, ok=report.ok,
                   why=f"oracle violations: {[str(v) for v in report.violations]}")
        if self.prepared.seed == DEFAULT_SEED:
            reference = json.loads(REFERENCE.read_text())["digests"][self.prepared.workload.name]
        else:
            outcome = self.simulate("reference", scheduler="baseline")
            reference = self.sha(outcome[1]) if outcome is not None else None
        if reference is not None and reference != self.digest:
            self.fail(f"digest {self.digest} != reference {reference}")


def virtual_time_metrics(prepared: Prepared, br, rr) -> Dict[str, float]:
    """The paper's metrics of one simulation, in virtual time."""
    import numpy as np
    from repro.util.stats import discard_warmup

    if prepared.workload.open_loop:
        p50, p99 = br.percentiles["e2e_p50_us"], br.percentiles["e2e_p99_us"]
    else:
        samples: List[float] = []
        for ret in rr.returns:
            samples.extend(ret["latencies"])
        kept = np.asarray(discard_warmup(samples, prepared.config.warmup_fraction))
        p50, p99 = (float(np.percentile(kept, q)) for q in (50, 99))
    return {
        "sim_throughput_mln_s": br.throughput_mln_per_s,
        "sim_latency_p50_us": p50,
        "sim_latency_p99_us": p99,
    }


def timed_simulation(session: Session, label: str, run: Optional[Callable] = None):
    """One simulation, timed; the output check runs after the clock stops."""
    t0 = time.perf_counter()
    outcome = session.simulate(label, run)
    wall = time.perf_counter() - t0
    return (outcome, wall) if session.check(label, outcome) else (None, wall)


def reference_batch() -> float:
    """Host seconds of one fixed batch of work that owes nothing to the program.

    Pure-Python arithmetic, then handoffs of a turn between two threads
    through one ``threading.Condition``: the two things a simulation spends
    its host time on.  Its time tracks the speed of the pinned CPU, which on
    a shared host drifts by half for seconds to minutes at a time.
    """
    t0 = time.perf_counter()
    x = 0
    for i in range(REF_LOOP_STEPS):
        x += i * i
    cond = threading.Condition()
    turn = [0]

    def player(me: int) -> None:
        for _ in range(REF_HANDOFFS // 2):
            with cond:
                while turn[0] != me:
                    cond.wait()
                turn[0] = 1 - me
                cond.notify()

    players = [threading.Thread(target=player, args=(me,)) for me in (0, 1)]
    for t in players:
        t.start()
    for t in players:
        t.join()
    return time.perf_counter() - t0


class ReferenceClock:
    """Times reference batches in a helper process pinned to the same CPU.

    A process of its own, so that nothing the program sets in the measuring
    interpreter (garbage collector, thread switch interval) reaches the batch.
    """

    def __init__(self):
        self.walls: List[float] = []
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--reference-helper"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )

    def batch(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        wall = float(self.proc.stdout.readline())
        self.walls.append(wall)
        return wall

    def follow(self, wall: float) -> None:
        """Run batches for at least ``REF_SHARE`` of ``wall``, and at least one."""
        spent = self.batch()
        while spent < REF_SHARE * wall:
            spent += self.batch()

    def mean(self) -> float:
        return statistics.fmean(self.walls)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=60)


def serve_reference_batches() -> int:
    """The helper's loop: one batch per input line, its wall time printed."""
    for _ in sys.stdin:
        print(repr(reference_batch()), flush=True)
    return 0


def measure_end_to_end(session: Session, seconds: float, ref: ReferenceClock) -> Dict[str, float]:
    """Rates of the timed simulations per reference batch of host time.

    Reference batches follow each timed simulation.  A rate is the
    simulations' total count over their total wall time, times the mean wall
    time of a reference batch in the same run: work done in the host time one
    reference batch takes.  The host's speed drift divides out; the raw host
    rates are printed beside them.
    """
    ops = acquires = 0
    wall = 0.0
    sims = 0
    start = time.perf_counter()
    while not sims or time.perf_counter() - start < seconds:
        outcome, sim_wall = timed_simulation(session, f"timed #{sims + 1}")
        if outcome is None:
            break
        br, rr = outcome
        sims += 1
        ops += rr.total_ops()
        acquires += br.total_acquires
        wall += sim_wall
        ref.follow(sim_wall)
    if not sims:
        return {}
    batch = ref.mean()
    print(f"timed simulations: {sims}; host rates {ops / wall:.6g} ops/s, "
          f"{acquires / wall:.6g} acquires/s; reference batch {batch * 1e3:.2f} ms "
          f"(mean of {len(ref.walls)})")
    return {"sim_ops_per_ref": ops / wall * batch, "acquires_per_ref": acquires / wall * batch}


def measure_layers(
    session: Session, seconds: float, spans_path: Path, ref: ReferenceClock
) -> Dict[str, float]:
    from tracer import Tracer

    tracer = Tracer()
    tracer.calibrate()
    print(f"span cost: {tracer.cost_inside_ns} ns inside, {tracer.cost_outside_ns} ns outside")
    traced_run = tracer.wrap(session.prepared.simulate, "bench.harness")
    samples: List[Dict[str, float]] = []
    spans = None
    start = time.perf_counter()
    while not samples or time.perf_counter() - start < seconds:
        plain, plain_wall = timed_simulation(session, f"untraced #{len(samples) + 1}")
        tracer.reset()
        tracer.recording = spans is None
        tracer.install()
        try:
            traced, traced_wall = timed_simulation(session, f"traced #{len(samples) + 1}", traced_run)
        finally:
            tracer.uninstall()
        if plain is None or traced is None:
            break
        samples.append(layer_sample(tracer, traced[1], traced_wall, plain_wall))
        samples[-1]["host.ref_batch_s"] = ref.batch()
        if spans is None:
            spans = tracer.records  # the next reset() starts fresh arrays
    if not samples:
        return {}
    tracer.write_spans(spans_path, spans, {
        "workload": session.prepared.workload.name,
        "seed": session.prepared.seed,
        "span_cost_ns": tracer.span_cost_ns,
    })
    print(f"traced/untraced pairs: {len(samples)}; spans of the first written to {spans_path}")
    metrics = {
        key: statistics.median(s[key] for s in samples) for key in samples[0]
    }
    phases = session.prepared.phases
    metrics["topology.machine_build_s"] = phases["topology.machine_build"]
    metrics["rma.latency.cost_table_s"] = phases["rma.latency.cost_table"]
    metrics["bench.spec_build_s"] = phases["bench.spec_build"]
    return metrics


def layer_sample(tracer, rr, traced_wall: float, plain_wall: float) -> Dict[str, float]:
    """Per-layer metrics of one traced simulation."""
    layers = tracer.layer_self_s()
    ops = rr.total_ops()
    covered_wall = traced_wall - tracer.spans * tracer.span_cost_ns / 1e9
    return {
        "host.sim_ops_per_s": ops / plain_wall,
        "bench.harness_self_s": layers.get("bench.harness", 0.0),
        "rma.window.init_s": layers.get("rma.window.init", 0.0),
        "rma.window.init_words": tracer.init_words,
        "rma.window.ops": tracer.count_of("rma.window.") - tracer.count_of("rma.window.init"),
        "rma.window.self_s": layers.get("rma.window", 0.0),
        "rma.ops": ops,
        "rma.run_s": layers.get("rma.run", 0.0),
        "rma.ctx.calls": tracer.count_of("rma.ctx."),
        "rma.ctx.self_s": layers.get("rma.ctx", 0.0),
        "rma.handoffs": tracer.handoffs,
        "rma.handoffs_per_op": tracer.handoffs / ops,
        "rma.spin_ops": tracer.count_of("rma.ctx.spin_on_cells"),
        "rma.spin_useful_ratio": (
            tracer.count_of("rma.ctx.spin_on_cells") / tracer.polls if tracer.polls else 0.0
        ),
        "rma.fabric.traversals": tracer.count_of("rma.fabric.traverse"),
        "rma.fabric.self_s": layers.get("rma.fabric.traverse", 0.0),
        "core.acquires": tracer.acquires,
        "core.self_s": layers.get("core", 0.0),
        "core.cas_success_ratio": tracer.cas_ok / tracer.cas_total if tracer.cas_total else 0.0,
        "traffic.schedule_s": layers.get("traffic.generate_schedule", 0.0),
        "traffic.accounting_s": layers.get("traffic.aggregate_traffic", 0.0),
        "trace.overhead_frac": traced_wall / plain_wall - 1.0,
        "trace.coverage": sum(layers.values()) / covered_wall,
    }


def setup_probes(workload: str, seed: int, ref: ReferenceClock) -> List[float]:
    """Repeat the set-up in fresh processes (pinned like this one).

    A reference batch follows each, for ``ref``'s mean.
    """
    samples: List[float] = []
    while len(samples) < SETUP_PROBES_MIN or (
        len(samples) < SETUP_PROBES_MAX and sum(samples) < SETUP_PROBE_SECONDS
    ):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=170, cwd=ROOT, check=True,
        )
        samples.append(float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]))
        ref.batch()
    return samples


def record_reference() -> None:
    """Write ``reference.json``: default-seed digests, baseline == horizon."""
    from repro.bench.campaign import run_result_sha

    digests = {}
    for name, workload in WORKLOADS.items():
        prepared = prepare(workload, DEFAULT_SEED)
        horizon = run_result_sha(prepared.simulate()[1])
        baseline = run_result_sha(prepared.simulate(scheduler="baseline")[1])
        if horizon != baseline:
            raise SystemExit(f"{name}: horizon {horizon} != baseline {baseline}")
        digests[name] = horizon
        print(f"{name}: {horizon}")
    REFERENCE.write_text(json.dumps(
        {"seed": DEFAULT_SEED, "certified_by": "baseline", "digests": digests}, indent=2
    ) + "\n")


def declared_units(trace: int) -> Dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them for this mode."""
    declared = json.loads(BENCHMARK.read_text())
    return {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--reference-helper", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-reference", action="store_true",
                        help="re-record reference.json for the default seed")
    args = parser.parse_args(argv)

    if args.reference_helper:
        return serve_reference_batches()
    cpu = pin_to_one_cpu()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.record_reference:
        record_reference()
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    prepared = prepare(WORKLOADS[args.workload], args.seed)
    setup_s = time.perf_counter() - _T0
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}; "
          f"pinned to cpu {cpu} of nproc {os.cpu_count()}")
    print("set-up phases: " + ", ".join(f"{k} {v:.3f}s" for k, v in prepared.phases.items()))

    ref = ReferenceClock()
    try:
        session = Session(prepared)
        session.check("warm-up", session.simulate("warm-up"))
        if args.trace:
            spans_path = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.npz"
            metrics = measure_layers(session, args.seconds, spans_path, ref)
        else:
            metrics = measure_end_to_end(session, args.seconds, ref)
        if not metrics:
            print("no simulation completed", file=sys.stderr)
            return 1
        if not args.trace:
            # Before the untimed checks, which may run a different scheduler.
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        session.verify()
        if not args.trace:
            metrics.update(session.sim_metrics)
            setups = [setup_s] + setup_probes(args.workload, args.seed, ref)
            print("set-up samples: " + ", ".join(f"{s:.3f}s" for s in setups)
                  + f"; reference batch {ref.mean() * 1e3:.2f} ms")
            metrics["setup_s"] = statistics.median(setups) * REF_NOMINAL_S / ref.mean()
    finally:
        ref.close()
    units = declared_units(args.trace)
    if set(metrics) != set(units):
        print(f"error: measured {sorted(metrics)} but BENCHMARK.json declares {sorted(units)}",
              file=sys.stderr)
        return 1
    for name, unit in units.items():
        print(f"  {name:28s} {metrics[name]:>16.6g} {unit}")
    print(json.dumps({
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
