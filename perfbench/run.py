"""The repository benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload device_mixed --seed 7 --seconds 40 --trace 0

A run builds, drives and checks fresh instances of the workload until
``--seconds`` is spent.  Each instance's set-up and run are timed on the
host, with the reference loop (``reference.py``) timed around and inside
them; host times are reported in nominal reference seconds.  Simulated numbers must
repeat exactly across the instances.  With ``--trace 0`` the run prints
the end-to-end metrics; with ``--trace 1`` it alternates untraced and
traced instances and prints the per-layer metrics.  The last line of
standard output is one JSON object; the exit code is 1 when any
correctness check failed.  README.md documents the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from reference import NOMINAL_REF_S, reference_seconds  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402

import loads  # noqa: E402
from repro.core import IPAManager  # noqa: E402
from repro.flash import FlashMemory  # noqa: E402
from repro.ftl import NoFTL, ShardedDevice  # noqa: E402
from repro.hostq import GroupCommitGate, HostScheduler, Request, SubmissionQueue  # noqa: E402
from repro.storage import BufferPool, LogManager, StorageEngine  # noqa: E402
from repro.workloads import ClientSession  # noqa: E402

#: End-to-end metrics (untraced runs): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "host_ops_per_s": "1/s",
    "peak_rss_mib": "MiB",
    "sim_ops_per_s": "1/s",
    "sim_mean_us": "us",
    "sim_p99_us": "us",
    "flash_bytes_per_op": "B/op",
}

#: Simulated per-layer counts, copied from an instance's ``sim``.
_SIM_PER_LAYER = {
    "flash.page_programs_per_kop": "1/kop",
    "flash.delta_programs_per_kop": "1/kop",
    "flash.page_reads_per_kop": "1/kop",
    "flash.block_erases_per_kop": "1/kop",
    "flash.die_util": "ratio",
    "ftl.gc_migrations_per_kop": "1/kop",
    "ftl.gc_erases_per_kop": "1/kop",
    "ftl.gc_time_frac": "ratio",
    "ftl.ipa_fraction": "ratio",
    "ftl.write_amp": "ratio",
    "core.ipa_flush_frac": "ratio",
    "core.budget_overflows": "count",
    "core.device_fallbacks": "count",
    "storage.buffer_hit_ratio": "ratio",
    "storage.evictions_per_txn": "1/txn",
    "storage.commits_per_force": "ratio",
    "storage.log_bytes_per_txn": "B/txn",
    "hostq.events_per_op": "1/op",
    "hostq.queue_wait_mean_us": "us",
    "hostq.queue_wait_p99_us": "us",
    "hostq.holb_bypasses_per_kop": "1/kop",
    "hostq.max_depth_used": "count",
    "hostq.conflict_waits_per_ktxn": "1/ktxn",
    "hostq.delta_fallbacks": "count",
}

#: Per-layer metrics (traced runs): name -> unit.
PER_LAYER = {
    "session.open_s": "s",
    "session.prefill_s": "s",
    "session.rss_after_setup_mib": "MiB",
    **{f"{layer}.share": "ratio" for layer in (*LAYERS, "remainder")},
    **_SIM_PER_LAYER,
    "hostq.pick_calls_per_op": "1/op",
    "bench.ref_s": "s",
    "bench.raw_ops_per_s": "1/s",
    "bench.raw_setup_s": "s",
    "bench.trace_overhead": "ratio",
    "bench.traced_s": "s",
    "bench.latency_samples": "count",
}

TRACE_DIR = ROOT / ".perfbench"

#: Set-ups timed on their own before the instances, so that ``setup_s``
#: is a median of several samples even when only a few instances fit.
_EXTRA_SETUPS = 4
#: Reference loops timed back to back at each edge of a set-up or run.
_EDGE_LOOPS = 8
#: Host seconds between reference loops inside a run.
_SAMPLE_EVERY_S = 0.25


def trace_targets():
    """``(layer, class, methods)`` the traced instances wrap."""
    device_methods = ("read", "write", "write_delta", "can_write_delta")
    return [
        ("flash", FlashMemory, ("read", "program", "erase")),
        ("ftl", NoFTL, device_methods),
        ("ftl", ShardedDevice, device_methods),
        ("core", IPAManager, ("load", "plan_flush", "flush")),
        ("storage", StorageEngine,
         ("read_program", "update_program", "commit_program", "abort")),
        ("storage", BufferPool, ("fetch_program", "try_pin", "unpin", "clean")),
        ("storage", LogManager, ("append", "force", "note_force", "flush_group")),
        ("hostq", HostScheduler, ("run",)),
        ("hostq", SubmissionQueue, ("admit", "pick", "complete")),
        ("hostq", GroupCommitGate, ("submit", "force_done")),
        ("workloads", ClientSession, ("next_op",)),
        ("harness", loads.DeviceDriver,
         ("execute", "complete", "arrive_closed", "arrive_open")),
    ]


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class InRunReference:
    """Reference samples taken between the request completions of a run.

    The machine's speed drifts over seconds (1-second means of the loop
    wandered from 0.073 to 0.109 s within half a minute), so samples only
    before and after a multi-second run miss most of the drift.  This
    wrapper of the scheduler's completion hook times a short reference
    loop every ``_SAMPLE_EVERY_S`` of host time, and the run is charged
    without them.  Samples cost host time only: simulated time and the
    event order are untouched.
    """

    def __init__(self, on_complete) -> None:
        self._on_complete = on_complete
        self.samples: list[float] = []
        self.spent = 0.0
        self._completions = 0
        self._due = time.perf_counter() + _SAMPLE_EVERY_S

    def __call__(self, request, now: float) -> None:
        self._on_complete(request, now)
        self._completions += 1
        if self._completions % 64 == 0 and time.perf_counter() >= self._due:
            start = time.perf_counter()
            self.samples.append(reference_seconds())
            end = time.perf_counter()
            self.spent += end - start
            self._due = end + _SAMPLE_EVERY_S


class Run:
    """The instances of one measured run and what they produced."""

    def __init__(self, spec, seed: int, trace: bool) -> None:
        self.spec = spec
        self.seed = seed
        self.trace = trace
        #: Host seconds of every reference loop timed in the run.
        self.refs: list[float] = []
        #: Mean reference loop time at the latest edge.
        self._edge = self._ref()
        self.instances: list[dict] = []
        #: ``(raw, normalised)`` seconds of every untraced set-up.
        self.setups: list[tuple[float, float]] = []
        self.errors: list[str] = []
        self.sim: dict | None = None
        self.tracer: Tracer | None = None
        self.rss_after_setup_mib = 0.0

    def _ref(self) -> float:
        """Time the reference loop at an edge; returns the mean loop time."""
        loops = [reference_seconds() for __ in range(_EDGE_LOOPS)]
        self.refs += loops
        return statistics.fmean(loops)

    def _note_rss(self) -> None:
        if not self.rss_after_setup_mib:
            self.rss_after_setup_mib = _peak_rss_mib()

    def setup_only(self) -> None:
        """Time one more set-up of a fresh instance and discard it."""
        gc.collect()
        instance = self.spec.instance(self.seed)
        ref_before = self._edge
        start = time.perf_counter()
        instance.setup()
        raw = time.perf_counter() - start
        self._note_rss()
        ref_after = self._edge = self._ref()
        self.setups.append((raw, raw * NOMINAL_REF_S * 2 / (ref_before + ref_after)))

    def instance(self, traced: bool) -> None:
        """Build, run and check one instance, bracketed by the reference loop."""
        gc.collect()
        tracer = Tracer(Request) if traced else None
        sampler: InRunReference | None = None

        def prepare(scheduler) -> None:
            nonlocal sampler
            if tracer is not None:
                scheduler.executor = tracer.wrap_callable(
                    "hostq.execute", scheduler.executor
                )
            else:
                sampler = InRunReference(scheduler.on_complete)
                scheduler.on_complete = sampler

        instance = self.spec.instance(self.seed)
        ref_before = self._edge
        with tracer.patched(trace_targets()) if tracer else nullcontext():
            with tracer.window_timer() if tracer else nullcontext():
                start = time.perf_counter()
                instance.setup(tracer)
                setup_raw = time.perf_counter() - start
            self._note_rss()
            ref_mid = self._ref()
            with tracer.window_timer() if tracer else nullcontext():
                start = time.perf_counter()
                instance.run(prepare)
                run_raw = time.perf_counter() - start
        ref_after = self._edge = self._ref()
        in_run = sampler.samples if sampler else []
        self.refs += in_run
        self.errors += instance.check()
        if self.sim is None:
            self.sim = instance.sim
        elif instance.sim != self.sim:
            self.errors.append(
                f"instance {len(self.instances)}: simulated counts differ from instance 0"
            )
        setup_scale = NOMINAL_REF_S * 2 / (ref_before + ref_mid)
        run_work = run_raw - (sampler.spent if sampler else 0.0)
        record = {
            "traced": traced,
            "setup_raw": setup_raw,
            "setup_norm": setup_raw * setup_scale,
            "open_s": instance.open_raw * setup_scale,
            "prefill_s": instance.prefill_raw * setup_scale,
            "run_work": run_work,
            "run_norm": run_work * NOMINAL_REF_S / statistics.fmean(
                [ref_mid, *in_run, ref_after]
            ),
        }
        if tracer is not None:
            window = sum(end - start for start, end in tracer.windows)
            record["self_s"] = tracer.self_times()
            record["window_raw"] = window
            record["window_s"] = window * NOMINAL_REF_S * 2 / (ref_before + ref_after)
            record["pick_calls"] = tracer.counts().get("hostq.SubmissionQueue.pick", 0)
            self.tracer = tracer
        else:
            self.setups.append((setup_raw, setup_raw * setup_scale))
        self.instances.append(record)

    def measure(self, seconds: float) -> None:
        """Time extra set-ups, then run instances until the next would overrun."""
        deadline = time.perf_counter() + seconds
        for __ in range(_EXTRA_SETUPS):
            self.setup_only()
        minimum = 2 if self.trace else 1
        took: list[float] = []
        while True:
            begin = time.perf_counter()
            self.instance(traced=self.trace and len(self.instances) % 2 == 1)
            took.append(time.perf_counter() - begin)
            # Traced and untraced instances alternate: the slower of the
            # last two predicts the next.
            if len(self.instances) >= minimum and (
                time.perf_counter() + max(took[-2:]) > deadline
            ):
                break

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def _runs(self, traced: bool) -> list[dict]:
        return [record for record in self.instances if record["traced"] == traced]

    def _ops_per_s(self, key: str) -> float:
        """Completed operations per second of ``key``, over untraced runs."""
        runs = self._runs(traced=False)
        return self.sim["ops"] * len(runs) / sum(record[key] for record in runs)

    def end_to_end(self) -> dict[str, float]:
        sim = self.sim
        return {
            "setup_s": statistics.median(norm for __, norm in self.setups),
            "host_ops_per_s": self._ops_per_s("run_norm"),
            "peak_rss_mib": _peak_rss_mib(),
            "sim_ops_per_s": sim["ops"] / (sim["makespan_us"] / 1e6),
            "sim_mean_us": sim["mean_us"],
            "sim_p99_us": sim["p99_us"],
            "flash_bytes_per_op": sim["flash_bytes_per_op"],
        }

    def per_layer(self) -> dict[str, float]:
        sim = self.sim
        traced, untraced = self._runs(traced=True), self._runs(traced=False)
        layers = (*LAYERS, "remainder")
        self_raw = {
            layer: statistics.fmean(r["self_s"][layer] for r in traced) for layer in layers
        }
        window_raw = statistics.fmean(r["window_raw"] for r in traced)
        total = sum(self_raw.values())
        if abs(total - window_raw) > 1e-6 * window_raw:
            self.errors.append(
                f"layer self times sum to {total:.6f} s, traced time is {window_raw:.6f} s"
            )
        untraced_s = statistics.median(r["setup_norm"] + r["run_norm"] for r in untraced)
        return {
            "session.open_s": statistics.median(r["open_s"] for r in untraced),
            "session.prefill_s": statistics.median(r["prefill_s"] for r in untraced),
            "session.rss_after_setup_mib": self.rss_after_setup_mib,
            **{f"{layer}.share": self_raw[layer] / window_raw for layer in layers},
            # A layer the workload bypasses counted nothing.
            **{name: sim.get(name, 0) for name in _SIM_PER_LAYER},
            "hostq.pick_calls_per_op": traced[0]["pick_calls"] / sim["ops"],
            "bench.ref_s": statistics.median(self.refs),
            "bench.raw_ops_per_s": self._ops_per_s("run_work"),
            "bench.raw_setup_s": statistics.median(raw for raw, __ in self.setups),
            "bench.trace_overhead": (
                statistics.median(r["window_s"] for r in traced) / untraced_s
            ),
            "bench.traced_s": statistics.fmean(r["window_s"] for r in traced),
            "bench.latency_samples": sim["samples"],
        }

    def result(self) -> dict:
        """The run's result object (the last line the benchmark prints)."""
        if self.trace:
            values, units = self.per_layer(), PER_LAYER
        else:
            values, units = self.end_to_end(), END_TO_END
        attempted = self.sim["attempted"] * len(self.instances)
        failed = self.sim["failed"] * len(self.instances)
        return {
            "correct": not self.errors and failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": values[name], "unit": unit} for name, unit in units.items()
            },
        }


def report(run: Run, result: dict) -> str:
    """The human-readable lines printed before the result object."""
    spec, sim = run.spec, run.sim
    lines = [
        f"workload {spec.name}  seed {run.seed}  instances {len(run.instances)}"
        f"  trace {int(run.trace)}",
        f"  {'attempted':<34} {sim['attempted']:>16} per instance",
        f"  {'failed_frac':<34} {sim['failed'] / sim['attempted']:>16.6f} ratio",
        f"  {'latency samples':<34} {sim['samples']:>16} count",
        f"  {'sim_p50_us (unbounded)':<34} {sim['p50_us']:>16.6f} us",
    ]
    if sim["p999_us"] is not None:
        lines.append(f"  {'sim_p999_us (unbounded)':<34} {sim['p999_us']:>16.6f} us")
    for name, metric in result["metrics"].items():
        lines.append(f"  {name:<34} {metric['value']:>16.6f} {metric['unit']}")
    for error in run.errors[:20]:
        lines.append(f"CHECK FAILED: {error}")
    if len(run.errors) > 20:
        lines.append(f"CHECK FAILED: ... {len(run.errors) - 20} more")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(loads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    run = Run(loads.WORKLOADS[args.workload], args.seed, bool(args.trace))
    run.measure(args.seconds)
    result = run.result()
    if run.tracer is not None:
        run.tracer.write_tsv(TRACE_DIR / f"spans-{args.workload}-seed{args.seed}.tsv")
    print(report(run, result))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
