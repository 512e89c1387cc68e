"""The benchmark's workloads: build the stack, drive it, check it, count.

Each workload makes *instances*.  An instance builds a fresh stack and
loads every page (:meth:`setup`, the timed set-up), drives the seeded
load to completion (:meth:`run`, the timed run), then checks the
outputs (:meth:`check`, untimed).  Every simulated number an instance
reports (:attr:`sim`) is a pure function of the workload and the seed.

Only public entry points of the program are used: ``repro.session`` to
build, ``repro.hostq`` to schedule, and the public stats of the layers
below to count.
"""

from __future__ import annotations

import math
import time
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial

from repro.core import NxMScheme
from repro.errors import ReproError
from repro.ftl import iter_shard_views
from repro.hostq import (
    ClosedLoopClient,
    GroupCommitGate,
    HostScheduler,
    OpenLoopArrivals,
    OpKind,
    Request,
    SubmissionQueue,
    TxnExecutor,
    TxnLoadTestConfig,
    build_sessions,
)
from repro.session import SessionConfig, open_device, open_session
from repro.storage import DeferredClock, SlottedPage
from repro.workloads import PROFILES

__all__ = ["DeviceWorkload", "TxnWorkload", "WORKLOADS", "percentile"]

#: Samples p99.9 needs to have ten beyond it.
_P999_SAMPLES = 10_000


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank quantile of an ascending sample list."""
    index = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[index]


def _span(tracer, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def _flash_totals(device) -> dict[str, float]:
    """Summed raw counters of every flash array behind the device."""
    totals: dict[str, float] = {}
    for __, child in iter_shard_views(device):
        for key, value in child.flash.stats.snapshot().items():
            totals[key] = totals.get(key, 0) + value
    return totals


def _latency_metrics(samples: list[float]) -> dict[str, float]:
    ordered = sorted(samples)
    return {
        "samples": len(ordered),
        "mean_us": sum(ordered) / len(ordered),
        "p50_us": percentile(ordered, 0.5),
        "p99_us": percentile(ordered, 0.99),
        "p999_us": (
            percentile(ordered, 0.999) if len(ordered) >= _P999_SAMPLES else None
        ),
    }


def _queue_waits(completed: list[Request]) -> dict[str, float]:
    """Host queue wait (dispatch minus arrival) of the device requests."""
    waits = sorted(
        request.dispatched_us - request.arrival_us
        for request in completed
        if request.kind is not OpKind.COMMIT
    )
    return {
        "hostq.queue_wait_mean_us": sum(waits) / len(waits),
        "hostq.queue_wait_p99_us": percentile(waits, 0.99),
    }


def _device_counts(device, flash0: dict, makespan_us: float, ops: int) -> dict:
    """Flash and FTL counters of one run, per completed operation."""
    flash = _flash_totals(device)
    delta = {key: flash[key] - flash0.get(key, 0) for key in flash}
    snap = device.snapshot()
    kops = ops / 1000.0
    host_bytes = snap["bytes_page_written"] + snap["bytes_delta_written"]
    channels = len(device.occupancy())
    return {
        "flash_bytes_per_op": delta["bytes_programmed"] / ops,
        "erases_per_kop": delta["block_erases"] / kops,
        "flash.page_programs_per_kop": delta["page_programs"] / kops,
        "flash.delta_programs_per_kop": delta["delta_programs"] / kops,
        "flash.page_reads_per_kop": delta["page_reads"] / kops,
        "flash.block_erases_per_kop": delta["block_erases"] / kops,
        "flash.die_util": min(1.0, delta["busy_time_us"] / (channels * makespan_us)),
        "ftl.gc_migrations_per_kop": snap["gc_page_migrations"] / kops,
        "ftl.gc_erases_per_kop": snap["gc_erases"] / kops,
        "ftl.gc_time_frac": (
            snap["gc_time_us_total"] / delta["busy_time_us"]
            if delta["busy_time_us"] else 0.0
        ),
        "ftl.ipa_fraction": snap["ipa_fraction"],
        "ftl.write_amp": delta["bytes_programmed"] / host_bytes if host_bytes else 0.0,
    }


# ----------------------------------------------------------------------
# Device-level workloads
# ----------------------------------------------------------------------


class DeviceShadow:
    """The raw image every page should read back, kept beside the device.

    It wraps the built device's ``write`` and ``write_delta`` and records
    their arguments after each call succeeds: the last full image of a
    page plus the deltas appended to it since.  Equal images are stored
    once, so the shadow costs little memory even at 16k pages.
    """

    def __init__(self, device) -> None:
        self._images: dict[bytes, bytes] = {}
        self.base: dict[int, bytes] = {}
        self.deltas: dict[int, list[tuple[int, bytes]]] = {}
        write, write_delta = device.write, device.write_delta

        def shadow_write(lpn, data, now=0.0):
            result = write(lpn, data, now)
            data = bytes(data)
            self.base[lpn] = self._images.setdefault(data, data)
            self.deltas.pop(lpn, None)
            return result

        def shadow_write_delta(lpn, offset, data, now=0.0):
            result = write_delta(lpn, offset, data, now)
            self.deltas.setdefault(lpn, []).append((offset, bytes(data)))
            return result

        device.write = shadow_write
        device.write_delta = shadow_write_delta

    def expected(self, lpn: int) -> bytes:
        """The raw image ``lpn`` must read back as."""
        image = bytearray(self.base[lpn])
        for offset, data in self.deltas.get(lpn, ()):
            image[offset:offset + len(data)] = data
        return bytes(image)


class DeviceDriver:
    """The benchmark's device-level load: client ops in, device commands out.

    Full writes store a patterned body plus an erased delta tail; deltas
    append into that tail left to right, and a full tail (or a device
    veto) falls back to a full-page rewrite -- the write/append economy
    the IPA manager implements, restated at the device boundary.

    ``repro loadtest`` drives the same traffic, but ``run_loadtest``
    builds its own device, which the shadow must wrap before the page
    load, and its executor is not part of ``repro.hostq``'s public API.
    """

    def __init__(self, device, delta_area_bytes: int, requests: int) -> None:
        self.device = device
        page_size = device.page_size
        self.tail = max(0, min(delta_area_bytes, page_size // 2))
        self.body = page_size - self.tail
        self.requests = requests
        self.generated = 0
        self.delta_fallbacks = 0
        self.samples: list[float] = []
        self._cursor: dict[int, int] = {}
        self.scheduler: HostScheduler | None = None
        self._clients: list[ClosedLoopClient] = []
        self._arrivals: OpenLoopArrivals | None = None

    def page_image(self, lpn: int, stamp: int) -> bytes:
        fill = (lpn * 31 + stamp) % 251
        return bytes([fill]) * self.body + b"\xff" * self.tail

    def prefill(self, logical_pages: int) -> None:
        for lpn in range(logical_pages):
            self.device.write(lpn, self.page_image(lpn, 0), 0.0)
            self._cursor[lpn] = 0

    # -- arrivals --------------------------------------------------------

    def start_closed(self, scheduler, sessions, t0: float, seed: int) -> None:
        self.scheduler = scheduler
        self._clients = [
            ClosedLoopClient(index, session, 0.0, seed=seed)
            for index, session in enumerate(sessions)
        ]
        for client in self._clients:
            scheduler.schedule(t0, partial(self.arrive_closed, client.index))

    def start_open(self, scheduler, sessions, t0: float, rate_rps: float, seed: int) -> None:
        self.scheduler = scheduler
        self._arrivals = OpenLoopArrivals(sessions, rate_rps, seed=seed)
        scheduler.schedule(t0 + self._arrivals.interarrival_us(), self.arrive_open)

    def _submit(self, client: int, op: tuple[str, int, int], now: float) -> None:
        kind, lpn, length = op
        self.generated += 1
        request = Request(
            seq=self.generated, client=client, kind=OpKind(kind), lpn=lpn, length=length,
        )
        self.scheduler.submit(request, now)

    def arrive_closed(self, client: int, now: float) -> None:
        if self.generated < self.requests:
            self._submit(client, self._clients[client].next_op(), now)

    def arrive_open(self, now: float) -> None:
        client, op = self._arrivals.next_op()
        self._submit(client, op, now)
        if self.generated < self.requests:
            self.scheduler.schedule(now + self._arrivals.interarrival_us(), self.arrive_open)

    def complete(self, request: Request, now: float) -> None:
        if not request.rejected:
            self.samples.append(request.latency_us)
        if self._clients and self.generated < self.requests:
            self.scheduler.schedule(now, partial(self.arrive_closed, request.client))

    # -- device commands -------------------------------------------------

    def execute(self, request: Request, now: float) -> float:
        device = self.device
        lpn = request.lpn
        kind = request.kind
        if kind is OpKind.READ:
            return device.read(lpn, now).latency_us
        if kind is OpKind.DELTA:
            length = max(1, request.length)
            cursor = self._cursor.get(lpn, self.tail)
            offset = self.body + cursor
            if cursor + length <= self.tail and device.can_write_delta(lpn, offset, length):
                self._cursor[lpn] = cursor + length
                payload = bytes([request.seq % 251]) * length
                return device.write_delta(lpn, offset, payload, now).latency_us
            self.delta_fallbacks += 1
        self._cursor[lpn] = 0
        return device.write(lpn, self.page_image(lpn, request.seq), now).latency_us


@dataclass(frozen=True)
class DeviceWorkload:
    """A device-level load on one backend (no engine, no IPA manager)."""

    name: str
    backend: str
    logical_pages: int
    profile: str
    clients: int
    queue_depth: int
    requests: int
    arrival: str = "closed"
    rate_rps: float = 0.0
    shards: int = 4
    overprovisioning: float = 0.10

    def instance(self, seed: int) -> "DeviceInstance":
        return DeviceInstance(self, seed)


class DeviceInstance:
    """One build-run-check cycle of a device-level workload."""

    def __init__(self, spec: DeviceWorkload, seed: int) -> None:
        self.spec = spec
        self.seed = seed
        self.sim: dict[str, float] = {}

    def setup(self, tracer=None) -> None:
        spec = self.spec
        start = time.perf_counter()
        with _span(tracer, "session.open"):
            self.device = open_device(SessionConfig(
                backend=spec.backend, logical_pages=spec.logical_pages,
                shards=spec.shards, overprovisioning=spec.overprovisioning,
                seed=self.seed,
            ))
        self.shadow = DeviceShadow(self.device)
        self.driver = DeviceDriver(
            self.device, PROFILES[spec.profile].delta_area_bytes, spec.requests
        )
        opened = time.perf_counter()
        with _span(tracer, "session.prefill"):
            self.driver.prefill(spec.logical_pages)
            self.device.reset_stats()
        self.open_raw = opened - start
        self.prefill_raw = time.perf_counter() - opened

    def run(self, prepare=None) -> None:
        """Drive the load; ``prepare(scheduler)`` may wrap its hooks first."""
        spec, device, driver = self.spec, self.device, self.driver
        t0 = max(device.occupancy())
        flash0 = _flash_totals(device)
        queue = SubmissionQueue(spec.queue_depth, policy="block")
        gate = GroupCommitGate(force_latency_us=50.0, max_group=8)
        sessions = build_sessions(
            PROFILES[spec.profile], spec.clients, spec.logical_pages, self.seed
        )
        scheduler = HostScheduler(
            device, queue, driver.execute, gate=gate, on_complete=driver.complete
        )
        if prepare is not None:
            prepare(scheduler)
        if spec.arrival == "closed":
            driver.start_closed(scheduler, sessions, t0, self.seed)
        else:
            driver.start_open(scheduler, sessions, t0, spec.rate_rps, self.seed)
        end = scheduler.run()
        self.end_us = end
        makespan = end - t0
        ops = len(driver.samples)
        self.sim = {
            "ops": ops,
            "attempted": driver.generated,
            "failed": len(scheduler.rejected),
            "makespan_us": makespan,
            **_latency_metrics(driver.samples),
            **_device_counts(device, flash0, makespan, ops),
            **_queue_waits(scheduler.completed),
            "hostq.events_per_op": scheduler.stats.events / ops,
            "hostq.holb_bypasses_per_kop": queue.stats.holb_bypasses / (ops / 1000.0),
            "hostq.max_depth_used": queue.stats.max_depth_used,
            "hostq.delta_fallbacks": driver.delta_fallbacks,
        }

    def check(self) -> list[str]:
        """Read every page back and compare it with the shadow."""
        errors = []
        for lpn in range(self.spec.logical_pages):
            actual = self.device.read(lpn, self.end_us).data
            if actual != self.shadow.expected(lpn):
                errors.append(f"lpn {lpn}: read-back differs from the written data")
        return errors


# ----------------------------------------------------------------------
# Transaction-level workload
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TxnWorkload:
    """Whole engine transactions under ``TxnExecutor`` on one backend."""

    name: str
    backend: str
    logical_pages: int
    profile: str
    clients: int
    queue_depth: int
    txns: int
    scheme: NxMScheme
    buffer_fraction: float
    group_commit: int

    def instance(self, seed: int) -> "TxnInstance":
        return TxnInstance(self, seed)

    def config(self, seed: int) -> TxnLoadTestConfig:
        return TxnLoadTestConfig(
            backend=self.backend, clients=self.clients, queue_depth=self.queue_depth,
            seed=seed, txns=self.txns, profile=self.profile,
            logical_pages=self.logical_pages, scheme=self.scheme,
            buffer_fraction=self.buffer_fraction, group_commit=self.group_commit,
        )


class TxnInstance:
    """One build-run-check cycle of the transaction-level workload."""

    def __init__(self, spec: TxnWorkload, seed: int) -> None:
        self.spec = spec
        self.seed = seed
        self.sim: dict[str, float] = {}

    def setup(self, tracer=None) -> None:
        spec = self.spec
        self.clock = DeferredClock()
        start = time.perf_counter()
        with _span(tracer, "session.open"):
            session = open_session(SessionConfig(
                backend=spec.backend, logical_pages=spec.logical_pages,
                scheme=spec.scheme,
                buffer_pages=max(
                    spec.clients + 2, int(spec.logical_pages * spec.buffer_fraction)
                ),
                clock=self.clock, seed=self.seed,
                engine={"group_commit": spec.group_commit},
            ))
        self.device, self.engine = session.device, session.engine
        area = spec.scheme.area_size
        opened = time.perf_counter()
        with _span(tracer, "session.prefill"):
            for lpn in range(spec.logical_pages):
                page = SlottedPage.format(lpn, self.device.page_size, area)
                self.device.write(lpn, bytes(page.image), 0.0)
            self.device.reset_stats()
        self.open_raw = opened - start
        self.prefill_raw = time.perf_counter() - opened

    def run(self, prepare=None) -> None:
        """Drive the load; ``prepare(scheduler)`` may wrap its hooks first."""
        spec, device, engine = self.spec, self.device, self.engine
        t0 = max(device.occupancy())
        self.clock.sync_to(t0)
        flash0 = _flash_totals(device)
        queue = SubmissionQueue(spec.queue_depth, policy="block")
        gate = GroupCommitGate(max_group=spec.group_commit, log=engine.log)
        sessions = build_sessions(
            PROFILES[spec.profile], spec.clients, spec.logical_pages, self.seed
        )
        executor = TxnExecutor(engine, self.clock, queue, gate, sessions, spec.config(self.seed))
        scheduler = executor.scheduler
        if prepare is not None:
            prepare(scheduler)
        executor.start(t0)
        end = executor.run()
        self.executor = executor
        makespan = end - t0
        ops = executor.txns_committed
        ipa, pool, log = engine.ipa.stats, engine.pool.stats, engine.log
        flushes = ipa.ipa_flushes + ipa.oop_flushes
        self.sim = {
            "ops": ops,
            "attempted": executor.txns_started,
            "failed": executor.txns_retried,
            "makespan_us": makespan,
            **_latency_metrics(executor.samples),
            **_device_counts(device, flash0, makespan, ops),
            **_queue_waits(scheduler.completed),
            "core.ipa_flush_frac": ipa.ipa_flushes / flushes if flushes else 0.0,
            "core.budget_overflows": ipa.budget_overflows,
            "core.device_fallbacks": ipa.device_fallbacks,
            "storage.buffer_hit_ratio": pool.hit_ratio,
            "storage.evictions_per_txn": pool.evictions / ops,
            "storage.commits_per_force": gate.stats.commits_per_force,
            "storage.log_bytes_per_txn": log.bytes_written / ops,
            "hostq.events_per_op": scheduler.stats.events / ops,
            "hostq.holb_bypasses_per_kop": queue.stats.holb_bypasses / (ops / 1000.0),
            "hostq.max_depth_used": queue.stats.max_depth_used,
            "hostq.conflict_waits_per_ktxn": executor.conflict_waits / (ops / 1000.0),
        }

    def check(self) -> list[str]:
        """Transaction accounting, pin leaks, and every page decoding."""
        errors = []
        executor, engine = self.executor, self.engine
        started = executor.txns_started
        settled = executor.txns_committed + executor.txns_aborted
        if started != settled:
            errors.append(f"{started} transactions started but {settled} settled")
        try:
            engine.pool.assert_no_pins()
            engine.flush_all()
        except ReproError as exc:
            return errors + [str(exc)]
        area = self.spec.scheme.area_size
        for lpn in range(self.spec.logical_pages):
            try:
                image, __, __ = engine.ipa.load(lpn)
                page = SlottedPage(image)
            except ReproError as exc:
                errors.append(f"lpn {lpn}: {exc}")
                continue
            if page.page_id != lpn or page.delta_area_size != area:
                errors.append(
                    f"lpn {lpn}: decodes as page {page.page_id} "
                    f"with a {page.delta_area_size}-byte delta area"
                )
        return errors


#: The benchmark's workloads, by name (sizes and the reasons for them
#: are in README.md).
WORKLOADS = {
    "txn_tpcc": TxnWorkload(
        name="txn_tpcc", backend="noftl", logical_pages=2048, profile="tpcc",
        clients=4, queue_depth=8, txns=4000, scheme=NxMScheme(2, 48),
        buffer_fraction=0.1, group_commit=8,
    ),
    "device_mixed": DeviceWorkload(
        name="device_mixed", backend="sharded", shards=4, logical_pages=16384,
        profile="tpcc", clients=32, queue_depth=32, requests=40000,
    ),
    "device_readmostly": DeviceWorkload(
        name="device_readmostly", backend="noftl", logical_pages=4096,
        profile="tatp", clients=8, queue_depth=8, requests=80000,
        arrival="open", rate_rps=40_000.0, overprovisioning=0.4,
    ),
}
