"""The benchmark's four workloads.

Each workload is a closed batch: one simulation runs to completion.
A :class:`Trial` is one such simulation.  Building it (``__init__``)
generates the inputs from the seed and builds the testbed; that is the
set-up the benchmark's ``setup_s`` times.  :meth:`Trial.simulate` is
the part ``wall_s`` times.  :meth:`Trial.check` raises
:class:`CheckFailed` when the simulated cloud produced a wrong result,
so no figures are reported from a wrong program.

The seed feeds the ``OsImage`` boot-trace seed of every workload and,
for ``elastic-ctl``, the demand seed.  ``PARAMS`` holds the sizes the
benchmark runs; ``TINY`` holds the sizes the smoke tests run.
"""

from __future__ import annotations

from statistics import median

from repro.apps.fio import FioBenchmark
from repro.cloud import Cluster, build_testbed
from repro.cloud.scaleout import WaveScheduler
from repro.ctl import (DEMANDS, PLACEMENTS, POLICIES, ElasticController,
                       NodePool, lifecycle)
from repro.guest.osimage import OsImage
from repro.vmm.moderation import FULL_SPEED, interval_sweep_policy

MB = 2**20

#: Benchmark sizes, one dict per workload.  The record carries these.
PARAMS = {
    "deploy-p2p": {"nodes": 64, "image_mb": 16, "boot_read_kb": 4096,
                   "boot_think_s": 1.0},
    "fleet-fluid": {"nodes": 64, "wave_size": 8, "replicas": 16,
                    "image_mb": 1024, "boot_read_kb": 128,
                    "boot_think_s": 0.25, "stagger_s": 1.0,
                    "coalesce_blocks": 32, "poll_interval_s": 0.1,
                    "initial_rto_s": 2.0},
    "guest-io-moderated": {"image_mb": 4096, "boot_read_kb": 8192,
                           "boot_think_s": 3.0, "write_interval_s": 1e-3,
                           "fio_mb": 256},
    "elastic-ctl": {"nodes": 10, "image_mb": 32, "boot_read_kb": 8192,
                    "boot_think_s": 3.0, "demand_s": 4 * 3600.0,
                    "drain_s": 1800.0},
}

#: Smoke-test sizes: same code paths, a fraction of the events.
TINY = {
    "deploy-p2p": {**PARAMS["deploy-p2p"], "nodes": 4},
    "fleet-fluid": {**PARAMS["fleet-fluid"], "nodes": 8, "wave_size": 4,
                    "replicas": 4, "image_mb": 64},
    "guest-io-moderated": {**PARAMS["guest-io-moderated"],
                           "image_mb": 512, "fio_mb": 16},
    "elastic-ctl": {**PARAMS["elastic-ctl"], "nodes": 6,
                    "demand_s": 1800.0, "drain_s": 1200.0},
}


class CheckFailed(AssertionError):
    """The simulation's output is wrong; no figure may be reported."""


def tail(values) -> dict | None:
    """The highest percentile with at least ten samples beyond it.

    Returns ``{"value", "percentile", "samples"}``, or ``None`` when
    there are too few samples for any percentile to qualify.
    """
    ordered = sorted(values)
    count = len(ordered)
    if count <= 10:
        return None
    return {"value": ordered[count - 11],
            "percentile": round(100.0 * (count - 10) / count, 2),
            "samples": count}


class Trial:
    """One simulation of one workload at one seed."""

    name = ""

    def __init__(self, seed: int, params: dict):
        self.seed = seed
        self.params = params
        self.testbed = None
        #: Every deployment's Instance: in node order for one deployment
        #: per node, in deployment order for ``elastic-ctl``.
        self.instances: list = []
        self.controller = None

    @property
    def env(self):
        return self.testbed.env

    def simulate(self) -> None:
        env = self.env
        env.run(until=env.process(self.scenario(), name="bench"))

    def scenario(self):
        raise NotImplementedError

    # -- outputs ----------------------------------------------------------

    def live(self) -> list:
        """(node index, instance) pairs that must end fully deployed."""
        return list(enumerate(self.instances))

    def check(self) -> None:
        """Every live instance is bare metal and holds the image."""
        image = self.testbed.image
        live = self.live()
        if not live:
            raise CheckFailed("no instance was deployed")
        for index, instance in live:
            phase = instance.platform.phase
            if phase != "baremetal":
                raise CheckFailed(
                    f"node{index} ended in phase {phase!r}, not baremetal")
            disk = self.testbed.nodes[index].disk
            if not image.verify_deployed(disk.contents,
                                         instance.guest.written):
                raise CheckFailed(
                    f"node{index}: local disk does not hold the image")

    def ready_times(self) -> list[float]:
        return [instance.timeline.total for instance in self.instances]

    def sim_metrics(self) -> dict:
        """Simulated-time results; identical on every run of a seed."""
        ready = self.ready_times()
        metrics = {"ready_p50_s": median(ready)}
        ready_tail = tail(ready)
        if ready_tail is not None:
            metrics["ready_tail_s"] = ready_tail
        return metrics

    def complete_s(self) -> float:
        """First power-on until the last image is fully local."""
        first = min(instance.timeline.power_on
                    for instance in self.instances)
        last = max(instance.platform.copier.finished_at
                   for instance in self.instances)
        return last - first

    def operations(self) -> tuple[int, int]:
        """(attempted, failed) operations of this simulation."""
        vmms = [instance.platform for instance in self.instances]
        fetch_errors = sum(vmm.copier.fetch_errors for vmm in vmms)
        commands = sum(vmm.initiator.reads_completed
                       + vmm.initiator.writes_completed for vmm in vmms)
        return (len(vmms) + commands + fetch_errors, fetch_errors)


def _image(seed: int, params: dict) -> OsImage:
    return OsImage(size_bytes=params["image_mb"] * MB,
                   boot_read_bytes=params["boot_read_kb"] * 1024,
                   boot_think_seconds=params["boot_think_s"], seed=seed)


class DeployP2p(Trial):
    """All nodes power on together; p2p keeps the packet path on."""

    name = "deploy-p2p"

    def __init__(self, seed: int, params: dict):
        super().__init__(seed, params)
        self.testbed = build_testbed(node_count=params["nodes"], p2p=True,
                                     image=_image(seed, params))
        self.cluster = Cluster(self.testbed)

    def scenario(self):
        self.instances = yield from self.cluster.deploy_all(
            "bmcast", policy=FULL_SPEED)
        yield from self.cluster.wait_deployment_complete(
            settle_seconds=1.0)

    def sim_metrics(self) -> dict:
        return {**super().sim_metrics(), "complete_s": self.complete_s()}


class FleetFluid(Trial):
    """Scale-out in waves with every transfer on the fluid fast path.

    The knobs are those of ``benchmarks/bench_fleet.py``; its docstring
    explains why each keeps the fleet in steady state.
    """

    name = "fleet-fluid"

    def __init__(self, seed: int, params: dict):
        super().__init__(seed, params)
        self.testbed = build_testbed(
            node_count=params["nodes"], server_count=params["replicas"],
            select_policy="least-outstanding", server_cache_hit_ratio=1.0,
            image=_image(seed, params))
        self.cluster = Cluster(self.testbed)
        self.scheduler = WaveScheduler(
            self.cluster, wave_size=params["wave_size"],
            seed_fill_fraction=1.0, stagger_seconds=params["stagger_s"])

    def scenario(self):
        params = self.params
        yield from self.scheduler.run(
            "bmcast", policy=FULL_SPEED, fluid=True,
            coalesce_blocks=params["coalesce_blocks"],
            poll_interval=params["poll_interval_s"],
            initial_rto=params["initial_rto_s"])
        self.instances = list(self.cluster.instances)
        yield from self.cluster.wait_deployment_complete(
            settle_seconds=1.0)

    def check(self) -> None:
        super().check()
        for instance in self.instances:
            state = instance.platform.fluid.describe()
            if state != "active":
                raise CheckFailed(
                    f"{instance!r}: fluid {state!r}, not active; the "
                    "workload would measure packet mode")
            retransmissions = instance.platform.initiator.retransmissions
            if retransmissions:
                raise CheckFailed(
                    f"{instance!r}: {retransmissions} retransmissions")

    def sim_metrics(self) -> dict:
        return {**super().sim_metrics(), "complete_s": self.complete_s()}


class _RecordingInstance:
    """An Instance facade that keeps what every read returned."""

    def __init__(self, instance):
        self.instance = instance
        self.reads: list = []

    @property
    def env(self):
        return self.instance.env

    def read(self, lba: int, sector_count: int):
        runs = yield from self.instance.read(lba, sector_count)
        self.reads.append((lba, sector_count, runs))
        return runs

    def write(self, lba: int, sector_count: int, tag: str = "app"):
        return (yield from self.instance.write(lba, sector_count, tag))


class GuestIoModerated(Trial):
    """fio runs in the guest while the moderated copy streams behind it."""

    name = "guest-io-moderated"

    def __init__(self, seed: int, params: dict):
        super().__init__(seed, params)
        self.testbed = build_testbed(image=_image(seed, params))
        self.cluster = Cluster(self.testbed)
        self.policy = interval_sweep_policy(params["write_interval_s"])
        self.fio = None
        self.read_bw = self.write_bw = 0.0

    def scenario(self):
        [instance] = yield from self.cluster.deploy_all(
            "bmcast", policy=self.policy)
        self.instances = [instance]
        # The test file sits mid-image, ahead of the copier's cursor.
        self.fio = FioBenchmark(_RecordingInstance(instance),
                                file_lba=self.testbed.image.total_sectors
                                // 2)
        self.fio.TOTAL_BYTES = self.params["fio_mb"] * MB
        yield from self.fio.layout()
        self.write_bw = yield from self.fio.write_throughput()
        self.read_bw = yield from self.fio.read_throughput()
        yield from self.cluster.wait_deployment_complete(
            settle_seconds=1.0)

    def check(self) -> None:
        super().check()
        reads = self.fio.instance.reads
        expected = self.fio.TOTAL_BYTES // self.fio.BLOCK_BYTES
        if len(reads) != expected:
            raise CheckFailed(f"fio read {len(reads)} blocks, "
                              f"expected {expected}")
        # Write i of the sequential phase carries the guest's write
        # counter first + i, so each block must hold exactly its own.
        guest = self.instances[0].guest.name
        head = reads[0][2][0][2] if reads[0][2] else None
        if not (isinstance(head, tuple) and head[:2] == (guest, "fio-write")):
            raise CheckFailed(f"fio's first read returned {head!r}, not "
                              "the data fio wrote")
        for index, (lba, sector_count, runs) in enumerate(reads):
            wrote = (guest, "fio-write", head[2] + index)
            covered = lba
            for start, end, token in runs:
                if start != covered or token != wrote:
                    raise CheckFailed(
                        f"fio read at LBA {lba} returned {token!r} at "
                        f"{start}, not the data fio wrote")
                covered = end
            if covered != lba + sector_count:
                raise CheckFailed(f"fio read at LBA {lba} came back short")

    def sim_metrics(self) -> dict:
        return {**super().sim_metrics(), "complete_s": self.complete_s(),
                "guest_write_mb_s": self.write_bw / MB,
                "guest_read_mb_s": self.read_bw / MB}


class _BenchDemand:
    """A demand model cut to a window, with every hold at its mean.

    Arrivals stop at ``until`` seconds; the control loop runs on past
    the window so the batch ends with every admitted request served.
    Exponential holds make the autoscaler's fleet, and with it the
    work simulated, differ by about 10% from seed to seed, which would
    hide a host-time change; with holds fixed at the model's mean the
    seed still places every arrival and the work varies by about 1%.
    """

    def __init__(self, inner, until: float):
        self.inner = inner
        self.until = until

    def arrivals(self, start: float, end: float) -> list:
        if start >= self.until:
            return []
        requests = self.inner.arrivals(start, min(end, self.until))
        for request in requests:
            request.hold = self.inner.mean_hold
        return requests


class _RecordingPool(NodePool):
    """A NodePool that keeps every deployment's Instance."""

    def __init__(self, testbed, **options):
        super().__init__(testbed, **options)
        self.deployed: list = []

    def deploy(self, index: int, **options):
        instance = yield from super().deploy(index, **options)
        self.deployed.append(instance)
        return instance


#: Lifecycle states a node passes through on its way somewhere else.
_TRANSIENT = (lifecycle.NETBOOTING, lifecycle.DEPLOYING,
              lifecycle.DRAINING, lifecycle.SCRUBBING)


class ElasticCtl(Trial):
    """The reactive autoscaler over diurnal demand, reclaiming warm."""

    name = "elastic-ctl"

    def __init__(self, seed: int, params: dict):
        super().__init__(seed, params)
        self.testbed = build_testbed(node_count=params["nodes"], p2p=True,
                                     image=_image(seed, params))
        self.pool = _RecordingPool(self.testbed, vmxoff_mode="resident")
        demand = _BenchDemand(DEMANDS["diurnal"](seed=seed),
                              params["demand_s"])
        self.controller = ElasticController(
            self.pool, demand, POLICIES["reactive"](),
            PLACEMENTS["cache-aware"]())
        self.report: dict = {}
        self.wasted_node_s = 0.0

    def scenario(self):
        params = self.params
        yield from self.controller.run(params["demand_s"]
                                       + params["drain_s"])
        self.report = self.controller.report()
        self.wasted_node_s = self.pool.wasted_node_seconds()
        # Let in-flight deploys and reclaims land, then let every ready
        # node finish its copy, so the end state can be verified.  A
        # node still unsettled after params["drain_s"] more fails check().
        env = self.env
        give_up = env.now + params["drain_s"]
        while env.now < give_up and any(
                record.state in _TRANSIENT
                or (record.state == lifecycle.READY
                    and record.vmm.phase != "baremetal")
                for record in self.pool.nodes):
            yield env.timeout(1.0)
        self.instances = list(self.pool.deployed)

    def live(self) -> list:
        return [(record.index, record.instance)
                for record in self.pool.nodes
                if record.state == lifecycle.READY]

    def check(self) -> None:
        super().check()
        report = self.report
        accounted = (report["served"] + report["abandoned"]
                     + report["queued_at_end"])
        if accounted != report["requests"]:
            raise CheckFailed(
                f"{report['requests']} requests admitted but "
                f"{accounted} served, abandoned or queued")
        stuck = self.pool.in_state(lifecycle.FAILED, *_TRANSIENT)
        if stuck:
            raise CheckFailed("nodes failed or never settled: "
                              f"{[(r.index, r.state) for r in stuck]}")

    def ready_times(self) -> list[float]:
        return list(self.pool.time_to_ready)

    def sim_metrics(self) -> dict:
        served = [request for request in self.controller.requests
                  if request.ready is not None]
        ttrs = [request.time_to_ready for request in served]
        metrics = {**super().sim_metrics(),
                   "slo_attainment": self.report["slo_attainment"],
                   "ttr_p50_s": median(ttrs),
                   "wasted_node_s": self.wasted_node_s}
        ttr_tail = tail(ttrs)
        if ttr_tail is not None:
            metrics["ttr_tail_s"] = ttr_tail
        return metrics

    def operations(self) -> tuple[int, int]:
        attempted, failed = super().operations()
        report = self.report
        unserved = report["requests"] - report["served"]
        return attempted + report["requests"], failed + unserved


WORKLOADS = {trial.name: trial
             for trial in (DeployP2p, FleetFluid, GuestIoModerated,
                           ElasticCtl)}
