"""Replay-divergence checker.

A correct simulation is a pure function of its inputs: running the
same scenario twice must produce the *identical* event stream.  The
checker attaches a :class:`ReplayRecorder` to each run's environment
(via ``Environment.trace_hook``), folds every popped event into a
rolling BLAKE2 hash of ``(time, event type, process name)``, and
compares digests across runs.  Any wall-clock read, unseeded RNG
draw, or iteration over an unordered container with nondeterministic
order shows up as a digest mismatch — with the event count narrowing
down where the streams parted.

The event digest changes whenever an event is added or dropped, even
when nothing simulated changed.  The *outcome digest*
(:func:`outcome_digest`) hashes only what the simulated cloud did —
disk contents, bitmaps, phase logs, ready/complete/de-virtualization
times and the public counters — so a change that only removes empty
events (poll elision) must keep it byte for byte.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass


class ReplayRecorder:
    """Rolling hash over one environment's popped-event stream."""

    def __init__(self):
        self._hash = hashlib.blake2b(digest_size=16)
        self.events = 0
        #: :func:`outcome_digest` of the run, once the scenario records it.
        self.outcome: str | None = None

    def attach(self, env) -> "ReplayRecorder":
        if env.trace_hook is not None:
            raise RuntimeError("environment already has a trace hook")
        env.trace_hook = self._on_event
        return self

    def _on_event(self, now: float, event) -> None:
        self.events += 1
        name = getattr(event, "name", None) or ""
        record = f"{now!r}|{type(event).__name__}|{name}\n"
        self._hash.update(record.encode("utf-8"))

    def digest(self) -> str:
        return self._hash.hexdigest()

    def record_outcome(self, testbed, controller=None) -> str:
        """Hash what ``testbed``'s finished run did (see
        :func:`outcome_digest`) and keep it as :attr:`outcome`."""
        self.outcome = outcome_digest(testbed, controller)
        return self.outcome


def outcome_digest(testbed, controller=None) -> str:
    """BLAKE2 digest of what the simulated cloud did.

    Per node: the disk contents, the bus/CPU/disk counters and, for the
    node's latest instance, its ready time and — for a BMcast VMM — the
    bitmap snapshot, the phase log, the copy-complete and
    de-virtualization times and the VMM's public counters.  Then the
    fabric-wide network, flow, server and directory counters, and, when
    an elastic ``controller`` is given, its requests, decisions and
    reclaim latencies.  Event and process counts are left out on
    purpose: they measure the simulator, not the cloud.
    """
    records: list = []
    for node in testbed.nodes:
        machine = node.machine
        records.append((
            machine.name, node.disk.content_digest(),
            machine.total_vm_exits(),
            [cpu.exit_seconds for cpu in machine.cpus],
            machine.bus.intercepted_accesses, machine.bus.direct_accesses,
            node.disk.requests_served, node.disk.busy_seconds,
            node.disk.seek_seconds, node.controller.commands_executed))
        instance = node.instance
        if instance is not None:
            records.append((instance.method, instance.timeline.power_on,
                            instance.timeline.ready))
            if hasattr(instance.platform, "copier"):
                records.append(_vmm_outcome(instance.platform))
    switch = testbed.switch
    flows = switch.flow_network
    nics = [nic for node in testbed.nodes
            for nic in (node.guest_nic, node.vmm_nic, node.peer_nic)
            if nic is not None]
    nics += [server.nic for server in testbed.servers]
    records.append((
        switch.frames_forwarded, switch.bytes_forwarded,
        switch.loss.dropped, [nic.rx_dropped for nic in nics],
        flows.flows_started, flows.resolves, flows.bytes_transferred,
        [server.commands_served for server in testbed.servers],
        testbed.fabric.directory.invalidations
        if testbed.fabric is not None else None))
    if controller is not None:
        pool = controller.pool
        records.append((controller.requests, controller.decisions,
                        controller.scale_ups, controller.scale_downs,
                        [record.reclaims for record in pool.nodes],
                        pool.reclaim_latencies, pool.fluid_deploys))
    data = repr(records).encode("utf-8")
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def _vmm_outcome(vmm) -> tuple:
    copier = vmm.copier
    mediator = vmm.mediator
    initiator = vmm.initiator
    router = vmm.router
    peer = vmm.peer_service
    return (
        vmm.phase_log, vmm.bitmap.snapshot(),
        vmm.devirtualizer.completed_at,
        copier.started_at, copier.finished_at, copier.blocks_filled,
        copier.bytes_written, copier.writeback_bytes, copier.suspensions,
        copier.fetch_errors, mediator.interpreted_commands,
        mediator.redirected_reads, mediator.multiplexed_requests,
        mediator.queued_guest_commands, mediator.dummy_completions,
        vmm.bitmap.copier_skips, vmm.bitmap.double_claims,
        initiator.reads_completed, initiator.writes_completed,
        initiator.retransmissions,
        (router.peer_hits, router.peer_misses)
        if router is not None else None,
        peer.naks_sent if peer is not None else None)


@dataclass(frozen=True)
class ReplayReport:
    """Digests and event counts from ``runs`` executions.

    ``outcomes`` holds each run's outcome digest, or ``None`` for a
    run whose scenario recorded none.
    """

    digests: tuple
    event_counts: tuple
    outcomes: tuple = ()

    @property
    def divergent(self) -> bool:
        return len(set(self.digests)) > 1 or len(set(self.outcomes)) > 1

    def describe(self) -> str:
        if not self.divergent:
            return (f"replay: {len(self.digests)} runs identical "
                    f"({self.event_counts[0]} events, "
                    f"digest {self.digests[0][:16]}"
                    f"{_outcome_note(self.outcomes[:1])})")
        lines = ["replay: DIVERGENT runs"]
        lines.extend(
            f"  run {index}: {count} events, digest {digest[:16]}"
            f"{_outcome_note(self.outcomes[index:index + 1])}"
            for index, (digest, count)
            in enumerate(zip(self.digests, self.event_counts)))
        return "\n".join(lines)


def _outcome_note(outcomes: tuple) -> str:
    if not outcomes or outcomes[0] is None:
        return ""
    return f", outcome {outcomes[0][:16]}"


def check_replay(scenario, runs: int = 2) -> ReplayReport:
    """Run ``scenario(recorder)`` ``runs`` times and compare streams.

    ``scenario`` must build a **fresh** environment each call, attach
    the recorder to it (``recorder.attach(env)``) before running, and
    share no mutable state across calls — shared state is exactly the
    bug class this checker exists to expose.
    """
    if runs < 2:
        raise ValueError("a replay check needs at least 2 runs")
    recorders = []
    for _ in range(runs):
        recorder = ReplayRecorder()
        scenario(recorder)
        recorders.append(recorder)
    return ReplayReport(
        tuple(recorder.digest() for recorder in recorders),
        tuple(recorder.events for recorder in recorders),
        tuple(recorder.outcome for recorder in recorders))


def deployment_scenario(image_factory, node_count: int = 1,
                        server_count: int = 1, p2p: bool = False,
                        select_policy: str = "round-robin",
                        loss_probability: float = 0.0,
                        wave_size: int | None = None,
                        policy=None, wait: bool = True,
                        telemetry_factory=None,
                        fast_lane: bool = True,
                        deploy_options: dict | None = None):
    """A canned scenario callable for :func:`check_replay`.

    ``image_factory`` is a zero-argument callable returning a fresh
    :class:`~repro.guest.osimage.OsImage` — each run needs its own
    (images carry mutable content maps).  ``wave_size`` switches from
    a flat ``deploy_all`` to the wave scheduler.  ``telemetry_factory``
    (a callable ``env -> telemetry``) arms telemetry for each run —
    comparing digests of a plain scenario against one with forensics
    enabled is how the observability layer proves it does not perturb
    the timeline.  ``fast_lane=False`` runs on the pure-heap reference
    scheduler — comparing digests of a fast-lane run against a
    reference run is how the kernel fast path proves it reorders
    nothing (see ``docs/performance.md``).  ``deploy_options`` are
    forwarded to every deployment — e.g. ``{"fluid": True}``; the
    fluid-off-is-byte-identical tests compare a ``fluid=False`` run
    against one with no option at all.
    """
    from repro.cloud import Cluster, WaveScheduler, build_testbed
    from repro.obs.telemetry import NULL_TELEMETRY
    from repro.sim import Environment

    def scenario(recorder: ReplayRecorder) -> None:
        env = Environment(fast_lane=fast_lane)
        telemetry = NULL_TELEMETRY if telemetry_factory is None \
            else telemetry_factory(env)
        testbed = build_testbed(node_count=node_count,
                                server_count=server_count, p2p=p2p,
                                select_policy=select_policy,
                                loss_probability=loss_probability,
                                image=image_factory(),
                                env=env, telemetry=telemetry)
        recorder.attach(testbed.env)
        cluster = Cluster(testbed)

        def run():
            extra = deploy_options or {}
            if wave_size is not None:
                scheduler = WaveScheduler(cluster, wave_size=wave_size)
                yield from scheduler.run("bmcast", policy=policy,
                                         **extra)
            else:
                yield from cluster.deploy_all("bmcast", policy=policy,
                                              **extra)
            if wait:
                yield from cluster.wait_deployment_complete(
                    settle_seconds=1.0)

        testbed.env.run(until=testbed.env.process(run()))
        recorder.record_outcome(testbed)

    return scenario
