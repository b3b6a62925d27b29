"""Per-layer attribution, measured from outside the simulator.

Two sources, both read by the benchmark without touching the program:

* :func:`profile_layers` runs one simulation under ``cProfile`` and
  sums self time by ``repro/<package>/`` (``net/flow.py`` is its own
  layer, ``flow``).  Time in code outside ``repro`` (the interpreter's
  built-ins, ``heapq``, ``bisect``) is charged to the ``repro`` layer
  that called it, edge by edge, so ``other`` holds only what no layer
  called.  It also reads the call counts of a few named public
  functions.
* :func:`layer_counts` reads exact counters from the public attributes
  of the simulated components after a run.  They repeat exactly for a
  fixed seed.
"""

from __future__ import annotations

import cProfile
import importlib
import pstats
import re
import time
from statistics import median

from workloads import MB, tail

LAYERS = ("sim", "hw", "guest", "storage", "vmm", "net", "flow", "aoe",
          "dist", "util", "cloud", "ctl", "obs", "apps", "other")

#: Metric name -> public functions whose profiled call counts it sums.
#: A generator function counts one call per resumption.
CALL_COUNTS = {
    "util.IntervalMap.total_covered.calls":
        ("repro.util.intervalmap:IntervalMap.total_covered",),
    "vmm.BlockBitmap.state.calls": ("repro.vmm.bitmap:BlockBitmap.state",),
    "vmm.BlockBitmap.filled_count.calls":
        ("repro.vmm.bitmap:BlockBitmap.filled_count",),
    "storage.Disk.execute.calls": ("repro.storage.disk:Disk.execute",),
    "hw.IoBus.calls": tuple(
        f"repro.hw.iobus:IoBus.{method}" for method in
        ("pio_read", "pio_write", "mmio_read", "mmio_write")),
    "flow.FlowNetwork.transfer.calls":
        ("repro.net.flow:FlowNetwork.transfer",),
}

_REPRO_FILE = re.compile(r"[/\\]repro[/\\](\w+)[/\\](\w+)\.py$")


def layer_of(filename: str) -> str | None:
    """The layer a source file belongs to; None outside ``repro``."""
    match = _REPRO_FILE.search(filename)
    if match is None:
        return None
    package, module = match.groups()
    if package == "net" and module == "flow":
        return "flow"
    return package if package in LAYERS else "other"


def _code_key(path: str):
    """``module:Class.attr`` -> the profiler's key for that function,
    or None when the program no longer has it."""
    module_name, _, attribute_path = path.partition(":")
    target = importlib.import_module(module_name)
    for part in attribute_path.split("."):
        target = getattr(target, part, None)
        if target is None:
            return None
    target = getattr(target, "fget", target)    # properties
    code = getattr(target, "__code__", None)
    if code is None:
        return None
    return (code.co_filename, code.co_firstlineno, code.co_name)


def attribute(stats: dict) -> dict:
    """Layer -> self seconds, from a ``pstats.Stats.stats`` table."""
    self_s = dict.fromkeys(LAYERS, 0.0)
    for (filename, _, _), (_, _, own, _, callers) in stats.items():
        layer = layer_of(filename)
        if layer is not None:
            self_s[layer] += own
            continue
        charged = 0.0
        for (caller_file, _, _), edge in callers.items():
            caller_layer = layer_of(caller_file)
            if caller_layer is not None:
                self_s[caller_layer] += edge[2]
                charged += edge[2]
        self_s["other"] += max(0.0, own - charged)
    return self_s


def profile_layers(trial) -> tuple[dict, float]:
    """Simulate ``trial`` under the profiler.

    Returns the per-layer metrics and the traced wall seconds.
    """
    profiler = cProfile.Profile()
    started = time.perf_counter()
    profiler.enable()
    trial.simulate()
    profiler.disable()
    wall = time.perf_counter() - started
    stats = pstats.Stats(profiler).stats
    self_s = attribute(stats)
    total = sum(self_s.values())
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_s[layer]
        metrics[f"{layer}.share"] = self_s[layer] / total
    for name, paths in CALL_COUNTS.items():
        keys = [_code_key(path) for path in paths]
        metrics[name] = sum(stats[key][1] for key in keys if key in stats)
    return metrics, wall


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_counts(trial, wall_s: float) -> dict:
    """Exact per-layer counters of a finished, untraced simulation."""
    testbed = trial.testbed
    env = trial.env
    nodes = testbed.nodes
    vmms = [instance.platform for instance in trial.instances]
    switch = testbed.switch
    flows = switch.flow_network
    nics = [nic for node in nodes
            for nic in (node.guest_nic, node.vmm_nic, node.peer_nic)
            if nic is not None]
    nics += [server.nic for server in testbed.servers]
    routers = [vmm.router for vmm in vmms if vmm.router is not None]
    peers = [vmm.peer_service for vmm in vmms
             if vmm.peer_service is not None]
    copiers = [vmm.copier for vmm in vmms]
    finished = [copier for copier in copiers
                if copier.finished_at is not None]
    copied = sum(copier.bytes_written for copier in finished)
    copy_seconds = sum(copier.finished_at - copier.started_at
                       for copier in finished)
    aoe_commands = sum(vmm.initiator.reads_completed
                       + vmm.initiator.writes_completed for vmm in vmms)
    retransmissions = sum(vmm.initiator.retransmissions for vmm in vmms)
    peer_hits = sum(router.peer_hits for router in routers)
    peer_misses = sum(router.peer_misses for router in routers)
    counts = {
        "sim.events": env.events_processed,
        "sim.processes": env.processes_spawned,
        "sim.us_per_event": 1e6 * wall_s / env.events_processed,
        "hw.vm_exits": sum(node.machine.total_vm_exits()
                           for node in nodes),
        "hw.exit_s": sum(cpu.exit_seconds for node in nodes
                         for cpu in node.machine.cpus),
        "hw.intercepted_accesses": sum(node.machine.bus.intercepted_accesses
                                       for node in nodes),
        "hw.direct_accesses": sum(node.machine.bus.direct_accesses
                                  for node in nodes),
        "storage.requests": sum(node.disk.requests_served
                                for node in nodes),
        "storage.busy_s": sum(node.disk.busy_seconds for node in nodes),
        "storage.seek_s": sum(node.disk.seek_seconds for node in nodes),
        "storage.ahci_commands": sum(node.controller.commands_executed
                                     for node in nodes),
        "vmm.blocks_filled": sum(copier.blocks_filled
                                 for copier in copiers),
        "vmm.copy_mb_s": _ratio(copied / MB, copy_seconds),
        "vmm.redirected_reads": sum(vmm.mediator.redirected_reads
                                    for vmm in vmms),
        "vmm.multiplexed_requests": sum(vmm.mediator.multiplexed_requests
                                        for vmm in vmms),
        "vmm.queued_guest_commands": sum(
            vmm.mediator.queued_guest_commands for vmm in vmms),
        "vmm.suspensions": sum(copier.suspensions for copier in copiers),
        "vmm.copier_skips": sum(vmm.bitmap.copier_skips for vmm in vmms),
        "vmm.double_claims": sum(vmm.bitmap.double_claims for vmm in vmms),
        "vmm.fetch_errors": sum(copier.fetch_errors for copier in copiers),
        "net.frames": switch.frames_forwarded,
        "net.mb": switch.bytes_forwarded / MB,
        "net.dropped": switch.loss.dropped
        + sum(nic.rx_dropped for nic in nics),
        "net.fluid_byte_share": _ratio(flows.bytes_transferred,
                                       switch.bytes_forwarded),
        "flow.flows": flows.flows_started,
        "flow.resolves": flows.resolves,
        "flow.resolves_per_flow": _ratio(flows.resolves,
                                         flows.flows_started),
        "aoe.commands": aoe_commands,
        "aoe.retransmissions": retransmissions,
        "aoe.retx_ratio": _ratio(retransmissions, aoe_commands),
        "aoe.server_commands": sum(server.commands_served
                                   for server in testbed.servers),
        "dist.peer_hits": peer_hits,
        "dist.peer_misses": peer_misses,
        "dist.peer_hit_ratio": _ratio(peer_hits, peer_hits + peer_misses),
        "dist.naks": sum(peer.naks_sent for peer in peers),
        "dist.invalidations": testbed.fabric.directory.invalidations,
    }
    counts.update(_ctl_counts(trial))
    return counts


def _ctl_counts(trial) -> dict:
    controller = trial.controller
    if controller is None:
        return {"ctl.decisions": 0, "ctl.scale_ups": 0, "ctl.reclaims": 0,
                "ctl.reclaim_tail_s": 0.0, "ctl.fluid_deploys": 0}
    pool = controller.pool
    latencies = pool.reclaim_latencies
    reclaim_tail = tail(latencies)
    return {
        "ctl.decisions": len(controller.decisions),
        "ctl.scale_ups": controller.scale_ups,
        "ctl.reclaims": sum(record.reclaims for record in pool.nodes),
        # Too few reclaims for a tail percentile: the median stands in.
        "ctl.reclaim_tail_s": reclaim_tail["value"] if reclaim_tail
        else (median(latencies) if latencies else 0.0),
        "ctl.fluid_deploys": pool.fluid_deploys,
    }
