"""Tests for repro.ctl: FSM, demand models, policies, placement,
the controller loop, and the ``ctl`` CLI subcommand."""

import re

import pytest

from repro.aoe.client import AoeInitiator
from repro.cli import main
from repro.cloud import build_testbed
from repro.ctl import (
    DEPLOYING,
    FREE,
    NETBOOTING,
    READY,
    STATES,
    TRANSITIONS,
    CacheAwarePlacement,
    ElasticController,
    FlashCrowdDemand,
    LifecycleError,
    NodePool,
    NodeRecord,
    Observation,
    ReactivePolicy,
    RoundRobinPlacement,
    StepDemand,
    TraceDemand,
    dump_trace,
    image_block_set,
    load_trace,
)
from repro.ctl.policy import HeadroomPolicy, PredictivePolicy
from repro.guest.osimage import OsImage
from repro.sim import Environment

MB = 2**20


def small_image(mb=32):
    return OsImage(size_bytes=mb * MB, boot_read_bytes=2 * MB,
                   boot_think_seconds=0.5)


def make_pool(node_count=2, p2p=True, **kwargs):
    testbed = build_testbed(node_count=node_count, server_count=1,
                            p2p=p2p, image=small_image())
    return testbed, NodePool(testbed, vmxoff_mode="resident", **kwargs)


# -- lifecycle FSM -------------------------------------------------------------

def test_transitions_table_is_closed_over_states():
    assert set(TRANSITIONS) == set(STATES)
    for targets in TRANSITIONS.values():
        assert set(targets) <= set(STATES)


def test_illegal_transition_raises_and_legal_one_is_stamped():
    record = NodeRecord(index=0)
    with pytest.raises(LifecycleError):
        record.transition(1.0, DEPLOYING)  # free -> deploying skips netboot
    record.transition(2.0, NETBOOTING)
    assert record.state == NETBOOTING
    assert record.since == 2.0
    assert record.history == [(2.0, NETBOOTING)]


def test_reclaim_refused_from_free():
    _, pool = make_pool(node_count=1, p2p=False)
    with pytest.raises(LifecycleError):
        next(pool.reclaim(0))


def test_assign_and_release_guard_states():
    _, pool = make_pool(node_count=1, p2p=False)
    with pytest.raises(LifecycleError):
        pool.assign(0, object())  # node is free, not idle-ready
    with pytest.raises(LifecycleError):
        pool.release(0)


def test_deploy_walks_the_forward_path():
    testbed, pool = make_pool(node_count=1, p2p=False)
    env = testbed.env
    env.run(until=env.process(pool.deploy(0), name="deploy"))
    record = pool.nodes[0]
    assert record.state == READY
    assert [state for _, state in record.history] \
        == [FREE, NETBOOTING, DEPLOYING, READY]
    assert pool.time_to_ready and pool.time_to_ready[0] > 0.0
    assert pool.counts()[READY] == 1
    assert pool.idle_ready() == [record]


# -- demand models -------------------------------------------------------------

def windows(demand, tick, until):
    out = []
    t = 0.0
    while t < until:
        out.extend(demand.arrivals(t, t + tick))
        t += tick
    return out


def test_demand_is_deterministic_per_seed():
    first = windows(StepDemand(seed=7), 15.0, 3600.0)
    second = windows(StepDemand(seed=7), 15.0, 3600.0)
    assert [(r.arrived, r.hold) for r in first] \
        == [(r.arrived, r.hold) for r in second]
    different = windows(StepDemand(seed=8), 15.0, 3600.0)
    assert [(r.arrived, r.hold) for r in first] \
        != [(r.arrived, r.hold) for r in different]


def test_step_demand_rate_steps_up():
    demand = StepDemand(base=1 / 240.0, after=1 / 60.0, step_at=1800.0)
    before = [r for r in windows(demand, 15.0, 3600.0)
              if r.arrived < 1800.0]
    after = [r for r in windows(StepDemand(base=1 / 240.0,
                                           after=1 / 60.0,
                                           step_at=1800.0),
                                15.0, 3600.0)
             if r.arrived >= 1800.0]
    assert len(after) > 2 * len(before)


def test_flash_crowd_spikes_then_decays():
    demand = FlashCrowdDemand(base=1 / 240.0, factor=12.0,
                              spike_at=900.0, spike_seconds=600.0)
    assert demand.rate(0.0) == pytest.approx(1 / 240.0)
    assert demand.rate(900.0) == pytest.approx(12 / 240.0)
    assert demand.rate(900.0) > demand.rate(1500.0) > demand.rate(1e6)


def test_accumulator_carries_fractional_demand():
    demand = StepDemand(base=1 / 240.0, after=1 / 240.0, step_at=1e9)
    arrivals = windows(demand, 60.0, 960.0)  # 16 windows x 0.25 req
    assert len(arrivals) == 4


def test_trace_round_trip(tmp_path):
    path = tmp_path / "trace.json"
    original = windows(FlashCrowdDemand(seed=3), 15.0, 1800.0)
    dump_trace(original, path)
    loaded = load_trace(path)
    assert [(r.arrived, r.hold, r.deadline) for r in loaded] == [
        (pytest.approx(r.arrived, abs=1e-6),
         pytest.approx(r.hold, abs=1e-6), r.deadline)
        for r in original]
    replayed = windows(TraceDemand(loaded), 15.0, 1800.0)
    assert [r.arrived for r in replayed] \
        == [r.arrived for r in loaded]


def test_request_slo_accounting():
    request = windows(StepDemand(), 15.0, 3600.0)[0]
    assert request.time_to_ready is None
    assert not request.met_deadline
    request.ready = request.arrived + request.deadline + 1.0
    assert not request.met_deadline
    request.ready = request.arrived + 5.0
    assert request.met_deadline


# -- policies ------------------------------------------------------------------

def obs(now=0.0, queue=0, busy=0, idle=0, free=8, deploying=0,
        reclaiming=0, arrived=0, completed=0):
    return Observation(now=now, queue_depth=queue, busy=busy, idle=idle,
                       free=free, deploying=deploying,
                       reclaiming=reclaiming, arrived=arrived,
                       completed=completed)


def test_reactive_scales_up_per_queue_depth():
    policy = ReactivePolicy(queue_high=2, up_per=2)
    decision = policy.decide(obs(queue=5, busy=1, free=7))
    assert decision.target == 1 + 3  # ceil(5/2) extra
    assert "queue" in decision.reason


def test_reactive_up_capped_at_fleet_size():
    policy = ReactivePolicy(queue_high=2, up_per=1)
    decision = policy.decide(obs(queue=50, busy=2, idle=0, free=2))
    assert decision.target == 4  # total nodes


def test_reactive_shrinks_only_after_settle_and_cooldown():
    policy = ReactivePolicy(settle_ticks=3, cooldown=300.0, idle_low=2)
    quiet = dict(queue=0, busy=1, idle=3, free=4)
    assert policy.decide(obs(now=0.0, **quiet)).target == 4   # hold
    assert policy.decide(obs(now=15.0, **quiet)).target == 4  # hold
    shrink = policy.decide(obs(now=30.0, **quiet))
    assert shrink.target < 4
    assert shrink.target >= 2  # never below busy + 1
    # A second shrink is blocked by the cooldown even when calm.
    for tick in range(4):
        decision = policy.decide(obs(now=45.0 + 15 * tick, **quiet))
        assert decision.target == 4  # provisioned -> hold
    cooled = policy.decide(obs(now=400.0, **quiet))
    assert cooled.target < 4


def test_predictive_forecasts_from_rate_and_hold():
    policy = PredictivePolicy(window_ticks=4, margin=1.0, min_nodes=1)
    policy.note_hold(600.0)
    target = None
    for tick in range(4):
        decision = policy.decide(obs(now=tick * 100.0, arrived=1,
                                     busy=1, free=7))
        target = decision.target
    # 4 arrivals / 300 s x 600 s hold = 8 concurrent, capped at fleet.
    assert target == 8


def test_headroom_tracks_busy_plus_queue():
    policy = HeadroomPolicy(headroom=2)
    assert policy.decide(obs(busy=3, queue=1, free=6)).target == 6
    assert policy.decide(obs(busy=0, queue=0, free=8)).target == 2


# -- placement -----------------------------------------------------------------

def free_records(*indexes):
    return [NodeRecord(index=i, state=FREE) for i in indexes]


def test_round_robin_rotates_through_free_nodes():
    placement = RoundRobinPlacement()
    records = free_records(0, 1, 2)
    picks = [placement.choose(None, records, set()) for _ in range(4)]
    assert picks == [0, 1, 2, 0]


def test_cache_aware_prefers_warm_and_falls_back_cold():
    _, pool = make_pool(node_count=3, p2p=False)
    placement = CacheAwarePlacement()
    blocks = image_block_set(pool.testbed)
    records = pool.free_nodes()
    # All cold: wear-levels like round-robin.
    assert placement.choose(pool, records, blocks) == 0
    # Node 2 kept warm blocks from a preserve-reclaim: it wins.
    pool.nodes[2].warm_blocks = set(list(blocks)[:4])
    assert placement.choose(pool, records, blocks) == 2


def test_image_block_set_covers_the_image():
    testbed, _ = make_pool(node_count=1, p2p=True)
    blocks = image_block_set(testbed)
    assert blocks == set(range(len(blocks)))
    assert len(blocks) > 0


# -- per-target RTT isolation --------------------------------------------------

def test_rtt_estimators_do_not_leak_across_targets():
    client = AoeInitiator(Environment(), nic=None, server="origin")
    origin = client.estimator_for("origin")
    assert origin is client.rtt  # the primary-server estimator
    peer = client.estimator_for("peer-1")
    assert peer is not origin
    assert peer is client.estimator_for("peer-1")
    before = origin.rto
    for _ in range(16):
        peer.observe(1e-5)  # microsecond warm-peer replies
    assert origin.rto == before  # origin's RTO must not collapse
    assert peer.rto < before


# -- the controller loop -------------------------------------------------------

def test_controller_absorbs_a_flash_crowd():
    testbed, pool = make_pool(node_count=4, p2p=True)
    controller = ElasticController(
        pool, FlashCrowdDemand(spike_at=300.0, seed=20150314),
        ReactivePolicy(), CacheAwarePlacement(), tick=15.0)
    env = testbed.env
    env.run(until=env.process(controller.run(1500.0), name="ctl"))
    report = controller.report()
    assert report["requests"] > 0
    assert report["served"] >= 0.9 * report["requests"]
    assert report["scale_ups"] >= 1
    assert 0.0 <= report["slo_attainment"] <= 1.0
    assert report["fleet"]["nodes"] == 4
    assert controller.decisions  # the policy acted at least once
    assert report["wasted_node_seconds"] >= 0.0


def test_controller_give_up_abandons_stale_requests():
    testbed, pool = make_pool(node_count=1, p2p=False)
    # One node, heavy step demand, and no patience: most requests must
    # be abandoned rather than queued forever.
    controller = ElasticController(
        pool, StepDemand(base=1 / 30.0, after=1 / 30.0, step_at=0.0),
        ReactivePolicy(min_nodes=1), RoundRobinPlacement(),
        tick=15.0, give_up_after=60.0)
    env = testbed.env
    env.run(until=env.process(controller.run(900.0), name="ctl"))
    report = controller.report()
    assert report["abandoned"] > 0
    assert report["slo_attainment"] < 1.0


# -- CLI -----------------------------------------------------------------------

def test_cli_ctl_runs_a_control_loop(capsys):
    assert main(["ctl", "--nodes", "3", "--demand", "step",
                 "--duration", "900", "--image-gb", "0.03125",
                 "--p2p"]) == 0
    out = capsys.readouterr().out
    assert "fleet at end" in out
    assert "scale decisions" in out


def test_cli_ctl_demand_trace_round_trip(tmp_path, capsys):
    trace = tmp_path / "demand.json"
    assert main(["ctl", "--nodes", "2", "--demand", "flash-crowd",
                 "--duration", "1200", "--image-gb", "0.03125",
                 "--dump-demand", str(trace), "--replay-check"]) == 0
    first = capsys.readouterr().out
    assert trace.exists()
    assert main(["ctl", "--nodes", "2", "--demand-trace", str(trace),
                 "--duration", "1200", "--image-gb", "0.03125",
                 "--replay-check"]) == 0
    second = capsys.readouterr().out

    def decisions(text):
        lines = text.splitlines()
        start = lines.index("scale decisions:")
        return [line for line in lines[start:]
                if "demand trace written" not in line
                and not line.startswith("replay:")]

    def digest(text):
        return re.search(r"runs identical .*digest ([0-9a-f]{16})",
                         text).group(1)

    assert decisions(first) == decisions(second)
    # The trace run replays itself, not the synthetic flash crowd.
    assert digest(first) != digest(second)
