"""Poll elision: ``Environment.poll_until`` skips the ticks that find
nothing, and nothing the simulated cloud does may change because of it.

The reference below is the loop every routed call site used to be:
one popped timeout per tick.  Patching it over ``Environment.poll_until``
turns the elision off, so each scenario runs twice, elided and per tick,
and must end with the same outcome digest (disk contents, bitmaps, phase
logs, timings, counters) with every runtime sanitizer clean.
"""

import contextlib

import pytest

from repro.analysis import ReplayRecorder, SanitizerSuite, check_replay
from repro.cloud import Cluster, WaveScheduler, build_testbed
from repro.ctl import (DEMANDS, PLACEMENTS, POLICIES, ElasticController,
                       NodePool)
from repro.guest.osimage import OsImage
from repro.sim import Environment, Signal
from repro.vmm.moderation import FULL_SPEED

MB = 2**20


def per_tick_poll_until(self, done, period, wake):
    """Reference: pop every tick, ignore the wake."""
    while not done():
        yield self.timeout(period)


@contextlib.contextmanager
def polled_every_tick():
    elided = Environment.poll_until
    Environment.poll_until = per_tick_poll_until
    try:
        yield
    finally:
        Environment.poll_until = elided


def _image(mb=16):
    return OsImage(size_bytes=mb * MB, boot_read_bytes=1 * MB,
                   boot_think_seconds=0.2)


def deploy_scenario(disk_controller="ahci", node_count=1, wave_size=None,
                    p2p=False, server_count=1, policy=None,
                    guest_writes=0, fast_lane=True):
    """A sanitized deployment for :func:`check_replay`.

    ``guest_writes`` whole-block and partial writes are issued from the
    first instance while the background copy still runs.
    """

    def scenario(recorder):
        env = Environment(fast_lane=fast_lane)
        testbed = build_testbed(node_count=node_count,
                                disk_controller=disk_controller,
                                server_count=server_count, p2p=p2p,
                                image=_image(), env=env)
        recorder.attach(env)
        suite = SanitizerSuite(env)
        cluster = Cluster(testbed)
        options = {"policy": policy, "sanitizers": suite}

        def run():
            if wave_size is None:
                yield from cluster.deploy_all("bmcast", **options)
            else:
                yield from WaveScheduler(
                    cluster, wave_size=wave_size).run("bmcast", **options)
            instance = cluster.instances[0]
            for index in range(guest_writes):
                # Alternate a whole 1 MiB block with a partial write.
                count = 2048 if index % 2 else 24
                yield from instance.write(index * 3 * 2048, count)
                yield env.timeout(2e-3)
            yield from cluster.wait_deployment_complete(settle_seconds=1.0)

        env.run(until=env.process(run()))
        recorder.record_outcome(testbed)
        suite.finalize()
        scenario.suites.append(suite)

    scenario.suites = []
    return scenario


def ctl_scenario():
    """A short sanitized autoscaling loop: deploys, reclaims, resumes."""

    def scenario(recorder):
        env = Environment()
        testbed = build_testbed(node_count=3, p2p=True,
                                image=_image(), env=env)
        recorder.attach(env)
        suite = SanitizerSuite(env)
        pool = NodePool(testbed, vmxoff_mode="resident",
                        deploy_options={"sanitizers": suite})
        controller = ElasticController(
            pool, DEMANDS["flash-crowd"](seed=20150314),
            POLICIES["reactive"](), PLACEMENTS["cache-aware"](), tick=15.0)
        env.run(until=env.process(controller.run(900.0), name="ctl-loop"))
        recorder.record_outcome(testbed, controller)
        suite.finalize()
        scenario.suites.append(suite)

    scenario.suites = []
    return scenario


def _run_once(scenario):
    recorder = ReplayRecorder()
    scenario(recorder)
    return recorder


def assert_elision_changes_nothing(make_scenario):
    elided = make_scenario()
    fast = _run_once(elided)
    reference = make_scenario()
    with polled_every_tick():
        slow = _run_once(reference)
    assert fast.outcome == slow.outcome
    for suite in elided.suites + reference.suites:
        suite.assert_clean()
    # The elision must actually have skipped ticks.
    assert fast.events < slow.events


@pytest.mark.parametrize("disk_controller", ["ahci", "ide", "megaraid"])
def test_moderated_deploy_matches_per_tick_polling(disk_controller):
    assert_elision_changes_nothing(
        lambda: deploy_scenario(disk_controller=disk_controller))


def test_deploy_with_guest_writes_matches_per_tick_polling():
    assert_elision_changes_nothing(
        lambda: deploy_scenario(guest_writes=12))


def test_p2p_scaleout_matches_per_tick_polling():
    assert_elision_changes_nothing(
        lambda: deploy_scenario(node_count=3, wave_size=2, p2p=True,
                                server_count=2, policy=FULL_SPEED))


def test_ctl_loop_matches_per_tick_polling():
    assert_elision_changes_nothing(ctl_scenario)


def test_elided_polls_pop_the_same_stream_on_both_schedulers():
    def scenario(fast_lane):
        return deploy_scenario(guest_writes=12, fast_lane=fast_lane)

    fast_lane = check_replay(scenario(True))
    reference = check_replay(scenario(False))
    assert fast_lane.digests[0] == reference.digests[0]
    assert fast_lane.outcomes[0] == reference.outcomes[0]


# -- the helper itself ----------------------------------------------------------

def _resume_time(poll_until, period, done_at, early_wake=None,
                 wake=True):
    """``(time, events)``: when a poller started at 0 sees ``done`` turn
    true at ``done_at``.  Its wake fires at ``done_at`` and, when given,
    also at ``early_wake``; ``wake=False`` gives it no wake source."""
    env = Environment()
    state = {"done": False}
    signal = Signal(env)
    seen = []

    def flip():
        if early_wake is not None:
            yield env.timeout(early_wake)
            signal.notify()
        yield env.timeout(done_at - env.now)
        state["done"] = True
        signal.notify()

    def poller():
        yield from poll_until(env, lambda: state["done"], period,
                              signal.event if wake else lambda: None)
        seen.append(env.now)

    env.process(flip())
    env.run(until=env.process(poller()))
    return seen[0], env.events_processed


def test_poll_until_lands_on_the_per_tick_grid():
    # Ten additions of 0.1 give 0.9999999999999999, not 1.0: the elided
    # poll must wake on the accumulated tick, not on k * period.
    elided, elided_events = _resume_time(Environment.poll_until, 0.1, 0.95)
    polled, polled_events = _resume_time(per_tick_poll_until, 0.1, 0.95)
    tick = 0.0
    while tick < 0.95:
        tick += 0.1
    assert elided == polled == tick != 1.0
    assert elided_events < polled_events


def test_poll_until_early_wake_and_no_wake_are_exact():
    polled, _ = _resume_time(per_tick_poll_until, 1e-3, 0.5)
    assert _resume_time(Environment.poll_until, 1e-3, 0.5,
                        early_wake=0.2)[0] == polled
    assert _resume_time(Environment.poll_until, 1e-3, 0.5,
                        wake=False)[0] == polled


def test_timeout_at_fires_at_the_absolute_time():
    env = Environment()
    env.run(until=0.3)
    at = 0.3 + 0.1 + 0.1 + 0.1
    timeout = env.timeout_at(at)
    env.run(until=timeout)
    assert env.now == at
    with pytest.raises(ValueError):
        env.timeout_at(at - 0.1)
