"""Replay-divergence checker: identical runs hash identically, and
cross-run shared state (the bug class it exists for) is caught."""

import pytest

from repro.analysis import (ReplayRecorder, ReplayReport, check_replay,
                            deployment_scenario)
from repro.guest.osimage import OsImage
from repro.sim import Environment

MB = 2**20


def _image():
    return OsImage(size_bytes=8 * MB, boot_read_bytes=1 * MB,
                   boot_think_seconds=0.2)


def test_deterministic_deployment_replays_identically():
    scenario = deployment_scenario(_image)
    report = check_replay(scenario, runs=2)
    assert not report.divergent
    assert report.event_counts[0] == report.event_counts[1]
    assert report.event_counts[0] > 0
    assert "identical" in report.describe()


def test_scaleout_scenario_replays_identically():
    # The full elasticity path: waves, replica selection, p2p serving.
    scenario = deployment_scenario(_image, node_count=3, server_count=2,
                                   p2p=True, wave_size=2)
    report = check_replay(scenario, runs=2)
    assert not report.divergent, report.describe()


def test_cross_run_shared_state_detected():
    shared = {"runs": 0}

    def scenario(recorder):
        env = Environment()
        recorder.attach(env)
        shared["runs"] += 1  # the bug: state leaking across runs

        def process():
            yield env.timeout(0.1 * shared["runs"])

        env.run(until=env.process(process()))

    report = check_replay(scenario, runs=2)
    assert report.divergent
    assert "DIVERGENT" in report.describe()


def test_recorder_refuses_double_attach():
    env = Environment()
    ReplayRecorder().attach(env)
    with pytest.raises(RuntimeError):
        ReplayRecorder().attach(env)


def test_check_replay_needs_two_runs():
    with pytest.raises(ValueError):
        check_replay(lambda recorder: None, runs=1)


def test_trace_hook_sees_every_popped_event():
    env = Environment()
    recorder = ReplayRecorder().attach(env)

    def process():
        yield env.timeout(1.0)
        yield env.timeout(2.0)

    env.run(until=env.process(process()))
    assert recorder.events == env.events_processed
    assert recorder.events > 0


def test_outcome_digest_is_recorded_and_printed():
    report = check_replay(deployment_scenario(_image), runs=2)
    outcome = report.outcomes[0]
    assert outcome is not None and outcome == report.outcomes[1]
    assert f"outcome {outcome[:16]}" in report.describe()


def test_outcome_digest_tracks_results_not_events():
    plain = check_replay(deployment_scenario(_image), runs=2)
    # The reference scheduler pops the same stream: same outcome.
    reference = check_replay(deployment_scenario(_image, fast_lane=False),
                             runs=2)
    assert reference.outcomes[0] == plain.outcomes[0]
    # A different image is a different result.
    other = check_replay(deployment_scenario(
        lambda: OsImage(size_bytes=8 * MB, boot_read_bytes=1 * MB,
                        boot_think_seconds=0.2, seed=7)), runs=2)
    assert other.outcomes[0] != plain.outcomes[0]


def test_outcome_mismatch_alone_is_divergence():
    report = ReplayReport(("a" * 32, "a" * 32), (5, 5),
                          ("b" * 32, "c" * 32))
    assert report.divergent
    assert "outcome cccccccccccccccc" in report.describe()
