"""Tests for the command-line interface."""

import re

import pytest

from repro.analysis import check_replay, deployment_scenario
from repro.cli import _image, main
from repro.vmm.moderation import FULL_SPEED


def test_info(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "PRIMERGY" in out
    assert "116.6" in out


def test_deploy_bmcast(capsys):
    assert main(["deploy", "--method", "bmcast", "--image-gb", "0.25"]) \
        == 0
    out = capsys.readouterr().out
    assert "instance ready after" in out
    assert "VMM boot" in out


def test_deploy_wait_reaches_baremetal(capsys):
    assert main(["deploy", "--method", "bmcast", "--image-gb", "0.125",
                 "--wait"]) == 0
    out = capsys.readouterr().out
    assert "phase=baremetal" in out
    assert "blocks_filled" in out


def test_deploy_with_prefetch(capsys):
    assert main(["deploy", "--method", "bmcast", "--image-gb", "0.25",
                 "--prefetch"]) == 0
    out = capsys.readouterr().out
    assert "instance ready after" in out


def test_deploy_baremetal_cold(capsys):
    assert main(["deploy", "--method", "baremetal", "--image-gb", "0.125",
                 "--cold"]) == 0
    out = capsys.readouterr().out
    assert "firmware init 133s" in out


def test_deploy_other_controllers(capsys):
    for controller in ("ide", "megaraid"):
        assert main(["deploy", "--method", "bmcast",
                     "--image-gb", "0.125",
                     "--controller", controller]) == 0


def test_compare(capsys):
    assert main(["compare", "--image-gb", "0.25"]) == 0
    out = capsys.readouterr().out
    for method in ("bmcast", "image-copy", "network-boot", "kvm-nfs"):
        assert method in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_unknown_method_rejected():
    with pytest.raises(SystemExit):
        main(["deploy", "--method", "smoke-signals"])


def test_lint_command_clean_tree(capsys):
    assert main(["lint"]) == 0
    out = capsys.readouterr().out
    assert "clean" in out


def test_lint_command_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "SIM001" in out and "SIM006" in out


def test_lint_command_flags_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import time\nSTART = time.time()\n")
    assert main(["lint", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "SIM001" in out


def test_deploy_sanitized(capsys):
    assert main(["deploy", "--method", "bmcast", "--image-gb", "0.125",
                 "--wait", "--sanitize"]) == 0
    out = capsys.readouterr().out
    assert "sanitizers: clean" in out


def _digest(out: str) -> str:
    return re.search(r"digest ([0-9a-f]{16})", out).group(1)


def test_deploy_replay_check(capsys):
    assert main(["deploy", "--method", "bmcast", "--image-gb", "0.0625",
                 "--replay-check"]) == 0
    out = capsys.readouterr().out
    assert "runs identical" in out
    assert re.search(r"outcome [0-9a-f]{16}", out)
    plain = _digest(out)
    # The replay is the command's own run, so every option that changes
    # the run changes the digest.
    for option in (["--method", "image-copy"], ["--controller", "ide"],
                   ["--cold"]):
        assert main(["deploy", "--image-gb", "0.0625", "--replay-check",
                     *option]) == 0
        out = capsys.readouterr().out
        assert "runs identical" in out
        assert _digest(out) != plain, option
    # The replay must run the deployment that was checked: a fluid
    # full-speed deploy is replayed as one, not as a moderated packet
    # deploy.
    assert main(["deploy", "--method", "bmcast", "--image-gb", "0.0625",
                 "--fluid", "--full-speed", "--replay-check"]) == 0
    out = capsys.readouterr().out
    assert "fluid mode: active" in out
    expected = check_replay(deployment_scenario(
        lambda: _image(0.0625), policy=FULL_SPEED, wait=False,
        deploy_options={"fluid": True}))
    assert f"digest {expected.digests[0][:16]}" in out
    # Sanitizers keep a fluid deploy fluid and leave its events alone:
    # the sanitized run has the unsanitized run's digest.
    assert main(["deploy", "--image-gb", "0.0625", "--fluid",
                 "--full-speed", "--wait", "--sanitize",
                 "--replay-check"]) == 0
    out = capsys.readouterr().out
    assert "fluid mode: active" in out
    assert "sanitizers: clean" in out
    assert "digest f31adc9f3af7aa6a" in out
    # What the run did is pinned apart from how many events it took.
    assert "outcome 108b81c6e7300956" in out
    # Each disk controller's mediator is pinned the same way.
    for controller, digest, outcome in (
            ("ahci", "5d6661b767ade2e6", "1dda4c3493e2a697"),
            ("ide", "86b6fce91aea304e", "5af50f1d746a9051"),
            ("megaraid", "f4c0c4534a372b79", "c76e0bf4fa5e590e")):
        assert main(["deploy", "--method", "bmcast", "--image-gb", "0.0625",
                     "--controller", controller, "--wait",
                     "--replay-check"]) == 0
        out = capsys.readouterr().out
        assert f"digest {digest}" in out, controller
        assert f"outcome {outcome}" in out, controller


def test_scaleout_sanitized(capsys):
    assert main(["scaleout", "--nodes", "2", "--wave-size", "2",
                 "--image-gb", "0.0625", "--p2p", "--wait",
                 "--sanitize"]) == 0
    out = capsys.readouterr().out
    assert "sanitizers: clean" in out


def test_single_wave_scaleout_survives_redirect_fetch_timeouts(capsys):
    # Sixteen nodes booting at once overrun the AoE retry budget on some
    # guest boot reads.  The redirect must back off and retry, as the
    # copier does, instead of ending the simulation.
    assert main(["scaleout", "--nodes", "16", "--wave-size", "16",
                 "--image-gb", "0.0625", "--full-speed", "--wait"]) == 0
    assert "fleet ready in" in capsys.readouterr().out
