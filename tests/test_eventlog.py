"""The VMM's lifecycle events, as recorded by repro.obs.

Phases, redirected reads and copy progress each have one recorder:
``phase:*`` spans plus ``vmm.phase_log``, ``mediated-read`` spans plus
``mediator_redirected_reads_total``, and ``copy_progress_ratio``.
"""

from repro.cloud.provisioner import Provisioner
from repro.cloud.scenario import build_testbed
from repro.guest.osimage import OsImage
from repro.obs import Telemetry
from repro.sim import Environment
from repro.vmm.moderation import FULL_SPEED

MB = 2**20


def deploy():
    env = Environment()
    image = OsImage(size_bytes=16 * MB, boot_read_bytes=1 * MB,
                    boot_think_seconds=0.2)
    testbed = build_testbed(image=image, env=env,
                            telemetry=Telemetry(env))
    provisioner = Provisioner(testbed)

    def scenario():
        instance = yield from provisioner.deploy(
            "bmcast", skip_firmware=True, policy=FULL_SPEED)
        yield instance.platform.copier.done
        return instance

    instance = env.run(until=env.process(scenario()))
    env.run(until=env.now + 5.0)
    return instance.platform


def test_vmm_trace_captures_lifecycle():
    vmm = deploy()
    telemetry = vmm.telemetry
    spans = [span.name for span in telemetry.tracer.walk()]
    assert "mediated-read" in spans
    redirected = telemetry.registry.counter(
        "mediator_redirected_reads_total",
        controller=vmm.mediator.controller_kind)
    assert redirected.value > 0
    phases = [phase for _, phase in vmm.phase_log]
    assert phases == ["off", "initialization", "deployment",
                      "devirtualization", "baremetal"]
    assert [name for name in spans if name.startswith("phase:")][-1] \
        == "phase:baremetal"
    assert telemetry.registry.gauge("copy_progress_ratio").value == 1.0
    assert len(telemetry.registry.series(
        "copy_throughput_bytes_per_second", unit="B/s")) > 0
