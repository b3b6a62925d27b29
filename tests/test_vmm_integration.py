"""Integration tests: BMcast deploying a guest end to end.

Small images keep these fast; the benchmarks use paper-scale ones.
"""

import pytest

from repro import params
from repro.cloud.scenario import build_testbed
from repro.guest.kernel import GuestOs
from repro.guest.osimage import OsImage
from repro.hw.cpu import VmxMode
from repro.storage.blockdev import BlockOp
from repro.vmm.bmcast import BmcastVmm
from repro.vmm.moderation import FULL_SPEED, ModerationPolicy

MB = 2**20
SECTORS_PER_MB = MB // params.SECTOR_BYTES


def small_image(size_mb=64, boot_mb=4):
    return OsImage(size_bytes=size_mb * MB,
                   boot_read_bytes=boot_mb * MB,
                   boot_think_seconds=2.0)


def make_deployment(controller="ahci", size_mb=64, policy=FULL_SPEED,
                    **testbed_kwargs):
    testbed = build_testbed(disk_controller=controller,
                            image=small_image(size_mb),
                            **testbed_kwargs)
    node = testbed.node
    vmm = BmcastVmm(testbed.env, node.machine, node.vmm_nic,
                    testbed.server_port,
                    image_sectors=testbed.image.total_sectors,
                    policy=policy)
    guest = GuestOs(node.machine, testbed.image)
    return testbed, vmm, guest


def deploy_and_boot(testbed, vmm, guest):
    env = testbed.env

    def scenario():
        yield from testbed.node.machine.power_on()
        yield from testbed.node.machine.firmware.network_boot()
        yield from vmm.boot()
        boot_seconds = yield from guest.boot()
        return boot_seconds

    return env.run(until=env.process(scenario()))


@pytest.mark.parametrize("controller", ["ide", "ahci", "megaraid"])
def test_guest_boots_on_empty_disk_via_copy_on_read(controller):
    testbed, vmm, guest = make_deployment(controller)
    boot_seconds = deploy_and_boot(testbed, vmm, guest)
    assert guest.booted
    assert boot_seconds > 0
    # Every boot read of the empty disk had to be redirected (or landed
    # on freshly copied blocks).
    assert vmm.mediator.redirected_reads > 0
    assert vmm.deployment.redirected_bytes > 0
    assert vmm.phase in ("deployment", "baremetal")


@pytest.mark.parametrize("controller", ["ide", "ahci", "megaraid"])
def test_boot_reads_return_image_data(controller):
    testbed, vmm, guest = make_deployment(controller)
    env = testbed.env
    results = {}

    def scenario():
        yield from testbed.node.machine.power_on()
        yield from testbed.node.machine.firmware.network_boot()
        yield from vmm.boot()
        buffer = yield from guest.read(100, 64)
        results["runs"] = buffer.runs

    env.run(until=env.process(scenario()))
    # The disk was empty; the data must match the image's tokens.
    assert results["runs"] == [(100, 164, (testbed.image.name, 0))]


@pytest.mark.parametrize("controller", ["ide", "ahci", "megaraid"])
def test_full_deployment_fills_disk_and_devirtualizes(controller):
    testbed, vmm, guest = make_deployment(controller, size_mb=32)
    env = testbed.env

    def scenario():
        yield from testbed.node.machine.power_on()
        yield from testbed.node.machine.firmware.network_boot()
        yield from vmm.boot()
        yield from guest.boot()
        yield vmm.copier.done

    env.run(until=env.process(scenario()))
    env.run(until=env.now + 5.0)  # let de-virtualization finish
    assert vmm.phase == "baremetal"
    assert vmm.bitmap.complete
    # The local disk now holds the image.
    assert testbed.image.verify_deployed(testbed.node.disk.contents,
                                         guest.written)
    # De-virtualization is total: no intercepts, VMX off, no nested
    # paging, bare-metal condition.
    machine = testbed.node.machine
    assert not machine.bus.has_intercepts
    for cpu in machine.cpus:
        assert cpu.mode is VmxMode.OFF
        assert not cpu.npt.enabled
    assert machine.condition.label == "bmcast-devirt"
    assert machine.condition.nested_paging is False


def test_guest_writes_during_deployment_preserved():
    """The paper's consistency race: guest writes must survive the
    background copy."""
    testbed, vmm, guest = make_deployment("ahci", size_mb=32)
    env = testbed.env
    write_lba = 5 * SECTORS_PER_MB + 17  # mid-block, partial

    def scenario():
        yield from testbed.node.machine.power_on()
        yield from testbed.node.machine.firmware.network_boot()
        yield from vmm.boot()
        # Write while the copier races over the same region.
        for i in range(20):
            yield from guest.write(write_lba + i * 64, 32, tag=f"w{i}")
        yield vmm.copier.done

    env.run(until=env.process(scenario()))
    env.run(until=env.now + 5.0)
    disk = testbed.node.disk.contents
    for i in range(20):
        token = disk.get(write_lba + i * 64)
        assert token is not None
        assert token[0] == guest.name  # guest data, not image data
    assert testbed.image.verify_deployed(disk, guest.written)


def test_full_block_guest_write_skips_copy():
    testbed, vmm, guest = make_deployment(
        "ahci", size_mb=32,
        policy=ModerationPolicy(write_interval=50e-3))
    env = testbed.env
    block_sectors = vmm.bitmap.block_sectors
    target_block = 20
    lba = target_block * block_sectors

    def scenario():
        yield from testbed.node.machine.power_on()
        yield from testbed.node.machine.firmware.network_boot()
        yield from vmm.boot()
        yield from guest.write(lba, block_sectors, tag="full-block")
        yield vmm.copier.done

    env.run(until=env.process(scenario()))
    env.run(until=env.now + 5.0)
    disk = testbed.node.disk.contents
    token = disk.get(lba + 100)
    assert token[0] == guest.name
    assert vmm.bitmap.complete


def test_write_run_skips_device_when_guest_overwrote_whole_run():
    # A claimed 2-block run whose blocks the guest fully overwrote
    # while they were being fetched: the copier must not even borrow
    # the device, let alone write stale image data.
    testbed, vmm, guest = make_deployment(
        "ahci", size_mb=32,
        policy=ModerationPolicy(write_interval=50e-3))
    env = testbed.env
    bitmap = vmm.bitmap
    block_sectors = bitmap.block_sectors
    first = bitmap.block_count - 3
    lba = first * block_sectors
    requests = []
    original = vmm.mediator.vmm_request

    def recording(request, revalidate=None):
        requests.append(request)
        return (yield from original(request, revalidate))

    def scenario():
        yield from testbed.node.machine.power_on()
        yield from testbed.node.machine.firmware.network_boot()
        yield from vmm.boot()
        # The paced copier is still far below these blocks.
        assert bitmap.claim_run(first, 2) == 2
        yield from guest.write(lba, 2 * block_sectors, tag="newest")
        vmm.mediator.vmm_request = recording
        yield from vmm.copier._write_run(
            first, 2, [(lba, lba + 2 * block_sectors, ("img", "stale"))])

    env.run(until=env.process(scenario()))
    assert requests == []
    assert bitmap.state(first).value == "filled"
    assert bitmap.state(first + 1).value == "filled"
    assert testbed.node.disk.contents.get(lba)[0] == guest.name


def test_write_run_commits_around_a_guest_fill_mid_run():
    # A coalesced 5-block run races the guest while in flight: the
    # guest fully overwrites the middle block and partly writes the
    # next.  The atomic check must keep every guest sector, land the
    # image everywhere else, and commit the two stretches around the
    # guest-filled block — notifying each committed block in order.
    # The paced copier's first own write is a minute away, so only this
    # run touches the blocks, the counters and the fill notifications.
    testbed, vmm, guest = make_deployment(
        "ahci", size_mb=32,
        policy=ModerationPolicy(guest_io_threshold=float("inf"),
                                write_interval=60.0))
    env = testbed.env
    bitmap = vmm.bitmap
    block_sectors = bitmap.block_sectors
    first = bitmap.block_count - 6
    lba = first * block_sectors
    count = 5 * block_sectors
    commits = []
    filled = []
    original_commit = bitmap.commit_fill_run

    def recording_commit(block, run_blocks):
        commits.append((block, run_blocks))
        original_commit(block, run_blocks)

    def scenario():
        yield from testbed.node.machine.power_on()
        yield from testbed.node.machine.firmware.network_boot()
        yield from vmm.boot()
        assert bitmap.claim_run(first, 5) == 5
        yield from guest.write(lba + 2 * block_sectors, block_sectors,
                               tag="full")
        yield from guest.write(lba + 3 * block_sectors + 100, 50,
                               tag="partial")
        bitmap.commit_fill_run = recording_commit
        vmm.deployment.block_filled_listeners.append(filled.append)
        before = vmm.copier.blocks_filled
        yield from vmm.copier._write_run(
            first, 5, list(testbed.image.contents.runs_in(lba, count)))
        return vmm.copier.blocks_filled - before

    newly_filled = env.run(until=env.process(scenario()))
    assert commits == [(first, 2), (first + 3, 2)]
    assert filled == [first, first + 1, first + 3, first + 4]
    assert newly_filled == 4
    for block in range(first, first + 5):
        assert bitmap.state(block).value == "filled"
    image_token = testbed.image.contents.get(lba)
    for start, end, token in testbed.node.disk.contents.runs_in(lba,
                                                                count):
        span = end - start
        if guest.written.covered_length(start, span) == span:
            assert token[0] == guest.name
        else:
            assert guest.written.covered_length(start, span) == 0
            assert token == image_token


def test_write_run_raises_when_its_claim_is_released_mid_write():
    # A claim released out from under an in-flight write is a protocol
    # bug, not the benign guest race: the commit must refuse loudly.
    testbed, vmm, guest = make_deployment(
        "ahci", size_mb=32,
        policy=ModerationPolicy(write_interval=50e-3))
    env = testbed.env
    bitmap = vmm.bitmap
    block_sectors = bitmap.block_sectors
    first = bitmap.block_count - 4
    lba = first * block_sectors
    count = 3 * block_sectors
    original = vmm.mediator.vmm_request

    def releasing(request, revalidate=None):
        result = yield from original(request, revalidate)
        bitmap.release_claim(first + 1)
        return result

    def scenario():
        yield from testbed.node.machine.power_on()
        yield from testbed.node.machine.firmware.network_boot()
        yield from vmm.boot()
        assert bitmap.claim_run(first, 3) == 3
        vmm.mediator.vmm_request = releasing
        with pytest.raises(RuntimeError,
                           match=f"copier lost its claim on block "
                                 f"{first + 1}"):
            yield from vmm.copier._write_run(
                first, 3, list(testbed.image.contents.runs_in(lba, count)))

    env.run(until=env.process(scenario()))


@pytest.mark.parametrize("controller", ["ide", "ahci", "megaraid"])
def test_multiplexing_queues_and_replays_guest_commands(controller):
    testbed, vmm, guest = make_deployment(controller, size_mb=64)
    env = testbed.env
    reads = []

    def guest_io():
        # Hammer the disk while the copier multiplexes its writes.
        for i in range(60):
            buffer = yield from guest.read(i * 128, 64)
            reads.append(buffer.runs)
            yield env.timeout(2e-3)

    def scenario():
        yield from testbed.node.machine.power_on()
        yield from testbed.node.machine.firmware.network_boot()
        yield from vmm.boot()
        yield from guest_io()
        yield vmm.copier.done

    env.run(until=env.process(scenario()))
    env.run(until=env.now + 5.0)
    assert vmm.mediator.multiplexed_requests > 0
    # Every read must have produced correct image data regardless of
    # queueing/replay.
    for runs in reads:
        for start, end, token in runs:
            assert token == (testbed.image.name, 0)
    assert testbed.image.verify_deployed(testbed.node.disk.contents,
                                         guest.written)


def test_interrupts_from_vmm_requests_hidden_from_guest():
    testbed, vmm, guest = make_deployment("ahci", size_mb=16)
    env = testbed.env
    machine = testbed.node.machine

    def scenario():
        yield from machine.power_on()
        yield from machine.firmware.network_boot()
        yield from vmm.boot()
        yield vmm.copier.done

    env.run(until=env.process(scenario()))
    env.run(until=env.now + 5.0)
    # The copier multiplexed many requests, yet none of their
    # completions ever reached the guest: the AHCI mediator silences the
    # port (PxIE) so the HBA does not even assert the line, and nothing
    # is left pending to fire later.
    line = vmm.mediator.irq_line
    assert vmm.mediator.multiplexed_requests > 0
    assert machine.interrupts.delivered[line] == 0
    assert not machine.interrupts.is_pending(line)


def test_deployment_summary_reports():
    testbed, vmm, guest = make_deployment("ahci", size_mb=16)
    env = testbed.env

    def scenario():
        yield from testbed.node.machine.power_on()
        yield from testbed.node.machine.firmware.network_boot()
        yield from vmm.boot()
        yield from guest.boot()
        yield vmm.copier.done

    env.run(until=env.process(scenario()))
    env.run(until=env.now + 5.0)
    summary = vmm.summary()
    assert summary["phase"] == "baremetal"
    assert summary["blocks_filled"] > 0
    assert summary["interpreted_commands"] > 0
    assert summary["total_vm_exits"] > 0
    assert summary["deployment_seconds"] > 0


@pytest.mark.parametrize("controller", ["ide", "ahci", "megaraid"])
def test_protected_bitmap_region_invisible_to_guest(controller):
    testbed, vmm, guest = make_deployment(controller, size_mb=16)
    env = testbed.env
    protected = vmm.deployment.protected_lba
    results = {}

    def scenario():
        yield from testbed.node.machine.power_on()
        yield from testbed.node.machine.firmware.network_boot()
        yield from vmm.boot()
        # Guest tries to read and write the VMM's bitmap region.
        yield from guest.write(protected, 8, tag="attack")
        buffer = yield from guest.read(protected, 8)
        results["runs"] = buffer.runs

    env.run(until=env.process(scenario()))
    # The write was dropped, the read returned dummy data.
    assert testbed.node.disk.contents.get(protected) is None
    assert results["runs"] == [(protected, protected + 8, None)]


@pytest.mark.parametrize("controller", ["ide", "ahci", "megaraid"])
def test_queued_protected_access_is_protected_on_replay(controller):
    """A protected access absorbed while the VMM owns the device is
    re-routed at replay: the write is dropped, the read returns dummy
    data, exactly as for one that arrives while the device is free."""
    testbed, vmm, guest = make_deployment(controller, size_mb=64)
    env = testbed.env
    protected = vmm.deployment.protected_lba
    reads = []

    def scenario():
        yield from testbed.node.machine.power_on()
        yield from testbed.node.machine.firmware.network_boot()
        yield from vmm.boot()
        for _ in range(60):
            yield from guest.write(protected, 8, tag="attack")
            buffer = yield from guest.read(protected, 8)
            reads.append(buffer.runs)
            yield env.timeout(0.002)
        yield vmm.copier.done

    env.run(until=env.process(scenario()))
    assert vmm.mediator.queued_guest_commands > 0
    assert testbed.node.disk.contents.get(protected) is None
    assert reads == [[(protected, protected + 8, None)]] * 60


def test_classify_routes_each_kind_of_guest_command():
    """The routing table of :meth:`DeviceMediator.classify`, on a booted
    deployment whose first block is filled and whose last is empty."""
    from repro.storage.blockdev import BlockRequest
    from repro.vmm.mediator import MediatorMode

    testbed, vmm, _ = make_deployment("ahci", size_mb=16)
    env = testbed.env

    def scenario():
        yield from testbed.node.machine.power_on()
        yield from testbed.node.machine.firmware.network_boot()
        yield from vmm.boot()

    env.run(until=env.process(scenario()))
    mediator = vmm.mediator
    deployment = vmm.deployment
    bitmap = deployment.bitmap
    bitmap.try_claim(0)
    bitmap.commit_fill_run(0, 1)
    empty_lba, write_lba, queued_lba = (
        (bitmap.block_count - back) * bitmap.block_sectors
        for back in (1, 2, 3))
    for lba in (empty_lba, write_lba, queued_lba):
        assert not bitmap.sectors_local(lba, 8)
    protected = deployment.protected_lba
    beyond = max(bitmap.image_sectors,
                 protected + deployment.protected_sectors) + 64

    def request(op, lba):
        return BlockRequest(op, lba, 8)

    table = [
        (request(BlockOp.READ, protected), "protect"),
        (request(BlockOp.WRITE, protected), "protect"),
        (request(BlockOp.WRITE, write_lba), "pass"),
        (request(BlockOp.READ, beyond), "pass"),
        (request(BlockOp.READ, 0), "pass"),
        (request(BlockOp.READ, empty_lba), "redirect"),
        (None, "pass"),  # a non-data command
    ]
    for command, expected in table:
        assert mediator.classify(command) == expected, (command, expected)

    mediator.mode = MediatorMode.VMM_OWNED
    for command, _ in table:
        assert mediator.classify(command) == "queue", command
    queued_write = request(BlockOp.WRITE, queued_lba)
    assert mediator.route(queued_write) == "pass"
    assert not bitmap.sectors_local(queued_lba, 8)  # route records nothing
    assert mediator.classify(queued_write) == "queue"
    mediator.mode = MediatorMode.PASSTHROUGH
    # The queued write is recorded before it reaches the disk, so the
    # background copy already leaves its sectors alone.
    assert bitmap.sectors_local(queued_lba, 8)


def test_phase_log_is_ordered():
    testbed, vmm, guest = make_deployment("ahci", size_mb=16)
    env = testbed.env

    def scenario():
        yield from testbed.node.machine.power_on()
        yield from testbed.node.machine.firmware.network_boot()
        yield from vmm.boot()
        yield vmm.copier.done

    env.run(until=env.process(scenario()))
    env.run(until=env.now + 5.0)
    phases = [phase for _, phase in vmm.phase_log]
    assert phases == ["off", "initialization", "deployment",
                      "devirtualization", "baremetal"]
    stamps = [stamp for stamp, _ in vmm.phase_log]
    assert stamps == sorted(stamps)


def test_guest_io_pass_through_after_devirt_is_free_of_exits():
    testbed, vmm, guest = make_deployment("ahci", size_mb=16)
    env = testbed.env
    machine = testbed.node.machine
    counters = {}

    def scenario():
        yield from machine.power_on()
        yield from machine.firmware.network_boot()
        yield from vmm.boot()
        yield vmm.copier.done
        yield env.timeout(5.0)
        counters["exits_before"] = machine.total_vm_exits()
        for i in range(20):
            yield from guest.read(i * 64, 64)
        counters["exits_after"] = machine.total_vm_exits()

    env.run(until=env.process(scenario()))
    assert vmm.phase == "baremetal"
    assert counters["exits_after"] == counters["exits_before"]
