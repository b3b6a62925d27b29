"""Negative control: disabling the bitmap's atomic check loses writes.

DESIGN.md item 5.4 — the paper's consistency mechanism (3.3) is not
decorative.  This test builds a copier whose block writes skip the
at-ownership revalidation (writing exactly what was fetched), drives the
same racing workload the property tests use, and shows a guest write
being overwritten by stale image data — the bug the real design
prevents.
"""

import pytest

from repro.cloud.scenario import build_testbed
from repro.guest.kernel import GuestOs
from repro.guest.osimage import OsImage
from repro.storage.blockdev import BlockOp, BlockRequest
from repro.vmm import copier as copier_module
from repro.vmm.bmcast import BmcastVmm
from repro.vmm.moderation import FULL_SPEED

MB = 2**20


class UncheckedCopier(copier_module.BackgroundCopier):
    """A copier with the paper's atomic check ripped out."""

    def _write_run(self, first_block, block_count, runs):
        bitmap = self.deployment.bitmap
        start = first_block * bitmap.block_sectors
        count = min(block_count * bitmap.block_sectors,
                    bitmap.image_sectors - start)
        request = BlockRequest(BlockOp.WRITE, start, count, origin="vmm")
        request.buffer.runs = list(runs)
        # No revalidate: whatever was fetched gets written, even over
        # sectors the guest has written since.
        yield from self.mediator.vmm_request(request)
        for block in range(first_block, first_block + block_count):
            try:
                bitmap.commit_fill(block)
                self.blocks_filled += 1
            except ValueError:
                pass


def run_race(copier_cls):
    image = OsImage(size_bytes=24 * MB, boot_read_bytes=1 * MB,
                    boot_think_seconds=0.2)
    testbed = build_testbed(image=image)
    node = testbed.node
    env = testbed.env
    vmm = BmcastVmm(env, node.machine, node.vmm_nic, testbed.server_port,
                    image_sectors=image.total_sectors, policy=FULL_SPEED)
    if copier_cls is not copier_module.BackgroundCopier:
        # Swap in the broken copier before anything starts.
        vmm.copier = copier_cls(env, vmm.deployment, vmm.mediator,
                                policy=FULL_SPEED)
    guest = GuestOs(node.machine, image)
    writes = {}

    def scenario():
        yield from node.machine.power_on()
        yield from node.machine.firmware.network_boot()
        yield from vmm.boot()
        # Race writes against the full-speed copy across many blocks.
        for index in range(24):
            lba = index * 2048 + 7  # mid-block, partial
            token = ("race", index)
            yield from guest.driver.write(lba, 16, token)
            guest.written.set_range(lba, 16, True)
            writes[lba] = token
            yield env.timeout(5e-3)
        yield vmm.copier.done

    env.run(until=env.process(scenario()))
    env.run(until=env.now + 5.0)
    disk = node.disk.contents
    lost = [lba for lba, token in writes.items()
            if disk.get(lba) != token]
    return lost


def test_atomic_check_prevents_lost_writes():
    assert run_race(copier_module.BackgroundCopier) == []


def test_disabling_atomic_check_loses_writes():
    lost = run_race(UncheckedCopier)
    assert lost, ("expected the unchecked copier to overwrite at least "
                  "one racing guest write — if this starts passing, the "
                  "race window moved and the ablation needs a rethink")
